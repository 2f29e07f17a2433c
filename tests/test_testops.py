
import numpy as np
import pytest
from conftest import (acceptance_probability, all_weyl, eigen_hermitian,
                      frobenius_distance, invariant_test_double,
                      invariant_test_single, max_entangled, paired_vectors,
                      permute_subsystems, random_ket, realized_test,
                      state_with_min_eigenvalue)

from entverify.clifford import (clifford_povm, clifford_representatives,
                                coset_povm, enumerate_clifford)
from entverify.jsonio import dump_povm
from entverify.linalg import numerical_rank
from entverify.mub import mub_povm, mub_prime
from entverify.sic import (FiducialSearchConfig, known_fiducial,
                           search_fiducial, weyl_orbit)
from entverify import testops
from entverify.protocol import (double_isotropic_state, isotropic_state,
                                outcome_distribution)
from entverify.testops import (CompletenessError, RankOnePovm,
                               bell_certificate, bell_spectrum, fourier_matrix,
                               weyl_covariance, weyl_overlaps, weyl_traces)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def spectrum_within_unit(op, tol: float) -> bool:
    vals = np.linalg.eigvalsh(op.matrix)
    return bool(vals[0] >= -tol and vals[-1] <= 1 + tol)


def test_max_entangled_d2():
    assert np.allclose(max_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_d3():
    v = max_entangled(3)
    assert np.allclose(v[[0, 4, 8]], 1 / np.sqrt(3))
    assert np.count_nonzero(v) == 3


@pytest.mark.parametrize("d", range(2, 9))
def test_max_entangled_normalized(d):
    assert abs(np.linalg.norm(max_entangled(d)) - 1) < 1e-12


def test_max_entangled_rejects_small_d():
    with pytest.raises(ValueError):
        max_entangled(1)


def test_invariant_single_spectrum_d2():
    vals, vecs = eigen_hermitian(invariant_test_single(2).matrix)
    assert np.allclose(vals, [1, 1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(vecs[:, 0] * np.sign(vecs[0, 0].real), max_entangled(2))


@pytest.mark.parametrize("d", range(2, 9))
def test_invariant_single_trace(d):
    # 1 + (d^2-1)/(d+1) = d
    assert abs(np.trace(invariant_test_single(d).matrix).real - d) < 1e-10


def test_invariant_single_top_eigenvector():
    phi = max_entangled(2)
    t = invariant_test_single(2).matrix
    assert abs(phi.conj() @ t @ phi - 1) < 1e-12


@pytest.mark.parametrize("d", range(2, 7))
def test_invariant_single_psd_bounded_and_rank(d):
    op = invariant_test_single(d)
    assert spectrum_within_unit(op, 1e-10)
    assert numerical_rank(op.matrix) == d * d


def test_invariant_double_spectrum_d2():
    # projector structure: 1 once, 1/(d^2-1)=1/3 nine times, zero six times
    vals = np.sort(np.linalg.eigvalsh(invariant_test_double(2).matrix))[::-1]
    assert np.allclose(vals[:1], 1)
    assert np.allclose(vals[1:10], 1 / 3)
    assert np.allclose(vals[10:], 0, atol=1e-12)


@pytest.mark.parametrize("d", (2, 3))
def test_invariant_double_trace_and_bounds(d):
    op = invariant_test_double(d)
    assert abs(np.trace(op.matrix).real - d * d) < 1e-9
    assert spectrum_within_unit(op, 1e-10)


@pytest.mark.parametrize("d", (2, 3))
def test_invariant_double_top_eigenvector(d):
    # the product of the two pair states is, in canonical order, the
    # maximally entangled state of the composite d^2-dimensional system
    phi = max_entangled(d * d)
    t = invariant_test_double(d).matrix
    assert abs(phi.conj() @ t @ phi - 1) < 1e-12


def test_realized_test_single_term():
    m = RankOnePovm(2, np.array([1.0]), np.array([[1, 0]], dtype=complex),
                    check_completeness=False)
    t = realized_test(m, require_complete=False)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    assert np.allclose(t.matrix, expected)


def test_realized_test_sic_matches_invariant():
    m = weyl_orbit(known_fiducial(2))
    t = realized_test(m)
    assert frobenius_distance(t.matrix, invariant_test_single(2).matrix) < 1e-10


def test_realized_test_trace_is_weight_sum():
    m = mub_povm(mub_prime(3))
    t = realized_test(m)
    assert abs(np.trace(t.matrix).real - m.weights.sum()) < 1e-10
    assert abs(m.weights.sum() - 3) < 1e-12


def test_realized_test_incomplete_raises_with_defect():
    m = RankOnePovm(2, np.array([1.0]), np.array([[1, 0]], dtype=complex),
                    check_completeness=False)
    with pytest.raises(CompletenessError) as exc:
        realized_test(m)
    assert exc.value.defect == pytest.approx(1.0)


def test_realized_test_phase_invariance(rng):
    m = weyl_orbit(known_fiducial(2))
    t = realized_test(m).matrix
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, m.n_elements))
    m2 = RankOnePovm(2, m.weights, m.vectors * phases[:, None])
    assert np.max(np.abs(realized_test(m2).matrix - t)) < 1e-12


def test_povm_constructor_rejects_incomplete():
    with pytest.raises(CompletenessError):
        RankOnePovm(2, np.array([1.0]), np.array([[1, 0]], dtype=complex))


def test_povm_constructor_rejects_unnormalized():
    with pytest.raises(ValueError):
        RankOnePovm(2, np.array([1.0, 1.0]),
                    np.array([[2, 0], [0, 1]], dtype=complex),
                    check_completeness=False)


@pytest.mark.parametrize("k", (0, -9, 1.5, "9", None))
def test_povm_constructor_rejects_a_bad_outcome_count(k):
    with pytest.raises(ValueError, match="outcomes_per_row must be a positive integer"):
        RankOnePovm(2, np.array([1.0, 1.0]), np.eye(2, dtype=complex), outcomes_per_row=k)


@pytest.mark.parametrize("dim,pairs", [(2, 2), (8, 2), (4, 3), (4, 0), (4, 2.0)])
def test_povm_constructor_rejects_a_bad_pair_count(dim, pairs):
    # two pairs need a square dim, no POVM here acts on three pairs or none,
    # and a count is an integer
    with pytest.raises(ValueError, match="pairs must be 1, or 2 with a square dim") as info:
        RankOnePovm(dim, np.ones(dim), np.eye(dim, dtype=complex), pairs=pairs)
    assert "\n" not in str(info.value)


def test_pair_count_comes_from_the_povm():
    # a SIC at d = 4 and the Clifford orbit at d = 2 both act on C^4: the pair
    # count each POVM carries, not a flag of the caller, shapes the spectrum
    sic = weyl_orbit(search_fiducial(4, FiducialSearchConfig(seed=0)))
    orbit = clifford_povm(enumerate_clifford(2))
    assert sic.dim == orbit.dim == 4
    assert (sic.pairs, sic.local_dim, orbit.pairs, orbit.local_dim) == (1, 4, 2, 2)
    assert bell_spectrum(sic).shape == (16,) and bell_spectrum(orbit).shape == (4, 4)
    for m, block, tol in ((sic, 16, 1e-7), (orbit, 4, 1e-12)):
        t_dev, cov_dev, trace_dev = bell_certificate(m, block)
        assert t_dev <= tol and cov_dev <= tol and trace_dev <= 1e-12


def test_coset_rows_are_certified_but_not_written_out(tmp_path):
    # a row of d^2 outcomes stands for its Weyl orbit: the covariance and the
    # completeness read it from the row, but a POVM document lists every outcome
    m = coset_povm(clifford_representatives(2))
    assert m.outcomes_per_row == 4
    dev, bound = weyl_covariance(m, 4)
    assert dev <= 1e-15 and bound <= 1e-14 and m.completeness_defect() <= 1e-15
    with pytest.raises(ValueError, match="^a row of 4 outcomes is its own block, got block 24$"):
        weyl_covariance(m, 24)
    with pytest.raises(ValueError, match="lists every outcome"):
        dump_povm(m, str(tmp_path / "m.json"))
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("dim,pairs,k", [(4, 1, 4), (4, 2, 2), (4, 2, 16), (9, 2, 3), (9, 2, 4)])
def test_povm_constructor_allows_only_the_weyl_orbit_as_a_row(dim, pairs, k):
    # k > 1 outcomes per row means the d^2 outcomes of a Weyl orbit on the
    # second factor, so it needs two pairs and k = d^2
    with pytest.raises(ValueError, match="outcomes_per_row must be a positive integer") as info:
        RankOnePovm(dim, np.ones(dim), np.eye(dim, dtype=complex), outcomes_per_row=k, pairs=pairs,
                    check_completeness=False)
    assert "\n" not in str(info.value)


def test_coset_rows_check_their_completeness_on_construction():
    # the rows of unitary representatives sum, over their orbits, to the
    # identity; a row that is a unit vector but no unitary does not
    reps = clifford_representatives(2)
    rows = reps.reshape(-1, 4) / np.sqrt(2)
    weights = np.full(len(rows), 4 / len(rows))
    assert RankOnePovm(4, weights, rows, outcomes_per_row=4, pairs=2).completeness_defect() <= 1e-15
    rows[0] = [np.sqrt(0.75), 0, 0, 0.5j]   # U = diag(sqrt(3), i) / 2: U U^dag = diag(3, 1) / 4
    with pytest.raises(CompletenessError):
        RankOnePovm(4, weights, rows, outcomes_per_row=4, pairs=2)


def test_permute_identity(rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.array_equal(permute_subsystems(a, [2, 2, 2], [0, 1, 2]), a)


def test_permute_swap_zx():
    zx = np.kron(Z, X)
    assert np.allclose(permute_subsystems(zx, [2, 2], [1, 0]), np.kron(X, Z))


def test_permute_inverse_roundtrip(rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    perm = [2, 0, 1]
    inv = [perm.index(k) for k in range(3)]
    out = permute_subsystems(permute_subsystems(a, [2, 2, 2], perm), [2, 2, 2], inv)
    assert np.array_equal(out, a)


def test_permute_rejects_bad_dims():
    with pytest.raises(ValueError):
        permute_subsystems(np.eye(6), [2, 2], [0, 1])


def test_acceptance_on_target_state():
    phi = max_entangled(2)
    rho = np.outer(phi, phi.conj())
    assert abs(acceptance_probability(invariant_test_single(2), rho) - 1) < 1e-12


def test_acceptance_maximally_mixed():
    assert abs(acceptance_probability(invariant_test_single(2), np.eye(4) / 4) - 0.5) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 4, 5))
@pytest.mark.parametrize("fid", (0.0, 0.5, 0.9))
def test_acceptance_isotropic_formula(d, fid):
    phi = max_entangled(d)
    p = np.outer(phi, phi.conj())
    rho = fid * p + (1 - fid) * (np.eye(d * d) - p) / (d * d - 1)
    got = acceptance_probability(invariant_test_single(d), rho)
    assert abs(got - (fid + (1 - fid) / (d + 1))) < 1e-10


def test_acceptance_rejects_non_density(rng):
    t = invariant_test_single(2)
    with pytest.raises(ValueError):
        acceptance_probability(t, np.eye(4))  # trace 4
    v = random_ket(rng, 4)
    with pytest.raises(ValueError):
        acceptance_probability(t, 2 * np.outer(v, v.conj()) - np.eye(4) / 4)


def reference_realized_test(m):
    """The three-index einsum formula the GEMM path replaced."""
    pairs = np.einsum("ia,ib->iab", m.vectors, m.vectors.conj()).reshape(m.n_elements, -1)
    return np.einsum("i,ia,ib->ab", m.weights, pairs, pairs.conj())


def reference_completeness_defect(m):
    s = np.einsum("i,ia,ib->ab", m.weights, m.vectors, m.vectors.conj())
    return float(np.max(np.abs(s - np.eye(m.dim))))


def _incomplete_povm():
    vecs = np.array([[1, 0, 0], [0, 1, 1j] / np.sqrt(2), [1, 1, 1] / np.sqrt(3)], dtype=complex)
    return RankOnePovm(3, np.array([0.5, 0.3, 0.9]), vecs, check_completeness=False)


@pytest.mark.parametrize("case", ("sic3", "mub5", "clifford2", "incomplete"))
def test_realized_test_matches_einsum_reference(case):
    m, complete = {
        "sic3": lambda: (weyl_orbit(known_fiducial(3)), True),
        "mub5": lambda: (mub_povm(mub_prime(5)), True),
        "clifford2": lambda: (clifford_povm(enumerate_clifford(2)), True),
        "incomplete": lambda: (_incomplete_povm(), False),
    }[case]()
    got = realized_test(m, require_complete=complete).matrix
    assert np.max(np.abs(got - reference_realized_test(m))) <= 1e-13
    assert abs(m.completeness_defect() - reference_completeness_defect(m)) <= 1e-13


def test_paired_vectors_rows_are_kron_with_conjugate(rng):
    vecs = np.stack([random_ket(rng, 3) for _ in range(4)])
    pairs = paired_vectors(vecs)
    for v, p in zip(vecs, pairs):
        assert np.array_equal(p, np.kron(v, v.conj()))


@pytest.mark.parametrize("d,dim,overlaps", [
    *[pytest.param(d, d, False, id=str(d)) for d in (2, 3, 5, 7)],
    *[pytest.param(d, d * d, False, id=f"pair{d}") for d in (2, 3, 5)],
    pytest.param(7, 7, True, id="overlaps7"),
    pytest.param(3, 9, True, id="pair-overlaps3"),
    pytest.param(4, 6, False, id="size6-d4"),
])
def test_weyl_traces_match_einsum_reference(rng, d, dim, overlaps):
    """weyl_traces of operators, and weyl_overlaps of unit vectors, on one or two factors of C^d."""
    dft = fourier_matrix(d)
    if dim not in (d, d * d):
        with pytest.raises(ValueError, match="do not act on factors") as info:
            weyl_traces(np.zeros((2, dim, dim), dtype=complex), dft)
        assert "\n" not in str(info.value)
        return
    w = all_weyl(d)
    if dim > d:   # W_k x W_l in label order k*d^2 + l
        w = np.einsum("kab,lce->klacbe", w, w).reshape(dim * dim, dim, dim)
    if overlaps:
        u = np.stack([random_ket(rng, dim) for _ in range(5)])
        got = weyl_overlaps(u, dft)
        reference = np.einsum("ni,kij,nj->nk", u.conj(), w, u)
    else:
        m = rng.standard_normal((6, dim, dim)) + 1j * rng.standard_normal((6, dim, dim))
        got = weyl_traces(m, dft)
        reference = np.einsum("nij,kji->nk", m, w)
    assert got.shape == (len(reference),) + (d,) * (2 if dim == d else 4)
    assert np.max(np.abs(got.reshape(len(reference), -1) - reference)) <= 1e-12


@pytest.mark.parametrize("d,dim", [(2, 2), (7, 7), (12, 12), (2, 4), (3, 9), (5, 25)])
def test_weyl_overlaps_equal_the_traces_of_the_projectors(rng, d, dim):
    # read from the vectors, the shifted diagonals are the same products
    # conj(u[y + a]) * u[y] as those of the projector stack, so equal bit for bit
    u = np.stack([random_ket(rng, dim) for _ in range(7)])
    projectors = u.conj()[:, None, :] * u[:, :, None]
    assert np.array_equal(weyl_overlaps(u, fourier_matrix(d)), weyl_traces(projectors, fourier_matrix(d)))


CHUNK_CASES = {
    "mub7": lambda: (mub_povm(mub_prime(7)), 7),
    "sic4": lambda: (weyl_orbit(search_fiducial(4, FiducialSearchConfig(seed=0))), 16),
    "clifford3": lambda: (clifford_povm(enumerate_clifford(3)), 9),
}


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, case):
    # 200 entries: the SIC orbit (16 x 16 Gram) is larger than one chunk, the
    # overlap chunks cut across the MUB bases and the Clifford cosets, and the
    # covariance walks several groups of blocks
    m, block = CHUNK_CASES[case]()
    state = (double_isotropic_state if m.pairs == 2 else isotropic_state)(m.local_dim, 0.8)

    def run():
        return (bell_spectrum(m), np.array(weyl_covariance(m, block)),
                *outcome_distribution(m, state))

    default = run()
    monkeypatch.setattr(testops, "BELL_CHUNK", 200)
    assert len(testops.chunks(m.n_elements, m.dim ** 2)) > 1
    for got, want in zip(run(), default):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ("clifford3", "mub7"))
def test_squared_weyl_overlaps_yields_arrays_a_caller_may_keep(monkeypatch, case):
    # chunks of 4 rows (MIN_CHUNK_ROWS): 6 of the 24 coset rows, 14 of the 56
    # MUB vectors; every chunk kept is still the overlaps of its own rows
    m = coset_povm(clifford_representatives(3)) if case == "clifford3" else mub_povm(mub_prime(7))
    d = m.local_dim
    monkeypatch.setattr(testops, "BELL_CHUNK", 16)
    parts = list(testops.squared_weyl_overlaps(m.vectors, d))
    assert len(parts) == m.n_elements // 4
    want = np.abs(weyl_overlaps(m.vectors, fourier_matrix(d)).reshape(m.n_elements, -1)) ** 2
    for rows, mod2 in parts:
        assert np.array_equal(mod2, want[rows])


def _dense_bell(m):
    """Bell-basis matrix of realized_test(m) and its distance to the invariant test.

    The Bell vector of label k is vec(W_k)/sqrt(d) on one pair; that of the
    label pair (k, l) is vec(W_k x W_l)/d on two pairs, in order A1,A2,B1,B2.
    """
    d = m.local_dim
    w = all_weyl(d)
    if m.pairs == 2:
        w = np.einsum("kab,lce->klacbe", w, w).reshape(m.dim ** 2, m.dim, m.dim)
    bell = np.stack([x.reshape(-1) for x in w], axis=1) / np.sqrt(m.dim)
    t = realized_test(m, require_complete=False).matrix
    target = (invariant_test_double if m.pairs == 2 else invariant_test_single)(d).matrix
    return bell.conj().T @ t @ bell, frobenius_distance(t, target)


BELL_CASES = {
    **{f"mub{d}": (lambda d=d: (mub_povm(mub_prime(d)), d)) for d in (2, 3, 5, 7)},
    **{f"sic{d}": (lambda d=d: (weyl_orbit(known_fiducial(d)), d * d)) for d in (2, 3)},
    "sic4-searched": lambda: (weyl_orbit(search_fiducial(4, FiducialSearchConfig(seed=0))), 16),
}


@pytest.mark.parametrize("case", BELL_CASES)
def test_bell_certificate_matches_dense_reference(case):
    m, block = BELL_CASES[case]()
    t_bell, dist = _dense_bell(m)
    assert np.max(np.abs(bell_spectrum(m) - np.diag(t_bell).real)) <= 1e-14
    t_dev, cov_dev, _ = bell_certificate(m, block)
    assert abs(t_dev - dist) <= 1e-12
    assert cov_dev <= 1e-14


def test_bell_certificate_fails_covariant_wrong_test():
    # the computational basis is mapped onto itself by X and Z, but its
    # realized test projects onto the diagonal matrices, not onto the target
    m = RankOnePovm(5, np.ones(5), np.eye(5, dtype=complex))
    _, dist = _dense_bell(m)
    t_dev, cov_dev, _ = bell_certificate(m, 5)
    assert dist == pytest.approx(1.8257, abs=1e-4)
    assert abs(t_dev - dist) <= 1e-12
    assert cov_dev <= 1e-14


@pytest.mark.parametrize("scale", (1e-8, 1e-4, 1e-1))
def test_bell_certificate_bounds_dense_distance_when_not_covariant(rng, scale):
    # perturbed MUB vectors and weights: no longer covariant or complete, so
    # T has an off-diagonal part on the Bell basis that the bound must cover
    m = mub_povm(mub_prime(3))
    v = m.vectors + scale * (rng.standard_normal(m.vectors.shape)
                             + 1j * rng.standard_normal(m.vectors.shape))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w = m.weights * (1 + scale * rng.uniform(-1, 1, m.n_elements))
    perturbed = RankOnePovm(3, w, v, check_completeness=False)
    _, dist = _dense_bell(perturbed)
    t_dev, cov_dev, _ = bell_certificate(perturbed, 3)
    assert cov_dev > scale / 10
    assert t_dev >= dist


@pytest.mark.parametrize("d", (2, 3))
def test_two_pair_bell_certificate_matches_dense_reference(d):
    m = clifford_povm(enumerate_clifford(d))
    t_bell, dist = _dense_bell(m)
    spectrum = bell_spectrum(m)
    assert spectrum.shape == (d * d, d * d)
    assert np.max(np.abs(spectrum.ravel() - np.diag(t_bell).real)) <= 1e-14
    for block in (m.n_elements, d * d):   # the whole orbit, and one Weyl coset per block
        t_dev, cov_dev, trace_dev = bell_certificate(m, block)
        assert abs(t_dev - dist) <= 1e-12
        assert cov_dev <= 1e-14
        assert trace_dev <= 1e-12


@pytest.mark.parametrize("scale", (1e-8, 1e-5, 1e-3))
@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("side", ("A1A2", "A1", "A2"))
def test_two_pair_bell_certificate_bounds_dense_distance(rng, side, d, scale):
    # perturbed orbit vectors (and weights): T gets an off-diagonal part on the
    # two-pair Bell basis, which the four-generator bound must cover; a
    # perturbation on A1 or A2 alone commutes with the generators on the
    # other factor, so only those on its own factor see it
    m = clifford_povm(enumerate_clifford(d))
    if side == "A1A2":
        v = m.vectors + scale * (rng.standard_normal(m.vectors.shape)
                                 + 1j * rng.standard_normal(m.vectors.shape))
        w = m.weights * (1 + scale * rng.uniform(-1, 1, m.n_elements))
    else:
        g = np.eye(d) + scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        a = np.kron(g, np.eye(d)) if side == "A1" else np.kron(np.eye(d), g)
        v, w = m.vectors @ a.T, m.weights
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    perturbed = RankOnePovm(d * d, w, v, pairs=2, check_completeness=False)
    _, dist = _dense_bell(perturbed)
    for block in (perturbed.n_elements, d * d):
        t_dev, cov_dev, _ = bell_certificate(perturbed, block)
        assert cov_dev > scale / 10
        assert dist <= t_dev <= 100 * dist


@pytest.mark.parametrize("lam_min,ok", [(-10e-10, False), (-0.1e-10, True)])
@pytest.mark.parametrize("n", (9, 16))
def test_acceptance_psd_rule_matches_eigvalsh(rng, n, lam_min, ok):
    rho = state_with_min_eigenvalue(rng, n, lam_min)
    assert (np.linalg.eigvalsh(rho)[0] >= -1e-10) == ok
    t = invariant_test_single(3) if n == 9 else invariant_test_double(2)
    if ok:
        acceptance_probability(t, rho, tol=1e-10)
    else:
        with pytest.raises(ValueError, match="positive semi-definite"):
            acceptance_probability(t, rho, tol=1e-10)
