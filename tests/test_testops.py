from math import isqrt

import numpy as np
import pytest
from conftest import (acceptance_probability, all_weyl, eigen_hermitian,
                      frobenius_distance, invariant_test_double,
                      invariant_test_single, max_entangled, paired_vectors,
                      permute_subsystems, random_ket, realized_test,
                      state_with_min_eigenvalue)

from entverify.clifford import clifford_povm, enumerate_clifford
from entverify.linalg import numerical_rank
from entverify.mub import mub_povm, mub_prime
from entverify.sic import (FiducialSearchConfig, known_fiducial,
                           search_fiducial, weyl_orbit)
from entverify.testops import (CompletenessError, RankOnePovm,
                               bell_certificate, bell_spectrum, fourier_matrix,
                               weyl_overlaps, weyl_traces)

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
    m, double, complete = {
        "sic3": lambda: (weyl_orbit(known_fiducial(3)), False, True),
        "mub5": lambda: (mub_povm(mub_prime(5)), False, True),
        "clifford2": lambda: (clifford_povm(enumerate_clifford(2)), True, True),
        "incomplete": lambda: (_incomplete_povm(), False, False),
    }[case]()
    got = realized_test(m, double=double, require_complete=complete).matrix
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


def _dense_bell(m, double=False):
    """Bell-basis matrix of realized_test(m) and its distance to the invariant test.

    The Bell vector of label k is vec(W_k)/sqrt(d) on one pair; that of the
    label pair (k, l) is vec(W_k x W_l)/d on two pairs, in order A1,A2,B1,B2.
    """
    d = isqrt(m.dim) if double else m.dim
    w = all_weyl(d)
    if double:
        w = np.einsum("kab,lce->klacbe", w, w).reshape(m.dim ** 2, m.dim, m.dim)
    bell = np.stack([x.reshape(-1) for x in w], axis=1) / np.sqrt(m.dim)
    t = realized_test(m, double=double, require_complete=False).matrix
    target = (invariant_test_double if double else invariant_test_single)(d).matrix
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
    t_bell, dist = _dense_bell(m, double=True)
    spectrum = bell_spectrum(m, double=True)
    assert spectrum.shape == (d * d, d * d)
    assert np.max(np.abs(spectrum.ravel() - np.diag(t_bell).real)) <= 1e-14
    t_dev, cov_dev, trace_dev = bell_certificate(m, m.n_elements, double=True)
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
    perturbed = RankOnePovm(d * d, w, v, check_completeness=False)
    _, dist = _dense_bell(perturbed, double=True)
    t_dev, cov_dev, _ = bell_certificate(perturbed, perturbed.n_elements, double=True)
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
