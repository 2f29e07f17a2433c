import math
import tracemalloc

import numpy as np
import pytest
from conftest import (all_weyl, canonicalize_phase, character_moments,
                      frobenius_distance, invariant_test_double, quantized_key,
                      random_hermitian, random_unitary, realized_test,
                      reference_closure, weyl_group)

from entverify import clifford, testops
from entverify.clifford import (NORMALIZER_TOL, clifford_cardinality,
                                clifford_generators, clifford_povm,
                                clifford_representatives, coset_labels,
                                coset_povm, enumerate_clifford,
                                pair_product_counts, verify_clifford_identity,
                                weyl, weyl_cosets)
from entverify.linalg import is_prime
from entverify.testops import (RankOnePovm, bell_certificate, bell_spectrum,
                               chunks, fourier_matrix, weyl_covariance,
                               weyl_overlaps)


def brute_force_pair_count(n, d):
    return sum(1 for x in range(d) for y in range(d) if (x * y) % d == n % d)


def group_contains(group, u, atol=1e-8):
    """Whether u equals, up to phase, an element of the group (both sides phase-canonicalized)."""
    canon = canonicalize_phase(group)
    c = canonicalize_phase(u)
    index = {key: i for i, key in enumerate(quantized_key(canon))}
    i = index.get(quantized_key(c))
    return i is not None and np.allclose(canon[i], c, atol=atol)


def reference_cardinality(d):
    """The pair-count sum d^2 sum_n nu(n) nu(n+1) over brute-force counts."""
    counts = [brute_force_pair_count(n, d) for n in range(d)]
    return d * d * sum(counts[n] * counts[(n + 1) % d] for n in range(d))


def test_weyl_d2_matrices():
    assert np.allclose(weyl(2, 0, 1), np.diag([1, -1]))
    assert np.allclose(weyl(2, 1, 0), np.array([[0, 1], [1, 0]]))
    # X @ Z by hand
    assert np.allclose(weyl(2, 1, 1), np.array([[0, -1], [1, 0]]))


def test_weyl_identity_label():
    for d in (2, 3, 5):
        assert np.allclose(weyl(d, 0, 0), np.eye(d))


def test_weyl_unitary():
    for d in (2, 3, 5):
        for w in all_weyl(d):
            assert np.allclose(w.conj().T @ w, np.eye(d), atol=1e-12)


def test_pair_count_small_cases():
    assert pair_product_counts(2).tolist() == [3, 1]  # (0,0),(0,1),(1,0); (1,1)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7, 8))
def test_pair_count_matches_brute_force(d):
    counts = pair_product_counts(d)
    for n in range(d):
        assert counts[n] == brute_force_pair_count(n, d)


@pytest.mark.parametrize("d", (3, 5, 7))
def test_pair_count_prime_closed_form(d):
    # x=0 or y=0 gives 2d-1 pairs for n=0; for n!=0, x is any unit, y fixed
    counts = pair_product_counts(d)
    assert counts[0] == 2 * d - 1
    for n in range(1, d):
        assert counts[n] == d - 1


def test_cardinality_values():
    assert clifford_cardinality(2) == 24
    assert clifford_cardinality(3) == 216
    assert clifford_cardinality(5) == 3000
    assert clifford_cardinality(4) == 768  # nu(.,4) = (8,2,4,2)


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_cardinality_prime_formula(d):
    assert clifford_cardinality(d) == d ** 3 * (d * d - 1)


def test_pair_counts_match_brute_force_reference():
    for d in range(2, 31):
        assert pair_product_counts(d).tolist() == [brute_force_pair_count(n, d)
                                                   for n in range(d)]
        assert clifford_cardinality(d) == reference_cardinality(d)


def test_generators_d2():
    x, z, f, s = clifford_generators(2)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(f, h)
    # F X F^dag lands on Z up to phase, S X S^dag on XZ up to phase
    fxf = f @ x @ f.conj().T
    assert np.allclose(canonicalize_phase(fxf), canonicalize_phase(z), atol=1e-12)
    sxs = s @ x @ s.conj().T
    assert np.allclose(canonicalize_phase(sxs), canonicalize_phase(x @ z), atol=1e-12)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_generators_normalize_weyl(d):
    assert coset_labels(clifford_generators(d))[1].tolist() == [True] * 4


def test_non_clifford_fails_normalizer_test():
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    assert coset_labels(t_gate[None])[1].tolist() == [False]


def test_generators_rejects_composite():
    with pytest.raises(ValueError):
        clifford_generators(4)


def test_canonicalize_idempotent(rng):
    for d in (2, 3):
        for w in all_weyl(d):
            u = w * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c = canonicalize_phase(u)
            assert np.array_equal(canonicalize_phase(c), c)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_stack_canonicalize_and_keys_match_per_matrix(rng, d):
    gens = clifford_generators(d)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 4)))
    stack = np.stack([[g * p for g, p in zip(gens, row)] for row in phases])  # [6, 4, d, d]
    canon = canonicalize_phase(stack)
    assert canon.shape == stack.shape
    for i in range(6):
        for j in range(4):
            assert np.array_equal(canon[i, j], canonicalize_phase(stack[i, j]))
    flat = canon.reshape(-1, d, d)
    assert quantized_key(flat) == [quantized_key(u) for u in flat]


def test_canonicalize_quotients_phase(rng):
    u = clifford_generators(3)[2]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    keys = {quantized_key(canonicalize_phase(u * p)) for p in phases}
    assert len(keys) == 1


@pytest.mark.parametrize("d,size", [(2, 24), (3, 216)])
def test_enumeration_size(d, size):
    assert len(enumerate_clifford(d)) == size


@pytest.mark.parametrize("d", (2, 3, 5))
def test_enumeration_matches_per_product_reference(d):
    # the same set of unitaries modulo phase as the phase-hashed closure;
    # the order and the phases are the coset-major products C_j W_k
    elements, keys = reference_closure(d)
    canon = canonicalize_phase(enumerate_clifford(d))
    found = quantized_key(canon)
    assert len(found) == len(set(found)) == len(keys)
    assert set(found) == set(keys)
    index = {key: i for i, key in enumerate(keys)}
    order = [index[key] for key in found]
    assert np.max(np.abs(canon - elements[order])) <= 1e-14


@pytest.mark.parametrize("d", (2, 3, 5))
def test_enumeration_is_coset_major(d):
    # element j d^2 + k is C_j W_k: each run of d^2 elements shares the labels
    # of U^dag X U and U^dag Z U (one symplectic matrix), and no two runs do
    group = enumerate_clifford(d)
    reps = group[::d * d]
    assert len(reps) == d * (d * d - 1)
    assert np.max(np.abs(group.reshape(len(reps), d * d, d, d) - reps[:, None] @ all_weyl(d))) <= 1e-15
    labels, verdicts = coset_labels(group)
    assert np.all(verdicts)
    runs = labels.reshape(len(reps), d * d, 2)
    assert np.all(runs == runs[:, :1])
    assert len({tuple(x) for x in runs[:, 0]}) == len(reps)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_weyl_image_labels_match_dense_reference(rng, d):
    # label m of U^dag W U = c W_m, read densely as the W_m with |Tr(W_m^dag V)| = d
    us, expected = normalizer_cases(rng, d)
    w = all_weyl(d)
    xz = np.stack([weyl(d, 1, 0), weyl(d, 0, 1)])
    images = us.conj().transpose(0, 2, 1)[:, None] @ xz[None] @ us[:, None]
    dense = np.abs(np.einsum("nkij,lij->nkl", images, w.conj())).argmax(axis=2)
    labels, verdicts = coset_labels(us)
    assert np.array_equal(verdicts, expected)
    assert np.array_equal(labels[expected], dense[expected])
    assert coset_labels(np.eye(d)[None])[0].tolist() == [[d, 1]]   # X and Z themselves
    f = clifford_generators(d)[2]
    assert coset_labels(f[None])[0].tolist() == [[d - 1, d]]   # F^dag X F = Z^-1, F^dag Z F = X


@pytest.mark.parametrize("d", (2, 3, 5))
def test_coset_labels_are_the_columns_of_an_sl2_matrix(d):
    # the labels (a, b) of U^dag X U and U^dag Z U, as the columns of M^-1,
    # give a matrix of determinant 1 mod d, one per representative
    labels = coset_labels(clifford_representatives(d))[0]
    a, b = np.divmod(labels, d)                           # [n, 2]: column 0 from X, column 1 from Z
    assert np.all((a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]) % d == 1)
    assert len({tuple(x) for x in labels}) == len(labels) == d * (d * d - 1)


def test_enumeration_raises_when_the_generators_miss_cosets(monkeypatch):
    # without S the search closes on the four cosets that F reaches
    gens = clifford_generators(3)
    monkeypatch.setattr(clifford, "clifford_generators", lambda d: gens[[0, 1, 2, 2]])
    with pytest.raises(RuntimeError, match="4 coset representatives give 36 elements"):
        enumerate_clifford(3)


def test_enumeration_d5_memory_guard():
    # about 1.3 MB traced for the 1.2 MB group; 5.5 MB with the phase-hashed closure
    tracemalloc.start()
    try:
        group = enumerate_clifford(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(group) == 3000
    assert peak < 2.5e6, f"enumerate_clifford(5) peaked at {peak / 1e6:.1f} MB"


def test_enumeration_closure_random_products(rng):
    for d in (2, 3):
        group = enumerate_clifford(d)
        n = len(group)
        for _ in range(200):
            u = group[rng.integers(n)]
            v = group[rng.integers(n)]
            assert group_contains(group, u @ v)


def test_enumeration_elements_normalize_weyl():
    group = enumerate_clifford(2)
    w10 = weyl(2, 1, 0)
    labels = all_weyl(2)
    for u in group:
        conj = u @ w10 @ u.conj().T
        coeffs = np.einsum("ij,kij->k", conj, labels.conj()) / 2
        assert np.max(np.abs(coeffs)) > 1 - 1e-10


def test_enumeration_rejects_composite_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_clifford(4)
    monkeypatch.setattr(clifford, "SIZE_CAP", 100)
    with pytest.raises(ValueError):
        enumerate_clifford(5)


def test_povm_d2():
    m = clifford_povm(enumerate_clifford(2))
    assert m.n_elements == 24
    assert np.allclose(m.weights, 1 / 6)
    assert m.completeness_defect() < 1e-10
    assert np.allclose(np.linalg.norm(m.vectors, axis=1), 1)


def test_povm_d3_weights():
    m = clifford_povm(enumerate_clifford(3))
    assert m.n_elements == 216
    assert np.allclose(m.weights, 1 / 24)


@pytest.mark.parametrize("d", (2, 3))
def test_character_moments_clifford(d):
    c1, c2 = character_moments(enumerate_clifford(d))
    assert abs(c1 - 1) < 1e-8
    assert abs(c2 - 2) < 1e-8


@pytest.mark.parametrize("d", (2, 3))
def test_character_moments_weyl_subgroup(d):
    # |Tr W(i,j)|^2 is d^2 at the identity label and 0 elsewhere
    c1, c2 = character_moments(weyl_group(d))
    assert abs(c1 - 1) < 1e-12
    assert abs(c2 - d * d) < 1e-10


def test_verify_identity_d2():
    report = verify_clifford_identity(2)
    assert report.overall
    assert report.check("t_identity_dev").measured < 1e-10
    assert report.check("trace_dev").measured < 1e-9


def test_verify_identity_d3():
    report = verify_clifford_identity(3)
    assert report.overall
    assert report.check("t_identity_dev").measured < 1e-10
    assert report.check("weyl_covariance_dev").measured < 1e-10


def test_verify_identity_d5_reports_group_checks():
    report = verify_clifford_identity(5)
    assert report.overall
    assert [c.name for c in report.checks] == ["cardinality_dev", "completeness_defect",
                                               "char_moment1_dev", "char_moment2_dev",
                                               "t_identity_dev", "weyl_covariance_dev",
                                               "trace_dev"]
    assert report.check("t_identity_dev").measured < 1e-10
    assert report.check("weyl_covariance_dev").measured < 1e-10


def test_weyl_subgroup_negative_control():
    m = clifford_povm(weyl_group(2))
    t = realized_test(m)
    dist = frobenius_distance(t.matrix, invariant_test_double(2).matrix)
    assert dist > 0.1
    # the Weyl orbit is Weyl covariant, so the certificate reads the same distance
    t_dev, cov_dev, _ = bell_certificate(m, m.n_elements)
    assert t_dev > 0.1 and abs(t_dev - dist) <= 1e-12
    assert cov_dev <= 1e-14


@pytest.mark.parametrize("d", (2, 3))
def test_rotated_orbit_fails_weyl_covariance(rng, d):
    # a generic unitary on A1A2 keeps the orbit a complete POVM but breaks
    # the Weyl covariance the certificate rests on. A unitary on A1 or A2
    # alone even keeps the realized test, and still breaks the covariance on
    # its factor: a generic one, a circulant (which commutes with the shift,
    # not the clock) and a diagonal one (the other way round)
    m = clifford_povm(enumerate_clifford(d))
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    diagonal = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))
    circulant = f.conj().T @ np.diag(np.exp(2j * np.pi * rng.uniform(size=d))) @ f
    local = [np.kron(np.eye(d), random_unitary(rng, d)), np.kron(circulant, np.eye(d)),
             np.kron(np.eye(d), diagonal)]
    for i, rotation in enumerate([random_unitary(rng, d * d)] + local):
        rotated = RankOnePovm(d * d, m.weights, m.vectors @ rotation.T, pairs=2)
        dist = frobenius_distance(realized_test(rotated).matrix,
                                  invariant_test_double(d).matrix)
        t_dev, cov_dev, _ = bell_certificate(rotated, rotated.n_elements)
        assert cov_dev > 0.1
        assert t_dev >= dist
        assert i == 0 or dist <= 1e-12


def test_group_pair_invariance(rng):
    group = enumerate_clifford(2)
    t = realized_test(clifford_povm(group)).matrix
    n = len(group)
    for _ in range(20):
        g1 = group[rng.integers(n)]
        g2 = group[rng.integers(n)]
        k = np.kron(np.kron(g1, g2.conj()), np.kron(g1.conj(), g2))
        assert frobenius_distance(k @ t @ k.conj().T, t) < 1e-9


def test_verify_group_d5_checks():
    report = verify_clifford_identity(5)
    assert report.overall
    assert report.metadata["elements"] == 3000


def test_enumeration_is_the_cosets_of_the_representatives():
    reps = clifford_representatives(3)
    assert len(reps) == 24
    assert np.array_equal(enumerate_clifford(3), weyl_cosets(reps))
    assert np.array_equal(enumerate_clifford(3)[::9], reps)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_representative_spectrum_matches_the_whole_orbit(d):
    # each coset adds d^2 equal terms, so the representatives weighted by d^2
    # give the orbit's spectrum. The reference sums every element's term
    # exactly (math.fsum); the orbit's own chunked sum drifts 9e-15 from it at
    # d = 5 (500 chunks of 6 elements), the representatives' sum 1e-16
    reps = clifford_representatives(d)
    m = clifford_povm(weyl_cosets(reps))
    mod2 = np.abs(weyl_overlaps(m.vectors, fourier_matrix(d)).reshape(m.n_elements, -1)) ** 2
    terms = m.weights[:, None] * mod2 / m.dim
    exact = np.array([math.fsum(column) for column in terms.T]).reshape(d * d, d * d)
    spectrum = bell_spectrum(coset_povm(reps))
    assert np.max(np.abs(spectrum - exact)) <= 1e-15
    assert np.max(np.abs(spectrum - bell_spectrum(m))) <= 1e-14


def test_coset_povm_weights_each_representative_by_its_coset():
    reps = clifford_representatives(3)
    m = coset_povm(reps)
    assert m.n_elements == 24 and m.dim == 9 and m.outcomes_per_row == 9
    assert np.allclose(m.weights, 9 * clifford_povm(weyl_cosets(reps)).weights[0])
    assert np.array_equal(m.vectors, reps.reshape(24, 9) / np.sqrt(3))


def test_an_orbit_passed_as_representatives_fails_the_cardinality_only():
    # each of the 216 elements stands for its coset of 9, so the orbit reads
    # as 1944 outcomes: d^2 copies of the group, whose every other check passes
    report = verify_clifford_identity(3, enumerate_clifford(3))
    assert [c.name for c in report.checks if not c.passed] == ["cardinality_dev"]
    assert report.check("cardinality_dev").measured == 1944 - 216
    assert report.metadata["elements"] == 1944


def test_verify_identity_d5_memory_guard():
    # about 0.5 MB traced, most of it one chunk of the coset rows'
    # covariance; the orbit's 3000 vectors alone take 1.2 MB, so the
    # certificate never holds them all (4.3 MB traced when it did)
    tracemalloc.start()
    try:
        report = verify_clifford_identity(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall and report.metadata["elements"] == 3000
    assert peak < 1.0e6, f"verify_clifford_identity(5) peaked at {peak / 1e6:.2f} MB"


def test_planted_representative_fails_the_covariance(rng):
    # a random unitary in place of a representative: its coset is still a
    # complete set, but X and Z on A1 no longer map it onto itself
    reps = clifford_representatives(5)
    reps[-1] = random_unitary(rng, 5)
    report = verify_clifford_identity(5, reps)
    assert not report.overall
    assert report.check("weyl_covariance_dev").measured > 0.1
    assert report.check("completeness_defect").passed


def test_a_non_unitary_representative_fails_the_completeness():
    # scaled by 1.001 a representative is no unit vector, which coset_povm
    # refuses by its index. Scaled by 1.001 on one row and shrunk on another
    # so that it stays one, it fails completeness_defect, (1/n) sum_j C_j
    # C_j^dag - I, by (1.001^2 - 1) / 24
    reps = clifford_representatives(3)
    scaled = reps.copy()
    scaled[5] *= 1.001
    for build in (coset_povm, lambda r: verify_clifford_identity(3, r)):
        with pytest.raises(ValueError, match=r"^POVM vectors must be unit norm; element 5 has norm 1\.00"):
            build(scaled)
    reps[5] = np.diag([1.001, np.sqrt(2 - 1.001 ** 2), 1]) @ reps[5]
    report = verify_clifford_identity(3, reps)
    defect = report.check("completeness_defect")
    assert not defect.passed and abs(defect.measured - (1.001 ** 2 - 1) / 24) <= 1e-12


@pytest.mark.parametrize("d", (2, 3, 5, 7))
@pytest.mark.parametrize("planted", (False, True), ids=("group", "planted"))
def test_coset_rows_certify_as_the_whole_orbit(monkeypatch, rng, d, planted):
    # one row per coset gives the deviation, the bound, the certificate and
    # the completeness of every element, for the group and with two
    # representatives replaced by random unitaries (in different chunks of
    # rows at d = 7). d = 7 lies beyond the CLI's reach, so SIZE_CAP is
    # raised in this test only
    monkeypatch.setattr(clifford, "SIZE_CAP", clifford_cardinality(7))
    reps = clifford_representatives(d)
    if planted:
        reps[[1, -2]] = [random_unitary(rng, d), random_unitary(rng, d)]
    rows, orbit = coset_povm(reps), clifford_povm(weyl_cosets(reps))
    (dev, bound), (orbit_dev, orbit_bound) = weyl_covariance(rows, d * d), weyl_covariance(orbit, d * d)
    t_dev, cov_dev, trace_dev = bell_certificate(rows, d * d)
    orbit_t, _, orbit_trace = bell_certificate(orbit, d * d)
    assert cov_dev == dev and abs(dev - orbit_dev) <= 1e-14
    assert abs(trace_dev - orbit_trace) <= 1e-12
    assert abs(rows.completeness_defect() - orbit.completeness_defect()) <= 1e-14
    if planted:
        assert dev > 0.1
        assert abs(bound - orbit_bound) <= 1e-12 * orbit_bound and abs(t_dev - orbit_t) <= 1e-12 * orbit_t
    else:
        assert dev <= 1e-14 and abs(bound - orbit_bound) <= 1e-12 and abs(t_dev - orbit_t) <= 1e-12


def test_covariance_bound_does_not_depend_on_the_chunks(monkeypatch, rng):
    # the per-generator sums accumulate over all groups of cosets: with two
    # planted cosets in different groups, six groups of four cosets
    # (MIN_CHUNK_ROWS) give the bound of one pass over the whole orbit.
    # Per-group bounds added up would exceed it
    reps = clifford_representatives(3)
    reps[[2, 20]] = [random_unitary(rng, 3), random_unitary(rng, 3)]
    orbit = clifford_povm(weyl_cosets(reps))
    results = []
    for chunk in (81, 2 ** 16):
        monkeypatch.setattr(testops, "BELL_CHUNK", chunk)
        assert len(chunks(len(reps), 9 * 9)) == (6 if chunk == 81 else 1)
        results.append(weyl_covariance(orbit, 9))
    (dev, bound), (dev_one, bound_one) = results
    assert dev == dev_one and bound > 0.1 and abs(bound - bound_one) <= 1e-12 * bound_one
    t_dev = verify_clifford_identity(3, reps).check("t_identity_dev").measured
    assert bound <= t_dev


def dense_normalizes(us):
    """All-label reference: |max_l |Tr(W_l^dag U W_k U^dag)| / d - 1| <= tol for every label k."""
    w = all_weyl(us.shape[-1])
    conj = us[:, None] @ w[None] @ us.conj().transpose(0, 2, 1)[:, None]
    coeffs = np.abs(np.einsum("nkij,lij->nkl", conj, w.conj())) / us.shape[-1]
    return np.all(np.abs(coeffs.max(axis=2) - 1) <= NORMALIZER_TOL, axis=1)


def normalizer_cases(rng, d):
    """(matrices, expected verdicts): Clifford elements, non-Clifford unitaries and scaled Clifford elements."""
    elements = enumerate_clifford(d)
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    diagonal = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))    # commutes with Z
    circulant = f.conj().T @ diagonal @ f                             # commutes with X
    u = elements[rng.integers(len(elements))]
    vals, vecs = np.linalg.eigh(random_hermitian(rng, d))
    nudged = [u @ (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T for eps in (1e-6, 1e-3)]
    others = [random_unitary(rng, d), random_unitary(rng, d), diagonal, circulant] + nudged
    others += [2 * u, (1 + 1e-7) * u]                                 # no phase times a Clifford unitary
    if d == 2:
        others.append(np.diag([1, np.exp(1j * np.pi / 4)]))         # the T gate
    expected = [True] * len(elements) + [False] * 4 + [True, False] + [False] * 2 + [False] * (d == 2)
    return np.concatenate([elements, np.stack(others)]), np.array(expected)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_normalizer_matches_all_label_reference(rng, d):
    us, expected = normalizer_cases(rng, d)
    assert np.array_equal(dense_normalizes(us), expected)
    assert np.array_equal(coset_labels(us)[1], expected)


@pytest.mark.parametrize("d", (2, 3))
def test_normalizer_chunk_boundaries(rng, d):
    # a stack of Clifford elements over more than two chunks, with a random
    # unitary planted at the first element of the last chunk and at the last
    elements = enumerate_clifford(d)
    step = chunks(1, 2 * d * d)[0].stop
    n = 2 * step + 7
    assert [part.start for part in chunks(n, 2 * d * d)] == [0, step, 2 * step]
    us = elements[np.arange(n) % len(elements)]
    planted = [2 * step, n - 1]
    us[planted] = [random_unitary(rng, d), random_unitary(rng, d)]
    verdicts = coset_labels(us)[1]
    assert verdicts.shape == (n,)
    assert np.flatnonzero(~verdicts).tolist() == planted


def test_is_prime():
    assert [d for d in range(2, 20) if is_prime(d)] == [2, 3, 5, 7, 11, 13, 17, 19]
