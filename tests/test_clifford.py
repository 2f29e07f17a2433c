import numpy as np
import pytest
from conftest import (all_weyl, frobenius_distance, invariant_test_double,
                      random_hermitian, random_unitary, realized_test,
                      weyl_group)

from entverify import clifford
from entverify.clifford import (NORMALIZER_TOL, canonicalize_phase,
                                character_moments, clifford_cardinality,
                                clifford_generators, clifford_povm,
                                enumerate_clifford, is_prime,
                                normalizes_weyl_group, pair_product_counts,
                                quantized_key, verify_clifford_identity,
                                weyl)
from entverify.testops import RankOnePovm, bell_certificate, chunks


def brute_force_pair_count(n, d):
    return sum(1 for x in range(d) for y in range(d) if (x * y) % d == n % d)


def group_contains(group, u, atol=1e-8):
    """Whether u equals, up to phase, an element of the group (found by its hash key)."""
    c = canonicalize_phase(u)
    index = {key: i for i, key in enumerate(quantized_key(group))}
    i = index.get(quantized_key(c))
    return i is not None and np.allclose(group[i], c, atol=atol)


def reference_cardinality(d):
    """The pair-count sum d^2 sum_n nu(n) nu(n+1) over brute-force counts."""
    counts = [brute_force_pair_count(n, d) for n in range(d)]
    return d * d * sum(counts[n] * counts[(n + 1) % d] for n in range(d))


def reference_closure(d):
    """Per-product breadth-first closure: elements and keys in discovery order."""
    gens = clifford_generators(d)
    identity = canonicalize_phase(np.eye(d, dtype=complex))
    elements = [identity]
    index = {quantized_key(identity): 0}
    frontier = [identity]
    while frontier:
        fresh = []
        for u in frontier:
            for g in gens:
                v = canonicalize_phase(u @ g)
                key = quantized_key(v)
                if key not in index:
                    index[key] = len(elements)
                    elements.append(v)
                    fresh.append(v)
        frontier = fresh
    return np.stack(elements), list(index)


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
    for g in clifford_generators(d):
        assert normalizes_weyl_group(g)


def test_non_clifford_fails_normalizer_test():
    t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
    assert not normalizes_weyl_group(t_gate)


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
    elements, keys = reference_closure(d)
    group = enumerate_clifford(d)
    assert quantized_key(group) == keys
    assert np.max(np.abs(group - elements)) <= 1e-14


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
                                               "char_moment1_dev", "char_moment2_dev"]


def test_weyl_subgroup_negative_control():
    m = clifford_povm(weyl_group(2))
    t = realized_test(m, double=True)
    dist = frobenius_distance(t.matrix, invariant_test_double(2).matrix)
    assert dist > 0.1
    # the Weyl orbit is Weyl covariant, so the certificate reads the same distance
    t_dev, cov_dev, _ = bell_certificate(m, m.n_elements, double=True)
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
        rotated = RankOnePovm(d * d, m.weights, m.vectors @ rotation.T)
        dist = frobenius_distance(realized_test(rotated, double=True).matrix,
                                  invariant_test_double(d).matrix)
        t_dev, cov_dev, _ = bell_certificate(rotated, rotated.n_elements, double=True)
        assert cov_dev > 0.1
        assert t_dev >= dist
        assert i == 0 or dist <= 1e-12


def test_group_pair_invariance(rng):
    group = enumerate_clifford(2)
    t = realized_test(clifford_povm(group), double=True).matrix
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


def dense_normalizes(us):
    """All-label reference: max_l |Tr(W_l^dag U W_k U^dag)| / d >= 1 - tol for every label k."""
    w = all_weyl(us.shape[-1])
    conj = us[:, None] @ w[None] @ us.conj().transpose(0, 2, 1)[:, None]
    coeffs = np.abs(np.einsum("nkij,lij->nkl", conj, w.conj())) / us.shape[-1]
    return np.all(coeffs.max(axis=2) >= 1 - NORMALIZER_TOL, axis=1)


def normalizer_cases(rng, d):
    """(unitaries, expected verdicts): Clifford elements and non-Clifford unitaries."""
    elements = enumerate_clifford(d)
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    diagonal = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))    # commutes with Z
    circulant = f.conj().T @ diagonal @ f                             # commutes with X
    u = elements[rng.integers(len(elements))]
    vals, vecs = np.linalg.eigh(random_hermitian(rng, d))
    nudged = [u @ (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T for eps in (1e-6, 1e-3)]
    others = [random_unitary(rng, d), random_unitary(rng, d), diagonal, circulant] + nudged
    if d == 2:
        others.append(np.diag([1, np.exp(1j * np.pi / 4)]))         # the T gate
    expected = [True] * len(elements) + [False] * 4 + [True, False] + [False] * (d == 2)
    return np.concatenate([elements, np.stack(others)]), np.array(expected)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_normalizer_matches_all_label_reference(rng, d):
    us, expected = normalizer_cases(rng, d)
    assert np.array_equal(dense_normalizes(us), expected)
    assert np.array_equal(normalizes_weyl_group(us), expected)
    assert normalizes_weyl_group(us.reshape(-1, 1, d, d)).shape == (len(us), 1)


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
    verdicts = normalizes_weyl_group(us)
    assert verdicts.shape == (n,)
    assert np.flatnonzero(~verdicts).tolist() == planted
    assert np.array_equal(normalizes_weyl_group(us[:12].reshape(3, 4, d, d)), verdicts[:12].reshape(3, 4))
    single = normalizes_weyl_group(us[0])
    assert np.ndim(single) == 0 and isinstance(single, np.bool_) and single


def test_is_prime():
    assert [d for d in range(2, 20) if is_prime(d)] == [2, 3, 5, 7, 11, 13, 17, 19]
