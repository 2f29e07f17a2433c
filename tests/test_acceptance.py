"""End-to-end acceptance checklist.

Each test certifies one release criterion: an operator identity, an
optimality bound, Monte Carlo consistency, or a runtime budget. Run with
`pytest tests/test_acceptance.py -v -s` to see one line per criterion.
Expensive artifacts (searched fiducials, enumerated groups) are built inside
the criterion that owns their runtime budget and reused by later criteria.
"""

import time

import numpy as np
import pytest
from conftest import (character_moments, frobenius_distance,
                      invariant_test_double, invariant_test_single,
                      projected_span_ranks, realized_test, weyl_group)

from entverify.clifford import (clifford_cardinality, clifford_povm,
                                enumerate_clifford, pair_product_counts)
from entverify.linalg import numerical_rank
from entverify.mub import (mub_povm, mub_prime, pvm_count_bound,
                           verify_mub_identity)
from entverify.protocol import isotropic_state, run_protocol
from entverify.sic import (FiducialSearchConfig, known_fiducial,
                           search_fiducial, sic_check, verify_sic_identity,
                           weyl_orbit)

SEARCH_DIMS = (4, 5, 6, 7)
_fiducials: dict[int, object] = {}
_groups: dict[int, object] = {}


def fiducial(d):
    if d not in _fiducials:
        if d in (2, 3):
            _fiducials[d] = known_fiducial(d)
        else:
            _fiducials[d] = search_fiducial(d, FiducialSearchConfig(seed=0, restarts=100))
    return _fiducials[d]


def group(d):
    if d not in _groups:
        _groups[d] = enumerate_clifford(d)
    return _groups[d]


def test_criterion_01_sic_identity():
    """SIC realized test equals the invariant test: 1e-10 analytic, 1e-7 searched."""
    t0 = time.perf_counter()
    dists = {}
    for d in (2, 3) + SEARCH_DIMS:
        m = weyl_orbit(fiducial(d))
        dists[d] = frobenius_distance(realized_test(m).matrix,
                                      invariant_test_single(d).matrix)
    elapsed = time.perf_counter() - t0
    for d in (2, 3):
        assert dists[d] < 1e-10, f"d={d}: {dists[d]:.3e}"
    for d in SEARCH_DIMS:
        assert dists[d] < 1e-7, f"d={d}: {dists[d]:.3e}"
    assert elapsed < 5.0, f"SIC block took {elapsed:.2f}s"
    print(f"\n[criterion 01] PASS sic identity dists "
          + " ".join(f"d{d}={v:.1e}" for d, v in dists.items())
          + f" ({elapsed:.2f}s)")


def test_criterion_02_sic_conditions():
    """Every certified SIC: d^2 elements, weights exactly 1/d, overlaps at 1/(d+1)."""
    for d in (2, 3) + SEARCH_DIMS:
        tol = 1e-10 if d in (2, 3) else 1e-7
        cert = sic_check(weyl_orbit(fiducial(d)), tol)
        assert cert.check("element_count_dev").measured == 0
        assert cert.check("weight_dev").measured == 0.0
        overlap_dev = cert.check("overlap_dev").measured
        assert overlap_dev < tol, f"d={d}: {overlap_dev:.3e}"
    print("[criterion 02] PASS sic conditions for d=2..7")


def test_criterion_03_gram_rank_and_count_bound():
    """Paired vectors are linearly independent; element count meets the rank bound."""
    for d in (2, 3, 4):
        report = verify_sic_identity(d, fiducial(d))
        assert report.metadata["gram_rank"] == d * d
        assert report.metadata["target_rank"] == d * d
        assert report.check("count_vs_rank_dev").measured == 0
    print("[criterion 03] PASS gram rank = element count = rank of target = d^2, d=2..4")


def test_criterion_04_mub_identity():
    """MUB realized test equals the invariant test; paired subspaces orthogonal."""
    t0 = time.perf_counter()
    for d in (2, 3, 5, 7):
        report = verify_mub_identity(d)
        assert report.check("t_identity_dev").measured < 1e-10
        assert report.check("cross_subspace_ortho_dev").measured < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"MUB block took {elapsed:.2f}s"
    print(f"[criterion 04] PASS mub identity + orthogonality d=2,3,5,7 ({elapsed:.2f}s)")


def test_criterion_05_pvm_count_optimality():
    """Each projected span has rank d-1; the scheme uses exactly d+1 projective bases."""
    for d in (2, 3, 5, 7):
        fam = mub_prime(d)
        ranks = projected_span_ranks(fam)
        assert all(r == d - 1 for r in ranks), f"d={d}: ranks {ranks}"
        assert fam.n_bases == pvm_count_bound(d) == d + 1
    print("[criterion 05] PASS projected ranks d-1, basis count d+1, d=2,3,5,7")


def test_criterion_06_clifford_cardinality():
    """Enumeration sizes match both cardinality formulas; pair counts match brute force."""
    t0 = time.perf_counter()
    sizes = {d: len(group(d)) for d in (2, 3, 5)}
    elapsed = time.perf_counter() - t0
    assert sizes == {2: 24, 3: 216, 5: 3000}
    for d in (2, 3, 5):
        assert sizes[d] == d ** 3 * (d * d - 1)
        assert sizes[d] == clifford_cardinality(d)
    for d in (2, 3, 4, 5):
        counts = pair_product_counts(d)
        for n in range(d):
            brute = sum(1 for x in range(d) for y in range(d) if (x * y) % d == n)
            assert counts[n] == brute
    assert elapsed < 60.0, f"enumeration took {elapsed:.2f}s"
    print(f"[criterion 06] PASS cardinalities {sizes} ({elapsed:.2f}s)")


def test_criterion_07_clifford_identity():
    """Group-orbit test equals the two-pair invariant test; Weyl subgroup does not."""
    for d, tol in ((2, 1e-10), (3, 1e-9)):
        povm = clifford_povm(group(d))
        assert povm.completeness_defect() < 1e-10
        t = realized_test(povm)
        dist = frobenius_distance(t.matrix, invariant_test_double(d).matrix)
        assert dist < tol, f"d={d}: {dist:.3e}"
        assert abs(np.trace(t.matrix).real - d * d) < 1e-9
    control = realized_test(clifford_povm(weyl_group(2)))
    control_dist = frobenius_distance(control.matrix, invariant_test_double(2).matrix)
    assert control_dist > 0.1
    print(f"[criterion 07] PASS clifford identity d=2,3; weyl control dist {control_dist:.2f}")


def test_criterion_08_character_conditions():
    """Character moments certify irreducibility and the two-component decomposition."""
    for d in (2, 3):
        c1, c2 = character_moments(group(d))
        assert abs(c1 - 1) < 1e-8 and abs(c2 - 2) < 1e-8, f"d={d}: ({c1}, {c2})"
        w1, w2 = character_moments(weyl_group(d))
        assert abs(w1 - 1) < 1e-8
        assert abs(w2 - d * d) < 1e-8  # condition-(2) failure detected
    print("[criterion 08] PASS character moments (1,2); weyl subgroup c2=d^2")


def test_criterion_09_pair_action_invariance():
    """The realized test is invariant under the paired group action."""
    g = group(2)
    t = realized_test(clifford_povm(g)).matrix
    rng = np.random.default_rng(7)
    moves = []
    for _ in range(20):
        g1 = g[rng.integers(len(g))]
        g2 = g[rng.integers(len(g))]
        k = np.kron(np.kron(g1, g2.conj()), np.kron(g1.conj(), g2))
        moves.append(frobenius_distance(k @ t @ k.conj().T, t))
    assert max(moves) < 1e-9, f"max move {max(moves):.3e}"
    print(f"[criterion 09] PASS 20 conjugations move the test by at most {max(moves):.1e}")


def test_criterion_10_protocol_monte_carlo():
    """1e5-shot estimates sit within 3 binomial sigma of the exact acceptance."""
    t0 = time.perf_counter()
    povms = {("sic", d): weyl_orbit(fiducial(d)) for d in (2, 3)}
    povms.update({("mub", d): mub_povm(mub_prime(d)) for d in (2, 3)})
    hits, total = 0, 0
    for idx, ((scheme, d), m) in enumerate(sorted(povms.items())):
        for j, fid in enumerate((0.0, 0.5, 0.9, 1.0)):
            tr = run_protocol(m, isotropic_state(d, fid), 100000, 1000 + 17 * idx + j)
            expected = fid + (1 - fid) / (d + 1)
            assert abs(tr.analytic - expected) < 1e-10
            hits += tr.consistent_3sigma
            total += 1
    # the grid has 16 cells; at most one rare 3-sigma miss is allowed
    assert hits >= total - 1, f"only {hits}/{total} cells within 3 sigma"
    m = povms[("mub", 2)]
    t1 = run_protocol(m, isotropic_state(2, 0.9), 100000, 42)
    t2 = run_protocol(m, isotropic_state(2, 0.9), 100000, 42)
    assert np.array_equal(t1.alice_outcome_counts, t2.alice_outcome_counts)
    assert t1.accept_count == t2.accept_count
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"protocol block took {elapsed:.2f}s"
    print(f"[criterion 10] PASS {hits}/{total} cells within 3 sigma; reruns bit-identical ({elapsed:.2f}s)")


def test_criterion_11_search_determinism():
    """Fiducial search is reproducible and reaches 1e-8 at d=5 within budget."""
    cfg = FiducialSearchConfig(seed=123, restarts=100)
    t0 = time.perf_counter()
    f1 = search_fiducial(5, cfg)
    elapsed = time.perf_counter() - t0
    f2 = search_fiducial(5, cfg)
    assert np.array_equal(f1.vector, f2.vector)
    assert f1.residual == f2.residual
    assert f1.residual < 1e-8
    assert elapsed < 60.0, f"search took {elapsed:.2f}s"
    print(f"[criterion 11] PASS d=5 search residual {f1.residual:.1e}, "
          f"bit-identical rerun ({elapsed:.2f}s)")
