import time

import numpy as np
import pytest
from conftest import (analytic_acceptance, random_unitary,
                      state_with_min_eigenvalue, weyl_group)

from entverify.clifford import clifford_povm, enumerate_clifford
from entverify.mub import mub_povm, mub_prime
from entverify.protocol import (MAX_SHOTS, BipartiteState,
                                double_isotropic_state, isotropic_state,
                                outcome_distribution, run_protocol)
from entverify.sic import known_fiducial, weyl_orbit
from entverify.testops import (RankOnePovm, acceptance_probability,
                               invariant_test_double, invariant_test_single,
                               max_entangled, realized_test)


def test_isotropic_pure_limit():
    phi = max_entangled(2)
    s = isotropic_state(2, 1.0)
    assert np.allclose(s.rho, np.outer(phi, phi.conj()))


def test_isotropic_mixed_point():
    # coefficients coincide at fidelity 1/d^2
    s = isotropic_state(3, 1 / 9)
    assert np.allclose(s.rho, np.eye(9) / 9)


def test_isotropic_eigenvalues():
    s = isotropic_state(2, 0.7)
    vals = np.sort(np.linalg.eigvalsh(s.rho))[::-1]
    assert np.allclose(vals, [0.7, 0.1, 0.1, 0.1])


def test_isotropic_rejects_bad_fidelity():
    for f in (-0.1, 1.5):
        with pytest.raises(ValueError):
            isotropic_state(2, f)


def test_analytic_acceptance_isotropic():
    got = analytic_acceptance(invariant_test_single(2), isotropic_state(2, 0.9))
    assert abs(got - (0.9 + 0.1 / 3)) < 1e-12


def test_analytic_acceptance_pure():
    for d in (2, 3):
        assert abs(analytic_acceptance(invariant_test_single(d),
                                       isotropic_state(d, 1.0)) - 1) < 1e-12


def test_analytic_acceptance_double_pure():
    got = analytic_acceptance(invariant_test_double(2), double_isotropic_state(2, 1.0))
    assert abs(got - 1) < 1e-12


def test_analytic_acceptance_party_mismatch():
    with pytest.raises(ValueError):
        analytic_acceptance(invariant_test_double(2), isotropic_state(4, 0.5))


def test_run_protocol_pure_sic_all_accept():
    m = weyl_orbit(known_fiducial(2))
    t = run_protocol(m, isotropic_state(2, 1.0), 10000, 7)
    assert t.estimate == 1.0
    assert t.analytic == pytest.approx(1.0, abs=1e-12)


def test_run_protocol_mub_reference_cell():
    m = mub_povm(mub_prime(2))
    t = run_protocol(m, isotropic_state(2, 0.9), 100000, 42)
    assert abs(t.analytic - 0.93333333) < 1e-7
    assert abs(t.estimate - t.analytic) <= 3 * t.stderr
    assert 3 * t.stderr == pytest.approx(0.0024, abs=3e-4)


def test_run_protocol_clifford_double():
    m = clifford_povm(enumerate_clifford(2))
    s = double_isotropic_state(2, 0.9)
    t = run_protocol(m, s, 100000, 11)
    expected = 0.9 ** 2 + (0.1 ** 2) / 3
    assert abs(t.analytic - expected) < 1e-12
    assert abs(t.estimate - t.analytic) <= 3 * t.stderr


def test_transcript_counts_sum_to_shots():
    m = mub_povm(mub_prime(3))
    t = run_protocol(m, isotropic_state(3, 0.5), 20000, 1)
    assert int(t.alice_outcome_counts.sum()) == 20000
    assert 0 <= t.estimate <= 1


def test_marginal_distribution_normalized():
    for d, m in ((2, mub_povm(mub_prime(2))), (2, weyl_orbit(known_fiducial(2)))):
        for fid in (0.0, 0.5, 1.0):
            q, _ = outcome_distribution(m, isotropic_state(d, fid))
            assert abs(q.sum() - 1) < 1e-9


def test_two_step_equals_trace_formula():
    # exact identity: sum_i q_i Pr(accept|i) = Tr(T(M) rho)
    m = mub_povm(mub_prime(3))
    s = isotropic_state(3, 0.37)
    q, accept = outcome_distribution(m, s)
    analytic = analytic_acceptance(realized_test(m), s)
    assert abs(float(q @ accept) - analytic) < 1e-10


def test_weyl_control_two_step_equivalence():
    # equivalence holds for any complete POVM, not only scheme POVMs
    m = clifford_povm(weyl_group(2))
    s = double_isotropic_state(2, 0.6)
    q, accept = outcome_distribution(m, s)
    analytic = analytic_acceptance(realized_test(m, double=True), s)
    assert abs(float(q @ accept) - analytic) < 1e-10


def test_determinism_bit_for_bit():
    m = mub_povm(mub_prime(2))
    s = isotropic_state(2, 0.8)
    t1 = run_protocol(m, s, 5000, 99)
    t2 = run_protocol(m, s, 5000, 99)
    assert np.array_equal(t1.alice_outcome_counts, t2.alice_outcome_counts)
    assert t1.accept_count == t2.accept_count
    assert t1.estimate == t2.estimate


def test_seed_changes_stream():
    m = mub_povm(mub_prime(2))
    s = isotropic_state(2, 0.8)
    t1 = run_protocol(m, s, 5000, 1)
    t2 = run_protocol(m, s, 5000, 2)
    assert not np.array_equal(t1.alice_outcome_counts, t2.alice_outcome_counts)


def test_convergence_over_shot_decades():
    m = mub_povm(mub_prime(2))
    s = isotropic_state(2, 0.7)
    analytic = analytic_acceptance(realized_test(m), s)
    rms = []
    for shots in (1000, 10000, 100000):
        errs = [run_protocol(m, s, shots, seed).estimate - analytic
                for seed in range(10)]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    assert rms[0] > rms[1] > rms[2]
    final = run_protocol(m, s, 100000, 0)
    assert abs(final.estimate - analytic) <= 3 * final.stderr


def test_zero_probability_outcome_is_rejected_branch():
    # third element has zero weight: never sampled, conditional defined as reject
    vecs = np.array([[1, 0], [0, 1], [1, 1] / np.sqrt(2)], dtype=complex)
    m = RankOnePovm(2, np.array([1.0, 1.0, 0.0]), vecs)
    s = isotropic_state(2, 0.9)
    q, accept = outcome_distribution(m, s)
    assert q[2] == 0.0 and accept[2] == 0.0
    t = run_protocol(m, s, 20000, 4)
    assert t.alice_outcome_counts[2] == 0
    assert np.isfinite(t.estimate)
    # the impossible outcome is last, where the multinomial puts its remainder
    for seed in range(20):
        assert run_protocol(m, s, 10 ** 15, seed).alice_outcome_counts[2] == 0


def test_run_protocol_rejects_dim_mismatch():
    m = mub_povm(mub_prime(2))
    with pytest.raises(ValueError):
        run_protocol(m, isotropic_state(3, 0.5), 100, 0)


def test_state_validation():
    with pytest.raises(ValueError):
        BipartiteState(2, np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        BipartiteState(2, bad)


def reference_outcome_distribution(m, s):
    """The n x d x d conditional-state einsum path the GEMM path replaced."""
    dim = m.dim
    r = s.rho.reshape(dim, dim, dim, dim)
    sigma = np.einsum("ia,abcd,ic->ibd", m.vectors.conj(), r, m.vectors)
    tr = np.einsum("ibb->i", sigma).real
    q = np.clip(m.weights * tr, 0, None)
    accept_num = np.einsum("ib,ibd,id->i", m.vectors, sigma, m.vectors.conj()).real
    live = q > 1e-15
    accept = np.zeros_like(q)
    accept[live] = np.clip(accept_num[live] / tr[live], 0, 1)
    return q, accept


def random_full_rank_state(rng, d, party):
    # a random spectrum in a random basis: full rank and far from isotropic
    n = d ** (2 if party == "single" else 4)
    u = random_unitary(rng, n)
    p = rng.uniform(0.1, 1.0, n)
    return BipartiteState(d, (u * (p / p.sum())) @ u.conj().T, party)


@pytest.mark.parametrize("party", ("single", "double"))
def test_outcome_distribution_matches_einsum_reference(rng, party):
    if party == "single":
        m, d = mub_povm(mub_prime(3)), 3
    else:
        m, d = clifford_povm(enumerate_clifford(2)), 2
    s = random_full_rank_state(rng, d, party)
    q, accept = outcome_distribution(m, s)
    q_ref, accept_ref = reference_outcome_distribution(m, s)
    assert np.max(np.abs(q - q_ref)) <= 1e-13
    assert np.max(np.abs(accept - accept_ref)) <= 1e-13
    # the state is not isotropic, so the outcomes are not all equally likely
    assert np.ptp(q) > 1e-3


def reference_per_shot_sample(q, accept, shots, seed):
    """The per-shot sampler the count sampler replaced: two uniforms per shot."""
    rng = np.random.Generator(np.random.Philox(seed))
    u_alice = rng.random(shots)
    u_bob = rng.random(shots)
    cum = np.cumsum(q / q.sum())
    outcomes = np.minimum(np.searchsorted(cum, u_alice, side="right"), len(q) - 1)
    accepts = u_bob < accept[outcomes]
    return np.bincount(outcomes, minlength=len(q)), int(accepts.sum())


def _povm_and_state(rng, party):
    if party == "single":
        return mub_povm(mub_prime(3)), random_full_rank_state(rng, 3, party)
    return clifford_povm(enumerate_clifford(2)), random_full_rank_state(rng, 2, party)


@pytest.mark.parametrize("party", ("single", "double"))
def test_count_and_per_shot_samplers_within_5_sigma(rng, party):
    m, s = _povm_and_state(rng, party)
    q, accept = outcome_distribution(m, s)
    shots = 200_000
    p = float(q @ accept)
    t = run_protocol(m, s, shots, 3)
    samples = {"count": (t.alice_outcome_counts, t.accept_count),
               "per_shot": reference_per_shot_sample(q, accept, shots, 3)}
    for counts, n_accept in samples.values():
        assert int(counts.sum()) == shots
        assert np.all(np.abs(counts - shots * q) <= 5 * np.sqrt(shots * q * (1 - q)))
        assert abs(n_accept - shots * p) <= 5 * np.sqrt(shots * p * (1 - p))


@pytest.mark.parametrize("party", ("single", "double"))
def test_analytic_is_trace_of_realized_test(rng, party):
    m, s = _povm_and_state(rng, party)
    t = run_protocol(m, s, 1000, 0)
    expected = acceptance_probability(realized_test(m, double=(party == "double")), s.rho)
    assert abs(t.analytic - expected) <= 1e-12


def test_single_shot():
    m = mub_povm(mub_prime(2))
    t = run_protocol(m, isotropic_state(2, 0.8), 1, 0)
    assert int(t.alice_outcome_counts.sum()) == 1
    assert t.accept_count in (0, 1)
    assert t.estimate == t.accept_count


def test_shots_bounded_at_int64_limit():
    m = mub_povm(mub_prime(2))
    s = isotropic_state(2, 0.8)
    t = run_protocol(m, s, MAX_SHOTS, 0)
    assert int(t.alice_outcome_counts.sum()) == MAX_SHOTS == 2 ** 63 - 1
    with pytest.raises(ValueError, match="at most"):
        run_protocol(m, s, 2 ** 63, 0)


def test_cost_does_not_grow_with_shots():
    # a per-shot sampler would need days and terabytes for this
    m = mub_povm(mub_prime(5))
    s = isotropic_state(5, 0.8)
    start = time.perf_counter()
    t = run_protocol(m, s, 10 ** 12, 8)
    assert time.perf_counter() - start < 1.0
    assert int(t.alice_outcome_counts.sum()) == 10 ** 12
    assert abs(t.estimate - t.analytic) <= 5 * t.stderr


@pytest.mark.parametrize("lam_min,ok", [(-10e-10, False), (-0.1e-10, True)])
@pytest.mark.parametrize("d,structure", [(3, "single"), (2, "double")])
def test_state_psd_rule_matches_eigvalsh(rng, d, structure, lam_min, ok):
    rho = state_with_min_eigenvalue(rng, d ** (2 if structure == "single" else 4), lam_min)
    assert (np.linalg.eigvalsh(rho)[0] >= -1e-10) == ok
    if ok:
        BipartiteState(d, rho, structure)
    else:
        with pytest.raises(ValueError, match="positive semi-definite"):
            BipartiteState(d, rho, structure)
