import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from conftest import (BipartiteState, acceptance_probability,
                      analytic_acceptance, dense_outcome_distribution,
                      dense_rho, invariant_test_double, invariant_test_single,
                      max_entangled, permute_subsystems, random_spectrum,
                      random_unitary, realized_test, require_psd,
                      state_with_min_eigenvalue, weyl_group)

from entverify import testops
from entverify.clifford import (clifford_povm, clifford_representatives,
                                coset_povm, enumerate_clifford, weyl_cosets)
from entverify.mub import mub_povm, mub_prime
from entverify.protocol import (MAX_SHOTS, BellDiagonalState, _binomial,
                                _log_pmf_ratio, double_isotropic_state,
                                isotropic_state, outcome_distribution,
                                run_protocol)
from entverify.sic import get_fiducial, known_fiducial, weyl_orbit
from entverify.testops import RankOnePovm


def test_isotropic_pure_limit():
    phi = max_entangled(2)
    s = isotropic_state(2, 1.0)
    assert np.allclose(dense_rho(s), np.outer(phi, phi.conj()))


def test_isotropic_mixed_point():
    # coefficients coincide at fidelity 1/d^2
    s = isotropic_state(3, 1 / 9)
    assert np.allclose(dense_rho(s), np.eye(9) / 9)


def test_isotropic_eigenvalues():
    s = isotropic_state(2, 0.7)
    vals = np.sort(np.linalg.eigvalsh(dense_rho(s)))[::-1]
    assert np.allclose(vals, [0.7, 0.1, 0.1, 0.1])


@pytest.mark.parametrize("d", (2, 3))
def test_rho_matches_dense_construction(d):
    # the dense states the simulator built before it worked from the spectrum
    phi = max_entangled(d)
    p = np.outer(phi, phi.conj())
    for f in (0.0, 1 / (d * d), 0.37, 0.8, 1.0):
        rho = f * p + (1 - f) * (np.eye(d * d) - p) / (d * d - 1)
        double = permute_subsystems(np.kron(rho, rho), [d, d, d, d], [0, 2, 1, 3])
        assert np.max(np.abs(dense_rho(isotropic_state(d, f)) - rho)) <= 1e-15
        assert np.max(np.abs(dense_rho(double_isotropic_state(d, f)) - double)) <= 1e-15


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


def test_outcome_distribution_rejects_a_povm_on_other_pairs():
    # each pair of POVM and state has dim 4 on Alice's side, but not the same pairs
    sic, reps = weyl_orbit(get_fiducial(4)), clifford_representatives(2)
    cases = [(coset_povm(reps), isotropic_state(4, 0.8), "a 2-pair POVM at d=2 does not fit a 1-pair state at d=4"),
             (sic, double_isotropic_state(2, 0.8), "a 1-pair POVM at d=4 does not fit a 2-pair state at d=2")]
    for m, s, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            outcome_distribution(m, s)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_protocol(m, s, 100, 0)


def test_weyl_control_two_step_equivalence():
    # equivalence holds for any complete POVM, not only scheme POVMs
    m = clifford_povm(weyl_group(2))
    s = double_isotropic_state(2, 0.6)
    q, accept = outcome_distribution(m, s)
    analytic = analytic_acceptance(realized_test(m), s)
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
    # the rules of the dense reference state
    with pytest.raises(ValueError):
        BipartiteState(2, np.eye(4))  # trace 4
    bad = np.diag([1.5, -0.5, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        BipartiteState(2, bad)


def _spectrum_with(d, index, value):
    r = np.full(d * d, 1 / (d * d))
    r[index] = value
    return r


@pytest.mark.parametrize("spectrum,match", [
    (_spectrum_with(2, 1, np.nan), "NaN"),
    (_spectrum_with(2, 1, np.inf), "NaN or Inf"),
    (_spectrum_with(2, 1, -1e-9) / (0.75 - 1e-9), "negative entry"),
    (_spectrum_with(2, 0, 0.25 + 2e-10), "sums to"),
    (np.full(3, 1 / 3), "shape"),
    (np.full((4, 2), 1 / 8), "shape"),
    (np.full((2, 2, 2, 2), 1 / 16), "shape"),
])
def test_spectrum_validation(spectrum, match):
    with pytest.raises(ValueError, match=match) as info:
        BellDiagonalState(2, spectrum)
    assert "\n" not in str(info.value)


def test_spectrum_within_tolerance_is_accepted():
    s = BellDiagonalState(2, [0.5 + 1e-10, 0.25, 0.25, -0.5e-10])   # sums to 1 + 0.5e-10
    assert s.pairs == 1
    assert BellDiagonalState(2, np.full((4, 4), 1 / 16)).pairs == 2


def reference_outcome_distribution(m, rho):
    """The n x d x d conditional-state einsum path the GEMM path replaced, on a dense rho."""
    dim = m.dim
    r = rho.reshape(dim, dim, dim, dim)
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


def _povm_and_state(rng, party):
    """A scheme POVM and a Bell-diagonal state with a random, non-isotropic spectrum."""
    if party == "single":
        return mub_povm(mub_prime(3)), BellDiagonalState(3, random_spectrum(rng, 3, party))
    return clifford_povm(enumerate_clifford(2)), BellDiagonalState(2, random_spectrum(rng, 2, party))


@pytest.mark.parametrize("party", ("single", "double"))
def test_outcome_distribution_matches_einsum_reference(rng, party):
    m, s = _povm_and_state(rng, party)
    q, accept = outcome_distribution(m, s)
    q_ref, accept_ref = reference_outcome_distribution(m, dense_rho(s))
    assert np.max(np.abs(q - q_ref)) <= 1e-13
    assert np.max(np.abs(accept - accept_ref)) <= 1e-13
    # the state is not isotropic, so the outcomes do not all accept alike
    assert np.ptp(accept) > 1e-3


@pytest.mark.parametrize("party", ("single", "double"))
def test_dense_reference_matches_einsum_reference(rng, party):
    # on a state that is not Bell-diagonal, where only the dense paths apply
    m = mub_povm(mub_prime(3)) if party == "single" else clifford_povm(enumerate_clifford(2))
    s = random_full_rank_state(rng, 3 if party == "single" else 2, party)
    q, accept = dense_outcome_distribution(m, s)
    q_ref, accept_ref = reference_outcome_distribution(m, s.rho)
    assert np.max(np.abs(q - q_ref)) <= 1e-13
    assert np.max(np.abs(accept - accept_ref)) <= 1e-13
    assert np.ptp(q) > 1e-3


def _scheme_povm(rng, scheme, d):
    if scheme == "mub":
        return mub_povm(mub_prime(d))
    if scheme == "clifford":
        return clifford_povm(enumerate_clifford(d))
    # A Weyl-covariant SIC accepts every Bell-diagonal state alike on all its
    # outcomes (test_sic_acceptance_depends_only_on_r0), so the SIC is rotated
    # by a random unitary: still a complete rank-one POVM, no longer covariant.
    m = weyl_orbit(get_fiducial(d))
    return RankOnePovm(d, m.weights, m.vectors @ random_unitary(rng, d).T)


@pytest.mark.parametrize("scheme,d", [("sic", d) for d in (2, 3, 4, 5)]
                         + [("mub", d) for d in (2, 3, 5, 7)]
                         + [("clifford", d) for d in (2, 3)])
def test_bell_path_matches_dense_reference(rng, scheme, d):
    m = _scheme_povm(rng, scheme, d)
    party = "double" if scheme == "clifford" else "single"
    s = BellDiagonalState(d, random_spectrum(rng, d, party))
    q, accept = outcome_distribution(m, s)
    q_ref, accept_ref = dense_outcome_distribution(m, BipartiteState(d, dense_rho(s), party))
    assert np.max(np.abs(q - q_ref)) <= 1e-13
    assert np.max(np.abs(accept - accept_ref)) <= 1e-13
    assert np.ptp(accept) > 1e-3


@pytest.mark.parametrize("d", (2, 3, 5))
def test_sic_acceptance_depends_only_on_r0(rng, d):
    # |<u_i|W_k|u_i>|^2 = 1/(d+1) for k != 0 on every element of a Weyl orbit SIC
    r = random_spectrum(rng, d, "single")
    _, accept = outcome_distribution(weyl_orbit(get_fiducial(d)), BellDiagonalState(d, r))
    assert np.max(np.abs(accept - (r[0] + (1 - r[0]) / (d + 1)))) <= 1e-12


@pytest.mark.parametrize("m,d", [(lambda: mub_povm(mub_prime(61)), 61),
                                 (lambda: weyl_orbit(get_fiducial(12)), 12)])
def test_single_pair_closed_form(m, d):
    # <u|W_0|u> = 1 and sum_k |<u|W_k|u>|^2 = d for any unit u, so an
    # isotropic state accepts with F + (1-F)/(d+1) on every outcome
    m = m()
    for f in (0.3, 0.8):
        q, accept = outcome_distribution(m, isotropic_state(d, f))
        assert np.max(np.abs(accept - (f + (1 - f) / (d + 1)))) <= 1e-12
        assert np.max(np.abs(q - m.weights / d)) <= 1e-15


def test_two_pair_closed_form():
    # sum_l |Tr(U^dag W_k U W_l^T)|^2 = d^2 for any unitary U, and it is 0 at
    # l = 0 for k != 0, so the product of two isotropic states accepts with
    # F^2 + (1-F)^2/(d^2-1) on every vectorized unitary
    d = 5
    m = clifford_povm(enumerate_clifford(d))
    for f in (0.3, 0.8):
        _, accept = outcome_distribution(m, double_isotropic_state(d, f))
        assert np.max(np.abs(accept - (f * f + (1 - f) ** 2 / (d * d - 1)))) <= 1e-12


def test_run_protocol_mub_d61_runtime_and_memory_guard():
    # about 0.7 s and 15 MB traced at d = 61 from the Bell spectrum, povm
    # build included; the dense 3721 x 3721 state took 8.5 s and 900 MB (2 CPUs)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        t = run_protocol(mub_povm(mub_prime(61)), isotropic_state(61, 0.8), 1000, 0)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(t.analytic - (0.8 + 0.2 / 62)) <= 1e-12
    assert elapsed < 2.0, f"run_protocol at MUB d = 61 took {elapsed:.2f} s"
    assert peak < 100e6, f"run_protocol at MUB d = 61 peaked at {peak / 1e6:.0f} MB"


def test_outcome_distribution_clifford_d5_memory_guard():
    # about 1.4 MB traced from the Bell spectrum in chunks; the dense path took
    # 66 MB traced for the same call (107 MB resident for the whole command)
    m = clifford_povm(enumerate_clifford(5))
    tracemalloc.start()
    try:
        outcome_distribution(m, double_isotropic_state(5, 0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"outcome_distribution at Clifford d = 5 peaked at {peak / 1e6:.0f} MB"


@pytest.mark.parametrize("d", (2, 3))
def test_coset_acceptance_matches_every_element(rng, d):
    # Bob accepts alike on each coset {C W_k}, so the representatives give
    # every outcome's acceptance, listed coset by coset as the orbit's elements
    reps = clifford_representatives(d)
    orbit = clifford_povm(weyl_cosets(reps))
    for _ in range(3):
        s = BellDiagonalState(d, random_spectrum(rng, d, "double"))
        q, accept = outcome_distribution(coset_povm(reps), s)
        q_el, accept_el = outcome_distribution(orbit, s)
        q_ref, accept_ref = dense_outcome_distribution(orbit, BipartiteState(d, dense_rho(s), "double"))
        assert q.shape == accept.shape == (d ** 3 * (d * d - 1),)
        assert np.max(np.abs(q - q_el)) <= 1e-15 and np.max(np.abs(accept - accept_el)) <= 1e-14
        assert np.max(np.abs(q - q_ref)) <= 1e-13 and np.max(np.abs(accept - accept_ref)) <= 1e-13
        assert np.ptp(accept) > 1e-3


@pytest.mark.parametrize("case", ("mub23", "clifford3"))
def test_acceptance_is_bit_identical_under_every_chunk_size(monkeypatch, case):
    # each acceptance is reduced row by row, so its bits do not depend on how
    # many rows share a chunk (a BLAS matrix-vector product's do)
    if case == "mub23":
        m, s = mub_povm(mub_prime(23)), isotropic_state(23, 0.83)
    else:
        reps = clifford_representatives(3)
        m, s = coset_povm(reps), BellDiagonalState(3, random_spectrum(np.random.default_rng(5), 3, "double"))
    results = []
    for chunk in (2 ** 14, 2 ** 12, 200):
        monkeypatch.setattr(testops, "BELL_CHUNK", chunk)
        _, accept = outcome_distribution(m, s)
        results.append((accept, run_protocol(m, s, 1000, 3).analytic))
    assert len(testops.chunks(m.n_elements, m.dim ** 2)) > 1
    for accept, analytic in results[1:]:
        assert np.array_equal(accept, results[0][0]) and analytic == results[0][1]


def test_simulate_clifford_d5_from_representatives_memory_guard():
    # about 0.6 MB traced for 10^7 shots over the 3000 outcomes; the orbit's
    # vectors alone would take 1.2 MB
    tracemalloc.start()
    try:
        t = run_protocol(coset_povm(clifford_representatives(5)), double_isotropic_state(5, 0.8),
                         10 ** 7, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(t.alice_outcome_counts) == 3000 and t.alice_outcome_counts.sum() == 10 ** 7
    assert abs(t.analytic - (0.8 ** 2 + 0.2 ** 2 / 24)) <= 1e-12   # test_two_pair_closed_form
    assert peak < 1.0e6, f"simulate at Clifford d = 5 peaked at {peak / 1e6:.2f} MB"


def reference_per_shot_sample(q, accept, shots, seed):
    """The per-shot sampler the count sampler replaced: two uniforms per shot."""
    rng = np.random.Generator(np.random.Philox(seed))
    u_alice = rng.random(shots)
    u_bob = rng.random(shots)
    cum = np.cumsum(q / q.sum())
    outcomes = np.minimum(np.searchsorted(cum, u_alice, side="right"), len(q) - 1)
    accepts = u_bob < accept[outcomes]
    return np.bincount(outcomes, minlength=len(q)), int(accepts.sum())


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
    expected = acceptance_probability(realized_test(m), dense_rho(s))
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
    # the positivity rule of dense states (acceptance_probability, the reference state)
    rho = state_with_min_eigenvalue(rng, d ** (2 if structure == "single" else 4), lam_min)
    assert (np.linalg.eigvalsh(rho)[0] >= -1e-10) == ok
    if ok:
        require_psd(rho, 1e-10, name="state")
    else:
        with pytest.raises(ValueError, match="positive semi-definite"):
            require_psd(rho, 1e-10, name="state")


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None])
def test_run_protocol_rejects_bad_seed(seed):
    m = mub_povm(mub_prime(2))
    with pytest.raises(ValueError, match="seed must be a non-negative integer") as info:
        run_protocol(m, isotropic_state(2, 0.8), 100, seed)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("shots", [2.5, 2.0, "3", None])
def test_run_protocol_rejects_non_integer_shots(shots):
    m = mub_povm(mub_prime(2))
    with pytest.raises(ValueError, match="shots must be an integer") as info:
        run_protocol(m, isotropic_state(2, 0.8), shots, 0)
    assert "\n" not in str(info.value)


def test_numpy_integer_shots_are_the_int_shots():
    m = mub_povm(mub_prime(3))
    s = isotropic_state(3, 0.8)
    t = run_protocol(m, s, np.int64(1000), 5)
    assert type(t.shots) is int
    assert t.to_dict() == run_protocol(m, s, 1000, 5).to_dict()


def test_numpy_integer_seed_is_the_int_seed():
    m = mub_povm(mub_prime(3))
    s = isotropic_state(3, 0.8)
    t1, t2 = run_protocol(m, s, 10 ** 6, np.int64(5)), run_protocol(m, s, 10 ** 6, 5)
    assert t1.to_dict() == t2.to_dict() and type(t1.seed) is int


def _binomial_pmf(n, p):
    return [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def _chi_square_upper(df, z=3.719):
    """Wilson-Hilferty approximation of the chi-square quantile at normal z (1 - 1e-4)."""
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize("n,p,branch", [(1000, 0.005, "geometric"), (50, 0.3, "btrs"),
                                        (25, 0.4, "btrs"), (40, 0.9, "reflected geometric"),
                                        (60, 0.75, "reflected btrs")])
def test_binomial_matches_exact_pmf(n, p, branch):
    draws = 20_000
    rng = random.Random(1234)
    hist = np.bincount([_binomial(rng, n, p) for _ in range(draws)], minlength=n + 1)
    expected = draws * np.array(_binomial_pmf(n, p))
    # pool each tail into its neighbour until every cell expects at least 5
    cells, obs, exp = [], 0, 0.0
    for o, e in zip(hist, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5:
            cells.append((obs, exp))
            obs, exp = 0, 0.0
    cells[-1] = (cells[-1][0] + obs, cells[-1][1] + exp)
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    assert chi2 < _chi_square_upper(len(cells) - 1), f"{branch}: chi2 {chi2:.1f} over {len(cells)} cells"


def test_binomial_exact_edges():
    rng = random.Random(0)
    for p in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert _binomial(rng, 0, p) == 0
    for n in (1, 7, 10 ** 12, MAX_SHOTS):
        assert _binomial(rng, n, 0.0) == 0
        assert _binomial(rng, n, 1.0) == n
    for p in (1e-300, 0.3, 0.5, 0.9, 1 - 1e-16):
        ones = [_binomial(rng, 1, p) for _ in range(2000)]
        assert set(ones) <= {0, 1}
        assert abs(sum(ones) - 2000 * p) <= 5 * math.sqrt(2000 * p * (1 - p)) + 1e-9


@pytest.mark.parametrize("n,p", [(10 ** 12, 0.1234), (10 ** 12, 0.7), (MAX_SHOTS, 0.3),
                                 (MAX_SHOTS, 0.5), (MAX_SHOTS, 5e-19), (MAX_SHOTS, 3e-18)])
def test_binomial_mean_at_huge_n(n, p):
    draws = 400
    rng = random.Random(99)
    xs = [_binomial(rng, n, p) for _ in range(draws)]
    assert all(type(x) is int and 0 <= x <= n for x in xs)
    sigma = math.sqrt(n * p * (1 - p))
    mean = sum(xs) / draws
    assert abs(mean - n * p) <= 5 * sigma / math.sqrt(draws)
    # the spread is the binomial one, not a rounding grid or a broken squeeze
    sd = math.sqrt(sum((x - mean) ** 2 for x in xs) / (draws - 1))
    assert 0.8 < sd / sigma < 1.2
    if n * p > 2 ** 53:
        # draws land on every integer, not only on doubles near n p
        assert any(float(x) != x for x in xs)


@pytest.mark.parametrize("n,p", [(50, 0.3), (25, 0.4), (1000, 0.2), (3000, 0.5)])
def test_log_pmf_ratio_matches_exact(n, p):
    pa, pb = p.as_integer_ratio()
    qa = pb - pa
    m = (n + 1) * pa // pb
    sigma = math.sqrt(n * p * (1 - p))
    for k in {0, n, m, m + 1, max(m - int(3 * sigma), 0), min(m + int(4 * sigma), n)}:
        # log of C(n,k) pa^k qa^(n-k) / (C(n,m) pa^m qa^(n-m)), from exact integers
        exact = (math.log(math.comb(n, k) * pa ** k * qa ** (n - k))
                 - math.log(math.comb(n, m) * pa ** m * qa ** (n - m)))
        assert abs(_log_pmf_ratio(n, pa, qa, m, k) - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("p", [0.3, 0.5, 1 / 3])
def test_log_pmf_ratio_at_max_shots(p):
    # lgamma(n + 1) is about 4e20 here, so the lgamma form is off by hundreds
    mpmath = pytest.importorskip("mpmath")
    n = MAX_SHOTS
    pa, pb = p.as_integer_ratio()
    m = (n + 1) * pa // pb
    sigma = math.sqrt(n * p * (1 - p))
    for dk in (0, 1, -int(sigma), int(2 * sigma), -int(3 * sigma)):
        k = m + dk
        with mpmath.workdps(60):
            exact = (mpmath.loggamma(m + 1) + mpmath.loggamma(n - m + 1) - mpmath.loggamma(k + 1)
                     - mpmath.loggamma(n - k + 1) + (k - m) * mpmath.log(mpmath.mpf(pa) / (pb - pa)))
        assert abs(_log_pmf_ratio(n, pa, pb - pa, m, k) - float(exact)) <= 1e-6
