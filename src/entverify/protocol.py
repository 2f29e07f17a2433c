"""Simulation of the one-way LOCC test by sampling outcome counts.

Alice measures her rank-one POVM, transmits the outcome, and Bob applies the
two-valued check onto the conjugate vector. A run of many shots is fully
described by Alice's outcome histogram and Bob's accept count, so these are
sampled directly: the histogram is multinomial in Alice's outcome
probabilities, and given it, the accepts of each outcome are binomial in
Bob's conditional acceptance. This is the same distribution as sampling the
shots one by one, at a cost independent of the shot count. Every state
simulated is Bell-diagonal, and Bob's conditional acceptance is computed
exactly from its Bell spectrum through the Weyl transforms of `testops`; no
density operator is formed.

Randomness comes from Python's `random.Random(seed)`, the one generator of the
package, through the exact binomial sampler `_binomial` below (Devroye's
geometric method for small means, Hormann's BTRS otherwise), so transcripts
are reproducible bit for bit from the seed. numpy.random is never imported:
it would add about 6 MB and 15 ms to each simulate process, more than the
sampling costs at 10^7 shots.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass

import numpy as np

from .linalg import require_finite, require_seed
from .testops import RankOnePovm, squared_norms, squared_weyl_overlaps

ZERO_OUTCOME_TOL = 1e-15
MARGINAL_TOL = 1e-9
SPECTRUM_TOL = 1e-10
MAX_SHOTS = 2 ** 63 - 1   # counts are returned as int64


@dataclass(eq=False)
class BellDiagonalState:
    """State diagonal on the Bell basis, given by its spectrum over Weyl labels.

    One pair: spectrum r of shape (d^2,), the state
    sum_k r_k |Phi_k><Phi_k| with |Phi_k> = (W_k x I)|phi> (Weyl labels as in
    the testops module docstring). Two pairs: shape (d^2, d^2), the
    state sum_kl r_kl |Phi_k><Phi_k| x |Phi_l><Phi_l| on the pairs (A1,B1),
    (A2,B2), in canonical factor order A1,A2,B1,B2.
    """

    local_dim: int
    spectrum: np.ndarray

    def __post_init__(self):
        d = self.local_dim
        r = require_finite(np.asarray(self.spectrum, dtype=float), "spectrum")
        if r.shape not in ((d * d,), (d * d, d * d)):
            raise ValueError(f"spectrum must have shape ({d * d},) or ({d * d}, {d * d}), got {r.shape}")
        if r.min() < -SPECTRUM_TOL:
            raise ValueError(f"spectrum has a negative entry {r.min():.3e}")
        if abs(r.sum() - 1) > SPECTRUM_TOL:
            raise ValueError(f"spectrum sums to {float(r.sum())!r}, not 1")
        self.spectrum = r

    @property
    def pairs(self) -> int:
        return self.spectrum.ndim


@dataclass(eq=False)
class ProtocolTranscript:
    shots: int
    seed: int
    alice_outcome_counts: np.ndarray
    accept_count: int
    estimate: float
    analytic: float

    @property
    def stderr(self) -> float:
        """Binomial standard error around the analytic acceptance probability."""
        return float(np.sqrt(max(self.analytic * (1 - self.analytic), 0.0) / self.shots))

    @property
    def consistent_3sigma(self) -> bool:
        # the 1e-12 slack absorbs fp rounding of the analytic trace at the
        # degenerate endpoints where the binomial sigma vanishes
        return abs(self.estimate - self.analytic) <= 3 * self.stderr + 1e-12

    def to_dict(self) -> dict:
        return {
            "shots": self.shots, "seed": self.seed,
            "outcome_histogram": [int(c) for c in self.alice_outcome_counts],
            "accept_count": self.accept_count,
            "estimate": self.estimate, "analytic": self.analytic,
            "stderr": self.stderr, "consistent_3sigma": self.consistent_3sigma,
        }


def isotropic_state(d: int, fidelity: float) -> BellDiagonalState:
    """Maximally entangled state mixed with isotropic noise at the given fidelity."""
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    r = np.full(d * d, (1 - fidelity) / (d * d - 1))
    r[0] = fidelity
    return BellDiagonalState(d, r)


def double_isotropic_state(d: int, fidelity: float) -> BellDiagonalState:
    """Product of two isotropic states on the pairs (A1,B1), (A2,B2), canonical order."""
    r = isotropic_state(d, fidelity).spectrum
    return BellDiagonalState(d, np.outer(r, r))


def outcome_distribution(m: RankOnePovm, s: BellDiagonalState) -> tuple[np.ndarray, np.ndarray]:
    """Alice's outcome probabilities and Bob's conditional acceptance per outcome.

    Alice's reduced state is I/D (D = m.dim), so outcome i has probability
    p_i |u_i|^2 / D. Bob's acceptance numerator <pair_i|rho|pair_i> is
    (1/D) sum_k r_k |<u_i|V_k|u_i>|^2 over the Weyl operators V_k of the
    state's labels (W_k, or W_k x W_l for two pairs), from the chunked loop
    testops.squared_weyl_overlaps that bell_spectrum also runs, reduced row
    by row (an einsum, whose rows do not depend on the chunk size as those
    of a BLAS matrix-vector product do).

    A row of d^2 outcomes (testops.RankOnePovm) stands for its Weyl orbit,
    which shares its |<u|V|u>|, so its outcomes share its acceptance and
    split its probability evenly: a Clifford representative C for its coset
    {C W_k} (clifford.coset_povm). Each row's values are computed once and
    repeated, so both arrays list every outcome, coset by coset.
    Outcomes with probability below 1e-15 are assigned conditional rejection,
    which keeps the zero-probability branch free of 0/0. The POVM must act
    on the state's pairs: the same pair count and local dimension.
    """
    d, u = s.local_dim, m.vectors
    if (m.pairs, m.local_dim) != (s.pairs, d):
        raise ValueError(f"a {m.pairs}-pair POVM at d={m.local_dim} does not fit a {s.pairs}-pair state at d={d}")
    norm2 = squared_norms(u)
    q = np.clip(m.weights * norm2 / m.dim, 0, None)
    if abs(q.sum() - 1) > MARGINAL_TOL:
        raise ValueError(f"outcome probabilities sum to {q.sum()}, POVM/state inconsistent")
    r = s.spectrum.reshape(-1)
    accept_num = np.empty(m.n_elements)
    for rows, mod2 in squared_weyl_overlaps(u, d):
        accept_num[rows] = np.einsum("ij,j->i", mod2, r)
    live = q > ZERO_OUTCOME_TOL
    accept = np.zeros_like(q)
    accept[live] = np.clip(accept_num[live] / norm2[live], 0, 1)
    k = m.outcomes_per_row
    return np.repeat(q / k, k), np.repeat(accept, k)


def _stirling_tail(k: int) -> float:
    """lgamma(k + 1) - ((k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2), for int k >= 0."""
    if k < 10:
        return _STIRLING_TAIL[k]
    z2 = float(k + 1) ** 2
    return (1 / 12 - (1 / 360 - 1 / (1260 * z2)) / z2) / (k + 1)


_STIRLING_TAIL = [math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1)
                  - 0.5 * math.log(2 * math.pi) for k in range(10)]


def _log_pmf_ratio(n: int, pa: int, qa: int, m: int, k: int) -> float:
    """log(f(k) / f(m)) for the Binomial(n, p) pmf f, where p / (1 - p) = pa / qa.

    Hormann's Stirling-tail form of lgamma(m+1) + lgamma(n-m+1) - lgamma(k+1)
    - lgamma(n-k+1) + (k-m) log(pa/qa), with each logarithm written as the
    log1p of a correctly rounded ratio of integers. The lgamma form subtracts
    numbers near n log n (4e20 at n = 2**63, where doubles are 65536 apart);
    here each term is of order |k - m| + 1 and has a relative error near 1e-16.
    """
    return ((m + 0.5) * math.log1p(((m + 1) * qa - pa * (n - m + 1)) / (pa * (n - m + 1)))
            + (n + 1) * math.log1p((k - m) / (n - k + 1))
            + (k + 0.5) * math.log1p((pa * (n - k + 1) - qa * (k + 1)) / (qa * (k + 1)))
            + _stirling_tail(m) + _stirling_tail(n - m) - _stirling_tail(k) - _stirling_tail(n - k))


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw from rng, for any int n >= 0 and p in [0, 1].

    Draws n - B(n, 1 - p) when p > 1/2. Then Devroye's geometric method
    (the gaps between successes) when n p < 10, else Hormann's BTRS, the
    transformed rejection with squeeze of "The generation of binomial random
    variates" (1993). n stays a Python int: BTRS places its draws at the mode
    m = floor((n + 1) p), computed exactly from p's binary fraction, so counts
    are exact up to MAX_SHOTS, also where n p is no longer a double.
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        log_q = math.log1p(-p)
        x = y = 0
        while True:
            gap = math.log(1.0 - rng.random()) / log_q   # 1 - random() is never 0
            if gap >= n - y:
                return x
            y += math.floor(gap) + 1
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    vr = 0.92 - 4.2 / b
    pa, pb = p.as_integer_ratio()
    m = (n + 1) * pa // pb
    c = (2 * (n * pa - m * pb) + pb) / (2 * pb)   # n p + 1/2 - m
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:   # u = -1/2 maps to k = -inf
            continue
        k = m + math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - rng.random()   # uniform on (0, 1], so its log is finite
        if us >= 0.07 and v <= vr:
            return k
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf_ratio(n, pa, pb - pa, m, k):
            return k


def _multinomial(rng: random.Random, n: int, q: np.ndarray) -> list[int]:
    """Multinomial(n, q / q.sum()) counts as Python ints, by conditional binomials.

    Outcome i of the support q > 0 draws from the shots left with probability
    q_i over the mass of the support from i on, in index order; the last
    support outcome takes the remainder, so an outcome with q_i = 0 never gets
    a count. The mass is a suffix sum, so each ratio lies in [0, 1].
    """
    counts = [0] * len(q)
    support = np.flatnonzero(q > 0)
    mass = np.cumsum(q[support][::-1])[::-1]
    left = n
    for i, qi, rest in zip(support[:-1].tolist(), q[support[:-1]].tolist(), mass[:-1].tolist()):
        counts[i] = _binomial(rng, left, qi / rest)
        left -= counts[i]
        if left == 0:
            return counts
    counts[support[-1]] = left
    return counts


def run_protocol(m: RankOnePovm, s: BellDiagonalState, shots: int, seed: int) -> ProtocolTranscript:
    """Simulate the two-step protocol for a number of shots, deterministically in seed.

    Draws the outcome histogram counts ~ Multinomial(shots, q) and the accept
    count as the sum over outcomes with counts_i > 0 of Binomial(counts_i,
    accept_i), both from one random.Random(seed) stream: time and memory grow
    with the number of outcomes, not with shots. shots is an integer in
    [1, MAX_SHOTS] and seed a non-negative integer (numbers.Integral). Each
    row of m stands for m.outcomes_per_row outcomes, as in outcome_distribution.
    """
    if not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    shots = int(shots)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}")
    seed = require_seed(seed)
    q, accept = outcome_distribution(m, s)
    analytic = float(q @ accept)   # = Tr(T rho) for the test T the POVM realizes
    rng = random.Random(seed)
    counts = _multinomial(rng, shots, q)
    n_accept = sum(_binomial(rng, c, a) for c, a in zip(counts, accept.tolist()) if c)
    return ProtocolTranscript(shots, seed, np.array(counts, dtype=np.int64), n_accept,
                              n_accept / shots, analytic)
