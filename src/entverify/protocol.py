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
Randomness comes from numpy's Philox generator (a published counter-based
64-bit generator), so transcripts are reproducible bit-for-bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_finite
from .testops import RankOnePovm, squared_weyl_overlaps

ZERO_OUTCOME_TOL = 1e-15
MARGINAL_TOL = 1e-9
SPECTRUM_TOL = 1e-10
MAX_SHOTS = 2 ** 63 - 1   # counts are sampled as int64


@dataclass(eq=False)
class BellDiagonalState:
    """State diagonal on the Bell basis, given by its spectrum over Weyl labels.

    One pair ("single"): spectrum r of shape (d^2,), the state
    sum_k r_k |Phi_k><Phi_k| with |Phi_k> = (W_k x I)|phi> (Weyl labels as in
    the testops module docstring). Two pairs ("double"): shape (d^2, d^2), the
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
    def party_structure(self) -> str:
        return "single" if self.spectrum.ndim == 1 else "double"


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
    testops.squared_weyl_overlaps that bell_spectrum also runs.
    Outcomes with probability below 1e-15 are assigned conditional rejection,
    which keeps the zero-probability branch free of 0/0.
    """
    d, u = s.local_dim, m.vectors
    single = s.party_structure == "single"
    if m.dim != (d if single else d * d):
        raise ValueError(f"POVM dimension {m.dim} does not match a {s.party_structure} state at d={d}")
    norm2 = np.einsum("ia,ia->i", u.real, u.real) + np.einsum("ia,ia->i", u.imag, u.imag)
    q = np.clip(m.weights * norm2 / m.dim, 0, None)
    if abs(q.sum() - 1) > MARGINAL_TOL:
        raise ValueError(f"outcome probabilities sum to {q.sum()}, POVM/state inconsistent")
    r = s.spectrum.reshape(-1)
    accept_num = np.empty(m.n_elements)
    for rows, mod2 in squared_weyl_overlaps(u, d):
        accept_num[rows] = mod2 @ r
    live = q > ZERO_OUTCOME_TOL
    accept = np.zeros_like(q)
    accept[live] = np.clip(accept_num[live] / norm2[live], 0, 1)
    return q, accept


def run_protocol(m: RankOnePovm, s: BellDiagonalState, shots: int, seed: int) -> ProtocolTranscript:
    """Simulate the two-step protocol for a number of shots, deterministically in seed.

    Draws the outcome histogram counts ~ Multinomial(shots, q) and the accept
    count as the sum over outcomes of Binomial(counts_i, accept_i), both from
    one Philox stream: time and memory grow with the number of outcomes, not
    with shots.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}")
    q, accept = outcome_distribution(m, s)
    analytic = float(q @ accept)   # = Tr(T rho) for the test T the POVM realizes
    rng = np.random.Generator(np.random.Philox(seed))
    # only outcomes of positive probability enter the multinomial, so rounding
    # in its running remainder can never put a count on an impossible outcome
    support = q > 0
    counts = np.zeros(m.n_elements, dtype=np.int64)
    counts[support] = rng.multinomial(shots, q[support] / q[support].sum())
    n_accept = int(rng.binomial(counts, accept).sum())
    return ProtocolTranscript(shots, seed, counts, n_accept, n_accept / shots, analytic)
