"""Simulation of the one-way LOCC test by sampling outcome counts.

Alice measures her rank-one POVM, transmits the outcome, and Bob applies the
two-valued check onto the conjugate vector. A run of many shots is fully
described by Alice's outcome histogram and Bob's accept count, so these are
sampled directly: the histogram is multinomial in Alice's outcome
probabilities, and given it, the accepts of each outcome are binomial in
Bob's conditional acceptance. This is the same distribution as sampling the
shots one by one, at a cost independent of the shot count. Bob's conditional
state is computed exactly from the density operator. Randomness comes from
numpy's Philox generator (a published counter-based 64-bit generator), so
transcripts are reproducible bit-for-bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import require_finite, require_hermitian, require_psd
from .testops import (RankOnePovm, max_entangled, paired_vectors,
                      permute_subsystems)

ZERO_OUTCOME_TOL = 1e-15
MARGINAL_TOL = 1e-9
MAX_SHOTS = 2 ** 63 - 1   # counts are sampled as int64


@dataclass(eq=False)
class BipartiteState:
    """Density operator under test, on dimension d^2 (single) or d^4 (double)."""

    local_dim: int
    rho: np.ndarray
    party_structure: str = "single"

    def __post_init__(self):
        self.rho = require_finite(np.asarray(self.rho, dtype=complex), "state")
        if self.party_structure not in ("single", "double"):
            raise ValueError(f"unknown party_structure {self.party_structure!r}")
        n = self.local_dim ** (2 if self.party_structure == "single" else 4)
        if self.rho.shape != (n, n):
            raise ValueError(f"expected {n}x{n} density matrix, got {self.rho.shape}")
        require_hermitian(self.rho, name="state")
        if abs(np.trace(self.rho).real - 1) > 1e-10:
            raise ValueError("state trace must be 1")
        require_psd(self.rho, 1e-10, name="state")


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


def isotropic_state(d: int, fidelity: float) -> BipartiteState:
    """Maximally entangled state mixed with isotropic noise at the given fidelity."""
    if not 0 <= fidelity <= 1:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    phi = max_entangled(d)
    p = np.outer(phi, phi.conj())
    rho = fidelity * p + (1 - fidelity) * (np.eye(d * d) - p) / (d * d - 1)
    return BipartiteState(d, rho, "single")


def double_isotropic_state(d: int, fidelity: float) -> BipartiteState:
    """Product of two isotropic states on the pairs (A1,B1), (A2,B2), canonical order."""
    rho1 = isotropic_state(d, fidelity).rho
    prod = np.kron(rho1, rho1)
    rho = permute_subsystems(prod, [d, d, d, d], [0, 2, 1, 3])
    return BipartiteState(d, rho, "double")


def outcome_distribution(m: RankOnePovm, s: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """Alice's outcome probabilities and Bob's conditional acceptance per outcome.

    Outcomes with probability below 1e-15 are assigned conditional rejection,
    which keeps the zero-probability branch free of 0/0.
    """
    dim = m.dim
    if s.rho.shape[0] != dim * dim:
        raise ValueError(f"POVM dimension {dim} does not match state on {s.rho.shape[0]}")
    # Bob's unnormalized state after outcome i is sigma_i = <u_i|_A rho |u_i>_A.
    # Its trace is <u_i| Tr_B rho |u_i>, and his acceptance numerator
    # <conj(u_i)| sigma_i |conj(u_i)> is <pair_i| rho |pair_i>.
    rho_a = np.einsum("abcb->ac", s.rho.reshape(dim, dim, dim, dim))
    tr = np.einsum("ia,ia->i", m.vectors.conj() @ rho_a, m.vectors).real
    q = np.clip(m.weights * tr, 0, None)
    if abs(q.sum() - 1) > MARGINAL_TOL:
        raise ValueError(f"outcome probabilities sum to {q.sum()}, POVM/state inconsistent")
    pairs = paired_vectors(m.vectors)
    rho_pairs = pairs @ s.rho.T  # row i is rho |pair_i>
    # Re <pair_i|rho pair_i> from real views: no conjugated n x dim^2 copy
    accept_num = (np.einsum("ia,ia->i", pairs.real, rho_pairs.real)
                  + np.einsum("ia,ia->i", pairs.imag, rho_pairs.imag))
    live = q > ZERO_OUTCOME_TOL
    accept = np.zeros_like(q)
    accept[live] = np.clip(accept_num[live] / tr[live], 0, 1)
    return q, accept


def run_protocol(m: RankOnePovm, s: BipartiteState, shots: int, seed: int) -> ProtocolTranscript:
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
