"""Mutually unbiased bases for prime dimensions and the uniform MUB POVM.

The construction is the computational basis plus quadratic-phase bases for
odd primes (clock/shift/Fourier eigenbases at d = 2), certified against the
defining overlap condition rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import is_prime
from .linalg import frobenius_distance, numerical_rank
from .report import Check, VerificationReport
from .testops import (RankOnePovm, invariant_test_single, max_entangled,
                      paired_vectors, realized_test)

MUB_TOL = 1e-10


@dataclass(eq=False)
class MubFamily:
    """k orthonormal bases of C^d; bases[j, i] is the i-th vector of basis j."""

    d: int
    bases: np.ndarray

    def __post_init__(self):
        self.bases = np.asarray(self.bases, dtype=complex)
        if self.bases.ndim != 3 or self.bases.shape[1:] != (self.d, self.d):
            raise ValueError(f"bases must have shape (k, {self.d}, {self.d})")

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]


def mub_prime(d: int) -> MubFamily:
    """The full family of d+1 mutually unbiased bases for prime d."""
    if not is_prime(d):
        raise ValueError(f"d must be prime, got {d}")
    if d == 2:
        s = 1 / np.sqrt(2)
        bases = np.array([
            [[1, 0], [0, 1]],
            [[s, s], [s, -s]],
            [[s, s * 1j], [s, -s * 1j]],
        ])
    else:
        k = np.arange(d)
        bases = [np.eye(d, dtype=complex)]
        for s_idx in range(d):
            phases = (s_idx * k * k + np.outer(k, k)) % d  # [t, k] = s k^2 + t k
            bases.append(np.exp(2j * np.pi * phases / d) / np.sqrt(d))
        bases = np.stack(bases)
    return MubFamily(d, bases)


def mub_check(fam: MubFamily, tol: float = MUB_TOL) -> VerificationReport:
    """Max deviation of within-basis Grams from identity and cross overlaps from 1/d."""
    d = fam.d
    basis_dev = 0.0
    cross_dev = 0.0
    for j in range(fam.n_bases):
        gram = fam.bases[j].conj() @ fam.bases[j].T
        basis_dev = max(basis_dev, float(np.max(np.abs(gram - np.eye(d)))))
        for jp in range(j + 1, fam.n_bases):
            cross = np.abs(fam.bases[j].conj() @ fam.bases[jp].T) ** 2
            cross_dev = max(cross_dev, float(np.max(np.abs(cross - 1 / d))))
    checks = [
        Check.from_deviation("basis_orthonormality_dev", basis_dev, tol),
        Check.from_deviation("cross_overlap_dev", cross_dev, tol),
    ]
    return VerificationReport("mub", d, checks, metadata={"n_bases": fam.n_bases})


def mub_povm(fam: MubFamily) -> RankOnePovm:
    """Uniform POVM over all family vectors with weights 1/(number of bases)."""
    report = mub_check(fam)
    if not report.overall:
        raise ValueError("family fails the mutual unbiasedness check: "
                         + ", ".join(f"{c.name}={c.measured:.3e}" for c in report.checks))
    vecs = fam.bases.reshape(-1, fam.d)
    weights = np.full(vecs.shape[0], 1 / fam.n_bases)
    return RankOnePovm(fam.d, weights, vecs)


def pvm_count_bound(d: int) -> int:
    """Minimum number of projective measurements needed to realize the test.

    A projective measurement contributes a span of rank at most d-1 inside the
    (d^2-1)-dimensional orthocomplement of the maximally entangled state, so
    at least ceil((d^2-1)/(d-1)) = d+1 of them are required.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return -((d * d - 1) // -(d - 1))


def projected_span_ranks(fam: MubFamily) -> list[int]:
    """Rank of each basis's paired-vector span projected off the entangled state."""
    d = fam.d
    phi = max_entangled(d)
    ranks = []
    for j in range(fam.n_bases):
        pairs = paired_vectors(fam.bases[j])
        projected = pairs - np.outer(pairs @ phi.conj(), phi)
        gram = projected.conj() @ projected.T
        ranks.append(numerical_rank(gram))
    return ranks


def verify_mub_identity(d: int, fam: MubFamily | None = None) -> VerificationReport:
    """Certify the MUB scheme for prime d (on fam, else on mub_prime(d)).

    Checks the realized-test identity in Frobenius norm, the mutual
    orthogonality of the per-basis paired-vector subspaces (after removing
    the maximally entangled component), the projected span ranks, and that
    the basis count meets the projective-measurement lower bound exactly.
    """
    if fam is None:
        fam = mub_prime(d)
    m = mub_povm(fam)
    dist = frobenius_distance(realized_test(m).matrix,
                              invariant_test_single(d).matrix)

    phi = max_entangled(d)
    pairs = paired_vectors(m.vectors)
    centered = pairs - np.outer(pairs @ phi.conj(), phi)
    gram = centered.conj() @ centered.T
    basis_of = np.repeat(np.arange(fam.n_bases), d)
    cross_mask = basis_of[:, None] != basis_of[None, :]
    ortho_dev = float(np.max(np.abs(gram[cross_mask])))

    ranks = projected_span_ranks(fam)
    rank_dev = max(abs(r - (d - 1)) for r in ranks)
    count_dev = abs(fam.n_bases - pvm_count_bound(d))

    checks = [
        Check.from_deviation("t_identity_dev", dist, MUB_TOL),
        Check.from_deviation("cross_subspace_ortho_dev", ortho_dev, MUB_TOL),
        Check.from_deviation("projected_rank_dev", rank_dev, 0),
        Check.from_deviation("pvm_count_dev", count_dev, 0),
    ]
    meta = {"n_bases": fam.n_bases, "projected_ranks": ranks,
            "pvm_count_bound": pvm_count_bound(d)}
    return VerificationReport("mub", d, checks, metadata=meta)
