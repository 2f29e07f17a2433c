"""Mutually unbiased bases for prime dimensions and the uniform MUB POVM.

The construction is the computational basis plus quadratic-phase bases for
odd primes (clock/shift/Fourier eigenbases at d = 2), certified against the
defining overlap condition rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import is_prime
from .linalg import numerical_rank
from .report import Check, VerificationReport
from .testops import RankOnePovm, bell_certificate

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


@dataclass(frozen=True)
class _Overlaps:
    """What one d x n Gram per basis shows about a family (n = all family vectors)."""

    basis_dev: float         # within-basis Gram against the identity
    cross_dev: float         # |<u_i|u_j>|^2 against 1/d across bases
    ortho_dev: float         # centered paired vectors across bases
    ranks: list[int]         # rank of each basis's centered paired-vector Gram


def _overlaps(fam: MubFamily) -> _Overlaps:
    """Gram data of the family; the paired vectors u x conj(u) are never formed.

    With phi the maximally entangled state, the centered paired vectors
    c_i = u_i x conj(u_i) - <phi|u_i x conj(u_i)> phi satisfy exactly
    <c_i|c_j> = |<u_i|u_j>|^2 - |u_i|^2 |u_j|^2 / d, so every check is read
    from the Grams <u_i|u_j> of basis j against bases j..k-1.
    """
    d = fam.d
    vecs = fam.bases.reshape(-1, d)
    sq_norms = np.sum(np.abs(vecs) ** 2, axis=1)
    basis_dev = cross_dev = ortho_dev = 0.0
    ranks = []
    for j in range(fam.n_bases):
        rows = slice(j * d, (j + 1) * d)
        gram = fam.bases[j].conj() @ vecs[j * d:].T
        overlap_sq = np.abs(gram) ** 2
        centered = overlap_sq - np.outer(sq_norms[rows], sq_norms[j * d:]) / d
        basis_dev = max(basis_dev, float(np.max(np.abs(gram[:, :d] - np.eye(d)))))
        ranks.append(numerical_rank(centered[:, :d]))
        if j + 1 < fam.n_bases:
            cross_dev = max(cross_dev, float(np.max(np.abs(overlap_sq[:, d:] - 1 / d))))
            ortho_dev = max(ortho_dev, float(np.max(np.abs(centered[:, d:]))))
    return _Overlaps(basis_dev, cross_dev, ortho_dev, ranks)


def _family_report(fam: MubFamily, ov: _Overlaps) -> VerificationReport:
    checks = [
        Check.from_deviation("basis_orthonormality_dev", ov.basis_dev, MUB_TOL),
        Check.from_deviation("cross_overlap_dev", ov.cross_dev, MUB_TOL),
    ]
    return VerificationReport("mub", fam.d, checks, metadata={"n_bases": fam.n_bases})


def mub_check(fam: MubFamily) -> VerificationReport:
    """Max deviation of within-basis Grams from identity and cross overlaps from 1/d."""
    return _family_report(fam, _overlaps(fam))


def _uniform_povm(fam: MubFamily, family: VerificationReport) -> RankOnePovm:
    """Uniform POVM over the family vectors; raises unless its mub_check report passed."""
    if not family.overall:
        raise ValueError("family fails the mutual unbiasedness check: "
                         + ", ".join(f"{c.name}={c.measured:.3e}" for c in family.checks))
    vecs = fam.bases.reshape(-1, fam.d)
    weights = np.full(vecs.shape[0], 1 / fam.n_bases)
    return RankOnePovm(fam.d, weights, vecs)


def mub_povm(fam: MubFamily) -> RankOnePovm:
    """Uniform POVM over all family vectors with weights 1/(number of bases)."""
    return _uniform_povm(fam, mub_check(fam))


def pvm_count_bound(d: int) -> int:
    """Minimum number of projective measurements needed to realize the test.

    A projective measurement contributes a span of rank at most d-1 inside the
    (d^2-1)-dimensional orthocomplement of the maximally entangled state, so
    at least ceil((d^2-1)/(d-1)) = d+1 of them are required.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return -((d * d - 1) // -(d - 1))


def verify_mub_identity(d: int, fam: MubFamily | None = None) -> VerificationReport:
    """Certify the MUB scheme for prime d (on fam, else on mub_prime(d)).

    Checks the realized-test identity from the Bell spectrum together with
    the Weyl covariance it rests on (testops.bell_certificate; each basis must
    be mapped onto itself by X and Z), the mutual orthogonality of the
    per-basis paired-vector subspaces (after removing the maximally entangled
    component), the projected span ranks, and that the basis count meets the
    projective-measurement lower bound exactly. Needs O(d^3) memory: no
    d^2 x d^2 operator and no Gram of all family vectors is formed. A family
    that is not Weyl covariant (mub_prime(d) rotated by a generic unitary)
    fails weyl_covariance_dev, although it realizes the same test.
    """
    if fam is None:
        fam = mub_prime(d)
    ov = _overlaps(fam)
    m = _uniform_povm(fam, _family_report(fam, ov))
    t_dev, cov_dev, _ = bell_certificate(m, block=d)
    rank_dev = max(abs(r - (d - 1)) for r in ov.ranks)
    count_dev = abs(fam.n_bases - pvm_count_bound(d))

    checks = [
        Check.from_deviation("t_identity_dev", t_dev, MUB_TOL),
        Check.from_deviation("weyl_covariance_dev", cov_dev, MUB_TOL),
        Check.from_deviation("cross_subspace_ortho_dev", ov.ortho_dev, MUB_TOL),
        Check.from_deviation("projected_rank_dev", rank_dev, 0),
        Check.from_deviation("pvm_count_dev", count_dev, 0),
    ]
    meta = {"n_bases": fam.n_bases, "projected_ranks": ov.ranks,
            "pvm_count_bound": pvm_count_bound(d)}
    return VerificationReport("mub", d, checks, metadata=meta)
