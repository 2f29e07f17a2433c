"""Symmetric informationally complete POVMs from fiducial vectors.

A fiducial is a single unit vector whose Weyl orbit has all pairwise squared
overlaps equal to 1/(d+1). Known analytic fiducials cover d = 2 and 3; higher
dimensions are found by seeded multi-restart descent on the overlap residual,
with the Weyl overlaps from one length-d transform per shift and an analytic
gradient. A search at d <= 12 takes well under a second, so searched
fiducials are recomputed, and certified, on every run; nothing is stored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .linalg import (RANK_TOL, FiducialSearchConfig, FiducialSearchError,
                     numerical_rank)
from .report import Check, VerificationReport
from .testops import (RankOnePovm, bell_certificate, fourier_matrix,
                      invariant_bell_spectrum, weyl_overlaps)

ANALYTIC_TOL = 1e-10
SEARCH_IDENTITY_TOL = 1e-7
MAX_ITERS = 2000   # descent steps per restart
STALL = 1e-6       # a restart ends once a step lowers the residual by at most this share


@dataclass(eq=False)
class Fiducial:
    """Unit vector with the max deviation of its orbit overlaps from 1/(d+1)."""

    d: int
    vector: np.ndarray
    residual: float


def known_fiducial(d: int) -> Fiducial:
    """Hard-coded analytic fiducial for d = 2 or 3."""
    if d == 2:
        theta = np.arccos(1 / np.sqrt(3))
        v = np.array([np.cos(theta / 2),
                      np.exp(1j * np.pi / 4) * np.sin(theta / 2)])
    elif d == 3:
        v = np.array([0, 1, -1]) / np.sqrt(2)
    else:
        raise ValueError(
            f"no analytic fiducial stored for d={d}; use search_fiducial")
    v = v.astype(complex)
    return Fiducial(d, v, orbit_residual(d, v))


def orbit_residual(d: int, v: np.ndarray) -> float:
    """Max deviation of |<v|W|v>|^2 from 1/(d+1) over non-identity Weyl labels."""
    overlaps = np.abs(weyl_overlaps(v[None], fourier_matrix(d)).ravel()[1:]) ** 2
    return float(np.max(np.abs(overlaps - 1 / (d + 1))))


def _shifted_back(d: int) -> np.ndarray:
    """[a, m] = m - a (mod d): (X^a Z^b v)_m = w^(b(m-a)) v_{m-a}."""
    k = np.arange(d)
    return (k - k[:, None]) % d


def weyl_orbit(f: Fiducial) -> RankOnePovm:
    """POVM {(1/d) W(i,j)|f><f|W(i,j)^dag} over all d^2 Weyl labels.

    Complete for any unit fiducial (verified by the POVM constructor, whose
    norm check refuses a fiducial of another norm at element 0); the SIC
    overlap condition is certified separately by sic_check.
    """
    d, v = f.d, f.vector
    back = _shifted_back(d)
    vecs = fourier_matrix(d)[:, back] * v[back]                # [b, a, m]
    return RankOnePovm(d, np.full(d * d, 1 / d), vecs.transpose(1, 0, 2).reshape(d * d, d))


def sic_check(m: RankOnePovm, tol: float = ANALYTIC_TOL) -> VerificationReport:
    """Measure deviations from the SIC conditions; failures are reported, not raised.

    The realized-test identity comes from testops.bell_certificate with the
    whole POVM as one block: X and Z must map the orbit onto itself.
    """
    return _sic_report(m, np.abs(m.vectors.conj() @ m.vectors.T) ** 2, tol)


def _sic_report(m: RankOnePovm, overlap_sq: np.ndarray, tol: float) -> VerificationReport:
    """sic_check, given the squared moduli overlap_sq = |<u_i|u_j>|^2 of the vector Gram."""
    d = m.dim
    off = ~np.eye(m.n_elements, dtype=bool)
    overlap_dev = float(np.max(np.abs(overlap_sq[off] - 1 / (d + 1)))) if m.n_elements > 1 else 0.0
    weight_dev = float(np.max(np.abs(m.weights - 1 / d)))
    t_dev, cov_dev, _ = bell_certificate(m, block=m.n_elements)
    return VerificationReport("sic", d, [
        Check.from_deviation("element_count_dev", abs(m.n_elements - d * d), 0),
        Check.from_deviation("weight_dev", weight_dev, tol),
        Check.from_deviation("overlap_dev", overlap_dev, tol),
        Check.from_deviation("t_identity_dev", t_dev, tol),
        Check.from_deviation("weyl_covariance_dev", cov_dev, tol),
    ])


def _residual(x: np.ndarray, dft: np.ndarray) -> tuple[float, np.ndarray]:
    """(r, c) at x = (Re v, Im v), c[a, b] = <v|X^a Z^b|v> from weyl_overlaps, and
      r = sum_{k != 0} (|c_k|^2 / |v|^4 - 1/(d+1))^2,
    summed term by term. r equals the frame potential sum_k |c_k|^4 / |v|^8
    less 2d/(d+1), but computed as that difference it cancels to about 1e-9
    and stalls a descent.
    """
    d = len(dft)
    c = weyl_overlaps((x[:d] + 1j * x[d:])[None], dft)[0]
    sq = np.abs(c.ravel()[1:]) ** 2 / (x @ x) ** 2
    return float(np.sum((sq - 1 / (d + 1)) ** 2)), c


def _residual_gradient(x: np.ndarray, c: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """Gradient of _residual in x, from the overlaps c that _residual returned at x.

    r differs from the frame potential by a constant, so its Wirtinger
    derivative in conj(v) is
      4 sum_k |c_k|^2 conj(c_k) W_k v / |v|^8 - 4 S v / |v|^10,  S = sum_k |c_k|^4.
    With h = (|c|^2 conj(c)) @ dft, h[a, j] = sum_b |c_ab|^2 conj(c_ab) w^(bj), the
    sum over k is sum_a h[a, m-a] v_{m-a}: one more transform, then a
    shift-and-sum. The gradient in x is twice its real and imaginary parts.
    """
    d = len(dft)
    v = x[:d] + 1j * x[d:]
    norm2 = x @ x
    sq = np.abs(c) ** 2
    back = _shifted_back(d)
    h = (sq * c.conj()) @ dft
    wv = np.sum(v[back] * np.take_along_axis(h, back, axis=1), axis=0)
    g = 4 * wv / norm2 ** 4 - 4 * np.sum(sq * sq) * v / norm2 ** 5
    return 2 * np.concatenate([g.real, g.imag])


def search_fiducial(d: int, cfg: FiducialSearchConfig | None = None) -> Fiducial:
    """Seeded multi-restart descent on the squared overlap residual.

    Each restart starts from a uniform sphere sample of x = (Re v, Im v),
    normal deviates from random.Random(cfg.seed) (numpy.random would add
    about 15 ms of import to each searching process, more than a search at
    d <= 9 takes). It then runs gradient descent (Barzilai-Borwein step with
    Armijo backtracking) on the residual r of _residual, with the analytic
    gradient of _residual_gradient; r and its gradient cost O(d^3) together.
    A restart ends after MAX_ITERS steps, at a vanishing gradient or
    residual, or once an accepted step lowers r by at most STALL of its value
    (a restart that levels off above a SIC). Restarts stop early once the
    max-deviation residual (orbit_residual) reaches cfg.tol; the best
    fiducial over the attempted restarts is returned. Deterministic in
    cfg.seed.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    cfg = cfg or FiducialSearchConfig()
    dft = fourier_matrix(d)
    rng = random.Random(cfg.seed)
    best_vec = None
    best_maxdev = np.inf
    for _ in range(cfg.restarts):
        x = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * d)])
        x /= np.linalg.norm(x)
        r, c = _residual(x, dft)
        step = None
        prev_x = prev_g = None
        for _ in range(MAX_ITERS):
            g = _residual_gradient(x, c, dft)
            gnorm = np.linalg.norm(g)
            if gnorm < 1e-14 or r < 1e-26:
                break
            if prev_x is not None:
                s, y = x - prev_x, g - prev_g
                sy = float(s @ y)
                step = float(s @ s) / sy if sy > 0 else None
            if step is None or not np.isfinite(step) or step <= 0:
                step = 1e-2 / (1 + gnorm)
            step = min(step, 1e3)
            prev_x, prev_g = x, g
            # Armijo backtracking on the descent direction -g
            r_old = r
            for _ in range(40):
                cand = x - step * g
                rc, cc = _residual(cand, dft)
                if rc <= r - 1e-4 * step * gnorm ** 2:
                    x, r, c = cand, rc, cc
                    break
                step /= 2
            if r_old - r <= STALL * r_old:   # no step accepted, or a stalled one
                break
        v = x[:d] + 1j * x[d:]
        v /= np.linalg.norm(v)
        maxdev = orbit_residual(d, v)
        if maxdev < best_maxdev:
            best_maxdev, best_vec = maxdev, v
        if best_maxdev <= cfg.tol:
            break
    if best_maxdev > cfg.tol:
        raise FiducialSearchError(d, best_maxdev, cfg.restarts)
    return Fiducial(d, best_vec, best_maxdev)


def verify_sic_identity(d: int, f: Fiducial) -> VerificationReport:
    """Certify the SIC scheme built from a fiducial.

    Checks the realized-test identity and the Weyl covariance it rests on
    (sic_check), the linear independence of the d^2 paired vectors
    u x conj(u) (their Gram is |<u_i|u_j>|^2, the squared moduli of the
    vector Gram), and that the element count meets the rank lower bound of
    the target test with equality.
    Tolerances: ANALYTIC_TOL for an exact fiducial, SEARCH_IDENTITY_TOL for a searched one.
    """
    tol = ANALYTIC_TOL if f.residual < 1e-12 else SEARCH_IDENTITY_TOL
    m = weyl_orbit(f)
    overlap_sq = np.abs(m.vectors.conj() @ m.vectors.T) ** 2   # formed once for both checks
    report = _sic_report(m, overlap_sq, tol)
    gram_rank = numerical_rank(overlap_sq)
    target_rank = int(np.count_nonzero(invariant_bell_spectrum(d) > RANK_TOL))
    report.checks += [
        Check.from_deviation("gram_rank_dev", abs(gram_rank - d * d), 0),
        Check.from_deviation("count_vs_rank_dev", abs(m.n_elements - target_rank), 0),
    ]
    report.metadata = {"fiducial_residual": f.residual, "gram_rank": gram_rank,
                       "target_rank": target_rank}
    return report


def get_fiducial(d: int, cfg: FiducialSearchConfig | None = None) -> Fiducial:
    """Analytic fiducial when available, else a search."""
    if d in (2, 3):
        return known_fiducial(d)
    return search_fiducial(d, cfg)
