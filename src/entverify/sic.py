"""Symmetric informationally complete POVMs from fiducial vectors.

A fiducial is a single unit vector whose Weyl orbit has all pairwise squared
overlaps equal to 1/(d+1). Known analytic fiducials cover d = 2 and 3; higher
dimensions are found by seeded multi-restart descent on the overlap residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .clifford import all_weyl
from .jsonio import (load_cache_entry, pairs_to_vector, save_cache_entry,
                     vector_to_pairs)
from .linalg import RANK_TOL, numerical_rank
from .report import Check, VerificationReport
from .testops import RankOnePovm, bell_certificate, invariant_bell_spectrum

ANALYTIC_TOL = 1e-10
SEARCH_IDENTITY_TOL = 1e-7


class FiducialSearchError(RuntimeError):
    """Search exhausted its restarts without reaching the requested residual."""

    def __init__(self, d: int, best_residual: float, restarts: int):
        self.best_residual = float(best_residual)
        super().__init__(
            f"no fiducial found for d={d} after {restarts} restarts "
            f"(best residual {best_residual:.3e})")


@dataclass(eq=False)
class Fiducial:
    """Unit vector with the max deviation of its orbit overlaps from 1/(d+1)."""

    d: int
    vector: np.ndarray
    residual: float


@dataclass
class FiducialSearchConfig:
    seed: int = 0
    restarts: int = 50
    max_iters: int = 2000
    tol: float = 1e-8

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


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
    w = all_weyl(d)[1:]
    overlaps = np.abs(np.einsum("a,kab,b->k", v.conj(), w, v)) ** 2
    return float(np.max(np.abs(overlaps - 1 / (d + 1))))


def weyl_orbit(f: Fiducial) -> RankOnePovm:
    """POVM {(1/d) W(i,j)|f><f|W(i,j)^dag} over all d^2 Weyl labels.

    Complete for any unit fiducial (verified by the POVM constructor);
    the SIC overlap condition is certified separately by sic_check.
    """
    d = f.d
    if abs(np.linalg.norm(f.vector) - 1) > 1e-10:
        raise ValueError("fiducial vector must be unit norm")
    vecs = np.einsum("kab,b->ka", all_weyl(d), f.vector)
    return RankOnePovm(d, np.full(d * d, 1 / d), vecs)


def sic_check(m: RankOnePovm, tol: float = ANALYTIC_TOL) -> VerificationReport:
    """Measure deviations from the SIC conditions; failures are reported, not raised.

    The realized-test identity comes from testops.bell_certificate with the
    whole POVM as one block: X and Z must map the orbit onto itself.
    """
    d = m.dim
    overlap_sq = np.abs(m.vectors.conj() @ m.vectors.T) ** 2
    off = ~np.eye(m.n_elements, dtype=bool)
    overlap_dev = float(np.max(np.abs(overlap_sq[off] - 1 / (d + 1)))) if m.n_elements > 1 else 0.0
    weight_dev = float(np.max(np.abs(m.weights - 1 / d)))
    t_dev, cov_dev = bell_certificate(m, block=m.n_elements)
    return VerificationReport("sic", d, [
        Check.from_deviation("element_count_dev", abs(m.n_elements - d * d), 0),
        Check.from_deviation("weight_dev", weight_dev, tol),
        Check.from_deviation("overlap_dev", overlap_dev, tol),
        Check.from_deviation("t_identity_dev", t_dev, tol),
        Check.from_deviation("weyl_covariance_dev", cov_dev, tol),
    ])


def _residuals(d: int, w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Sum-of-squares overlap residual for each row vector (rows need not be unit)."""
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    v = vecs / norms
    overlaps = np.abs(np.einsum("ma,kab,mb->mk", v.conj(), w, v)) ** 2
    return np.sum((overlaps - 1 / (d + 1)) ** 2, axis=1)


def search_fiducial(d: int, cfg: FiducialSearchConfig | None = None) -> Fiducial:
    """Seeded multi-restart descent on the squared overlap residual.

    Each restart starts from a uniform sphere sample and runs finite-difference
    gradient descent (Barzilai-Borwein step with Armijo backtracking) on the
    real parametrization of the vector, renormalizing through the objective.
    Restarts stop early once the max-deviation residual reaches cfg.tol; the
    best fiducial over the attempted restarts is returned. Deterministic in
    cfg.seed.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    cfg = cfg or FiducialSearchConfig()
    w = all_weyl(d)[1:]
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n = 2 * d
    h = 1e-6

    def objective(xs: np.ndarray) -> np.ndarray:
        vecs = xs[:, :d] + 1j * xs[:, d:]
        return _residuals(d, w, vecs)

    best_vec = None
    best_maxdev = np.inf
    for _ in range(cfg.restarts):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        r = float(objective(x[None, :])[0])
        step = None
        prev_x = prev_g = None
        for _ in range(cfg.max_iters):
            probes = np.concatenate([x[None, :] + h * np.eye(n),
                                     x[None, :] - h * np.eye(n)])
            vals = objective(probes)
            g = (vals[:n] - vals[n:]) / (2 * h)
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
            accepted = False
            for _ in range(40):
                cand = x - step * g
                rc = float(objective(cand[None, :])[0])
                if rc <= r - 1e-4 * step * gnorm ** 2:
                    x, r = cand, rc
                    accepted = True
                    break
                step /= 2
            if not accepted:
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
    report = sic_check(m, tol)
    gram_rank = numerical_rank(np.abs(m.vectors.conj() @ m.vectors.T) ** 2)
    target_rank = int(np.count_nonzero(invariant_bell_spectrum(d) > RANK_TOL))
    report.checks += [
        Check.from_deviation("gram_rank_dev", abs(gram_rank - d * d), 0),
        Check.from_deviation("count_vs_rank_dev", abs(m.n_elements - target_rank), 0),
    ]
    report.metadata = {"fiducial_residual": f.residual, "gram_rank": gram_rank,
                       "target_rank": target_rank}
    return report


def save_fiducial_cache(f: Fiducial, path: str, seed: int | None = None) -> None:
    """Write (or update) the JSON fiducial cache, keyed by dimension."""
    save_cache_entry(path, f.d, {
        "d": f.d,
        "vector": vector_to_pairs(f.vector),
        "residual": f.residual,
        "seed": seed,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def _fiducial_from_entry(d: int, entry: dict) -> Fiducial:
    v = pairs_to_vector(entry["vector"])
    if v.shape != (d,) or abs(np.linalg.norm(v) - 1) > 1e-10:
        raise ValueError(f"cached vector is not a unit vector in C^{d}")
    return Fiducial(d, v, orbit_residual(d, v))


def load_fiducial_cache(d: int, path: str) -> Fiducial | None:
    """Reload a cached fiducial; the residual is recomputed, never trusted.

    A missing, unreadable or malformed entry is a miss (None).
    """
    return load_cache_entry(path, d, _fiducial_from_entry)


def get_fiducial(d: int, cfg: FiducialSearchConfig | None = None,
                 cache_path: str | None = None) -> Fiducial:
    """Analytic fiducial when available, else cache lookup, else search (and cache)."""
    if d in (2, 3):
        return known_fiducial(d)
    cfg = cfg or FiducialSearchConfig()
    if cache_path:
        cached = load_fiducial_cache(d, cache_path)
        if cached is not None and cached.residual <= cfg.tol:
            return cached
    f = search_fiducial(d, cfg)
    if cache_path:
        save_fiducial_cache(f, cache_path, seed=cfg.seed)
    return f
