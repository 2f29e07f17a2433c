"""Dense complex linear algebra primitives and input checks shared by every scheme module.

The fiducial-search options and their failure live here rather than in sic,
so that the CLI validates --seed, --restarts and --search-tol, and catches a
failed search, for every scheme without importing sic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
RANK_TOL = 1e-9


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def require_seed(seed) -> int:
    """seed as an int; a ValueError unless it is a non-negative integer (numbers.Integral)."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % k for k in range(2, int(d ** 0.5) + 1))


@dataclass
class FiducialSearchConfig:
    """Options of sic.search_fiducial: its seed, restarts and residual target."""

    seed: int = 0
    restarts: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        self.seed = require_seed(self.seed)
        if not isinstance(self.restarts, numbers.Integral) or self.restarts < 1:
            raise ValueError(f"restarts must be a positive integer, got {self.restarts!r}")
        self.restarts = int(self.restarts)
        if not isinstance(self.tol, numbers.Real) or not 0 < self.tol < np.inf:
            raise ValueError(f"search tol must be positive and finite, got {self.tol!r}")
        self.tol = float(self.tol)


class FiducialSearchError(RuntimeError):
    """Search exhausted its restarts without reaching the requested residual."""

    def __init__(self, d: int, best_residual: float, restarts: int):
        self.best_residual = float(best_residual)
        super().__init__(
            f"no fiducial found for d={d} after {restarts} restarts "
            f"(best residual {best_residual:.3e})")


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian (max |A - A^dag| = {defect:.3e})")
    return a


def numerical_rank(a: np.ndarray) -> int:
    """Number of eigenvalues of a Hermitian matrix with magnitude above RANK_TOL."""
    a = require_hermitian(a)
    vals = np.linalg.eigvalsh(a)
    return int(np.count_nonzero(np.abs(vals) > RANK_TOL))
