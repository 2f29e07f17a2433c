"""Dense complex linear algebra primitives and input checks shared by every scheme module."""

from __future__ import annotations

import numbers

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


def hermiticity_defect(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian (max |A - A^dag| = {defect:.3e})")
    return a


def numerical_rank(a: np.ndarray) -> int:
    """Number of eigenvalues of a Hermitian matrix with magnitude above RANK_TOL."""
    a = require_hermitian(a)
    vals = np.linalg.eigvalsh(a)
    return int(np.count_nonzero(np.abs(vals) > RANK_TOL))
