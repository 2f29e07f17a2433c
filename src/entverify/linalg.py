"""Dense complex linear algebra primitives shared by every scheme module."""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
RANK_TOL = 1e-9


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"{name} is not Hermitian (max |A - A^dag| = {defect:.3e})")
    return a


def require_psd(a: np.ndarray, tol: float, name: str = "matrix") -> np.ndarray:
    """Reject a Hermitian matrix whose smallest eigenvalue is below -tol.

    Cholesky of a + tol*I succeeds exactly when a + tol*I is positive
    definite, which is the rule lambda_min >= -tol at about a third of the
    cost of the full spectrum. Cholesky of a itself is tried first: if it
    succeeds, a is positive definite up to rounding (far below any tol used
    here), and the shifted copy, which would raise peak memory, is not made.
    """
    try:
        np.linalg.cholesky(a)
        return a
    except np.linalg.LinAlgError:
        pass
    shifted = a.copy()
    shifted.flat[::a.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive semi-definite") from None
    return a


def numerical_rank(a: np.ndarray) -> int:
    """Number of eigenvalues of a Hermitian matrix with magnitude above RANK_TOL."""
    a = require_hermitian(a)
    vals = np.linalg.eigvalsh(a)
    return int(np.count_nonzero(np.abs(vals) > RANK_TOL))
