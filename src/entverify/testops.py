"""Test operators for maximally-entangled-state verification.

Builds the closed-form invariant test operators on one and two subsystem
pairs, and the realized test operator of any rank-one POVM (Alice measures,
Bob projects onto the conjugate vector).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import isqrt

import numpy as np

from .linalg import require_finite, require_hermitian

COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-10


class CompletenessError(ValueError):
    """A rank-one POVM whose elements do not sum to the identity."""

    def __init__(self, defect: float, message: str | None = None):
        self.defect = float(defect)
        super().__init__(message or f"POVM completeness defect {self.defect:.3e} exceeds {COMPLETENESS_TOL:.0e}")


@dataclass(eq=False)
class RankOnePovm:
    """Finite rank-one POVM {p_i |u_i><u_i|} with unit vectors u_i as rows."""

    dim: int
    weights: np.ndarray
    vectors: np.ndarray
    check_completeness: InitVar[bool] = True

    def __post_init__(self, check_completeness: bool):
        self.weights = np.asarray(self.weights, dtype=float)
        self.vectors = np.asarray(self.vectors, dtype=complex)
        require_finite(self.weights, "weights")
        require_finite(self.vectors, "vectors")
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ValueError(f"vectors must have shape (n, {self.dim})")
        if self.weights.shape != (self.vectors.shape[0],):
            raise ValueError("one weight per vector required")
        if np.any(self.weights < -1e-12) or np.any(self.weights > 1 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.max(np.abs(norms - 1)) > NORM_TOL:
            raise ValueError("POVM vectors must be unit norm")
        if check_completeness:
            defect = self.completeness_defect()
            if defect > COMPLETENESS_TOL:
                raise CompletenessError(defect)

    @property
    def n_elements(self) -> int:
        return self.vectors.shape[0]

    def completeness_defect(self) -> float:
        """Max-entry deviation of sum_i p_i |u_i><u_i| from the identity."""
        s = (self.vectors.T * self.weights) @ self.vectors.conj()
        return float(np.max(np.abs(s - np.eye(self.dim))))


@dataclass(eq=False)
class TestOperator:
    """Hermitian operator T with 0 <= T <= I; acceptance on rho is Tr(T rho).

    party_structure is "single" for a test on H_d x H_d and "double" for a
    test on (H_d x H_d) x (H_d x H_d) in canonical factor order A1,A2,B1,B2.
    """

    matrix: np.ndarray
    local_dim: int
    party_structure: str

    def __post_init__(self):
        self.matrix = require_finite(np.asarray(self.matrix, dtype=complex), "test operator")
        if self.party_structure not in ("single", "double"):
            raise ValueError(f"unknown party_structure {self.party_structure!r}")
        expected = self.local_dim ** (2 if self.party_structure == "single" else 4)
        if self.matrix.shape != (expected, expected):
            raise ValueError(f"expected {expected}x{expected} matrix, got {self.matrix.shape}")
        require_hermitian(self.matrix, name="test operator")

    def spectrum_within_unit(self, tol: float = 1e-10) -> bool:
        vals = np.linalg.eigvalsh(self.matrix)
        return bool(vals[0] >= -tol and vals[-1] <= 1 + tol)


def max_entangled(d: int) -> np.ndarray:
    """Unit vector (1/sqrt(d)) sum_i |i>|i> on a d x d bipartite system."""
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1 / np.sqrt(d)
    return v


def invariant_test_single(d: int) -> TestOperator:
    """Optimal invariant test on one subsystem pair.

    Projector onto the maximally entangled state plus 1/(d+1) times the
    complementary projector; spectrum {1, 1/(d+1) x (d^2-1)}.
    """
    phi = max_entangled(d)
    p = np.outer(phi, phi.conj())
    t = p + (np.eye(d * d) - p) / (d + 1)
    return TestOperator(t, d, "single")


def invariant_test_double(d: int) -> TestOperator:
    """Optimal invariant test on two subsystem pairs, canonical order A1,A2,B1,B2.

    Built as P x P + (1/(d^2-1)) (I-P) x (I-P) in pair order (A1,B1),(A2,B2)
    and permuted to the canonical factor order.
    """
    phi = max_entangled(d)
    p = np.outer(phi, phi.conj())
    q = np.eye(d * d) - p
    prod = np.kron(p, p) + np.kron(q, q) / (d * d - 1)
    t = permute_subsystems(prod, [d, d, d, d], [0, 2, 1, 3])
    return TestOperator(t, d, "double")


def permute_subsystems(a: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    """Reorder tensor factors of an operator: new factor k is old factor perm[k]."""
    a = np.asarray(a)
    n = int(np.prod(dims))
    if a.shape != (n, n):
        raise ValueError(f"operator shape {a.shape} does not match dims {dims}")
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"invalid permutation {perm}")
    k = len(dims)
    t = a.reshape(list(dims) + list(dims))
    axes = list(perm) + [k + p for p in perm]
    return t.transpose(axes).reshape(n, n)


def paired_vectors(vectors: np.ndarray) -> np.ndarray:
    """Rows u_i x conj(u_i) (row-major, length dim^2) for the row vectors u_i."""
    vectors = np.asarray(vectors)
    n = vectors.shape[0]
    return (vectors[:, :, None] * vectors.conj()[:, None, :]).reshape(n, -1)


def realized_test(m: RankOnePovm, double: bool = False,
                   require_complete: bool = True) -> TestOperator:
    """Realized test operator sum_i p_i |u_i x conj(u_i)><u_i x conj(u_i)|.

    With double=True the POVM acts on a d^2-dimensional composite A-side and
    the result is tagged with canonical factor order A1,A2,B1,B2.
    """
    if require_complete:
        defect = m.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise CompletenessError(defect)
    pairs = paired_vectors(m.vectors)
    left = pairs.T * m.weights
    # conjugate in place so the product holds two n x dim^2 arrays, not three
    t = left @ np.conj(pairs, out=pairs)
    if double:
        d = isqrt(m.dim)
        if d * d != m.dim:
            raise ValueError(f"double-system POVM dimension {m.dim} is not a perfect square")
        return TestOperator(t, d, "double")
    return TestOperator(t, m.dim, "single")


def acceptance_probability(t: TestOperator, rho: np.ndarray, tol: float = 1e-10) -> float:
    """Born-rule acceptance Tr(T rho) for a density operator rho."""
    rho = require_finite(np.asarray(rho, dtype=complex), "state")
    if rho.shape != t.matrix.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, test {t.matrix.shape}")
    require_hermitian(rho, tol, name="state")
    if abs(np.trace(rho).real - 1) > tol:
        raise ValueError(f"state trace {np.trace(rho).real} is not 1")
    if np.linalg.eigvalsh(rho)[0] < -tol:
        raise ValueError("state is not positive semi-definite")
    return float(np.einsum("ab,ba->", t.matrix, rho).real)
