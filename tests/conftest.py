from dataclasses import dataclass
from math import isqrt

import numpy as np
import pytest

from entverify.clifford import canonicalize_phase, weyl
from entverify.linalg import numerical_rank, require_finite, require_hermitian
from entverify.protocol import MARGINAL_TOL, ZERO_OUTCOME_TOL
from entverify.testops import (COMPLETENESS_TOL, CompletenessError, RankOnePovm,
                               fourier_matrix)

# --- the dense operator layer: the reference every Bell-spectrum path is checked against


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


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
    require_psd(rho, tol, name="state")
    return float(np.einsum("ab,ba->", t.matrix, rho).real)


def dense_rho(state) -> np.ndarray:
    """The dense density operator of a BellDiagonalState, d^2 x d^2 or d^4 x d^4."""
    d = state.local_dim
    k = np.arange(d)
    bell = np.zeros((d, d, d, d), dtype=complex)      # [a, b, x, y] = <x y|Phi_ab>
    bell[k[:, None], :, (k[:, None] + k) % d, k] = fourier_matrix(d) / np.sqrt(d)
    bell = bell.reshape(d * d, d, d)
    if state.party_structure == "double":
        bell = np.einsum("kac,lbd->klabcd", bell, bell)
    bell = bell.reshape(state.spectrum.size, -1)
    return bell.T @ (state.spectrum.reshape(-1, 1) * bell.conj())


# --- other references and helpers


def all_weyl(d: int) -> np.ndarray:
    """All d^2 Weyl operators stacked in label order k = a*d + b (dense reference)."""
    return np.stack([weyl(d, a, b) for a in range(d) for b in range(d)])


def vectorize(a: np.ndarray) -> np.ndarray:
    """Flatten a square matrix A to the bipartite vector sum_jk A_jk |j>|k> (row-major).

    For a unitary U the vector of U/sqrt(d) is unit norm, and vectorize(I/sqrt(d))
    is the canonical maximally entangled state.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vectorize expects a square matrix, got shape {a.shape}")
    return a.reshape(-1)


def projected_span_ranks(fam) -> list[int]:
    """Rank of each basis's paired-vector span projected off the entangled state.

    Dense reference: the paired vectors u x conj(u) of each basis, less their
    component along the maximally entangled state, and the rank of their Gram.
    """
    phi = max_entangled(fam.d)
    ranks = []
    for basis in fam.bases:
        pairs = paired_vectors(basis)
        centered = pairs - np.outer(pairs @ phi.conj(), phi)
        ranks.append(numerical_rank(centered.conj() @ centered.T))
    return ranks


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


def eigen_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and matching eigenvector columns of a Hermitian matrix."""
    a = require_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]


def random_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def state_with_min_eigenvalue(rng: np.random.Generator, n: int, lam_min: float) -> np.ndarray:
    """Hermitian n x n matrix of trace 1 in a random basis, smallest eigenvalue lam_min."""
    vals = np.full(n, (1 - lam_min) / (n - 1))
    vals[0] = lam_min
    u = random_unitary(rng, n)
    rho = (u * vals) @ u.conj().T
    return (rho + rho.conj().T) / 2


def weyl_group(d: int) -> np.ndarray:
    """The d^2 canonicalized Weyl operators, stacked [d^2, d, d] (negative-control subgroup)."""
    return canonicalize_phase(all_weyl(d))


@dataclass(eq=False)
class BipartiteState:
    """Dense density operator on dimension d^2 (single) or d^4 (double): the reference state."""

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


def dense_outcome_distribution(m, s: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and conditional acceptance from the dense density operator.

    The reference for protocol.outcome_distribution, which works from the Bell spectrum.
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
    accept_num = (np.einsum("ia,ia->i", pairs.real, rho_pairs.real)
                  + np.einsum("ia,ia->i", pairs.imag, rho_pairs.imag))
    live = q > ZERO_OUTCOME_TOL
    accept = np.zeros_like(q)
    accept[live] = np.clip(accept_num[live] / tr[live], 0, 1)
    return q, accept


def random_spectrum(rng: np.random.Generator, d: int, party: str) -> np.ndarray:
    """A random full-rank Bell spectrum, far from isotropic: shape (d^2,) or (d^2, d^2)."""
    r = rng.uniform(0.1, 1.0, (d * d,) if party == "single" else (d * d, d * d))
    return r / r.sum()


def analytic_acceptance(t, s) -> float:
    """Exact acceptance probability Tr(T rho) of a test on a state with a dense rho."""
    if (t.local_dim, t.party_structure) != (s.local_dim, s.party_structure):
        raise ValueError("test and state live on different systems")
    return acceptance_probability(t, dense_rho(s))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
