"""Test operators for maximally-entangled-state verification.

Builds the closed-form invariant test operators on one and two subsystem
pairs, and the realized test operator of any rank-one POVM (Alice measures,
Bob projects onto the conjugate vector). Single-pair POVMs are certified from
the Bell spectrum of their realized test, which never forms the operator.

Weyl labels, used throughout the package: k = a*d + b names W_k = X^a Z^b,
with the shift X|j> = |j+1> and the clock Z|j> = w^j |j>, w = exp(2 pi i / d).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from math import isqrt

import numpy as np

from .linalg import require_finite, require_hermitian, require_psd

COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-10
BELL_CHUNK = 2 ** 16   # complex entries per chunk of the Weyl transforms


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


def invariant_bell_spectrum(d: int) -> np.ndarray:
    """Eigenvalues of invariant_test_single(d) on the Bell basis: 1, then 1/(d+1) d^2-1 times."""
    lam = np.full(d * d, 1 / (d + 1))
    lam[0] = 1.0
    return lam


def fourier_matrix(d: int) -> np.ndarray:
    """[j, b] = w^(bj) with w = exp(2 pi i / d); symmetric."""
    k = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(k, k) % d) / d)


def weyl_overlaps(u: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """[i, a, b] = <u_i|X^a Z^b|u_i> for the rows u_i of u, given dft = fourier_matrix(d).

    <u|X^a Z^b|u> = sum_j conj(u_{j+a}) u_j w^{bj}, so one length-d discrete
    Fourier transform of conj(roll(u, -a)) * u gives all d values of b. The
    transform is a product with the d x d Fourier matrix, not an FFT: at the
    prime d of the MUB scheme numpy's FFT takes its slow prime-length path
    (at d = 61, n = 3782 vectors: 0.66 s for the FFTs against 0.13 s for the
    product, 2 CPUs).
    """
    n, d = u.shape
    k = np.arange(d)
    f = u[:, (k[:, None] + k) % d]                            # [i, a, j] = u_{j+a}
    np.conjugate(f, out=f)
    f *= u[:, None, :]
    return (f.reshape(-1, d) @ dft).reshape(n, d, d)


def weyl_traces(m: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """[i, a, b] = Tr(M_i X^a Z^b) for a stack m of d x d matrices, given dft = fourier_matrix(d).

    Tr(M X^a Z^b) = sum_j M_{j, j+a} w^{bj}: the shifted diagonals of M, one
    per a, go through the same product with the Fourier matrix as in
    weyl_overlaps.
    """
    n, d = m.shape[0], m.shape[-1]
    k = np.arange(d)
    g = m[:, k, (k[:, None] + k) % d]                          # [i, a, j] = M_i[j, j+a]
    return (g.reshape(-1, d) @ dft).reshape(n, d, d)


def pair_weyl_overlaps(m: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """[i, a, b, c, e] = <u_i|X^a Z^b x X^c Z^e|u_i> for u_i = vec(M_i), given dft = fourier_matrix(d).

    The two-pair analogue of weyl_overlaps, on Z_d x Z_d: with M_i the d x d
    matrix of u_i (row-major), the value is Tr(M_i^dag W_k M_i W_l^T) for
    k = a*d + b, l = c*d + e, and equals
    sum_{y, z} conj(M[y+a, z+c]) M[y, z] w^(by + ez), so one two-dimensional
    discrete Fourier transform of conj(roll(M, (-a, -c))) * M gives all (b, e).
    """
    n, d = m.shape[0], m.shape[-1]
    k = np.arange(d)
    shift = (k[:, None] + k) % d                               # [a, y] = y + a
    f = m[:, shift[:, :, None, None], shift[None, None]]       # [i, a, y, c, z] = M_i[y+a, z+c]
    np.conjugate(f, out=f)
    f *= m[:, None, :, None, :]
    f = np.moveaxis(f @ dft, 2, -1) @ dft                      # [i, a, c, e, b]
    return f.transpose(0, 1, 4, 2, 3)


def chunks(n: int, row_entries: int) -> list[slice]:
    """Consecutive slices of range(n), each about BELL_CHUNK complex entries at row_entries per row."""
    step = max(1, BELL_CHUNK // row_entries)
    return [slice(s, s + step) for s in range(0, n, step)]


def bell_spectrum(m: RankOnePovm) -> np.ndarray:
    """Bell-basis diagonal of the realized test: lambda_k = (1/d) sum_i p_i |<u_i|W_k|u_i>|^2.

    W_k is the Weyl operator of label k (module docstring), and the Bell
    vector of label k is (W_k x I)|phi>. The overlaps come from
    weyl_overlaps, for chunks of about BELL_CHUNK complex entries of vectors;
    no d^2 x d^2 array is formed. The O(n d^3) transforms cost less than the
    O(d^5) MUB Gram checks.
    """
    d = m.dim
    dft = fourier_matrix(d)
    lam = np.zeros(d * d)
    for rows in chunks(m.n_elements, d * d):
        mod = np.abs(weyl_overlaps(m.vectors[rows], dft))
        lam += m.weights[rows] @ (mod * mod).reshape(len(mod), -1)
    return lam / d


def weyl_covariance(m: RankOnePovm, block: int) -> tuple[float, float]:
    """(deviation, off-diagonal bound) for the claim that X and Z map each block onto itself.

    The elements come in consecutive blocks of `block` (one basis of a MUB
    family; a whole SIC orbit). For g in {X, Z} and each element i, sigma(i)
    is the element of i's block with the largest |<u_sigma(i)|g u_i>|, from
    one block x block Gram per block. The deviation is the largest of
      eps_i = min over phases c of ||g u_i - c u_sigma(i)||   (computed from
              the difference vector, never from 1 - |overlap|, which would
              resolve it only to the square root of the rounding error),
      |p_i - p_sigma(i)|, and |m_j - 1| with m_j the number of i with sigma(i) = j
    over both generators. It is 0 when X and Z permute the elements of each
    block up to phases with equal weights and no two elements of a block are
    parallel; a repeated element makes sigma collide, and the block is
    reported as not covariant.

    The bound: write C_g(M) = g M g^dag, a unitary on operators, and
    T = sum_i p_i |P_i>><<P_i| with P_i = |u_i><u_i|. Then C_g T C_g^dag - T is
      sum_i p_i (|Q_i>><<Q_i| - |P_s>><<P_s|) + sum_i (p_i - p_s)|P_s>><<P_s|
      + sum_j (m_j - 1) p_j |P_j>><<P_j|,   with Q_i = g P_i g^dag, s = sigma(i),
    so, in Frobenius norm,
      delta_g = ||[T, C_g]|| <= sum_i p_i eps_i (|u_i| + |u_s|)(|u_i|^2 + |u_s|^2)
                + sum_i |p_i - p_s| |u_s|^4 + sum_j |m_j - 1| p_j |u_j|^4,
    which is O(d eps) for unit vectors with weights summing to d. On the Bell
    basis C_X and C_Z are diagonal with eigenvalues w^-b and w^a on label
    (a, b); two distinct labels differ in one of them by a power w^t != 1, and
    |w^t - 1| >= 2 sin(pi/d). Hence the off-diagonal part of T on the Bell basis
    has Frobenius norm at most sqrt(delta_X^2 + delta_Z^2) / (2 sin(pi/d)),
    which is the second value returned.
    """
    d, n = m.dim, m.n_elements
    if n == 0 or n % block:
        raise ValueError(f"{n} elements do not split into blocks of {block}")
    u = m.vectors.reshape(-1, block, d)
    p = m.weights
    norm = np.linalg.norm(m.vectors, axis=1)
    offsets = np.repeat(np.arange(0, n, block), block)
    clock = np.exp(2j * np.pi * np.arange(d) / d)
    dev, deltas = 0.0, []
    # rows g u_i for the shift X|k> = |k+1> and the clock Z|k> = w^k |k>
    for gu in (np.roll(u, 1, axis=2), u * clock):
        over = u.conj() @ gu.transpose(0, 2, 1)            # [blk, j, i] = <u_j|g u_i>
        local = np.argmax(np.abs(over), axis=1)            # [blk, i]
        best = np.take_along_axis(over, local[:, None, :], axis=1)[:, 0, :]
        partner = np.take_along_axis(u, local[:, :, None], axis=1)
        phase = np.exp(1j * np.angle(best))[:, :, None]
        eps = np.linalg.norm(gu - phase * partner, axis=2).ravel()
        sigma = offsets + local.ravel()
        mult_defect = np.abs(np.bincount(sigma, minlength=n) - 1)
        weight_defect = np.abs(p - p[sigma])
        dev = max(dev, float(eps.max()), float(weight_defect.max()), float(mult_defect.max()))
        ns = norm[sigma]
        deltas.append(float(np.sum(p * eps * (norm + ns) * (norm ** 2 + ns ** 2))
                            + weight_defect @ ns ** 4 + mult_defect @ (p * norm ** 4)))
    return dev, float(np.hypot(*deltas) / (2 * np.sin(np.pi / d)))


def bell_certificate(m: RankOnePovm, block: int) -> tuple[float, float]:
    """(t_identity_dev, weyl_covariance_dev) of a single-pair POVM, without the d^2 x d^2 test.

    If X and Z map each block of `block` elements onto itself up to phases
    with equal weights (weyl_covariance), the realized test T commutes with
    every W_k x conj(W_k) and is diagonal on the Bell basis, with the
    eigenvalues bell_spectrum(m). t_identity_dev is
      sqrt(||bell_spectrum(m) - invariant_bell_spectrum(d)||^2 + b^2),
    with b the weyl_covariance bound on T's off-diagonal part on the Bell
    basis, so it bounds the Frobenius distance ||T - invariant_test_single(d)||
    for any POVM, covariant or not, up to rounding. For a covariant POVM b is
    at rounding level (1.3e-12 for the MUBs at d = 61), and t_identity_dev is
    the dense distance to within b. A family that realizes the test but is
    not Weyl covariant (any MUB family rotated by a generic unitary) fails
    weyl_covariance_dev and is reported as not certified.
    """
    cov_dev, off_bound = weyl_covariance(m, block)
    diag = np.linalg.norm(bell_spectrum(m) - invariant_bell_spectrum(m.dim))
    return float(np.hypot(diag, off_bound)), cov_dev
