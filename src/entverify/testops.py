"""Rank-one POVMs and the Bell-spectrum certificate of the test they realize.

A rank-one POVM {p_i |u_i><u_i|} on Alice's side realizes the test
T = sum_i p_i |u_i x conj(u_i)><u_i x conj(u_i)| (Alice measures, Bob projects
onto the conjugate vector). Its vectors are a tensor of one Weyl factor
(SIC, MUB: u_i in C^d, one subsystem pair) or of two (the Clifford orbit:
u_i = vec(U_i)/sqrt(d) in C^d x C^d, two pairs in canonical factor order
A1,A2,B1,B2). bell_certificate reads T's diagonal on the Bell basis from the
Weyl overlaps of the vectors and bounds its off-diagonal part from their
Weyl covariance, so T, of dimension d^2 or d^4, is never formed.

The package has one Weyl transform, weyl_traces, for operators on any number
of factors of C^d. The overlaps <u|V|u> of the certificates, the simulator
and the fiducial search are the traces of the projectors |u><u|
(weyl_overlaps), and the Clifford normalizer test reads the traces of
U X U^dag and U Z U^dag.

Weyl labels, used throughout the package: k = a*d + b names W_k = X^a Z^b,
with the shift X|j> = |j+1> and the clock Z|j> = w^j |j>, w = exp(2 pi i / d).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import reduce
from math import isqrt

import numpy as np

from .linalg import require_finite

COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-10
BELL_CHUNK = 2 ** 16   # complex entries per chunk of the Weyl transforms


class CompletenessError(ValueError):
    """A rank-one POVM whose elements do not sum to the identity."""

    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(f"POVM completeness defect {self.defect:.3e} exceeds {COMPLETENESS_TOL:.0e}")


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


def fourier_matrix(d: int) -> np.ndarray:
    """[j, b] = w^(bj) with w = exp(2 pi i / d); symmetric."""
    k = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(k, k) % d) / d)


def weyl_traces(m: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """[i, a1, b1, ..., af, bf] = Tr(M_i (X^a1 Z^b1 x ... x X^af Z^bf)), given dft = fourier_matrix(d).

    m is a stack [n, d^f, d^f] of operators on f factors of C^d, in row-major
    factor order. Tr(M X^a Z^b) = sum_y M[y, y+a] w^(by) on each factor, so
    one gather of the shifted diagonals M[(y_j), (y_j + a_j)] and, per factor,
    one length-d discrete Fourier transform give every label. The transform
    is a product with the d x d Fourier matrix, not an FFT: at the prime d of
    the MUB scheme numpy's FFT takes its slow prime-length path (at d = 61,
    n = 3782 vectors: 0.66 s for the FFTs against 0.13 s for the product,
    2 CPUs). Each product runs on a contiguous reshape(-1, d), last factor
    first.
    """
    d, n, size = len(dft), m.shape[0], m.shape[-1]
    f = 1
    while d ** f < size:
        f += 1
    if d ** f != size:
        raise ValueError(f"operators of size {size} do not act on factors of C^{d}")
    k = np.arange(d)
    shift = (k[:, None] + k) % d                               # [a, y] = y + a
    rows, cols = [], []                                        # y_j and y_j + a_j, on axes (a_j, y_j)
    for j in range(f):
        before, after = (1,) * (2 * j), (1,) * (2 * (f - j - 1))
        rows.append(k.reshape(before + (1, d) + after))
        cols.append(shift.reshape(before + (d, d) + after))
    t = m.reshape((n,) + (d,) * (2 * f))[(slice(None), *rows, *cols)]   # [i, a1, y1, ..., af, yf]
    for axis in range(2 * f, 0, -2):                           # y_f, ..., y_1 -> b_f, ..., b_1
        t = np.moveaxis(t, axis, -1)
        t = (t.reshape(-1, d) @ dft).reshape(t.shape)          # [i, a1, .., af, bf, .., bj]
    return t.transpose([0] + [i for j in range(1, f + 1) for i in (j, 2 * f + 1 - j)])


def weyl_overlaps(u: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """<u_i|V|u_i> for the rows u_i of u, laid out as weyl_traces: the Weyl traces of |u_i><u_i|."""
    # [i, y, z] = conj(u_z) * u_y in this operand order; the swapped order rounds differently (FMA)
    return weyl_traces(u.conj()[:, None, :] * u[:, :, None], dft)


def chunks(n: int, row_entries: int) -> list[slice]:
    """Consecutive slices of range(n), each about BELL_CHUNK complex entries at row_entries per row."""
    step = max(1, BELL_CHUNK // row_entries)
    return [slice(s, s + step) for s in range(0, n, step)]


def squared_weyl_overlaps(u: np.ndarray, d: int):
    """Yield (rows, |<u_i|V|u_i>|^2) over chunks of the rows u_i of u, one column per Weyl label.

    V runs over the W_k for vectors of length d (one factor) and over
    W_k x W_l for length d^2 (two factors), in label order k (or k*d^2 + l),
    from weyl_overlaps. Each chunk holds about BELL_CHUNK complex overlap entries.
    """
    dft = fourier_matrix(d)
    for rows in chunks(len(u), u.shape[1] ** 2):
        mod = np.abs(weyl_overlaps(u[rows], dft))
        mod *= mod   # in place: a suspended generator would otherwise keep both arrays
        yield rows, mod.reshape(len(mod), -1)


def _local_dim(m: RankOnePovm, double: bool) -> int:
    """The size d of each Weyl factor: m.dim for one factor, sqrt(m.dim) for two."""
    if not double:
        return m.dim
    d = isqrt(m.dim)
    if d * d != m.dim:
        raise ValueError(f"two-pair POVM dimension {m.dim} is not a perfect square")
    return d


def invariant_bell_spectrum(d: int, double: bool = False) -> np.ndarray:
    """Bell-basis eigenvalues of the optimal invariant test on one or two pairs.

    One pair, P + (I - P)/(d+1) with P the projector onto the maximally
    entangled state: 1 at label 0, then 1/(d+1), shape (d^2,). Two pairs,
    P x P + (I - P) x (I - P)/(d^2 - 1) in pair order: 1 at (0, 0),
    1/(d^2 - 1) where k != 0 and l != 0, and 0 elsewhere, shape (d^2, d^2).
    """
    if double:
        lam = np.zeros((d * d, d * d))
        lam[1:, 1:] = 1 / (d * d - 1)
    else:
        lam = np.full(d * d, 1 / (d + 1))
    lam.flat[0] = 1.0
    return lam


def bell_spectrum(m: RankOnePovm, double: bool = False) -> np.ndarray:
    """Bell-basis diagonal of the realized test: lambda_k = (1/D) sum_i p_i |<u_i|V_k|u_i>|^2.

    D = m.dim. One factor: V_k = W_k, the Bell vector of label k is
    (W_k x I)|phi>, and the result has shape (d^2,). Two factors (double):
    V_kl = W_k x W_l on A1A2, the Bell vector of (k, l) is (W_k x I)|phi> on
    (A1,B1) times (W_l x I)|phi> on (A2,B2), and the result has shape
    (d^2, d^2). The overlaps come from squared_weyl_overlaps; no D^2 x D^2
    array is formed. The O(n d^3) transforms cost less than the O(d^5) MUB
    Gram checks.
    """
    d = _local_dim(m, double)
    lam = np.zeros(m.dim ** 2)
    for rows, mod2 in squared_weyl_overlaps(m.vectors, d):
        lam += m.weights[rows] @ mod2
    return (lam / m.dim).reshape((d * d,) * (1 + double))


def weyl_covariance(m: RankOnePovm, block: int, double: bool = False) -> tuple[float, float]:
    """(deviation, off-diagonal bound) for the claim that the Weyl generators map each block onto itself.

    The generators are the shift X and the clock Z on each factor: X and Z
    for one factor, X x I, Z x I, I x X and I x Z for two (double). The
    elements come in consecutive blocks of `block` (one basis of a MUB
    family; a whole SIC or Clifford orbit). For each generator g and each
    element i, sigma(i) is the element of i's block with the largest
    |<u_sigma(i)|g u_i>|, from one block x block Gram per block. The
    deviation is the largest of
      eps_i = min over phases c of ||g u_i - c u_sigma(i)||   (computed from
              the difference vector, never from 1 - |overlap|, which would
              resolve it only to the square root of the rounding error),
      |p_i - p_sigma(i)|, and |m_j - 1| with m_j the number of i with sigma(i) = j
    over all generators. It is 0 when the generators permute the elements of
    each block up to phases with equal weights and no two elements of a block
    are parallel; a repeated element makes sigma collide, and the block is
    reported as not covariant.

    The bound: write C_g(M) = g M g^dag, a unitary on operators, and
    T = sum_i p_i |P_i>><<P_i| with P_i = |u_i><u_i|. Then C_g T C_g^dag - T is
      sum_i p_i (|Q_i>><<Q_i| - |P_s>><<P_s|) + sum_i (p_i - p_s)|P_s>><<P_s|
      + sum_j (m_j - 1) p_j |P_j>><<P_j|,   with Q_i = g P_i g^dag, s = sigma(i),
    so, in Frobenius norm,
      delta_g = ||[T, C_g]|| <= sum_i p_i eps_i (|u_i| + |u_s|)(|u_i|^2 + |u_s|^2)
                + sum_i |p_i - p_s| |u_s|^4 + sum_j |m_j - 1| p_j |u_j|^4,
    which is O(D eps) for unit vectors with weights summing to D = m.dim.
    The Bell vectors are the vectorized W_k (one factor) or W_k x W_l (two),
    and C_g maps them to multiples of themselves: X W_k X^dag = w^-b W_k and
    Z W_k Z^dag = w^a W_k on label k = (a, b), so C_X and C_Z have
    eigenvalues w^-b and w^a, and on label (k, l) = ((a, b), (c, e)) the four
    generators have w^-b, w^a, w^-e and w^c. Two distinct labels differ in at
    least one of a, b (c, e), so in one of these eigenvalues by a power
    w^t != 1, and |w^t - 1| >= 2 sin(pi/d). Each off-diagonal entry T_xy of T
    on the Bell basis is therefore multiplied by at least 2 sin(pi/d) in
    C_g T C_g^dag - T for some g, and the off-diagonal part of T has
    Frobenius norm at most sqrt(sum_g delta_g^2) / (2 sin(pi/d)), which is
    the second value returned.
    """
    d, n = _local_dim(m, double), m.n_elements
    if n == 0 or n % block:
        raise ValueError(f"{n} elements do not split into blocks of {block}")
    u = m.vectors.reshape((-1, block) + (d,) * (1 + double))   # one axis per factor
    flat = u.reshape(-1, block, m.dim)
    p = m.weights
    norm = np.linalg.norm(m.vectors, axis=1)
    offsets = np.repeat(np.arange(0, n, block), block)
    clock = np.exp(2j * np.pi * np.arange(d) / d)
    dev, deltas = 0.0, []
    for axis in range(2, u.ndim):
        # rows g u_i for the shift X|k> = |k+1> and the clock Z|k> = w^k |k> on this factor
        on_axis = clock.reshape((d,) + (1,) * (u.ndim - 1 - axis))
        for gu in (np.roll(u, 1, axis=axis), u * on_axis):
            gu = gu.reshape(flat.shape)
            over = flat.conj() @ gu.transpose(0, 2, 1)         # [blk, j, i] = <u_j|g u_i>
            local = np.argmax(np.abs(over), axis=1)            # [blk, i]
            best = np.take_along_axis(over, local[:, None, :], axis=1)[:, 0, :]
            partner = np.take_along_axis(flat, local[:, :, None], axis=1)
            phase = np.exp(1j * np.angle(best))[:, :, None]
            eps = np.linalg.norm(gu - phase * partner, axis=2).ravel()
            sigma = offsets + local.ravel()
            mult_defect = np.abs(np.bincount(sigma, minlength=n) - 1)
            weight_defect = np.abs(p - p[sigma])
            dev = max(dev, float(eps.max()), float(weight_defect.max()), float(mult_defect.max()))
            ns = norm[sigma]
            deltas.append(float(np.sum(p * eps * (norm + ns) * (norm ** 2 + ns ** 2))
                                + weight_defect @ ns ** 4 + mult_defect @ (p * norm ** 4)))
    return dev, float(reduce(np.hypot, deltas) / (2 * np.sin(np.pi / d)))


def bell_certificate(m: RankOnePovm, block: int, double: bool = False) -> tuple[float, float, float]:
    """(t_identity_dev, weyl_covariance_dev, trace_dev) of a one- or two-pair POVM, without T.

    If the Weyl generators map each block of `block` elements onto itself up
    to phases with equal weights (weyl_covariance), the realized test T
    commutes with every C_g and is diagonal on the Bell basis, with the
    eigenvalues bell_spectrum(m, double). t_identity_dev is
      sqrt(||bell_spectrum - invariant_bell_spectrum||^2 + b^2),
    with b the weyl_covariance bound on T's off-diagonal part on the Bell
    basis, so it bounds the Frobenius distance from T to the invariant test
    for any POVM, covariant or not, up to rounding. For a covariant POVM b is
    at rounding level (1.3e-12 for the MUBs at d = 61), and t_identity_dev is
    the dense distance to within b. A family that realizes the test but is
    not Weyl covariant (any MUB family rotated by a generic unitary) fails
    weyl_covariance_dev and is reported as not certified. trace_dev is
    |Tr T - D|, with Tr T the sum of the spectrum and D = m.dim the trace of
    the invariant test on one pair or two.
    """
    cov_dev, off_bound = weyl_covariance(m, block, double)
    spectrum = bell_spectrum(m, double)
    diag = np.linalg.norm(spectrum - invariant_bell_spectrum(_local_dim(m, double), double))
    return float(np.hypot(diag, off_bound)), cov_dev, abs(float(spectrum.sum()) - m.dim)
