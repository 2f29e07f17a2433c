"""Rank-one POVMs and the Bell-spectrum certificate of the test they realize.

A rank-one POVM {p_i |u_i><u_i|} on Alice's side realizes the test
T = sum_i p_i |u_i x conj(u_i)><u_i x conj(u_i)| (Alice measures, Bob projects
onto the conjugate vector). Its vectors are a tensor of one Weyl factor
(SIC, MUB: u_i in C^d, one subsystem pair) or of two (the Clifford orbit:
u_i = vec(U_i)/sqrt(d) in C^d x C^d, two pairs in canonical factor order
A1,A2,B1,B2), a count the POVM carries (RankOnePovm.pairs). bell_certificate
reads T's diagonal on the Bell basis from the Weyl overlaps of the vectors
and bounds its off-diagonal part from their Weyl covariance, so T, of
dimension d^2 or d^4, is never formed.

The package has one Weyl transform for operators on any number of factors
of C^d: a gather of shifted diagonals and one Fourier product. weyl_traces
feeds it the diagonals of operators, as generator_peaks does with U^dag X U
and U^dag Z U for the Clifford coset labels and the coset-row covariance;
weyl_overlaps feeds it those of the projectors |u><u|, read from the
vectors, for the overlaps <u|V|u> of the certificates, the simulator and
the fiducial search. The loops over a POVM's elements walk it in chunks
of about BELL_CHUNK complex entries (64 KB) and at least MIN_CHUNK_ROWS
rows, so their working set stays small next to the POVM itself; each chunk
gets arrays of its own, and jsonio writes a POVM document in the same
chunks. A row may stand for the d^2 outcomes of its Weyl orbit
(RankOnePovm.outcomes_per_row), as a Clifford coset representative for its
coset, and every quantity here is read from such rows.

Weyl labels, used throughout the package: k = a*d + b names W_k = X^a Z^b,
with the shift X|j> = |j+1> and the clock Z|j> = w^j |j>, w = exp(2 pi i / d).
"""

from __future__ import annotations

import numbers
from dataclasses import InitVar, dataclass
from functools import reduce
from math import isqrt

import numpy as np

from .linalg import require_finite

COMPLETENESS_TOL = 1e-10
NORM_TOL = 1e-10
BELL_CHUNK = 2 ** 12   # complex entries (64 KB) per chunk of the Weyl transforms and covariance Grams
MIN_CHUNK_ROWS = 4     # rows per chunk at the least, whatever their size (chunks)


class CompletenessError(ValueError):
    """A rank-one POVM whose elements do not sum to the identity."""

    def __init__(self, defect: float):
        self.defect = float(defect)
        super().__init__(f"POVM completeness defect {self.defect:.3e} exceeds {COMPLETENESS_TOL:.0e}")


@dataclass(eq=False)
class RankOnePovm:
    """Finite rank-one POVM {p_i |u_i><u_i|} with unit vectors u_i as rows.

    pairs (1 or 2) counts the subsystem pairs of the realized test, set where
    the POVM is built; at 2, dim is the square of local_dim = d (C^d x C^d).

    outcomes_per_row is 1, or d^2 at two pairs: a row u of d^2 outcomes
    stands for the vectors (I x W_m^T) u over every label m, which split its
    weight evenly and share its |<u|W_a x W_b|u>|; for u = vec(C)/sqrt(d),
    the coset vec(C W_m)/sqrt(d) (clifford.coset_povm).
    """

    dim: int
    weights: np.ndarray
    vectors: np.ndarray
    outcomes_per_row: int = 1
    pairs: int = 1
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
        for i in np.flatnonzero((self.weights < -1e-12) | (self.weights > 1 + 1e-12))[:1]:
            raise ValueError(f"weights must lie in [0, 1]; element {i} has weight {float(self.weights[i])!r}")
        norms = np.sqrt(squared_norms(self.vectors))
        for i in np.flatnonzero(np.abs(norms - 1) > NORM_TOL)[:1]:
            raise ValueError(f"POVM vectors must be unit norm; element {i} has norm {float(norms[i])!r}")
        if (not isinstance(self.pairs, numbers.Integral) or self.pairs not in (1, 2)
                or self.local_dim ** self.pairs != self.dim):
            raise ValueError(f"pairs must be 1, or 2 with a square dim; got pairs={self.pairs!r} at dim {self.dim}")
        k = self.outcomes_per_row
        if not isinstance(k, numbers.Integral) or k not in (1, self.dim if self.pairs == 2 else 1):
            raise ValueError(f"outcomes_per_row must be a positive integer, 1 or d^2 at two pairs; got {k!r}")
        if check_completeness:
            defect = self.completeness_defect()
            if defect > COMPLETENESS_TOL:
                raise CompletenessError(defect)

    @property
    def n_elements(self) -> int:
        return self.vectors.shape[0]

    @property
    def local_dim(self) -> int:
        return self.dim if self.pairs == 1 else isqrt(self.dim)

    def completeness_defect(self) -> float:
        """Max-entry deviation of sum_i p_i |u_i><u_i| over every outcome from the identity, by chunks of rows.

        Rows of d^2 outcomes: sum_m (I x W_m) X (I x W_m)^dag = d Tr_2(X) x I, so the
        defect is that of sum_rows (p/d) U U^dag on C^d, U = u as a d x d matrix.
        """
        size = self.local_dim if self.outcomes_per_row > 1 else self.dim
        s = np.zeros((size, size), dtype=complex)
        for rows in chunks(self.n_elements, self.dim):
            u, p = self.vectors[rows], self.weights[rows]
            if self.outcomes_per_row > 1:
                u = u.reshape(-1, size, size).transpose(0, 2, 1).reshape(-1, size)   # the columns of each U
                p = np.repeat(p / size, size)
            s += (u.T * p) @ u.conj()
        return float(np.max(np.abs(s - np.eye(size))))


def squared_norms(u: np.ndarray) -> np.ndarray:
    """|u_i|^2 for the rows u_i of u, from the real and imaginary parts: no complex temporary."""
    return np.einsum("ia,ia->i", u.real, u.real) + np.einsum("ia,ia->i", u.imag, u.imag)


def fourier_matrix(d: int) -> np.ndarray:
    """[j, b] = w^(bj) with w = exp(2 pi i / d); symmetric."""
    k = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(k, k) % d) / d)


def _factor_count(size: int, d: int) -> int:
    """f with d^f = size; a ValueError if size is no power of d."""
    f = 1
    while d ** f < size:
        f += 1
    if d ** f != size:
        raise ValueError(f"operators of size {size} do not act on factors of C^{d}")
    return f


def _shifted_index(d: int, f: int) -> np.ndarray:
    """[a, y] = the flat label of y + a (per factor, mod d), for flat labels a and y of f factors of C^d."""
    k = np.arange(d)
    shift = (k[:, None] + k) % d                               # [a, y] = y + a
    index = np.zeros((1, 1), dtype=np.intp)
    for _ in range(f):
        index = (index[:, None, :, None] * d + shift[None, :, None, :]).reshape(len(index) * d, -1)
    return index


def _diagonals(u: np.ndarray, index: np.ndarray) -> np.ndarray:
    """[i, a, y] = conj(u_i[y + a]) * u_i[y], the shifted diagonals of |u_i><u_i|, in a new array.

    In this operand order: the swapped one rounds differently through FMA.
    np.take, not u[:, index]: the fancy index took 1.4 times as long at MUB d = 29 and 61 (2-CPU VM).
    """
    t = np.take(u, index, axis=1)
    np.conjugate(t, out=t)
    t *= u[:, None, :]
    return t


def _transform(t: np.ndarray, fourier: np.ndarray, d: int) -> np.ndarray:
    """[i, a1, b1, ..., af, bf] from the shifted diagonals t[i, a, y] (flat labels a, y of f factors).

    One discrete Fourier transform over y: a product of the contiguous
    reshape(-1, d^f) with `fourier`, the Kronecker product of f Fourier
    matrices (fourier_matrix(d) itself at one factor). The result is a view
    in label order.
    """
    size = t.shape[-1]
    f = _factor_count(size, d)
    out = (t.reshape(-1, size) @ fourier).reshape((len(t),) + (d,) * (2 * f))   # [i, a1, .., af, b1, .., bf]
    return out.transpose([0] + [i for j in range(1, f + 1) for i in (j, f + j)])


def weyl_traces(m: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """[i, a1, b1, ..., af, bf] = Tr(M_i (X^a1 Z^b1 x ... x X^af Z^bf)), given dft = fourier_matrix(d).

    m is a stack [n, d^f, d^f] of operators on f factors of C^d, in row-major
    factor order. Tr(M X^a Z^b) = sum_y M[y, y+a] w^(by) on each factor, so
    one gather of the shifted diagonals M[y, y + a] and one discrete Fourier
    transform over y give every label. The transform is a product with the
    Fourier matrix, not an FFT: at the prime d of the MUB scheme numpy's FFT
    takes its slow prime-length path (at d = 61, n = 3782 vectors: 0.66 s
    for the FFTs against 0.13 s for the product, 2 CPUs). Over two factors
    one product with the d^2 x d^2 Kronecker square costs d^2 rather than 2d
    operations per entry, but it needs no transposed copy between factors:
    at d = 5 it takes a third of the time of two per-factor products.
    """
    d, n = len(dft), m.shape[0]
    f = _factor_count(m.shape[-1], d)
    size = d ** f
    t = m.reshape(n, -1)[:, np.arange(size) * size + _shifted_index(d, f)]   # [i, a, y] = M[y, y + a]
    return _transform(t, reduce(np.kron, [dft] * f), d)


def weyl_overlaps(u: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """<u_i|V|u_i> for the rows u_i of u, laid out as weyl_traces: the Weyl traces of |u_i><u_i|.

    The shifted diagonals of |u><u| are read straight from the vectors
    (_diagonals) and go through the transform of weyl_traces; the projectors
    are never formed.
    """
    d = len(dft)
    f = _factor_count(u.shape[-1], d)
    return _transform(_diagonals(u, _shifted_index(d, f)), reduce(np.kron, [dft] * f), d)


def chunks(n: int, row_entries: int) -> list[slice]:
    """Consecutive slices of range(n), each about BELL_CHUNK complex entries at row_entries per row.

    A chunk holds at least MIN_CHUNK_ROWS rows, so the products over large
    rows (a d^2-entry overlap row at MUB d >= 37) stay large enough to run
    on more than one BLAS thread.
    """
    step = max(MIN_CHUNK_ROWS, BELL_CHUNK // row_entries)
    return [slice(s, s + step) for s in range(0, n, step)]


def squared_weyl_overlaps(u: np.ndarray, d: int):
    """Yield (rows, |<u_i|V|u_i>|^2) over chunks of the rows u_i of u, one column per Weyl label.

    V runs over the W_k for vectors of length d (one factor) and over
    W_k x W_l for length d^2 (two factors), in label order k (or k*d^2 + l),
    computed as in weyl_overlaps, with the shifted index and the Fourier
    matrix built once per call rather than once per chunk. Each chunk holds
    about BELL_CHUNK complex overlap entries, in arrays of its own, so a
    caller may keep a yielded array.
    """
    n, size = u.shape
    f = _factor_count(size, d)
    index, fourier = _shifted_index(d, f), reduce(np.kron, [fourier_matrix(d)] * f)
    for rows in chunks(n, size * size):
        t = _transform(_diagonals(u[rows], index), fourier, d)
        mod = np.abs(t, order="C").reshape(len(t), -1)   # C order: label order, so the reshape copies nothing
        mod *= mod
        yield rows, mod


def invariant_bell_spectrum(d: int, pairs: int = 1) -> np.ndarray:
    """Bell-basis eigenvalues of the optimal invariant test on one or two pairs.

    One pair, P + (I - P)/(d+1) with P the projector onto the maximally
    entangled state: 1 at label 0, then 1/(d+1), shape (d^2,). Two pairs,
    P x P + (I - P) x (I - P)/(d^2 - 1) in pair order: 1 at (0, 0),
    1/(d^2 - 1) where k != 0 and l != 0, and 0 elsewhere, shape (d^2, d^2).
    """
    if pairs == 2:
        lam = np.zeros((d * d, d * d))
        lam[1:, 1:] = 1 / (d * d - 1)
    else:
        lam = np.full(d * d, 1 / (d + 1))
    lam.flat[0] = 1.0
    return lam


def bell_spectrum(m: RankOnePovm) -> np.ndarray:
    """Bell-basis diagonal of the realized test: lambda_k = (1/D) sum_i p_i |<u_i|V_k|u_i>|^2.

    D = m.dim. One pair: V_k = W_k, the Bell vector of label k is
    (W_k x I)|phi>, and the result has shape (d^2,). Two pairs (m.pairs = 2):
    V_kl = W_k x W_l on A1A2, the Bell vector of (k, l) is (W_k x I)|phi> on
    (A1,B1) times (W_l x I)|phi> on (A2,B2), and the result has shape
    (d^2, d^2). The overlaps come from squared_weyl_overlaps; no D^2 x D^2
    array is formed. The O(n d^3) transforms cost less than the O(d^5) MUB
    Gram checks.
    """
    d = m.local_dim
    lam = np.zeros(m.dim ** 2)
    for rows, mod2 in squared_weyl_overlaps(m.vectors, d):
        lam += m.weights[rows] @ mod2
    return (lam / m.dim).reshape((d * d,) * m.pairs)


def weyl_covariance(m: RankOnePovm, block: int) -> tuple[float, float]:
    """(deviation, off-diagonal bound) for the claim that the Weyl generators map each block onto itself.

    The generators are the shift X and the clock Z on each factor: X and Z
    for one factor, X x I, Z x I, I x X and I x Z for two (m.pairs = 2). The
    elements come in consecutive blocks of `block` (one basis of a MUB
    family; a whole SIC orbit; one Weyl coset {C W_k} of the Clifford orbit).
    For each generator g and each element i, sigma(i) is the element of i's
    block with the largest |<u_sigma(i)|g u_i>|, from one block x block Gram
    per block. The blocks are walked in groups of about BELL_CHUNK complex
    Gram entries, and the deviation and the sums delta_g below are
    accumulated over the groups, so the bound is the same however the
    elements are split. The deviation is the largest of
      eps_i = min over phases c of ||g u_i - c u_sigma(i)||   (computed from
              the difference vector, never from 1 - |overlap|, which would
              resolve it only to the square root of the rounding error),
      |p_i - p_sigma(i)|, and |m_j - 1| with m_j the number of i with sigma(i) = j
    over all generators. It is 0 when the generators permute the elements of
    each block up to phases with equal weights and no two elements of a block
    are parallel; a repeated element makes sigma collide, and the block is
    reported as not covariant.

    A row of d^2 outcomes vec(U W_k) (U = u as a d x d matrix) is its own
    block, block = d^2. I x g maps U W_k to U W_k g^T, a phase times U W_k':
    eps = 0. For g x I, with m and c that minimize eps_row = ||gU - c U W_m||_F
    (m from the largest |Tr(W_m^dag U^dag g U)|, weyl_traces; eps_row from the
    difference matrix), g U W_k = c' U W_(m+k) + (gU - c U W_m) W_k: k maps to
    m + k, a bijection on equal weights, with error eps_row and no defects, and
    the row's outcomes (weight p/d^2, norm |u|) add p eps_row 4|u|^3 to delta_g.

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
    n, d, k = m.n_elements, m.local_dim, m.outcomes_per_row
    if k > 1 and block != k:
        raise ValueError(f"a row of {k} outcomes is its own block, got block {block}")
    if k == 1 and (n == 0 or n % block):
        raise ValueError(f"{n} elements do not split into blocks of {block}")
    parts = chunks(n, m.dim) if k > 1 else [slice(g.start * block, g.stop * block)
                                            for g in chunks(n // block, block * max(block, m.dim))]
    terms, dev, deltas = _orbit_row_terms if k > 1 else _block_terms, 0.0, 0.0
    for rows in parts:
        part_dev, sums = terms(m.vectors[rows], m.weights[rows], block, d)
        dev, deltas = max(dev, part_dev), deltas + sums
    return dev, float(np.linalg.norm(deltas) / (2 * np.sin(np.pi / d)))


def _block_terms(vectors: np.ndarray, p: np.ndarray, block: int, d: int) -> tuple[float, np.ndarray]:
    """weyl_covariance's deviation and sums delta_g over whole blocks; d^f entries per vector for f factors."""
    clock = fourier_matrix(d)[1]
    flat = vectors.reshape(-1, block, vectors.shape[1])
    u = flat.reshape(flat.shape[:2] + (d,) * _factor_count(vectors.shape[1], d))   # one axis per factor
    norm = np.sqrt(squared_norms(vectors))
    offsets = np.repeat(np.arange(0, len(p), block), block)
    dev, sums = 0.0, []
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
            mult_defect = np.abs(np.bincount(sigma, minlength=len(p)) - 1)
            weight_defect = np.abs(p - p[sigma])
            dev = max(dev, float(eps.max()), float(weight_defect.max()), float(mult_defect.max()))
            ns = norm[sigma]
            sums.append(np.sum(p * eps * (norm + ns) * (norm ** 2 + ns ** 2))
                        + weight_defect @ ns ** 4 + mult_defect @ (p * norm ** 4))
    return dev, np.array(sums)


def generator_peaks(u: np.ndarray, dft: np.ndarray):
    """Yield (g U, a, b, peak) for the shift g = X, then the clock g = Z, over a stack [n, d, d] of matrices U.

    (a, b) is the label k of the largest |Tr(U^dag g U W_k)| (weyl_traces,
    given dft = fourier_matrix(d)) and peak that modulus, one per U. If
    U^dag g U = c W_m with |c| = 1, the peak is d and sits at k = -m, since
    Tr(W_m W_k) is 0 unless m + k = 0.
    """
    d = len(dft)
    for gu in (np.roll(u, 1, axis=1), u * dft[1][:, None]):
        mod = np.abs(weyl_traces(u.conj().transpose(0, 2, 1) @ gu, dft)).reshape(len(u), -1)
        a, b = np.divmod(np.argmax(mod, axis=1), d)
        yield gu, a, b, mod.max(axis=1)


def _orbit_row_terms(vectors: np.ndarray, p: np.ndarray, block: int, d: int) -> tuple[float, np.ndarray]:
    """_block_terms of rows of d^2 outcomes: eps_row for X x I and Z x I, 0 for I x X and I x Z."""
    dft, u = fourier_matrix(d), vectors.reshape(-1, d, d)
    norm, dev, sums = np.sqrt(squared_norms(vectors)), 0.0, []
    for gu, a, b, _ in generator_peaks(u, dft):                 # (X x I) u and (Z x I) u, peak at k = -m
        # U W_m = U X^a' Z^b' with m = (a', b') = (-a, -b): [r, j] = U[r, j + a'] w^(b' j)
        cols = (np.arange(d) - a[:, None]) % d
        uw = np.take_along_axis(u, cols[:, None, :], axis=2) * dft[-b % d][:, None, :]
        overlap = np.einsum("irj,irj->i", uw.conj(), gu)          # Tr((U W_m)^dag g U)
        phase = np.exp(1j * np.angle(overlap))[:, None, None]
        eps = np.linalg.norm((gu - phase * uw).reshape(len(u), -1), axis=1)
        dev = max(dev, float(eps.max()))
        sums.append(np.sum(p * eps * 4 * norm ** 3))
    return dev, np.array(sums + [0.0, 0.0])


def bell_certificate(m: RankOnePovm, block: int) -> tuple[float, float, float]:
    """(t_identity_dev, weyl_covariance_dev, trace_dev) of a one- or two-pair POVM, without T.

    If the Weyl generators map each block of `block` elements onto itself up
    to phases with equal weights (weyl_covariance), the realized test T
    commutes with every C_g and is diagonal on the Bell basis, with the
    eigenvalues bell_spectrum(m). t_identity_dev is
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
    cov_dev, off_bound = weyl_covariance(m, block)
    spectrum = bell_spectrum(m)
    diag = np.linalg.norm(spectrum - invariant_bell_spectrum(m.local_dim, m.pairs))
    return float(np.hypot(diag, off_bound)), cov_dev, abs(float(spectrum.sum()) - m.dim)
