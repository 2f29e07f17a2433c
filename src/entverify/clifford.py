"""Weyl operators, Clifford group enumeration, and the group-orbit POVM.

The Clifford group is enumerated as phase-canonicalized unitaries closed
under multiplication (breadth-first closure over a generating set), so every
structural claim about it is checked by direct matrix arithmetic rather than
symplectic bookkeeping. The Weyl normalizer test checks the images of X and Z.
At d = 2, 3 the two-pair identity of the orbit POVM is certified from the
Bell spectrum of its realized test (testops.bell_certificate with two Weyl
factors), as the SIC and MUB identities are with one.
"""

from __future__ import annotations

import numpy as np

from .report import Check, VerificationReport
from .testops import (RankOnePovm, bell_certificate, chunks, fourier_matrix,
                      weyl_traces)

UNITARY_TOL = 1e-10
NORMALIZER_TOL = 1e-10
PIVOT_TIE_TOL = 1e-9
HASH_GRID = 1e-6
SIZE_CAP = 10000
IDENTITY_DS = (2, 3)  # d at which verify_clifford_identity certifies the two-pair identity


def weyl(d: int, i: int, j: int) -> np.ndarray:
    """Displacement operator X^i Z^j on C^d, with X the cyclic shift and Z the clock."""
    i, j = i % d, j % d
    k = np.arange(d)
    m = np.zeros((d, d), dtype=complex)
    m[(k + i) % d, k] = np.exp(2j * np.pi * ((j * k) % d) / d)
    return m


def pair_product_counts(d: int) -> np.ndarray:
    """nu(n, d) for n = 0..d-1: the ordered pairs (x, y) in Z_d^2 with x*y = n (mod d).

    One bincount of the products x * (0..d-1) mod d per row x: O(d^2) time, O(d) memory.
    """
    k = np.arange(d, dtype=np.int64)
    counts = np.zeros(d, dtype=np.int64)
    for x in range(d):
        counts += np.bincount(x * k % d, minlength=d)
    return counts


def cardinality_from_pair_counts(counts: np.ndarray) -> int:
    """Order of the phase-quotiented Clifford group from the pair counts nu(., d).

    For prime d the result is cross-checked against d^3 (d^2 - 1).
    """
    d = len(counts)
    # each term is at most (sum nu)^2 = d^4, so the int64 dot cannot overflow
    total = d * d * int(counts @ np.roll(counts, -1))
    if is_prime(d):
        closed = d ** 3 * (d * d - 1)
        if total != closed:
            raise AssertionError(f"pair-count sum {total} != prime closed form {closed} at d={d}")
    return total


def clifford_cardinality(d: int) -> int:
    """Order of the phase-quotiented Clifford group via the pair-count sum."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return cardinality_from_pair_counts(pair_product_counts(d))


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % k for k in range(2, int(d ** 0.5) + 1))


def canonicalize_phase(u: np.ndarray) -> np.ndarray:
    """Fix the global phase of a matrix, or of each matrix in a stack [..., d, d].

    The first entry of largest magnitude (within PIVOT_TIE_TOL) becomes real positive.
    Idempotent: applying twice returns the same matrices.
    """
    u = np.asarray(u, dtype=complex)
    flat = u.reshape(-1, u.shape[-2] * u.shape[-1])
    mags = np.abs(flat)
    pivot = np.argmax(mags >= mags.max(axis=1, keepdims=True) - PIVOT_TIE_TOL, axis=1)
    z = flat[np.arange(len(flat)), pivot]
    rows = np.flatnonzero((z.imag != 0) | (z.real <= 0))
    if not len(rows):
        return u
    z, cols = z[rows], pivot[rows]
    r = np.abs(z)
    out = flat.copy()
    out[rows] *= (z.conj() / r)[:, None]
    out[rows, cols] = r  # kill the fp phase residue at the pivot
    return out.reshape(u.shape)


def quantized_key(u: np.ndarray) -> bytes | list[bytes]:
    """Hash key from entries quantized to the HASH_GRID (stable across tiny fp noise).

    One key for a matrix [d, d], a list of keys for a stack [..., d, d] in row-major order.
    """
    u = np.asarray(u)
    flat = u.reshape(-1, u.shape[-2] * u.shape[-1])
    grid_points = np.rint(np.concatenate([flat.real, flat.imag], axis=1) / HASH_GRID)
    keys = [row.tobytes() for row in grid_points.astype(np.int64)]
    return keys[0] if u.ndim == 2 else keys


def normalizes_weyl_group(u: np.ndarray) -> np.ndarray:
    """Whether U W U^dag is a phase times a Weyl operator for every Weyl W.

    One verdict for a unitary [d, d], one per unitary for a stack [..., d, d].
    It is enough to test W = X and Z, whose products give every X^a Z^b; a
    unitary image V is a phase times a Weyl operator when max_k |Tr(V W_k)| = d.
    The stack is walked in chunks of about BELL_CHUNK complex image entries.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    flat = u.reshape(-1, d, d)
    xz = np.stack([weyl(d, 1, 0), weyl(d, 0, 1)])
    dft = fourier_matrix(d)
    verdicts = np.empty(len(flat), dtype=bool)
    for rows in chunks(len(flat), 2 * d * d):
        v = flat[rows, None]
        images = v @ xz @ np.swapaxes(v, -1, -2).conj()
        peak = np.abs(weyl_traces(images.reshape(-1, d, d), dft)).reshape(-1, 2, d * d).max(axis=-1)
        verdicts[rows] = np.all(peak >= d * (1 - NORMALIZER_TOL), axis=-1)
    return verdicts.reshape(u.shape[:-2])[()]


def clifford_generators(d: int) -> np.ndarray:
    """Generating set {X, Z, F, S}, stacked [4, d, d], for the Clifford group of prime d.

    F is the discrete Fourier matrix; S is the diagonal quadratic-phase gate
    (diag(1, i) at d=2). Each generator is verified to normalize the Weyl group.
    """
    if not is_prime(d):
        raise ValueError(f"generators are provided for prime d only, got {d}")
    k = np.arange(d)
    x = weyl(d, 1, 0)
    z = weyl(d, 0, 1)
    f = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    if d == 2:
        s = np.diag([1, 1j]).astype(complex)
    else:
        inv2 = pow(2, -1, d)
        s = np.diag(np.exp(2j * np.pi * ((k * (k + 1) * inv2) % d) / d))
    gens = np.stack([x, z, f, s])
    if np.max(np.abs(gens.conj().transpose(0, 2, 1) @ gens - np.eye(d))) > UNITARY_TOL:
        raise AssertionError("a generator is not unitary")
    if not np.all(normalizes_weyl_group(gens)):
        raise AssertionError("a generator fails the Weyl normalizer test")
    return gens


def enumerate_clifford(d: int) -> np.ndarray:
    """Breadth-first closure of the canonicalized generator products, stacked [n, d, d].

    Terminates only when the element count matches the cardinality formula and
    every element passes the Weyl normalizer test; any mismatch (hash collision,
    missing generator) raises.
    """
    if not is_prime(d):
        raise ValueError(f"enumeration is supported for prime d only, got {d}")
    expected = clifford_cardinality(d)
    if expected > SIZE_CAP:
        raise ValueError(f"expected group size {expected} exceeds cap {SIZE_CAP}")
    gens = clifford_generators(d)
    identity = canonicalize_phase(np.eye(d, dtype=complex))
    index = {quantized_key(identity): 0}
    blocks = [identity[None]]
    while len(blocks[-1]):
        # every frontier x generator product at once, in frontier-major order
        products = canonicalize_phase(blocks[-1][:, None] @ gens[None]).reshape(-1, d, d)
        fresh = []
        for i, key in enumerate(quantized_key(products)):
            if key not in index:
                index[key] = len(index)
                fresh.append(i)
        if len(index) > SIZE_CAP:
            raise RuntimeError(f"closure exceeded size cap {SIZE_CAP}")
        blocks.append(products[fresh])
    elements = np.concatenate(blocks)
    del blocks, index   # not needed by the final check, which would peak on top of them
    if len(elements) != expected:
        raise RuntimeError(
            f"closure stabilized at {len(elements)} elements, formula gives {expected}; "
            "canonicalization collision or missing generator")
    if not np.all(normalizes_weyl_group(elements)):
        raise RuntimeError("an enumerated element fails the Weyl normalizer test")
    return elements


def clifford_povm(group: np.ndarray) -> RankOnePovm:
    """Uniform POVM {(d^2/|G|) |U/sqrt(d)><U/sqrt(d)|} over the group orbit [n, d, d].

    The kets are the vectorized unitaries; completeness follows from
    irreducibility of the natural action and is verified, not assumed.
    """
    n, d = len(group), group.shape[-1]
    vecs = group.reshape(n, d * d) / np.sqrt(d)
    weights = np.full(n, d * d / n)
    return RankOnePovm(d * d, weights, vecs)


def character_moments(group: np.ndarray) -> tuple[float, float]:
    """Mean |trace|^2 and mean |trace|^4 over the group [n, d, d] (phase invariant).

    The first moment is 1 iff the natural action is irreducible; the second
    counts the irreducible components of the action paired with its conjugate,
    so the value 2 certifies exactly two invariant subspaces.
    """
    traces = np.abs(np.einsum("nii->n", group))
    return float(np.mean(traces ** 2)), float(np.mean(traces ** 4))


def verify_clifford_identity(d: int, group: np.ndarray | None = None) -> VerificationReport:
    """Certify the Clifford group and, at d in IDENTITY_DS, the two-pair identity of its orbit.

    `group` is the [n, d, d] stack from enumerate_clifford (enumerated when
    None). At every d the report checks the cardinality against the
    pair-count formula, the completeness of the orbit POVM and the character
    moments (1, 2).

    At d in IDENTITY_DS it also certifies that the orbit POVM realizes the
    two-pair invariant test. The group contains the Weyl operators, so the
    orbit is mapped onto itself by U -> W_k U W_l, and its realized test is
    diagonal on the two-pair Bell basis. testops.bell_certificate checks that
    covariance for the whole orbit as one block (weyl_covariance_dev) and
    bounds the distance to the invariant test from the Bell spectrum
    (t_identity_dev); trace_dev is read from the spectrum sum. Nothing of
    dimension d^4 is formed.

    d = 5 stays out by cost (in process on a 2-CPU VM). The covariance Grams
    take 0.89 s over the whole orbit and 0.020 s over its Weyl cosets {W_k C}
    of d^2 = 25 elements, which X x I, Z x I, I x X and I x Z map onto
    themselves; the two-pair spectrum takes 0.10-0.14 s. The coset labels
    should come from the chunked normalizer pass of enumerate_clifford: a
    separate label pass moved `verify clifford --d 5` past the benchmark's
    25 % command-time and 10 % memory bounds.
    """
    if group is None:
        group = enumerate_clifford(d)
    povm = clifford_povm(group)
    c1, c2 = character_moments(group)
    checks = [
        Check.from_deviation("cardinality_dev", abs(len(group) - clifford_cardinality(d)), 0),
        Check.from_deviation("completeness_defect", povm.completeness_defect(), 1e-10),
        Check.from_deviation("char_moment1_dev", abs(c1 - 1), 1e-8),
        Check.from_deviation("char_moment2_dev", abs(c2 - 2), 1e-8),
    ]
    if d in IDENTITY_DS:
        t_dev, cov_dev, trace_dev = bell_certificate(povm, block=povm.n_elements, double=True)
        checks += [
            Check.from_deviation("t_identity_dev", t_dev, 1e-10),
            Check.from_deviation("weyl_covariance_dev", cov_dev, 1e-10),
            Check.from_deviation("trace_dev", trace_dev, 1e-9),
        ]
    return VerificationReport("clifford", d, checks,
                              metadata={"elements": len(group), "c1": c1, "c2": c2})
