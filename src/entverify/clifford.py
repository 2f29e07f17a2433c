"""Weyl operators, Clifford group enumeration, and the group-orbit POVM.

Modulo phases, the Clifford group of prime d is the Weyl group times one
coset representative per element of its symplectic quotient SL(2, Z_d).
clifford_representatives finds the representatives by a breadth-first
search over the quotient, keyed by the exact integer Weyl labels of
U X U^dag and U Z U^dag that the Weyl normalizer test reads, and
enumerate_clifford returns the products {C_j W_k} coset by coset. The Weyl
group is normal in the Clifford group, so a representative fixes its
coset: coset_povm has one row per coset, from which testops.bell_certificate,
the certificate of the SIC and MUB identities, certifies the orbit POVM.
verify_clifford_identity reads the representatives only; the orbit itself
is built for gen and for the tests.
"""

from __future__ import annotations

import numpy as np

from .linalg import is_prime
from .report import Check, VerificationReport
from .testops import (RankOnePovm, bell_certificate, chunks, fourier_matrix,
                      weyl_traces)

UNITARY_TOL = 1e-10
NORMALIZER_TOL = 1e-10
SIZE_CAP = 10000


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


def weyl_image_labels(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weyl labels of U X U^dag and U Z U^dag, and whether both are Weyl operators up to phase.

    For a unitary [d, d] the labels have shape (2,) and the verdict is one
    bool; for a stack [..., d, d] they have shape [..., 2] and [...]. U
    normalizes the Weyl group when its images of X and Z are phases times
    Weyl operators, whose products give every X^a Z^b. A unitary image V is
    c W_m for a phase c exactly when max_k |Tr(V W_k)| = d; the peak then
    sits at k = -m, since Tr(W_m W_k) is 0 unless m + k = 0. The returned
    label is m = -argmax, exact integers read from the peak, so the labels
    of a unitary that passes are those of its symplectic image. The stack is
    walked in chunks of about BELL_CHUNK complex image entries.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    flat = u.reshape(-1, d, d)
    xz = np.stack([weyl(d, 1, 0), weyl(d, 0, 1)])
    dft = fourier_matrix(d)
    labels = np.empty((len(flat), 2), dtype=np.int64)
    verdicts = np.empty(len(flat), dtype=bool)
    for rows in chunks(len(flat), 2 * d * d):
        v = flat[rows, None]
        images = v @ xz @ np.swapaxes(v, -1, -2).conj()
        mod = np.abs(weyl_traces(images.reshape(-1, d, d), dft)).reshape(-1, 2, d * d)
        a, b = np.divmod(mod.argmax(axis=-1), d)
        labels[rows] = (-a % d) * d + (-b % d)
        verdicts[rows] = np.all(mod.max(axis=-1) >= d * (1 - NORMALIZER_TOL), axis=-1)
    return labels.reshape(u.shape[:-2] + (2,)), verdicts.reshape(u.shape[:-2])[()]


def normalizes_weyl_group(u: np.ndarray) -> np.ndarray:
    """Whether U W U^dag is a phase times a Weyl operator for every Weyl W (weyl_image_labels).

    One verdict for a unitary [d, d], one per unitary for a stack [..., d, d].
    """
    return weyl_image_labels(u)[1]


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


def clifford_representatives(d: int) -> np.ndarray:
    """One representative C_j per Weyl coset of the Clifford group of prime d, stacked [d(d^2 - 1), d, d].

    Modulo phases the group is the Weyl group times one coset representative
    C_j per element of its symplectic quotient SL(2, Z_d), which F and S
    generate. A breadth-first search from the identity multiplies each new
    representative by F and S and keeps a product when the integer labels of
    its images of X and Z (weyl_image_labels) are new; those labels are the
    columns of its symplectic matrix, so they name its coset exactly, and
    every representative passes the Weyl normalizer test on the way. Raises
    unless the representatives times the d^2 Weyl operators give the order
    of the pair-count formula.
    """
    if not is_prime(d):
        raise ValueError(f"enumeration is supported for prime d only, got {d}")
    expected = clifford_cardinality(d)
    if expected > SIZE_CAP:
        raise ValueError(f"expected group size {expected} exceeds cap {SIZE_CAP}")
    gens = clifford_generators(d)[2:]   # F and S; X and Z lie in every coset

    def coset_keys(us: np.ndarray) -> list[int]:
        labels, verdicts = weyl_image_labels(us)
        if not np.all(verdicts):
            raise RuntimeError("a product of Clifford generators fails the Weyl normalizer test")
        return (labels[:, 0] * d * d + labels[:, 1]).tolist()

    frontier = np.eye(d, dtype=complex)[None]
    reps, seen = [frontier], set(coset_keys(frontier))
    while len(frontier):
        # every frontier x generator product at once, in frontier-major order
        products = (frontier[:, None] @ gens[None]).reshape(-1, d, d)
        fresh = []
        for i, key in enumerate(coset_keys(products)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        frontier = products[fresh]
        reps.append(frontier)
    reps = np.concatenate(reps)
    if len(reps) * d * d != expected:
        raise RuntimeError(
            f"{len(reps)} coset representatives give {len(reps) * d * d} elements, "
            f"formula gives {expected}")
    return reps


def weyl_cosets(reps: np.ndarray) -> np.ndarray:
    """The cosets {C_j W_k} of the representatives [n, d, d], stacked [n d^2, d, d]: element j * d^2 + k is C_j W_k."""
    d = reps.shape[-1]
    weyls = np.stack([weyl(d, a, b) for a in range(d) for b in range(d)])
    return (reps[:, None] @ weyls[None]).reshape(-1, d, d)


def enumerate_clifford(d: int) -> np.ndarray:
    """The Clifford group of prime d modulo phases, stacked [n, d, d] as {C_j W_k} in coset-major order.

    The cosets of clifford_representatives(d): each run of d^2 elements is
    one coset, which the Weyl operators map onto itself from either side.
    """
    return weyl_cosets(clifford_representatives(d))


def clifford_povm(group: np.ndarray) -> RankOnePovm:
    """Uniform POVM {(d^2/|G|) |U/sqrt(d)><U/sqrt(d)|} over the group orbit [n, d, d].

    The kets are the vectorized unitaries, a two-pair POVM (pairs = 2) on
    A1A2; completeness follows from irreducibility of the natural action and
    is verified, not assumed.
    """
    n, d = len(group), group.shape[-1]
    vecs = group.reshape(n, d * d) / np.sqrt(d)
    weights = np.full(n, d * d / n)
    return RankOnePovm(d * d, weights, vecs, pairs=2)


def coset_povm(reps: np.ndarray) -> RankOnePovm:
    """The orbit POVM of the cosets {C_j W_k} as one row per representative, each standing for its coset.

    Row j is vec(C_j)/sqrt(d) with weight d^2 (d^2/|G|) = d^2/n, the weight
    of its d^2 elements vec(C_j W_k)/sqrt(d) together (outcomes_per_row d^2,
    pairs 2). Completeness is not checked here: verify_clifford_identity
    reports its defect as a check. A representative of Frobenius norm other
    than sqrt(d) is no unit row, and RankOnePovm's ValueError names its
    index (`POVM vectors must be unit norm; element j ...`).
    """
    n, d = len(reps), reps.shape[-1]
    weights = np.full(n, d * d / n)
    return RankOnePovm(d * d, weights, reps.reshape(n, d * d) / np.sqrt(d), outcomes_per_row=d * d, pairs=2,
                       check_completeness=False)


def _moments(traces: np.ndarray) -> tuple[float, float]:
    """Mean |Tr|^2 and mean |Tr|^4 of a group's traces, its character moments.

    The first is 1 iff the natural action is irreducible; the second counts
    the irreducible components of the action paired with its conjugate.
    """
    mod = np.abs(traces)
    return float(np.mean(mod ** 2)), float(np.mean(mod ** 4))


def verify_clifford_identity(d: int, reps: np.ndarray | None = None) -> VerificationReport:
    """Certify the Clifford group and the two-pair identity of its orbit POVM.

    `reps` are coset representatives C_j, one per Weyl coset, as
    clifford_representatives gives them (found when None); each stands for
    its coset {C_j W_k}, which is never formed. The report checks the
    cardinality len(reps) d^2 against the pair-count formula, the character
    moments (1, 2), whose |Tr(C W_k)| over every k are the Weyl traces of C
    (testops.weyl_traces), and bell_certificate(coset_povm(reps), d^2) with
    the completeness defect (1/n) sum_j C_j C_j^dag - I of its rows. Any
    other stack is read as representatives too: the whole orbit
    (enumerate_clifford) stands for d^2 times the group and fails
    cardinality_dev alone. A representative whose Frobenius norm is not
    sqrt(d) raises coset_povm's ValueError, which names its index; a
    non-unitary one of norm sqrt(d) fails completeness_defect. At d = 5 it
    takes about 4 ms.
    """
    if reps is None:
        reps = clifford_representatives(d)
    n = len(reps) * d * d
    m = coset_povm(reps)
    c1, c2 = _moments(weyl_traces(reps, fourier_matrix(d)))
    t_dev, cov_dev, trace_dev = bell_certificate(m, d * d)
    checks = [
        Check.from_deviation("cardinality_dev", abs(n - clifford_cardinality(d)), 0),
        Check.from_deviation("completeness_defect", m.completeness_defect(), 1e-10),
        Check.from_deviation("char_moment1_dev", abs(c1 - 1), 1e-8),
        Check.from_deviation("char_moment2_dev", abs(c2 - 2), 1e-8),
        Check.from_deviation("t_identity_dev", t_dev, 1e-10),
        Check.from_deviation("weyl_covariance_dev", cov_dev, 1e-10),
        Check.from_deviation("trace_dev", trace_dev, 1e-9),
    ]
    return VerificationReport("clifford", d, checks,
                              metadata={"elements": n, "c1": c1, "c2": c2})
