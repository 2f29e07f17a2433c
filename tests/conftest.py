from dataclasses import dataclass

import numpy as np
import pytest

from entverify.clifford import CliffordGroup, canonicalize_phase, weyl
from entverify.linalg import (numerical_rank, require_finite, require_hermitian,
                              require_psd)
from entverify.protocol import MARGINAL_TOL, ZERO_OUTCOME_TOL
from entverify.testops import acceptance_probability, max_entangled, paired_vectors


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


def weyl_group(d: int) -> CliffordGroup:
    """The d^2 canonicalized Weyl operators as a group (negative-control subgroup)."""
    return CliffordGroup(d, canonicalize_phase(all_weyl(d)))


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
    return acceptance_probability(t, s.rho)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
