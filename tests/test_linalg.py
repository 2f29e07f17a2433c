import numpy as np
import pytest
from conftest import eigen_hermitian, random_hermitian, random_unitary, vectorize

from entverify.linalg import frobenius_distance, numerical_rank

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_vectorize_identity_gives_max_entangled():
    out = vectorize(np.eye(2) / np.sqrt(2))
    assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_vectorize_x():
    out = vectorize(X / np.sqrt(2))
    assert np.allclose(out, np.array([0, 1, 1, 0]) / np.sqrt(2))


def test_vectorize_unitary_unit_norm(rng):
    for d in (2, 3, 5):
        u = random_unitary(rng, d)
        assert abs(np.linalg.norm(vectorize(u / np.sqrt(d))) - 1) < 1e-12


def test_vectorize_trace_inner_product(rng):
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.vdot(vectorize(a), vectorize(b))
        assert abs(lhs - np.trace(a.conj().T @ b)) < 1e-12


def test_vectorize_rejects_non_square():
    with pytest.raises(ValueError):
        vectorize(np.ones((2, 3)))


def test_frobenius_distance_basic():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert frobenius_distance(a, a) == 0
    assert abs(frobenius_distance(np.eye(2), np.zeros((2, 2))) - np.sqrt(2)) < 1e-15


def test_frobenius_distance_z_x():
    # entrywise: |1-0|^2 + |0-1|^2 + |0-1|^2 + |-1-0|^2 = 4
    assert abs(frobenius_distance(Z, X) - 2) < 1e-15


def test_frobenius_distance_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(2), np.eye(3))


def test_numerical_rank_identity_and_projector():
    for d in (2, 3, 5):
        assert numerical_rank(np.eye(d)) == d
    p = np.zeros((4, 4))
    p[0, 0] = 1
    assert numerical_rank(p) == 1


def test_numerical_rank_rejects_non_hermitian():
    with pytest.raises(ValueError):
        numerical_rank(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigen_hermitian_z():
    vals, _ = eigen_hermitian(Z)
    assert np.allclose(vals, [1, -1])


def test_eigen_hermitian_projector_spectrum():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    vals, _ = eigen_hermitian(np.outer(phi, phi.conj()))
    assert np.allclose(vals, [1, 0, 0, 0], atol=1e-12)


def test_eigen_hermitian_reconstruction(rng):
    for d in (2, 3, 9, 27, 81):
        a = random_hermitian(rng, d)
        vals, vecs = eigen_hermitian(a)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(a - recon) <= 1e-9 * d
        assert np.all(np.diff(vals) <= 1e-12)


def test_eigen_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigen_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))
