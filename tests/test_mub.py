import time
import tracemalloc

import numpy as np
import pytest
from conftest import (frobenius_distance, invariant_test_single,
                      projected_span_ranks, random_unitary, realized_test)

from entverify.mub import (MubFamily, mub_check, mub_povm, mub_prime,
                           pvm_count_bound, verify_mub_identity)


def test_mub_d2_cross_overlaps():
    fam = mub_prime(2)
    assert fam.n_bases == 3
    count = 0
    for j in range(3):
        for jp in range(j + 1, 3):
            cross = np.abs(fam.bases[j].conj() @ fam.bases[jp].T) ** 2
            count += cross.size
            assert np.allclose(cross, 0.5, atol=1e-12)
    assert count == 12


@pytest.mark.parametrize("d", (3, 5, 7))
def test_mub_odd_prime_overlaps(d):
    fam = mub_prime(d)
    assert fam.n_bases == d + 1
    for j in range(fam.n_bases):
        for jp in range(j + 1, fam.n_bases):
            cross = np.abs(fam.bases[j].conj() @ fam.bases[jp].T) ** 2
            assert np.max(np.abs(cross - 1 / d)) < 1e-10


def test_mub_rejects_non_prime():
    for d in (4, 6, 9):
        with pytest.raises(ValueError):
            mub_prime(d)


def test_mub_check_passes():
    assert mub_check(mub_prime(3)).overall


def test_mub_check_fails_duplicate_basis():
    eye = np.eye(3, dtype=complex)
    fam = MubFamily(3, np.stack([eye, eye]))
    report = mub_check(fam)
    assert not report.overall
    assert report.check("cross_overlap_dev").measured > 0.5


def test_mub_check_single_basis_vacuous():
    fam = MubFamily(3, np.eye(3, dtype=complex)[None])
    report = mub_check(fam)
    assert report.overall
    assert report.check("cross_overlap_dev").measured == 0.0


@pytest.mark.parametrize("d,n,w", [(2, 6, 1 / 3), (3, 12, 1 / 4)])
def test_mub_povm_counts_and_weights(d, n, w):
    m = mub_povm(mub_prime(d))
    assert m.n_elements == n
    assert np.allclose(m.weights, w)


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_mub_povm_completeness(d):
    assert mub_povm(mub_prime(d)).completeness_defect() < 1e-12


def test_mub_povm_rejects_bad_family():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        mub_povm(MubFamily(3, np.stack([eye, eye])))


@pytest.mark.parametrize("d", (2, 5))
def test_identity_distance(d):
    m = mub_povm(mub_prime(d))
    dist = frobenius_distance(realized_test(m).matrix,
                              invariant_test_single(d).matrix)
    assert dist < 1e-10


def test_paired_subspace_orthogonality_d3():
    report = verify_mub_identity(3)
    assert report.check("cross_subspace_ortho_dev").measured < 1e-12


@pytest.mark.parametrize("d", (2, 3, 5, 7))
def test_verify_identity(d):
    report = verify_mub_identity(d)
    assert report.overall
    assert report.check("t_identity_dev").measured < 1e-10


def test_pvm_count_bound_values():
    assert pvm_count_bound(2) == 3
    assert pvm_count_bound(3) == 4
    assert pvm_count_bound(7) == 8


def test_projected_ranks_d3():
    ranks = projected_span_ranks(mub_prime(3))
    assert ranks == [2, 2, 2, 2]


@pytest.mark.parametrize("d", (2, 3, 5))
def test_scheme_meets_bound_with_equality(d):
    fam = mub_prime(d)
    assert fam.n_bases == pvm_count_bound(d)
    ranks = projected_span_ranks(fam)
    assert all(r == d - 1 for r in ranks)
    # the projected spans tile the orthocomplement of the entangled state
    assert fam.n_bases * (d - 1) == d * d - 1


def test_verify_mub_d29_runtime_guard():
    # about 0.05 s with the Bell-spectrum certificate on 2 CPUs, 0.3 s with the
    # dense matrix-product assembly and about 4 s with the three-index einsum
    # before it: this fails if the einsum returns, the d = 61 guard below if
    # the dense assembly does
    start = time.perf_counter()
    report = verify_mub_identity(29)
    elapsed = time.perf_counter() - start
    assert report.overall
    assert elapsed < 2.0, f"verify_mub_identity(29) took {elapsed:.2f} s"


def test_verify_mub_d61_runtime_and_memory_guard():
    # the Bell-spectrum certificate takes about 0.5 s and 26 MB at d = 61;
    # the dense path it replaced took about 10 s and 1.1 GB (numpy buffers
    # are traced by tracemalloc)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verify_mub_identity(61)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall
    assert elapsed < 3.0, f"verify_mub_identity(61) took {elapsed:.2f} s"
    assert peak < 200e6, f"verify_mub_identity(61) peaked at {peak / 1e6:.0f} MB"


def test_rotated_family_is_not_certified(rng):
    # a rotated MUB family realizes the same test, but X and Z no longer map
    # its bases onto themselves, so the Bell-spectrum certificate does not apply
    fam = mub_prime(3)
    rotated = MubFamily(3, fam.bases @ random_unitary(rng, 3).T)
    report = verify_mub_identity(3, rotated)
    assert mub_check(rotated).overall
    assert report.check("weyl_covariance_dev").measured > 0.1
    assert not report.check("weyl_covariance_dev").passed
    assert not report.overall


def test_verify_identity_on_a_given_family_matches_the_built_one():
    assert verify_mub_identity(5, mub_prime(5)).to_dict() == verify_mub_identity(5).to_dict()
