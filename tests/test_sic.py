import numpy as np
import pytest
from conftest import all_weyl

from entverify import sic
from entverify.sic import (Fiducial, FiducialSearchConfig, FiducialSearchError,
                           _residual, _residual_gradient, get_fiducial,
                           known_fiducial, orbit_residual, search_fiducial,
                           sic_check, verify_sic_identity, weyl_orbit)
from entverify.testops import RankOnePovm, fourier_matrix

# weyl_overlaps calls made by the searches at d = 4..12, seeds 0..15 (one per
# residual evaluation, plus one orbit_residual per restart): 23 675 measured.
# A finite-difference gradient (4d evaluations per step) makes 754 070.
SEARCH_EVALUATIONS_BOUND = 50_000


@pytest.mark.parametrize("d,overlap", [(2, 1 / 3), (3, 1 / 4)])
def test_known_fiducial_orbit_overlaps(d, overlap):
    m = weyl_orbit(known_fiducial(d))
    gram_sq = np.abs(m.vectors.conj() @ m.vectors.T) ** 2
    off = ~np.eye(m.n_elements, dtype=bool)
    assert np.max(np.abs(gram_sq[off] - overlap)) < 1e-12


@pytest.mark.parametrize("d", (2, 3))
def test_known_fiducial_orbit_shape(d):
    m = weyl_orbit(known_fiducial(d))
    assert m.n_elements == d * d
    assert np.all(m.weights == 1 / d)


def test_known_fiducial_residual():
    assert known_fiducial(2).residual < 1e-12
    assert known_fiducial(3).residual < 1e-12


def test_known_fiducial_unsupported_d():
    with pytest.raises(ValueError, match="search_fiducial"):
        known_fiducial(4)


def test_orbit_completeness_d2():
    m = weyl_orbit(known_fiducial(2))
    assert m.completeness_defect() < 1e-12


def test_orbit_of_basis_vector_complete_but_not_sic():
    f = Fiducial(2, np.array([1, 0], dtype=complex), residual=0.0)
    m = weyl_orbit(f)  # completeness holds for any unit vector
    assert m.completeness_defect() < 1e-12
    cert = sic_check(m)
    assert not cert.overall
    # orbit vectors are |0>, |0>, |1>, -|1> up to phase: overlaps 0 and 1
    assert cert.check("overlap_dev").measured > 0.3


def test_orbit_vectors_pairwise_nonparallel():
    m = weyl_orbit(known_fiducial(3))
    gram = np.abs(m.vectors.conj() @ m.vectors.T)
    off = ~np.eye(m.n_elements, dtype=bool)
    assert np.max(gram[off]) < 0.9


@pytest.mark.parametrize("d", (2, 3))
def test_sic_check_passes_known(d):
    cert = sic_check(weyl_orbit(known_fiducial(d)), tol=1e-10)
    assert cert.overall
    assert cert.check("element_count_dev").measured == 0
    assert cert.check("weight_dev").measured == 0.0
    assert cert.check("overlap_dev").measured < 1e-12


def test_sic_check_fails_padded_pvm():
    # computational-basis PVM split over four elements: complete, right count
    # and weights for d=2, but orthonormal overlaps are 0 and 1, never 1/3
    vecs = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex)
    m = RankOnePovm(2, np.full(4, 0.5), vecs)
    cert = sic_check(m)
    assert not cert.overall
    assert cert.check("overlap_dev").measured > 0.3
    assert cert.check("weight_dev").measured == 0.0
    # X maps both copies of |0> to |1>, so X does not permute the elements
    assert not cert.check("weyl_covariance_dev").passed


def test_search_d2_spec_config():
    f = search_fiducial(2, FiducialSearchConfig(seed=7, restarts=10))
    assert f.residual < 1e-10
    assert sic_check(weyl_orbit(f), tol=1e-10).overall


def test_search_deterministic():
    cfg = FiducialSearchConfig(seed=13, restarts=20)
    f1 = search_fiducial(4, cfg)
    f2 = search_fiducial(4, cfg)
    assert np.array_equal(f1.vector, f2.vector)
    assert f1.residual == f2.residual


@pytest.mark.parametrize("d", (4, 5))
def test_search_higher_dims(d):
    f = search_fiducial(d, FiducialSearchConfig(seed=0, restarts=50))
    assert f.residual < 1e-8
    assert sic_check(weyl_orbit(f), tol=1e-7).overall


def test_search_unreachable_tol_raises():
    cfg = FiducialSearchConfig(seed=0, restarts=2, tol=1e-30)
    with pytest.raises(FiducialSearchError) as exc:
        search_fiducial(5, cfg)
    assert exc.value.best_residual > 0


@pytest.mark.parametrize("bad", [{"seed": -1}, {"restarts": 0}, {"tol": 0.0},
                                 {"tol": float("nan")}, {"tol": float("inf")},
                                 {"seed": 1.5}, {"seed": "3"}, {"seed": None},
                                 {"restarts": "3"}, {"restarts": 2.5},
                                 {"tol": "1e-8"}, {"tol": None}, {"tol": 1j}])
def test_search_config_rejects_bad_values(bad):
    with pytest.raises(ValueError) as info:
        FiducialSearchConfig(**bad)
    assert "\n" not in str(info.value)


def test_numpy_integer_seed_and_restarts_are_the_int_values():
    cfg = FiducialSearchConfig(seed=np.int64(1), restarts=np.int64(20))
    assert type(cfg.seed) is int and type(cfg.restarts) is int
    f1 = search_fiducial(4, cfg)
    f2 = search_fiducial(4, FiducialSearchConfig(seed=1, restarts=20))
    assert np.array_equal(f1.vector, f2.vector)


@pytest.mark.parametrize("d", (2, 3))
def test_verify_identity_known(d):
    report = verify_sic_identity(d, known_fiducial(d))
    assert report.overall
    assert report.check("t_identity_dev").measured < 1e-10
    assert report.metadata["gram_rank"] == d * d


def test_verify_identity_searched_d4():
    f = search_fiducial(4, FiducialSearchConfig(seed=0, restarts=50))
    report = verify_sic_identity(4, f)
    assert report.overall
    assert report.check("t_identity_dev").measured < 1e-7
    assert report.metadata["gram_rank"] == 16
    # element count meets the rank lower bound with equality
    assert report.check("count_vs_rank_dev").measured == 0


def test_get_fiducial_analytic_short_circuit():
    f = get_fiducial(2)
    assert f.residual < 1e-12


def test_orbit_residual_random_vector_is_large(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    assert orbit_residual(4, v) > 1e-3


@pytest.mark.parametrize("d", (2, 3, 4, 7, 12))
def test_orbit_and_residual_match_dense_reference(d, rng):
    # references: the d^2 x d x d stack of Weyl operators
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    ref = np.einsum("kab,b->ka", all_weyl(d), v)
    assert np.max(np.abs(weyl_orbit(Fiducial(d, v, 0.0)).vectors - ref)) <= 1e-15
    sq = np.abs(ref[1:] @ v.conj()) ** 2
    assert abs(orbit_residual(d, v) - np.max(np.abs(sq - 1 / (d + 1)))) <= 1e-15
    x = 3 * np.concatenate([v.real, v.imag])   # the residual ignores the norm
    assert abs(_residual(x, fourier_matrix(d))[0] - np.sum((sq - 1 / (d + 1)) ** 2)) <= 1e-14


@pytest.mark.parametrize("d", (4, 7, 12))
def test_residual_gradient_matches_central_differences(d, rng):
    dft = fourier_matrix(d)
    x = rng.standard_normal(2 * d)
    g = _residual_gradient(x, _residual(x, dft)[1], dft)
    h = 1e-6
    fd = np.array([(_residual(x + h * e, dft)[0] - _residual(x - h * e, dft)[0]) / (2 * h)
                   for e in np.eye(2 * d)])
    assert np.max(np.abs(g - fd)) <= 1e-8


def test_search_certifies_every_seed_with_bounded_evaluations(monkeypatch):
    calls = 0
    overlaps = sic.weyl_overlaps

    def counted(u, dft):
        nonlocal calls
        calls += 1
        return overlaps(u, dft)

    monkeypatch.setattr(sic, "weyl_overlaps", counted)
    for d in range(4, 13):
        for seed in range(16):
            f = search_fiducial(d, FiducialSearchConfig(seed=seed))
            assert f.residual <= 1e-12, (d, seed)
            assert verify_sic_identity(d, f).overall, (d, seed)
    assert calls <= SEARCH_EVALUATIONS_BOUND
