import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rssfield.model import (
    D_MIN,
    Grid,
    MeasurementSnapshot,
    NoiseModel,
    Position,
    PropagationParams,
    clamped_distances,
    distance_matrix,
    log_distance_feature,
    rho_u_from,
    uniform_grid,
)


def test_pairwise_distance_identity():
    assert distance_matrix([0, 0], [0, 0])[0, 0] == 0.0


def test_pairwise_distance_pythagorean():
    assert distance_matrix([0, 0], [3, 4])[0, 0] == 5.0


def test_pairwise_distance_random_pairs_match_coordinate_formula():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ax, ay, bx, by = rng.uniform(-1e3, 1e3, size=4)
        expected = math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)
        assert_allclose(distance_matrix([ax, ay], [bx, by])[0, 0], expected, rtol=1e-14)


def test_pairwise_distance_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(200):
        pts = rng.uniform(-100, 100, (3, 2))
        d = distance_matrix(pts, pts)
        assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


def test_log_distance_feature_values():
    assert log_distance_feature(1.0) == 0.0
    assert_allclose(log_distance_feature(10.0), 10.0, rtol=1e-15)
    # independent high-precision evaluation of 10*log10(13.16)
    expected = 10.0 * math.log(13.16) / math.log(10.0)
    assert_allclose(log_distance_feature(13.16), expected, rtol=1e-12)
    assert_allclose(expected, 11.1926, atol=1e-4)


def test_log_distance_feature_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_distance_feature(0.0)
    with pytest.raises(ValueError):
        log_distance_feature(np.array([5.0, -1.0]))


def test_log_distance_feature_strictly_increasing():
    d = np.sort(np.random.default_rng(2).uniform(0.01, 1e4, 300))
    q = log_distance_feature(d)
    assert np.all(np.diff(q) > 0)


def test_rho_u_reference_values():
    assert_allclose(rho_u_from(3.5, 13.16), 200.0, atol=0.1)
    assert_allclose(rho_u_from(3.5, 75.0), 1140.0, atol=1.0)
    assert rho_u_from(0.0, 50.0) == 0.0


def test_rho_u_linear_in_each_argument():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, s, c = rng.uniform(0.1, 10, 3)
        assert_allclose(rho_u_from(c * a, s), c * rho_u_from(a, s), rtol=1e-12)
        assert_allclose(rho_u_from(a, c * s), c * rho_u_from(a, s), rtol=1e-12)


def test_clamped_distances_floor():
    d = clamped_distances(np.array([[0.0, 0.0], [0.0, 0.2], [3.0, 4.0]]), Position(0, 0))
    assert_allclose(d, [D_MIN, D_MIN, 5.0])


def test_distance_matrix_matches_pairwise():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 100, (5, 2))
    b = rng.uniform(0, 100, (7, 2))
    d = distance_matrix(a, b)
    for i in range(5):
        for j in range(7):
            assert_allclose(d[i, j], math.hypot(*(a[i] - b[j])), rtol=1e-14)


def test_distance_matrix_equals_broadcast_formula_exactly():
    rng = np.random.default_rng(5)
    for n, m in [(1, 1), (13, 29), (200, 150)]:
        a = rng.uniform(-500, 500, (n, 2))
        b = rng.uniform(-500, 500, (m, 2))
        diff = a[:, None, :] - b[None, :, :]
        assert np.array_equal(distance_matrix(a, b), np.sqrt(np.sum(diff * diff, axis=2)))
    assert distance_matrix(np.zeros((0, 2)), b).shape == (0, 150)


def test_grid_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Grid(np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Grid(np.zeros((0, 2)))


def test_uniform_grid_layout():
    g = uniform_grid(100.0, 100.0, 4, 5)
    assert g.n_nodes == 20
    assert g.xy[:, 0].min() == pytest.approx(12.5)
    assert g.xy[:, 1].max() == pytest.approx(90.0)


def test_snapshot_validation():
    with pytest.raises(ValueError):
        MeasurementSnapshot(t=0, positions=np.zeros((2, 2)), rss=np.zeros(3))
    with pytest.raises(ValueError):
        MeasurementSnapshot(t=0, positions=np.zeros((1, 2)), rss=np.array([np.inf]))
    # a time step without reports is no snapshot: the recursion takes no step
    with pytest.raises(ValueError, match="at least one report"):
        MeasurementSnapshot(t=0, positions=np.zeros((0, 2)), rss=np.zeros(0))
    snap = MeasurementSnapshot(t=3, positions=np.zeros((2, 2)), rss=np.array([-70.0, -60.0]))
    assert snap.n_sensors == 2
    assert not snap.rss.flags.writeable


def test_propagation_params_validation():
    with pytest.raises(ValueError):
        PropagationParams(alpha=-1, power=0, sigma_v=1, d_corr=50, sigma_w=1, sigma_d=1, tx_position=Position(0, 0))
    # the diagonal of exp(-d / d_corr) is exp(-0 / 0) = nan at d_corr = 0 or -0
    for d_corr in (0.0, -0.0):
        with pytest.raises(ValueError, match="d_corr"):
            PropagationParams(alpha=3, power=0, sigma_v=1, d_corr=d_corr, sigma_w=1, sigma_d=1,
                              tx_position=Position(0, 0))


def test_noise_model_variances():
    nm = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    assert_allclose(nm.variances(np.array([100.0])), [11.0], rtol=1e-12)
    # rho_u = 0: flat sigma_w^2
    flat = NoiseModel(rho_u=0.0, sigma_w=2.0).variances(np.array([5.0, 50.0]))
    assert_allclose(flat, [4.0, 4.0])
    # entries decay to sigma_w^2 as d grows
    far = nm.variances(np.array([1e9]))
    assert_allclose(far, [7.0], atol=1e-9)


def test_noise_model_variances_do_not_overflow():
    # a distance whose square overflows gives the limit sigma_w^2
    assert NoiseModel(rho_u=200.0, sigma_w=2.0).variances(np.array([1e200]))[0] == 4.0
    NoiseModel(rho_u=1e154, sigma_w=1.0)  # 1e308 + 1 is finite
    with pytest.raises(ValueError, match="sigma_w"):
        NoiseModel(rho_u=1e154, sigma_w=1e154)  # the variance at the distance floor is not
