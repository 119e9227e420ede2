import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rssfield as rf
from rssfield.empbayes import (
    DegenerateFitError,
    KERNEL_PATH_VAR,
    estimate_means,
    estimate_variances,
    refine_all,
)
from rssfield.localize import CentroidState
from rssfield.model import MeasurementSnapshot


def test_means_noise_free_recovery_is_exact():
    rng = np.random.default_rng(0)
    d = rng.uniform(5, 400, 50)
    q = 10 * np.log10(d)
    z = -10.0 - 3.5 * q
    mu_p, mu_alpha = estimate_means(z, q, d)
    assert_allclose(mu_p, -10.0, atol=1e-9)
    assert_allclose(mu_alpha, 3.5, atol=1e-9)


def test_means_constraint_active_refit():
    rng = np.random.default_rng(1)
    d = rng.uniform(5, 400, 40)
    q = 10 * np.log10(d)
    z = -10.0 - 1.5 * q  # true exponent below the feasible floor
    mu_p, mu_alpha = estimate_means(z, q, d)
    assert mu_alpha == 2.0
    # closed-form weighted re-fit of mu_p with the exponent pinned
    w = d**2
    assert_allclose(mu_p, np.sum(w * (z + 2.0 * q)) / np.sum(w), rtol=1e-12)


def test_means_two_point_hand_solved_system():
    d = np.array([10.0, 100.0])
    q = 10 * np.log10(d)  # (10, 20)
    z = np.array([-45.0, -80.0])
    mu_p, mu_alpha = estimate_means(z, q, d)
    assert_allclose(mu_alpha, 3.5, atol=1e-10)
    assert_allclose(mu_p, -10.0, atol=1e-9)


def test_means_shift_equivariance():
    rng = np.random.default_rng(2)
    d = rng.uniform(5, 300, 30)
    q = 10 * np.log10(d)
    z = -12.0 - 2.7 * q + rng.normal(0, 3, 30)
    p0, a0 = estimate_means(z, q, d)
    p1, a1 = estimate_means(z + 17.0, q, d)
    assert_allclose(p1, p0 + 17.0, rtol=1e-10)
    assert_allclose(a1, a0, rtol=1e-10)


def test_means_rank_deficient_design():
    d = np.full(5, 50.0)
    q = 10 * np.log10(d)
    with pytest.raises(DegenerateFitError, match="constant"):
        estimate_means(-60.0 * np.ones(5), q, d)
    with pytest.raises(DegenerateFitError):
        estimate_means([-60.0], [10.0], [10.0])


def test_means_constraint_always_satisfied():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(2, 30)
        d = rng.uniform(2, 500, n)
        q = 10 * np.log10(d)
        z = rng.normal(-60, 20, n)
        try:
            _, mu_alpha = estimate_means(z, q, d)
        except DegenerateFitError:
            continue
        assert mu_alpha >= 2.0


def test_variances_zero_target():
    q = 10 * np.log10(np.array([10.0, 50.0, 200.0]))
    z = -10.0 - 3.0 * q
    sigma = (z - z) + 2.0  # any known variances
    # residuals are exactly zero, so the target is -sigma: fit clamps to 0
    vp, va = estimate_variances(z, -10.0, 3.0, q, sigma - 2.0)
    assert (vp, va) == (0.0, 0.0)


def test_variances_exact_construction():
    rng = np.random.default_rng(4)
    q = 10 * np.log10(rng.uniform(5, 300, 25))
    mu_p, mu_alpha = -10.0, 3.0
    target = 4.0 + 9.0 * q**2
    resid = np.sqrt(target)  # (z - mu_z)^2 == target exactly
    z = (mu_p - mu_alpha * q) + resid
    vp, va = estimate_variances(z, mu_p, mu_alpha, q, np.zeros(25))
    assert_allclose([vp, va], [4.0, 9.0], rtol=1e-8)


def test_variances_active_constraint():
    rng = np.random.default_rng(5)
    q = 10 * np.log10(rng.uniform(5, 300, 40))
    mu_p, mu_alpha = -10.0, 3.0
    # squared residuals decreasing in q^2 force a negative unconstrained va
    target = np.maximum(50.0 - 0.05 * q**2, 1.0)
    z = (mu_p - mu_alpha * q) + np.sqrt(target)
    vp, va = estimate_variances(z, mu_p, mu_alpha, q, np.zeros(40))
    assert va == 0.0
    assert vp >= 0.0
    assert_allclose(vp, np.mean(target), rtol=1e-8)


def test_variances_never_negative():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        q = 10 * np.log10(rng.uniform(2, 400, n))
        z = rng.normal(-60, 15, n)
        vp, va = estimate_variances(z, -60.0, 2.5, q, rng.uniform(0, 40, n))
        assert vp >= 0.0 and va >= 0.0


def _noise_free_world(seed=0, n=40, tx=(250.0, 250.0)):
    sc = rf.benchmark_scenario(seed=seed, sigma_v_sq=0.0, sigma_w=0.0, sigma_d=0.0, n_sensors=n)
    snap, _ = rf.sample_snapshot(sc, 0)
    return sc, snap


def test_refine_all_noise_free_recovery():
    sc, snap = _noise_free_world(seed=11)
    hyper, state = refine_all(snap, CentroidState.empty(), area_bounds=sc.area_bounds)
    assert abs(hyper.mu_alpha - 3.5) < 1e-6
    assert abs(hyper.mu_p + 10.0) < 1e-6
    assert math.hypot(hyper.tx.x - 250.0, hyper.tx.y - 250.0) < 0.5
    assert hyper.var_p == hyper.var_alpha == KERNEL_PATH_VAR
    # the refined fix is carried in the centroid state
    assert state.estimate == hyper.tx


def test_refine_all_single_sensor_degenerate():
    snap = MeasurementSnapshot(
        t=0, sensor_ids=(0,), positions=np.array([[10.0, 10.0]]), rss=np.array([-60.0])
    )
    with pytest.raises(DegenerateFitError):
        refine_all(snap, CentroidState.empty())


def test_refine_all_empty_snapshot_rejected():
    snap = MeasurementSnapshot(t=0, sensor_ids=(), positions=np.zeros((0, 2)), rss=np.zeros(0))
    with pytest.raises(DegenerateFitError):
        refine_all(snap, CentroidState.empty())


def test_refine_all_estimates_variances_when_covariance_known():
    sc, snap = _noise_free_world(seed=12)
    hyper, _ = refine_all(
        snap, CentroidState.empty(), area_bounds=sc.area_bounds, sigma_z_given=np.zeros_like
    )
    assert hyper.var_p >= 0.0 and hyper.var_alpha >= 0.0
    # noise-free data with a correct covariance leaves nothing to explain
    assert hyper.var_p < 1e-10 and hyper.var_alpha < 1e-10


def test_distance_weighting_shields_near_sensor_corruption():
    # corrupting the position of the sensor closest to the transmitter moves
    # the d^2-weighted exponent estimate less than a uniform-weight fit,
    # paired over seeds
    rng = np.random.default_rng(7)
    weighted_shift, uniform_shift = [], []
    for seed in range(100):
        sc = rf.benchmark_scenario(seed=seed, sigma_v_sq=0.0, sigma_w=0.0, sigma_d=0.0, n_sensors=60)
        snap, _ = rf.sample_snapshot(sc, 0)
        tx = sc.params.tx_position
        d = rf.clamped_distances(snap.positions, tx)
        q = rf.log_distance_feature(d)
        z = snap.rss

        corrupted = snap.positions.copy()
        corrupted[np.argmin(d)] += 50.0
        d_c = rf.clamped_distances(corrupted, tx)
        q_c = rf.log_distance_feature(d_c)

        _, a_w = estimate_means(z, q_c, d_c)
        # uniform-weight fit of the same design
        x = np.column_stack([np.ones_like(q_c), -q_c])
        sol, *_ = np.linalg.lstsq(x, z, rcond=None)
        a_u = max(sol[1], 2.0)
        weighted_shift.append(abs(a_w - 3.5))
        uniform_shift.append(abs(a_u - 3.5))
    assert np.mean(weighted_shift) < np.mean(uniform_shift)
    assert np.mean(weighted_shift) < 0.2
