import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from rssfield.bounds import HcrbReport, grid_mean_gradient, hcrb, hcrb_all
from rssfield.empbayes import HyperEstimate
from rssfield.gp import KernelParams, kernel_matrix, posterior, prior_mean
from rssfield.model import LOG10_E, Grid, NoiseModel, Position, clamped_distances


def random_setup(rng, n_train=12, n_grid=5):
    xy = rng.uniform(5, 300, (n_train, 2))
    z = rng.uniform(-90, -40, n_train)
    grid = Grid(rng.uniform(5, 300, (n_grid, 2)))
    hyper = HyperEstimate(
        mu_p=rng.uniform(-15, -5), mu_alpha=rng.uniform(2, 4),
        var_p=rng.uniform(0.1, 2), var_alpha=rng.uniform(0.001, 0.05),
        tx=Position(*rng.uniform(100, 200, 2)),
    )
    kernel = KernelParams.from_decay(
        sigma_k=rng.uniform(1, 4), decay_scale=rng.uniform(30, 120),
        sigma_alpha_k=math.sqrt(hyper.var_alpha), sigma_p_k=math.sqrt(hyper.var_p),
    )
    noise = NoiseModel(rho_u=rng.uniform(50, 300), sigma_w=rng.uniform(1, 3))
    return (xy, z), grid, hyper, kernel, noise


def test_added_term_nonnegative_on_random_scenarios():
    rng = np.random.default_rng(0)
    for _ in range(50):
        train, grid, hyper, kernel, noise = random_setup(rng)
        for rep in hcrb_all(train, grid, hyper, kernel, noise):
            assert rep.added_term >= 0.0
            assert rep.bound >= rep.gp_variance


def cho_solve_oracle(train, grid, hyper, kernel, noise):
    """GP variance and added term through explicit C^-1 products (cho_solve)."""
    xy, z = train
    tx = hyper.tx
    d_hat = clamped_distances(xy, tx)
    factor = cho_factor(kernel_matrix(xy, xy, kernel, tx) + np.diag(noise.variances(d_hat)), lower=True)
    k_xg = kernel_matrix(xy, grid.xy, kernel, tx)
    cinv_k = cho_solve(factor, k_xg)
    gp_var = np.diag(kernel_matrix(grid.xy, grid.xy, kernel, tx)) - np.sum(k_xg * cinv_k, axis=0)

    c = -10 * hyper.mu_alpha * LOG10_E
    jac = np.column_stack([
        np.ones(len(xy)), -10 * np.log10(d_hat),
        c * (tx.x - xy[:, 0]) / d_hat**2, c * (tx.y - xy[:, 1]) / d_hat**2,
    ])
    cinv_jac = cho_solve(factor, jac)
    info_inv = np.linalg.inv(jac.T @ cinv_jac)
    u = cho_solve(factor, prior_mean(xy, hyper))
    a1 = -2 * noise.rho_u**2 * (tx.x - xy[:, 0]) / d_hat**4
    a2 = -2 * noise.rho_u**2 * (tx.y - xy[:, 1]) / d_hat**4
    added = []
    for j, node in enumerate(grid.xy):
        g = grid_mean_gradient(node, tx, hyper.mu_alpha) - cinv_jac.T @ k_xg[:, j]
        g[2] += (u * a1) @ cinv_k[:, j]
        g[3] += (u * a2) @ cinv_k[:, j]
        added.append(g @ info_inv @ g)
    return gp_var, np.array(added)


def test_matches_cho_solve_formulas():
    rng = np.random.default_rng(7)
    for _ in range(10):
        train, grid, hyper, kernel, noise = random_setup(rng, n_train=25, n_grid=30)
        reports = hcrb_all(train, grid, hyper, kernel, noise)
        assert not any(r.singular for r in reports)
        gp_var, added = cho_solve_oracle(train, grid, hyper, kernel, noise)
        assert_allclose([r.gp_variance for r in reports], gp_var, rtol=1e-10)
        assert_allclose([r.added_term for r in reports], added, rtol=1e-10, atol=1e-12 * np.max(added))


def test_leading_bracket_structure():
    # first component is 1, second is -10 log10(d) by construction
    tx = Position(40.0, 60.0)
    node = np.array([100.0, 140.0])
    g = grid_mean_gradient(node, tx, mu_alpha=3.2)
    d = math.hypot(100.0 - 40.0, 140.0 - 60.0)
    assert g[0] == 1.0
    assert_allclose(g[1], -10 * math.log10(d), rtol=1e-12)
    c = -10 * 3.2 * LOG10_E
    assert_allclose(g[2], c * (tx.x - node[0]) / d**2, rtol=1e-12)
    assert_allclose(g[3], c * (tx.y - node[1]) / d**2, rtol=1e-12)


def test_bound_exceeds_posterior_variance_from_gp():
    rng = np.random.default_rng(1)
    train, grid, hyper, kernel, noise = random_setup(rng)
    post = posterior(train, grid, hyper, kernel, noise)
    reports = hcrb_all(train, grid, hyper, kernel, noise)
    for i, rep in enumerate(reports):
        assert_allclose(rep.gp_variance, post.cov[i, i], atol=1e-8)
        assert rep.bound >= post.cov[i, i] - 1e-10


def test_batch_equals_per_node_loop():
    rng = np.random.default_rng(2)
    train, grid, hyper, kernel, noise = random_setup(rng, n_grid=4)
    batch = hcrb_all(train, grid, hyper, kernel, noise)
    for i in range(grid.n_nodes):
        single = hcrb(i, train, grid, hyper, kernel, noise)
        assert single.node_index == i
        assert_allclose(single.bound, batch[i].bound, atol=1e-10)
        assert_allclose(single.added_term, batch[i].added_term, atol=1e-10)


def test_single_node_grid():
    rng = np.random.default_rng(3)
    train, _, hyper, kernel, noise = random_setup(rng, n_grid=5)
    grid1 = Grid(np.array([[150.0, 150.0]]))
    all_reports = hcrb_all(train, grid1, hyper, kernel, noise)
    assert len(all_reports) == 1
    only = hcrb(0, train, grid1, hyper, kernel, noise)
    assert_allclose(only.bound, all_reports[0].bound, atol=1e-12)


def test_invariant_under_sensor_permutation():
    rng = np.random.default_rng(4)
    (xy, z), grid, hyper, kernel, noise = random_setup(rng)
    base = hcrb_all((xy, z), grid, hyper, kernel, noise)
    perm = rng.permutation(xy.shape[0])
    shuffled = hcrb_all((xy[perm], z[perm]), grid, hyper, kernel, noise)
    for a, b in zip(base, shuffled):
        assert_allclose(a.bound, b.bound, rtol=1e-9)


def test_location_error_terms_vanish_continuously():
    # rho_u -> 0 sends the covariance-derivative corrections to zero without
    # a jump at zero
    rng = np.random.default_rng(5)
    train, grid, hyper, kernel, _ = random_setup(rng)
    bounds = []
    for rho in (1e-3, 1e-6, 0.0):
        noise = NoiseModel(rho_u=rho, sigma_w=2.0)
        bounds.append(np.array([r.bound for r in hcrb_all(train, grid, hyper, kernel, noise)]))
    assert_allclose(bounds[0], bounds[2], rtol=1e-6)
    assert_allclose(bounds[1], bounds[2], rtol=1e-9)


def test_singular_information_matrix_uses_pseudo_inverse():
    # two sensors cannot identify four mean parameters: M is rank deficient
    xy = np.array([[50.0, 50.0], [150.0, 150.0]])
    z = np.array([-60.0, -75.0])
    grid = Grid(np.array([[100.0, 100.0]]))
    hyper = HyperEstimate(mu_p=-10.0, mu_alpha=3.0, var_p=1.0, var_alpha=0.01, tx=Position(120.0, 80.0))
    kernel = KernelParams.from_decay(2.0, 60.0, 0.1, 1.0)
    noise = NoiseModel(rho_u=100.0, sigma_w=2.0)
    rep = hcrb(0, (xy, z), grid, hyper, kernel, noise)
    assert rep.singular
    assert rep.added_term >= 0.0
    assert rep.bound >= rep.gp_variance


def test_explicit_d_hat_is_honored():
    rng = np.random.default_rng(6)
    (xy, z), grid, hyper, kernel, noise = random_setup(rng)
    d_hat = clamped_distances(xy, hyper.tx)
    with_d = hcrb_all((xy, z, d_hat), grid, hyper, kernel, noise)
    without = hcrb_all((xy, z), grid, hyper, kernel, noise)
    for a, b in zip(with_d, without):
        assert_allclose(a.bound, b.bound, rtol=1e-12)


def test_report_invariants():
    rep = HcrbReport(node_index=0, gp_variance=2.0, added_term=0.5, bound=2.5)
    assert rep.bound >= rep.gp_variance
    with pytest.raises(ValueError):
        hcrb(99, (np.zeros((3, 2)) + 5, np.zeros(3)), Grid(np.array([[1.0, 1.0]])),
             HyperEstimate(mu_p=0, mu_alpha=2, var_p=0, var_alpha=0, tx=Position(0, 0)),
             KernelParams.from_decay(1.0, 50.0), NoiseModel(rho_u=0, sigma_w=1))
