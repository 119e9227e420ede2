import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_factor, cho_solve

from rssfield import gp
from rssfield.bounds import HcrbReport, grid_mean_gradient, hcrb_all
from rssfield.empbayes import HyperEstimate
from rssfield.gp import KernelParams, kernel_matrix, posterior
from rssfield.model import LOG10_E, Grid, NoiseModel, NumericalError, Position, clamped_distances


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


PRIMES = ["cold", "after posterior"]


def _counting_conditions(monkeypatch):
    """A list that gains one entry per gp.condition call from here on."""
    calls = []
    real = gp.condition

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(gp, "condition", counting)
    return calls


def _hcrb(prime, monkeypatch, train, grid, hyper, kernel, noise):
    """hcrb_all with an empty handoff slot ("cold"), or right after posterior on
    the same inputs, whose conditioning it must take instead of its own."""
    gp._handoff.clear()
    if prime == "after posterior":
        posterior(train, grid, hyper, kernel, noise)
        assert len(gp._handoff) == 1
    with monkeypatch.context() as patch:
        calls = _counting_conditions(patch)
        reports = hcrb_all(train, grid, hyper, kernel, noise)
    assert len(calls) == (prime == "cold")
    assert not gp._handoff
    return reports


def _fields(reports):
    return np.array([dataclasses.astuple(r) for r in reports])


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
    added = []
    for j, node in enumerate(grid.xy):
        g = grid_mean_gradient(node.reshape(1, 2), tx, hyper.mu_alpha)[0] - cinv_jac.T @ k_xg[:, j]
        added.append(g @ info_inv @ g)
    return gp_var, np.array(added)


@pytest.mark.parametrize("prime", PRIMES)
def test_matches_cho_solve_formulas(prime, monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(10):
        train, grid, hyper, kernel, noise = random_setup(rng, n_train=25, n_grid=30)
        reports = _hcrb(prime, monkeypatch, train, grid, hyper, kernel, noise)
        assert not any(r.singular for r in reports)
        gp_var, added = cho_solve_oracle(train, grid, hyper, kernel, noise)
        assert_allclose([r.gp_variance for r in reports], gp_var, rtol=1e-10)
        assert_allclose([r.added_term for r in reports], added, rtol=1e-10, atol=1e-12 * np.max(added))


def test_leading_bracket_structure():
    # first component is 1, second is -10 log10(d) by construction
    tx = Position(40.0, 60.0)
    node = np.array([100.0, 140.0])
    (g,) = grid_mean_gradient(node.reshape(1, 2), tx, mu_alpha=3.2)
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
    assert len(batch) == grid.n_nodes
    for i, rep in enumerate(batch):
        single = hcrb_all(train, Grid(grid.xy[i:i + 1]), hyper, kernel, noise)[0]
        assert_allclose(single.bound, rep.bound, atol=1e-10)
        assert_allclose(single.added_term, rep.added_term, atol=1e-10)


def test_single_node_grid():
    rng = np.random.default_rng(3)
    train, grid, hyper, kernel, noise = random_setup(rng, n_grid=5)
    grid1 = Grid(np.array([[150.0, 150.0]]))
    all_reports = hcrb_all(train, grid1, hyper, kernel, noise)
    assert len(all_reports) == 1
    # the same node inside a larger grid gets the same bound
    grid6 = Grid(np.vstack([grid.xy[:2], grid1.xy, grid.xy[2:]]))
    assert_allclose(hcrb_all(train, grid6, hyper, kernel, noise)[2].bound, all_reports[0].bound, rtol=1e-12)


@pytest.mark.parametrize("prime", PRIMES)
def test_invariant_under_sensor_permutation(prime, monkeypatch):
    rng = np.random.default_rng(4)
    (xy, z), grid, hyper, kernel, noise = random_setup(rng)
    base = _hcrb(prime, monkeypatch, (xy, z), grid, hyper, kernel, noise)
    perm = rng.permutation(xy.shape[0])
    shuffled = _hcrb(prime, monkeypatch, (xy[perm], z[perm]), grid, hyper, kernel, noise)
    for a, b in zip(base, shuffled):
        assert_allclose(a.bound, b.bound, rtol=1e-9)


CHANGES = ["none", "kernel", "fix", "noise", "grid", "one report", "positions mutated in place"]


@pytest.mark.parametrize("change", CHANGES)
def test_the_handoff_is_taken_only_on_exactly_the_posteriors_inputs(change, monkeypatch):
    # hcrb_all right after posterior takes posterior's L and W only when every
    # input of that conditioning is unchanged; otherwise it conditions anew.
    # Either way it gives the bits a cold call gives, and empties the slot
    rng = np.random.default_rng(9)
    train, grid, hyper, kernel, noise = random_setup(rng, n_train=25, n_grid=30)
    if change == "fix":
        # without a location-error term the noise variances do not follow the
        # fix, so the fix is the only input that moves
        noise = NoiseModel(rho_u=0.0, sigma_w=noise.sigma_w)
    xy, z = train
    gp._handoff.clear()
    posterior((xy, z), grid, hyper, kernel, noise)
    assert len(gp._handoff) == 1
    if change == "kernel":
        kernel = dataclasses.replace(kernel, sigma_k=kernel.sigma_k * 1.5)
    elif change == "fix":
        hyper = dataclasses.replace(hyper, tx=Position(hyper.tx.x + 1.0, hyper.tx.y))
    elif change == "noise":
        noise = NoiseModel(rho_u=noise.rho_u, sigma_w=noise.sigma_w * 1.1)
    elif change == "grid":
        moved = grid.xy.copy()
        moved[3, 0] += 1.0
        grid = Grid(moved)
    elif change == "one report":
        xy = xy.copy()
        xy[5, 1] += 1.0
    elif change == "positions mutated in place":
        xy[5, 1] += 1.0

    with monkeypatch.context() as patch:
        calls = _counting_conditions(patch)
        reports = hcrb_all((xy, z), grid, hyper, kernel, noise)
    assert len(calls) == (change != "none")
    assert not gp._handoff
    cold = hcrb_all((xy, z), grid, hyper, kernel, noise)
    assert_array_equal(_fields(reports), _fields(cold))


def test_every_condition_call_empties_the_handoff_slot():
    rng = np.random.default_rng(10)
    train, grid, hyper, kernel, noise = random_setup(rng)
    xy, z = train
    gp._handoff.clear()
    posterior(train, grid, hyper, kernel, noise, compute_cov=False)
    assert not gp._handoff  # only a posterior with its covariance leaves one
    posterior(train, grid, hyper, kernel, noise)
    assert len(gp._handoff) == 1
    posterior(train, grid, hyper, kernel, noise)
    assert len(gp._handoff) == 1  # the second conditioning replaced the first
    # any other conditioning, even on the same inputs, empties it
    gp.condition(xy, grid.xy, z, kernel, hyper.tx, noise.variances(clamped_distances(xy, hyper.tx)))
    assert not gp._handoff


def _traced_peak(fn):
    """(fn(), peak bytes traced above the level at the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_hcrb_all_after_posterior_builds_no_reports_by_nodes_array():
    # taking posterior's L and W, the bound makes neither K_gX nor W: its peak
    # stays below one N x M array, which a cold call exceeds
    rng = np.random.default_rng(11)
    n, m = 300, 1000
    train, grid, hyper, kernel, noise = random_setup(rng, n_train=n, n_grid=m)
    one_w = n * m * 8
    gp._handoff.clear()
    cold, cold_peak = _traced_peak(lambda: hcrb_all(train, grid, hyper, kernel, noise))
    posterior(train, grid, hyper, kernel, noise)
    warm, warm_peak = _traced_peak(lambda: hcrb_all(train, grid, hyper, kernel, noise))
    assert warm_peak < one_w < cold_peak, f"{warm_peak / 1e6:.2f} MB after posterior, {cold_peak / 1e6:.2f} MB cold"
    assert_array_equal(_fields(warm), _fields(cold))


def test_location_error_terms_vanish_continuously():
    # rho_u -> 0 sends the location-error variances in the training covariance
    # to zero without a jump at zero
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
    rep = hcrb_all((xy, z), grid, hyper, kernel, noise)[0]
    assert rep.singular
    assert rep.added_term >= 0.0
    assert rep.bound >= rep.gp_variance


def test_non_finite_bound_raises_numerical_error():
    rng = np.random.default_rng(3)
    train, grid, hyper, kernel, _ = random_setup(rng)
    # under sigma_w^2 = 1e308 the information matrix is near 1e-308, and its inverse overflows
    with pytest.raises(NumericalError, match="added term"):
        hcrb_all(train, grid, hyper, kernel, NoiseModel(rho_u=0.0, sigma_w=1e154))


def test_report_invariants():
    rep = HcrbReport(gp_variance=2.0, added_term=0.5, bound=2.5)
    assert rep.bound >= rep.gp_variance
