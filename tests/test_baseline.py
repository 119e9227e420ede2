import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dgetrf, dgetrs

import rssfield as rf
from rssfield.baseline import _DUP_EPS, VariogramModel, _empirical_semivariogram, fit_variogram, okd_predict
from rssfield.empbayes import HyperEstimate
from rssfield.gp import matvec, prior_mean, row_blocks
from rssfield.model import Grid, Position, distance_matrix
from rssfield.synth import _correlation


HYPER = HyperEstimate(mu_p=-10.0, mu_alpha=3.0, var_p=0.0, var_alpha=0.0, tx=Position(0.0, 0.0))


def test_variogram_zero_residuals_gives_zero_sill():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 200, (20, 2))
    model = fit_variogram(np.zeros(20), pos)
    assert model.sill < 1e-6
    assert model.nugget < 1e-6


def test_variogram_requires_enough_points():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        fit_variogram(np.zeros(5), rng.uniform(0, 10, (5, 2)))


def test_variogram_whose_fit_cost_overflows_is_degenerate():
    # every residual and binned semivariance is finite, but their weighted
    # sum of squares, least_squares' cost, is not; no RuntimeWarning either
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 200, (25, 2))
    resid = 1e100 * rng.standard_normal(25)
    with pytest.raises(rf.DegenerateFitError, match="overflow the variogram fit"):
        fit_variogram(resid, pos)
    model = fit_variogram(1e-100 * resid, pos)  # the check reads only
    assert math.isfinite(model.sill) and math.isfinite(model.range_m)


def test_variogram_recovers_shadowing_scales():
    # residuals drawn from the exponential shadowing model: the fitted sill
    # approaches the field variance and the range its correlation distance
    sills, ranges = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 500, (150, 2))
        cov = math.sqrt(10.0) ** 2 * _correlation(pos, pos, 50.0)
        cov[np.diag_indices_from(cov)] += 1e-10
        resid = np.linalg.cholesky(cov) @ rng.standard_normal(150)
        model = fit_variogram(resid, pos)
        sills.append(model.sill + model.nugget)
        ranges.append(model.range_m)
    assert 5.0 <= np.median(sills) <= 15.0
    assert 25.0 <= np.median(ranges) <= 100.0


def test_variogram_duplicates_feed_the_nugget():
    rng = np.random.default_rng(2)
    base = rng.uniform(0, 100, (10, 2))
    pos = np.vstack([base, base])  # every point duplicated
    resid = np.concatenate([np.zeros(10), np.full(10, 2.0)])  # pure nugget pairs
    model = fit_variogram(resid, pos)
    assert model.nugget > 0.5  # 0.5 * (0 - 2)^2 = 2 at h = 0, diluted by the fit


def _semivariogram_bins_by_mask(residuals, positions, n_bins):
    """(bin centers, bin means, counts) of the populated distance bins, one mask per bin."""
    d = distance_matrix(positions, positions)
    iu = np.triu_indices_from(d, k=1)
    dists = d[iu]
    gammas = 0.5 * (residuals[iu[0]] - residuals[iu[1]]) ** 2
    half_max = float(np.max(dists)) / 2.0
    in_range = (dists >= _DUP_EPS) & (dists <= half_max)
    edges = np.linspace(0.0, half_max, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, dists[in_range], side="right") - 1, 0, n_bins - 1)
    hs, gs, counts = [], [], []
    for b in range(n_bins):
        mask = idx == b
        cnt = int(np.sum(mask))
        if cnt == 0:
            continue
        hs.append(0.5 * (edges[b] + edges[b + 1]))
        gs.append(float(np.mean(gammas[in_range][mask])))
        counts.append(cnt)
    return np.array(hs), np.array(gs), np.array(counts, dtype=float)


@pytest.mark.parametrize("n, n_bins", [(12, 15), (40, 4), (300, 15)])
def test_empirical_semivariogram_bins_match_per_bin_mask_loop(n, n_bins):
    rng = np.random.default_rng(n)
    pos = rng.uniform(0, 200, (n, 2))
    pos[1] = pos[0]  # one duplicate pair, which goes to the nugget point instead
    resid = rng.normal(0, 3, n)
    hs, gs, counts, _ = _empirical_semivariogram(resid, pos, n_bins)
    want_h, want_g, want_c = _semivariogram_bins_by_mask(resid, pos, n_bins)
    assert hs[0] == 0.0 and counts[0] == 1.0
    assert np.array_equal(hs[1:], want_h) and np.array_equal(gs[1:], want_g) and np.array_equal(counts[1:], want_c)


def test_okd_exact_interpolation_with_zero_nugget():
    rng = np.random.default_rng(3)
    xy = rng.uniform(10, 200, (12, 2))
    z = rng.uniform(-90, -50, 12)
    vg = VariogramModel(nugget=0.0, sill=8.0, range_m=60.0)
    grid = Grid(xy[:4])
    pred = okd_predict((xy, z), grid, HYPER, vg)
    assert_allclose(pred, z[:4], atol=1e-8)


def test_okd_weights_sum_to_one():
    rng = np.random.default_rng(4)
    xy = rng.uniform(10, 200, (15, 2))
    z = rng.uniform(-90, -50, 15)
    grid = Grid(rng.uniform(10, 200, (6, 2)))
    vg = VariogramModel(nugget=0.5, sill=6.0, range_m=40.0)
    # weight sums are observable through translation of the residual field:
    # detrending makes okd translation-equivariant exactly when they sum to 1
    pred = okd_predict((xy, z), grid, HYPER, vg)
    pred_shift = okd_predict((xy, z + 11.0), grid, HYPER, vg)
    assert_allclose(pred_shift - pred, 11.0, atol=1e-8)


def test_okd_matches_directly_solved_bordered_system():
    # 4 training points, 1 node: assemble and solve the constrained system
    xy = np.array([[10.0, 10.0], [60.0, 15.0], [35.0, 70.0], [80.0, 60.0]])
    z = np.array([-62.0, -70.0, -66.0, -73.0])
    node = np.array([[45.0, 40.0]])
    vg = VariogramModel(nugget=0.3, sill=5.0, range_m=50.0)

    trend = prior_mean(xy, HYPER)
    resid = z - trend

    def cov(h):
        return 5.0 * np.exp(-h / 50.0) + 0.3 * (h < 1e-9)

    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    bordered = np.zeros((5, 5))
    bordered[:4, :4] = cov(d)
    bordered[4, :4] = bordered[:4, 4] = 1.0
    d0 = np.sqrt(((xy - node) ** 2).sum(axis=1))
    rhs = np.concatenate([cov(d0), [1.0]])
    sol = np.linalg.solve(bordered, rhs)
    expected = sol[:4] @ resid + prior_mean(node, HYPER)[0]

    pred = okd_predict((xy, z), Grid(node), HYPER, vg)
    assert_allclose(pred[0], expected, atol=1e-8)
    assert_allclose(sol[:4].sum(), 1.0, atol=1e-10)


def _okd_full_weights_oracle(xy, z, grid_xy, vg, solve):
    """(prediction, variance c0 - w^T c - nu) from the weights w and Lagrange
    multiplier nu of every node: [w; nu] = solve(B, [c; 1])."""
    n = xy.shape[0]
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = vg.covariance(distance_matrix(xy, xy))
    bordered[:n, n] = bordered[n, :n] = 1.0
    cov_to_nodes = vg.covariance(distance_matrix(xy, grid_xy))
    sol = solve(bordered, np.vstack([cov_to_nodes, np.ones((1, grid_xy.shape[0]))]))
    pred = sol[:n].T @ (z - prior_mean(xy, HYPER)) + prior_mean(grid_xy, HYPER)
    return pred, vg.sill + vg.nugget - np.sum(sol[:n] * cov_to_nodes, axis=0) - sol[n]


@pytest.mark.parametrize("seed", range(6))
def test_okd_one_solve_prediction_matches_full_weights_formula(seed):
    rng = np.random.default_rng(100 + seed)
    n, m = int(rng.integers(5, 120)), int(rng.integers(1, 300))
    xy = rng.uniform(0, 400, (n, 2))
    z = rng.uniform(-95, -40, n)
    grid = Grid(rng.uniform(0, 400, (m, 2)))
    vg = VariogramModel(nugget=rng.uniform(0, 2), sill=rng.uniform(1, 12), range_m=rng.uniform(10, 150))
    expected, expected_var = _okd_full_weights_oracle(xy, z, grid.xy, vg, np.linalg.solve)
    pred = okd_predict((xy, z), grid, HYPER, vg)
    pred_v, var = okd_predict((xy, z), grid, HYPER, vg, return_variance=True)
    assert_allclose(pred, expected, rtol=1e-10, atol=0.0)
    assert np.array_equal(pred_v, pred)
    assert_allclose(var, expected_var, rtol=1e-10, atol=0.0)


def test_okd_prediction_over_several_node_blocks_equals_one_product():
    # N = 600 reports put a few hundred nodes in a block; 1008 nodes span
    # several blocks, the prediction is the one product over all nodes and
    # the variance is the one solve for the weights of all nodes
    rng = np.random.default_rng(7)
    n, m = 600, 1008
    xy = rng.uniform(0, 400, (n, 2))
    z = rng.uniform(-95, -40, n)
    grid = Grid(rng.uniform(0, 400, (m, 2)))
    assert len(list(row_blocks(m, n))) > 2
    vg = VariogramModel(nugget=0.5, sill=8.0, range_m=60.0)
    pred = okd_predict((xy, z), grid, HYPER, vg)

    bordered = np.zeros((n + 1, n + 1), order="F")
    bordered[:n, :n] = vg.covariance(distance_matrix(xy, xy))
    bordered[:n, n] = bordered[n, :n] = 1.0
    lu, piv, _ = dgetrf(bordered)
    sol0, _ = dgetrs(lu, piv, np.append(z - prior_mean(xy, HYPER), 0.0))
    cov_to_nodes = vg.covariance(distance_matrix(xy, grid.xy))
    assert np.array_equal(pred, matvec(cov_to_nodes.T, sol0[:n]) + sol0[n] + prior_mean(grid.xy, HYPER))
    rhs = np.ones((n + 1, m), order="F")
    rhs[:n] = cov_to_nodes
    sol, _ = dgetrs(lu, piv, rhs)
    one_solve_var = vg.sill + vg.nugget - np.sum(sol[:n] * cov_to_nodes, axis=0) - sol[n]
    expected, expected_var = _okd_full_weights_oracle(xy, z, grid.xy, vg, np.linalg.solve)
    assert_allclose(pred, expected, rtol=1e-10, atol=0.0)
    pred_v, var = okd_predict((xy, z), grid, HYPER, vg, return_variance=True)
    assert np.array_equal(pred_v, pred)
    assert_allclose(var, one_solve_var, rtol=1e-13, atol=0.0)
    assert_allclose(var, expected_var, rtol=1e-10, atol=0.0)


def _traced_peak(fn):
    """Peak bytes traced above the level at the call of fn()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_okd_variance_holds_no_reports_by_nodes_array():
    # the covariance to the nodes and the weights are built and reduced one
    # block of nodes at a time, so four times the nodes cost less than two
    # blocks' covariance more
    rng = np.random.default_rng(11)
    n = 300
    xy = rng.uniform(0, 400, (n, 2))
    z = rng.uniform(-95, -40, n)
    vg = VariogramModel(nugget=0.5, sill=8.0, range_m=60.0)
    small, large = (Grid(rng.uniform(0, 400, (m, 2))) for m in (2048, 8192))
    peaks = [_traced_peak(lambda: okd_predict((xy, z), g, HYPER, vg, return_variance=True)) for g in (small, large)]
    block_bytes = 8 * n * next(row_blocks(10**9, n)).stop
    assert len(list(row_blocks(small.n_nodes, n))) > 2
    assert peaks[1] - peaks[0] < 2 * block_bytes, f"peaks {peaks[0] / 1e6:.1f} and {peaks[1] / 1e6:.1f} MB"


@pytest.mark.parametrize("return_variance", [False, True])
def test_okd_singular_system_falls_back_to_pseudo_inverse(return_variance):
    # a flat variogram (no nugget, no sill) zeroes the covariance block, so the
    # bordered system is singular at distinct positions
    rng = np.random.default_rng(9)
    xy = rng.uniform(10, 200, (14, 2))
    z = rng.uniform(-90, -50, 14)
    grid = Grid(rng.uniform(10, 200, (20, 2)))
    vg = VariogramModel(nugget=0.0, sill=0.0, range_m=50.0)
    with pytest.raises(np.linalg.LinAlgError):
        _okd_full_weights_oracle(xy, z, grid.xy, vg, np.linalg.solve)
    expected, expected_var = _okd_full_weights_oracle(xy, z, grid.xy, vg, lambda b, r: np.linalg.pinv(b) @ r)
    with pytest.warns(RuntimeWarning, match="singular kriging system; using pseudo-inverse"):
        out = okd_predict((xy, z), grid, HYPER, vg, return_variance=return_variance)
    pred = out[0] if return_variance else out
    assert_allclose(pred, expected, rtol=1e-10, atol=0.0)
    if return_variance:
        assert_allclose(out[1], expected_var, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize(
    "rows, step",
    [((3, 7), 0.0), ((0, 1), 0.0), ((2, 5, 11), 6e-10)],
    ids=["rows 3 and 7", "rows 0 and 1", "chain of rows 2, 5 and 11"],
)
def test_okd_merges_coincident_positions(rows, step):
    # a duplicated position used to leave a nearly singular system and
    # predictions of 1e23 dBm; kriging now sees one report with the mean
    # residual. In the chain each row lies step east of the one before, closer
    # than _DUP_EPS to it but not to the first, and all three still merge
    assert step == 0.0 or step < _DUP_EPS < 2 * step
    rng = np.random.default_rng(9)
    xy = rng.uniform(10, 200, (14, 2))
    keep, *drop = rows
    xy[drop] = xy[keep] + np.outer(np.arange(1, len(rows)), [step, 0.0])
    z = rng.uniform(-90, -50, 14)
    grid = Grid(rng.uniform(10, 200, (20, 2)))
    vg = VariogramModel(nugget=0.4, sill=6.0, range_m=50.0)
    merged_z = z.copy()
    merged_z[keep] = np.mean(z[list(rows)])
    merged = (np.delete(xy, drop, axis=0), np.delete(merged_z, drop))
    for return_variance in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = okd_predict((xy, z), grid, HYPER, vg, return_variance=return_variance)
        want = okd_predict(merged, grid, HYPER, vg, return_variance=return_variance)
        for g, w in zip(got, want) if return_variance else [(got, want)]:
            assert_allclose(g, w, rtol=1e-10, atol=0.0)
    assert np.all(np.abs(got[0] + 70.0) < 100.0)


def test_okd_variance_nonnegative():
    rng = np.random.default_rng(5)
    xy = rng.uniform(0, 150, (20, 2))
    z = rng.uniform(-80, -50, 20)
    grid = Grid(rng.uniform(0, 150, (9, 2)))
    vg = VariogramModel(nugget=0.2, sill=4.0, range_m=30.0)
    pred, var = okd_predict((xy, z), grid, HYPER, vg, return_variance=True)
    assert np.all(var >= 0.0)
    assert pred.shape == (9,)


def test_okd_end_to_end_with_fitted_variogram():
    sc = rf.benchmark_scenario(seed=8, sigma_v_sq=10.0, nx=5, ny=5, n_sensors=60, area=(300.0, 300.0))
    snap, truth = rf.sample_snapshot(sc, 0)
    hyper = HyperEstimate(mu_p=-10.0, mu_alpha=3.5, var_p=0.0, var_alpha=0.0, tx=sc.params.tx_position)
    pred = okd_predict((snap.positions, snap.rss), sc.grid, hyper)
    mse = rf.compute_mse(pred, truth.grid_field)
    trend_only = rf.compute_mse(prior_mean(sc.grid.xy, hyper), truth.grid_field)
    assert mse < trend_only  # kriging must beat the bare trend


def test_variogram_model_validation():
    with pytest.raises(ValueError):
        VariogramModel(nugget=-1.0, sill=1.0, range_m=10.0)
    with pytest.raises(ValueError):
        VariogramModel(nugget=0.0, sill=1.0, range_m=0.0)
