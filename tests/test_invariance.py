"""Invariance oracles for the whole chain.

The model has exact symmetries, so a transformed run must reproduce the
original one without any reference implementation:

- permuting the reports changes nothing;
- a rigid motion of the whole world (sensors, grid, area and transmitter)
  moves the fix with it and changes nothing at the grid nodes;
- a common dB offset on every report shifts mu_p, the field mean and the
  kriging prediction by that offset and changes nothing else.

Each transformed run of ``run_static``, two ``rgp_step``s, ``hcrb_all`` and
``okd_predict`` is compared node by node with the original one at the
reference size (218 sensors, 1088 nodes, sigma_v^2 = 10, fitted kernel, full
covariance). The transmitter fix is converged to rounding, so what is left
over is rounding. At one and at two BLAS threads these seeds moved the fix
by at most 1.2e-13 m, the mean by 5.8e-13 dB, mu_p by 5.7e-14 dB, the
variances by 9.7e-15 relative and the bound, which ``hcrb_all`` evaluates
at each run's own fit, by 5.7e-14 relative. The kriging baseline keeps its
variogram fit's stopping tolerance: 1.5e-5 dB in its mean and 1.1e-6
relative in its variance. Each tolerance sits about ten times above that.
"""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rssfield as rf
from rssfield.baseline import okd_predict
from rssfield.bounds import hcrb_all
from rssfield.empbayes import refine_all
from rssfield.localize import CentroidState
from rssfield.model import Grid, MeasurementSnapshot, NoiseModel, rho_u_from
from rssfield.pipeline import PipelineConfig, run_static
from rssfield.recursive import RecursiveConfig, init_state, rgp_step

MEAN_ATOL = 5e-12  # dB, field mean and mu_p
VAR_RTOL = 1e-13  # posterior variances
BOUND_RTOL = 5e-13
FIX_ATOL = 1.5e-12  # m
OKD_MEAN_ATOL = 2e-4  # dB
OKD_VAR_RTOL = 1e-5

SEEDS = range(1, 7)
SHIFT = np.array([1000.25, -700.5])
OFFSET_DB = 7.3
CENTER = np.array([250.0, 250.0])  # of the reference 500 m x 500 m area


class Transform:
    """A map of the world: ``xy`` moves points and ``back`` moves a fix back;
    ``db`` is added to every report, and so to mu_p and the field mean;
    ``permute`` shuffles the reports of every snapshot."""

    def __init__(self, name, xy=None, back=None, rss_offset=0.0, permute=False):
        self.name = name
        self.xy = xy or (lambda p: p)
        self.back = back or (lambda p: p)
        self.db = rss_offset
        self.permute = permute

    def snapshot(self, snap: MeasurementSnapshot) -> MeasurementSnapshot:
        order = np.arange(snap.n_sensors)
        if self.permute:
            order = np.random.default_rng(snap.t).permutation(order)
        return MeasurementSnapshot(
            t=snap.t,
            positions=self.xy(snap.positions[order]),
            rss=snap.rss[order] + self.db,
        )

    def area_bounds(self, bounds) -> tuple:
        corners = self.xy(np.transpose(bounds))  # (lo, hi) rows of (x, y)
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        return ((float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])))


def _rotate(p, quarter_turns):
    """Rotation of the points p by quarter_turns * 90 degrees about CENTER."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    return (np.asarray(p) - CENTER) @ np.linalg.matrix_power(rot, quarter_turns).T + CENTER


TRANSFORMS = {
    t.name: t
    for t in (
        Transform("permutation", permute=True),
        Transform("translation", xy=lambda p: np.asarray(p) + SHIFT, back=lambda p: np.asarray(p) - SHIFT),
        Transform("rotation", xy=lambda p: _rotate(p, 1), back=lambda p: _rotate(p, 3)),
        Transform("offset", rss_offset=OFFSET_DB),
    )
}


@functools.lru_cache(maxsize=None)
def _world(seed, name):
    """(snapshots at t = 0, 1, 2, grid, area bounds) of the reference world
    under the named transform (None: the original)."""
    if name is None:
        scenario = rf.benchmark_scenario(seed, sigma_v_sq=10.0)
        snaps = tuple(rf.sample_snapshot(scenario, t)[0] for t in range(3))
        return snaps, scenario.grid, scenario.area_bounds
    snaps, grid, bounds = _world(seed, None)
    tr = TRANSFORMS[name]
    return tuple(tr.snapshot(s) for s in snaps), Grid(tr.xy(grid.xy)), tr.area_bounds(bounds)


def _noise():
    return NoiseModel(rho_u=rho_u_from(3.5, 13.16), sigma_w=np.sqrt(7.0))


@functools.lru_cache(maxsize=None)
def _run(seed, name):
    """The outputs compared: the static fit, its kriging and the recursion
    after two steps, on the world under the named transform (None: the
    original), and the static fit's kernel."""
    snaps, grid, bounds = _world(seed, name)
    pcfg = PipelineConfig(noise=_noise(), area_bounds=bounds)
    static = run_static(snaps[0], grid, pcfg)
    okd_mean, okd_var = okd_predict((snaps[0].positions, snaps[0].rss), grid, static.hyper, return_variance=True)
    rcfg = RecursiveConfig(pipeline=pcfg, lam=0.5)
    state = init_state(snaps[0], grid, rcfg)
    for snap in snaps[1:]:
        state = rgp_step(state, snap, grid, rcfg)
    return {
        "static": (static.posterior.mean, np.diag(static.posterior.cov), static.hyper),
        "recursive": (state.posterior.mean, np.diag(state.posterior.cov), state.posterior.hyper),
        "okd": (okd_mean, okd_var),
        "kernel": static.kernel,
    }


def _cases(offset_marks=()):
    return [
        pytest.param(name, seed, id=f"{name}-seed{seed}", marks=offset_marks if name == "offset" else ())
        for name in TRANSFORMS
        for seed in SEEDS
    ]


CASES = _cases()
# the bound's location-error columns are u * a with u = C^-1 m_X, which follows
# the absolute level of the prior mean at the sensors: a common offset on the
# reports moves the bound by 2.5e-2 to 7.2e-2 relative on these seeds
HCRB_CASES = _cases(pytest.mark.xfail(
    strict=True, reason="hcrb_all's location-error columns follow the reports' absolute dB level",
))


def _assert_fit_matches(fit, ref, tr):
    mean, var, hyper = fit
    ref_mean, ref_var, ref_hyper = ref
    assert_allclose(mean, ref_mean + tr.db, rtol=0, atol=MEAN_ATOL, err_msg="posterior mean")
    assert_allclose(var, ref_var, rtol=VAR_RTOL, atol=0, err_msg="posterior variance")
    assert_allclose(tr.back([hyper.tx.x, hyper.tx.y]), [ref_hyper.tx.x, ref_hyper.tx.y], rtol=0, atol=FIX_ATOL)
    assert_allclose(hyper.mu_p, ref_hyper.mu_p + tr.db, rtol=0, atol=MEAN_ATOL, err_msg="mu_p")


@pytest.mark.parametrize("name, seed", CASES)
def test_run_static_is_invariant(name, seed):
    _assert_fit_matches(_run(seed, name)["static"], _run(seed, None)["static"], TRANSFORMS[name])


@pytest.mark.parametrize("name, seed", CASES)
def test_two_rgp_steps_are_invariant(name, seed):
    _assert_fit_matches(_run(seed, name)["recursive"], _run(seed, None)["recursive"], TRANSFORMS[name])


def _bound(seed, name, hyper, kernel):
    snaps, grid, _ = _world(seed, name)
    reports = hcrb_all((snaps[0].positions, snaps[0].rss), grid, hyper, kernel, _noise())
    return np.array([r.bound for r in reports])


@pytest.mark.parametrize("name, seed", HCRB_CASES)
def test_hcrb_all_is_invariant(name, seed):
    run, ref = _run(seed, name), _run(seed, None)
    bound = _bound(seed, name, run["static"][2], run["kernel"])
    assert_allclose(bound, _bound(seed, None, ref["static"][2], ref["kernel"]), rtol=BOUND_RTOL, atol=0)


@pytest.mark.parametrize("name, seed", CASES)
def test_okd_predict_is_invariant(name, seed):
    (mean, var), (ref_mean, ref_var) = _run(seed, name)["okd"], _run(seed, None)["okd"]
    assert_allclose(mean, ref_mean + TRANSFORMS[name].db, rtol=0, atol=OKD_MEAN_ATOL)
    assert_allclose(var, ref_var, rtol=OKD_VAR_RTOL, atol=0)


@pytest.mark.parametrize("name", ["permutation", "translation"])
def test_fix_is_invariant_to_rounding_on_twelve_reference_seeds(name):
    # the fix alone, from the centroid of each of reference seeds 1-12
    tr = TRANSFORMS[name]
    for seed in range(1, 13):
        scenario = rf.benchmark_scenario(seed, sigma_v_sq=10.0)
        snap, _ = rf.sample_snapshot(scenario, 0)
        fix, _ = refine_all(snap, CentroidState(), scenario.area_bounds)
        moved, _ = refine_all(tr.snapshot(snap), CentroidState(), tr.area_bounds(scenario.area_bounds))
        assert_allclose(tr.back([moved.x, moved.y]), [fix.x, fix.y], rtol=0, atol=FIX_ATOL, err_msg=f"seed {seed}")
