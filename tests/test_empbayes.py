import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

import rssfield as rf
from rssfield import empbayes, pipeline
from rssfield.empbayes import (
    DegenerateFitError,
    KERNEL_PATH_VAR,
    estimate_means,
    estimate_variances,
    hyper_at,
    refine_all,
    refine_transmitter,
)
from rssfield.localize import CentroidState, NoFixError, centroid_update
from rssfield.model import D_MIN, MeasurementSnapshot, Position
from rssfield.pipeline import PipelineConfig


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


@pytest.mark.parametrize("far", [1e150, 1e200])
def test_means_whose_weighted_sums_overflow_raise(far):
    # d^2 of 1e300 is finite, but the normal equations' determinant is not
    d = np.array([10.0, 50.0, 200.0, far])
    q = 10 * np.log10(d)
    with pytest.raises(DegenerateFitError, match=re.escape(f"sensors up to {far:g} m from the fix")):
        estimate_means(-10.0 - 3.5 * q, q, d)


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


def test_variances_whose_fourth_powers_overflow_raise():
    # squared residuals of 1e160 are finite, but the fit's objective sums their squares
    q = 10 * np.log10(np.linspace(10, 200, 25))
    z = np.where(np.arange(25) % 2 == 0, 1e80, -1e80)
    with pytest.raises(DegenerateFitError, match="fourth powers"):
        estimate_variances(z, 0.0, 0.0, q, np.zeros(25))


def test_known_variances_whose_fourth_powers_overflow_are_named():
    # ordinary reports; the known variances' own squares overflow their sum
    rng = np.random.default_rng(3)
    q = 10 * np.log10(np.linspace(10, 200, 25))
    z = -10.0 - 3.5 * q + rng.normal(0, 2.0, 25)
    known = np.full(25, 1e154)
    known[3] = 2e160
    with pytest.raises(DegenerateFitError, match=r"known measurement variances up to 2e\+160 dB\^2 overflow"):
        estimate_variances(z, -10.0, 3.5, q, known)


def snap(positions, rss, t=0):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return MeasurementSnapshot(
        t=t, positions=positions, rss=np.asarray(rss, dtype=float)
    )


def _objective(pos_xy, rss, p):
    """The profiled objective: squared log-distance residuals with the means
    refitted at the fix p."""
    d = np.maximum(np.hypot(pos_xy[:, 0] - p.x, pos_xy[:, 1] - p.y), D_MIN)
    q = 10 * np.log10(d)
    mu_p, mu_alpha = estimate_means(rss, q, d)
    r = rss - mu_p + mu_alpha * q
    return r @ r


# the area _noise_free_snapshot draws its sensors in
_AREA_200 = ((0.0, 200.0), (0.0, 200.0))


def _noise_free_snapshot(rng, n, tx, p=-10.0, alpha=3.5):
    pos = rng.uniform(0, 200, (n, 2))
    d = np.maximum(np.hypot(pos[:, 0] - tx[0], pos[:, 1] - tx[1]), D_MIN)
    return snap(pos, p - 10 * alpha * np.log10(d))


def test_refine_recovers_transmitter_and_agrees_with_grid_search():
    rng = np.random.default_rng(3)
    tx = (120.0, 80.0)
    s = _noise_free_snapshot(rng, 20, tx)
    pos, degenerate = refine_transmitter(s, Position(100.0, 100.0), _AREA_200)
    assert not degenerate
    assert math.hypot(pos.x - tx[0], pos.y - tx[1]) < 0.5

    # dense grid search confirms the global minimum sits at the transmitter
    xs = np.linspace(0, 200, 101)
    vals = np.array([[_objective(s.positions, s.rss, Position(x, y)) for y in xs] for x in xs])
    ix, iy = np.unravel_index(np.argmin(vals), vals.shape)
    assert math.hypot(xs[ix] - tx[0], xs[iy] - tx[1]) <= 2 * math.sqrt(2)


def test_refine_stationary_at_truth():
    rng = np.random.default_rng(4)
    tx = (50.0, 60.0)
    s = _noise_free_snapshot(rng, 15, tx)
    pos, degenerate = refine_transmitter(s, Position(*tx), _AREA_200)
    assert not degenerate
    assert math.hypot(pos.x - tx[0], pos.y - tx[1]) < 1e-3


@pytest.mark.parametrize("n", [1, 2])
def test_refine_below_three_sensors_degenerate(n):
    s = snap([[1.0, 2.0], [30.0, 5.0]][:n], [-50.0, -70.0][:n])
    pos, degenerate = refine_transmitter(s, Position(9.0, 9.0), _AREA_200)
    assert degenerate
    assert (pos.x, pos.y) == (9.0, 9.0)
    # a start outside the area comes back clipped into it
    pos, degenerate = refine_transmitter(s, Position(1104.5, -3.0), _AREA_200)
    assert degenerate
    assert (pos.x, pos.y) == (200.0, 0.0)


def _random_problems():
    """Eight sensors with arbitrary reports, started anywhere in the area."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        pos_xy = rng.uniform(0, 100, (8, 2))
        rss = rng.uniform(-90, -40, 8)
        yield pos_xy, rss, Position(*rng.uniform(0, 100, 2))


# the area _noisy_problems draws its sensors in
_NOISY_AREA = ((0.0, 500.0), (0.0, 500.0))


def _noisy_problems():
    """200-sensor snapshots with 3 dB noise, started 20-40 m off the transmitter."""
    rng = np.random.default_rng(8)
    for _ in range(5):
        tx = rng.uniform(100, 400, 2)
        pos_xy = rng.uniform(0, 500, (200, 2))
        d = np.maximum(np.hypot(pos_xy[:, 0] - tx[0], pos_xy[:, 1] - tx[1]), D_MIN)
        rss = -10.0 - 35.0 * np.log10(d) + rng.normal(0.0, 3.0, 200)
        angle = rng.uniform(0, 2 * math.pi)
        off = rng.uniform(20, 40) * np.array([math.cos(angle), math.sin(angle)])
        yield pos_xy, rss, Position(*(tx + off))


def test_refine_never_increases_objective():
    for pos_xy, rss, init in _random_problems():
        out, _ = refine_transmitter(snap(pos_xy, rss), init, _ORACLE_AREA)
        assert _objective(pos_xy, rss, out) <= _objective(pos_xy, rss, init)


def test_refine_guard_reads_the_solvers_objective_at_its_end_point(monkeypatch):
    # the never-worse guard compares the objectives the solve itself took at
    # the clipped start and at its end point, without evaluating them again;
    # both are the objective of _profiled_residuals there
    calls, derivatives = [], empbayes._profiled_derivatives

    def recording(x0, xy, z):
        calls.append((np.array(x0), derivatives(x0, xy, z)))
        return calls[-1][1]

    monkeypatch.setattr(empbayes, "_profiled_derivatives", recording)
    problems = [(*problem, _ORACLE_AREA) for problem in _random_problems()]
    problems += [(*problem, _NOISY_AREA) for problem in _noisy_problems()]
    for pos_xy, rss, init, area in problems:
        calls.clear()
        out, _ = refine_transmitter(snap(pos_xy, rss), init, area)
        (start, (f_start, *_)) = calls[0]
        assert_array_equal(start, np.clip(init.as_array(), *np.transpose(area)))
        f_end = [f for x, (f, *_) in calls if np.array_equal(x, out.as_array())][-1]
        assert f_end <= f_start
        assert f_end == empbayes._profiled_objective(out.as_array(), pos_xy, rss)
        assert f_start == empbayes._profiled_objective(start, pos_xy, rss)


def test_refine_guard_returns_the_clipped_start_where_the_solve_ends_worse(monkeypatch):
    # a solve that ends at a corner far from the transmitter, with a larger
    # objective than its start, returns the start instead
    pos_xy, rss, init = next(_noisy_problems())
    corner = np.array([0.0, 0.0])
    end = empbayes._profiled_derivatives(corner, pos_xy, rss)
    assert end[0] > _objective(pos_xy, rss, init)
    steps = iter([(corner, end)])
    monkeypatch.setattr(empbayes, "_step", lambda *args: next(steps, None))
    out, degenerate = refine_transmitter(snap(pos_xy, rss), init, _NOISY_AREA)
    assert not degenerate
    assert out == init


def test_refine_clamps_to_area():
    rng = np.random.default_rng(6)
    s = _noise_free_snapshot(rng, 12, (150.0, 150.0))
    bounds = ((0.0, 100.0), (0.0, 100.0))
    pos, _ = refine_transmitter(s, Position(50.0, 50.0), area_bounds=bounds)
    assert 0.0 <= pos.x <= 100.0 and 0.0 <= pos.y <= 100.0


def test_refine_from_outside_the_area_is_never_worse_than_the_clipped_start():
    # the reports come from sensors east of a 500 m area and the start sits
    # among them: the objective there is lower than anywhere in the area, so
    # a guard against the unclipped start returned that start as the fix
    rng = np.random.default_rng(0)
    pos_xy = np.column_stack([rng.uniform(550, 750, 60), rng.uniform(0, 500, 60)])
    d = np.maximum(np.hypot(pos_xy[:, 0] - 640.0, pos_xy[:, 1] - 240.0), D_MIN)
    rss = -10.0 - 35.0 * np.log10(d) + rng.normal(0.0, 3.0, 60)
    out, degenerate = refine_transmitter(snap(pos_xy, rss), Position(640.0, 240.0), _NOISY_AREA)
    assert not degenerate
    assert 0.0 <= out.x <= 500.0 and 0.0 <= out.y <= 500.0
    assert _objective(pos_xy, rss, out) <= _objective(pos_xy, rss, Position(500.0, 240.0))


def _collinear_problem():
    """25 sensors on the line y = 50, the transmitter at (100, 100)."""
    rng = np.random.default_rng(5)
    pos_xy = np.column_stack([rng.uniform(0, 200, 25), np.full(25, 50.0)])
    d = np.maximum(np.hypot(pos_xy[:, 0] - 100.0, pos_xy[:, 1] - 100.0), D_MIN)
    return pos_xy, -10.0 - 35.0 * np.log10(d) + rng.normal(0.0, 2.0, 25)


@pytest.mark.parametrize("area", [_AREA_200], ids=["area"])
def test_refine_all_on_collinear_sensors_finds_the_interior_minimum(area):
    # the centroid lies on the sensors' line, where the forward-difference
    # column across the line is near zero: an unbounded first step goes
    # kilometers out, where the means are not identifiable
    pos_xy, rss = _collinear_problem()
    tx, _ = refine_all(snap(pos_xy, rss), CentroidState(), area)
    hyper = hyper_at(snap(pos_xy, rss), tx)
    assert _objective(pos_xy, rss, hyper.tx) <= _objective(pos_xy, rss, Position(100.0, 100.0))
    # the sensors cannot tell the two sides of their line apart, so the
    # minimum has a mirror image across it
    assert abs(hyper.tx.x - 100.0) < 5.0 and abs(abs(hyper.tx.y - 50.0) - 50.0) < 20.0
    # the truth is mu_p = -10 dBm, mu_alpha = 3.5; a fix stopped on the area
    # edge gave 244 dBm and 14.5
    assert 2.0 <= hyper.mu_alpha <= 5.0 and abs(hyper.mu_p + 10.0) <= 20.0


def _nelder_mead_fix(pos_xy, rss, init, area_bounds=None):
    """A converged derivative-free search of the same objective from init."""
    res = minimize(
        lambda x: _objective(pos_xy, rss, Position(*x)),
        init.as_array(),
        method="Nelder-Mead",
        bounds=area_bounds,
        options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-14},
    )
    return Position(*res.x)


# the random reports have no log-distance structure, and without an area an
# unbounded exponent can fit a planar trend with the fix far out; within the
# area both searches have a finite minimum to find
_ORACLE_AREA = ((0.0, 100.0), (0.0, 100.0))
_ORACLE_PROBLEMS = [
    pytest.param(*problem, _ORACLE_AREA, id=f"random{i}") for i, problem in enumerate(_random_problems())
] + [
    pytest.param(
        *problem, _NOISY_AREA, id=f"noisy{i}",
        marks=[pytest.mark.xfail(
            strict=True,
            reason="the local solve from this start ends in a worse basin of the "
            "profiled objective than Nelder-Mead (3145.8 against 1809.6)",
        )] if i == 3 else [],
    )
    for i, problem in enumerate(_noisy_problems())
]


@pytest.mark.parametrize("pos_xy, rss, init, area", _ORACLE_PROBLEMS)
def test_refine_objective_not_above_nelder_mead_oracle(pos_xy, rss, init, area):
    out, degenerate = refine_transmitter(snap(pos_xy, rss), init, area)
    assert not degenerate
    oracle = _objective(pos_xy, rss, _nelder_mead_fix(pos_xy, rss, init, area))
    assert _objective(pos_xy, rss, out) <= oracle * (1 + 1e-9)


def _complex_profiled_residuals(x0, pos_xy, rss):
    """``_profiled_residuals`` at a complex fix x0. np.hypot and np.maximum
    take no complex input, so the distance is a square root and the clamp
    at D_MIN reads its real part; the means solve estimate_means' centered
    normal equations, floor included."""
    e = x0 - pos_xy
    d = np.sqrt(e[:, 0] ** 2 + e[:, 1] ** 2)
    d = np.where(d.real > D_MIN, d, D_MIN)
    q = 10 * np.log10(d)
    w = d * d
    q_bar, z_bar = (w @ q) / np.sum(w), (w @ rss) / np.sum(w)
    mu_alpha = -(w * (q - q_bar)) @ (rss - z_bar) / ((w * (q - q_bar)) @ (q - q_bar))
    if mu_alpha.real < empbayes.ALPHA_MIN:
        mu_alpha = empbayes.ALPHA_MIN
    return rss - (z_bar + mu_alpha * q_bar) + mu_alpha * q


def _complex_step_gradient(x0, pos_xy, rss, h=1e-30):
    """The gradient of the profiled objective by complex step (Squire &
    Trapp, SIAM Review 1998): exact to rounding, with no difference taken."""
    grad = np.empty(2)
    for k in range(2):
        shifted = x0 + 1j * h * np.eye(2)[k]
        r = _complex_profiled_residuals(shifted, pos_xy, rss)
        grad[k] = (r @ r).imag / h
    return grad


def _derivative_cases():
    """200 sensors with 3 dB noise and an exponent above the floor of 2 or
    below it, at a fix 29 m off the transmitter or 0.5 m from a sensor,
    whose report is then clamped at D_MIN."""
    rng = np.random.default_rng(11)
    pos_xy = rng.uniform(0, 500, (200, 2))
    tx = np.array([230.0, 310.0])
    d = np.maximum(np.hypot(*(pos_xy - tx).T), D_MIN)
    noise = rng.normal(0.0, 3.0, 200)
    for alpha, branch in [(3.5, "free"), (1.2, "floor")]:
        rss = -10.0 - 10.0 * alpha * np.log10(d) + noise
        for x0, where in [(tx + [23.0, -17.0], "off"), (pos_xy[7] + [0.3, -0.4], "clamped")]:
            yield pytest.param(x0, pos_xy, rss, branch, where, id=f"{branch}-{where}")


@pytest.mark.parametrize("x0, pos_xy, rss, branch, where", _derivative_cases())
def test_profiled_derivatives_match_the_complex_step_oracle(x0, pos_xy, rss, branch, where):
    d = rf.clamped_distances(pos_xy, Position(*x0))
    _, mu_alpha = estimate_means(rss, rf.log_distance_feature(d), d)
    assert (mu_alpha == empbayes.ALPHA_MIN) == (branch == "floor")
    assert (d.min() == D_MIN) == (where == "clamped")
    # the complex copy is the same function
    r = _complex_profiled_residuals(x0.astype(complex), pos_xy, rss)
    assert_allclose(r.real, empbayes._profiled_residuals(x0, pos_xy, rss), rtol=0, atol=1e-11)

    f, grad, hess = empbayes._profiled_derivatives(x0, pos_xy, rss)
    assert f == empbayes._profiled_objective(x0, pos_xy, rss)
    oracle = _complex_step_gradient(x0, pos_xy, rss)
    assert np.linalg.norm(grad - oracle) <= 1e-12 * np.linalg.norm(oracle)
    # the Hessian against a central difference of the exact gradient, whose
    # truncation error is O(h^2)
    h = 1e-3
    columns = [
        (_complex_step_gradient(x0 + h * step, pos_xy, rss) - _complex_step_gradient(x0 - h * step, pos_xy, rss)) / (2 * h)
        for step in np.eye(2)
    ]
    assert_allclose(hess, np.column_stack(columns), rtol=0, atol=1e-6 * np.abs(hess).max())


def _noise_free_world(seed=0, n=40, tx=(250.0, 250.0)):
    sc = rf.benchmark_scenario(seed=seed, sigma_v_sq=0.0, sigma_w=0.0, sigma_d=0.0, n_sensors=n)
    snap, _ = rf.sample_snapshot(sc, 0)
    return sc, snap


def test_refine_all_noise_free_recovery():
    sc, snap = _noise_free_world(seed=11)
    tx, state = refine_all(snap, CentroidState(), sc.area_bounds)
    hyper = hyper_at(snap, tx)
    assert abs(hyper.mu_alpha - 3.5) < 1e-6
    assert abs(hyper.mu_p + 10.0) < 1e-6
    assert math.hypot(hyper.tx.x - 250.0, hyper.tx.y - 250.0) < 0.5
    assert hyper.var_p == hyper.var_alpha == KERNEL_PATH_VAR
    # the refined fix is carried in the centroid state
    assert state.estimate == hyper.tx


def test_refine_all_carries_the_fix_under_the_updated_weight():
    # from a carried fix and weight, the new state holds the refined fix and
    # the weight centroid_update accumulated; the weight is not reset
    sc, snap = _noise_free_world(seed=11)
    carried = CentroidState(Position(100.0, 400.0), 3.5e-6)
    updated = centroid_update(carried, snap)
    tx, state = refine_all(snap, carried, sc.area_bounds)
    assert state == CentroidState(tx, updated.total_weight)
    assert state.total_weight > carried.total_weight
    assert tx != updated.estimate


def test_refine_all_solves_for_the_fix_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return refine_transmitter(*args, **kwargs)

    monkeypatch.setattr(empbayes, "refine_transmitter", counting)
    sc, snap = _noise_free_world(seed=11)
    refine_all(snap, CentroidState(), sc.area_bounds)
    assert len(calls) == 1


def test_refine_all_single_sensor_degenerate():
    snap = MeasurementSnapshot(
        t=0, positions=np.array([[10.0, 10.0]]), rss=np.array([-60.0])
    )
    tx, _ = refine_all(snap, CentroidState(), _AREA_200)
    with pytest.raises(DegenerateFitError):
        hyper_at(snap, tx)


def test_refine_all_without_a_fix_raises():
    # reports too weak to carry linear power (10^(z/10) underflows to 0)
    # leave the centroid without a fix
    weak = snap([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], [-4000.0] * 3)
    assert not centroid_update(CentroidState(), weak).has_fix
    with pytest.raises(NoFixError):
        refine_all(weak, CentroidState(), _AREA_200)


def test_refine_all_estimates_variances_when_covariance_known():
    sc, snap = _noise_free_world(seed=12)
    tx, _ = refine_all(snap, CentroidState(), sc.area_bounds)
    hyper = hyper_at(snap, tx, np.zeros(snap.n_sensors))
    assert hyper.var_p >= 0.0 and hyper.var_alpha >= 0.0
    # noise-free data with a correct covariance leaves nothing to explain
    assert hyper.var_p < 1e-10 and hyper.var_alpha < 1e-10


@pytest.mark.parametrize("sigma_v_sq", [None, 10.0], ids=["kernel_path", "empirical_path"])
def test_known_transmitter_at_refine_alls_fix_gives_refine_alls_hyper(sigma_v_sq):
    # the static fit's known-transmitter branch takes refine_all's own
    # means-at-the-fix step, so given refine_all's fix it returns its estimate
    sc = rf.benchmark_scenario(seed=13, sigma_v_sq=10.0, nx=4, ny=4, n_sensors=60, area=(300.0, 300.0))
    snap, _ = rf.sample_snapshot(sc, 0)
    noise = rf.NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    tx, _ = refine_all(snap, CentroidState(), sc.area_bounds)
    # the known variances as pipeline.hyper_for builds them from the config
    known = None if sigma_v_sq is None else sigma_v_sq + noise.variances(rf.clamped_distances(snap.positions, tx))
    hyper = hyper_at(snap, tx, known)
    config = PipelineConfig(noise=noise, area_bounds=sc.area_bounds, sigma_v_sq=sigma_v_sq, fixed_tx=hyper.tx)
    known_tx, centroid = pipeline.hyper_for(snap, config, CentroidState())
    assert known_tx == hyper
    assert (sigma_v_sq is None) == (hyper.var_p == hyper.var_alpha == KERNEL_PATH_VAR)
    assert not centroid.has_fix  # a known transmitter leaves the centroid alone
    # without the fix configured, hyper_for is refine_all with the same variances
    assert pipeline.hyper_for(snap, dataclasses.replace(config, fixed_tx=None), CentroidState())[0] == hyper


@pytest.mark.parametrize("known", [None, np.ones(25)], ids=["kernel_path", "empirical_path"])
def test_hyper_at_rejects_reports_whose_residual_sum_of_squares_overflows(known):
    # finite reports at a known transmitter: the kernel fit and the variogram
    # square their residuals, so a sum of squares past the float range is degenerate
    xy = np.random.default_rng(5).uniform(0, 200, (25, 2))
    signs = np.where(np.arange(25) % 2 == 0, 1.0, -1.0)
    with pytest.raises(DegenerateFitError, match="reports up to 1e\\+160 dBm overflow the residuals' sum of squares"):
        hyper_at(snap(xy, 1e160 * signs), Position(100.0, 100.0), known)
    # one that still fits passes the check
    hyper = hyper_at(snap(xy, 1e150 * signs), Position(100.0, 100.0), None)
    assert np.isfinite([hyper.mu_p, hyper.mu_alpha]).all()


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
