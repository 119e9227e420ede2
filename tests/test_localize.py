import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from rssfield import localize
from rssfield.localize import (
    CentroidState,
    NoFixError,
    centroid_update,
    distances_to_estimate,
    refine_transmitter,
)
from rssfield.model import D_MIN, MeasurementSnapshot, Position


def snap(positions, rss, t=0):
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    return MeasurementSnapshot(
        t=t, sensor_ids=tuple(range(len(positions))), positions=positions, rss=np.asarray(rss, dtype=float)
    )


def test_centroid_single_sensor():
    state = centroid_update(CentroidState.empty(), snap([[3.0, 4.0]], [-55.0]))
    assert_allclose([state.estimate.x, state.estimate.y], [3.0, 4.0])


def test_centroid_symmetry():
    state = centroid_update(CentroidState.empty(), snap([[0.0, 0.0], [2.0, 0.0]], [-40.0, -40.0]))
    assert_allclose([state.estimate.x, state.estimate.y], [1.0, 0.0], atol=1e-12)


def test_centroid_two_snapshot_recursion_hand_unrolled():
    # z = 0 dBm gives weight 1 per sensor; two sequential single-sensor
    # snapshots at (0,0) then (4,0) average to (2,0)
    s1 = centroid_update(CentroidState.empty(), snap([[0.0, 0.0]], [0.0]))
    s2 = centroid_update(s1, snap([[4.0, 0.0]], [0.0], t=1))
    assert_allclose([s2.estimate.x, s2.estimate.y], [2.0, 0.0], atol=1e-12)
    assert_allclose(s2.total_weight, 2.0)


def test_centroid_permutation_invariance():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 100, (6, 2))
    rss = rng.uniform(-90, -40, 6)
    a = centroid_update(CentroidState.empty(), snap(pos, rss))
    perm = rng.permutation(6)
    b = centroid_update(CentroidState.empty(), snap(pos[perm], rss[perm]))
    assert_allclose([a.estimate.x, a.estimate.y], [b.estimate.x, b.estimate.y], rtol=1e-12)


def test_centroid_stays_in_convex_hull():
    rng = np.random.default_rng(1)
    state = CentroidState.empty()
    all_pos = []
    for t in range(5):
        pos = rng.uniform(-50, 50, (4, 2))
        all_pos.append(pos)
        state = centroid_update(state, snap(pos, rng.uniform(-80, -30, 4), t=t))
    pts = np.vstack(all_pos)
    est = np.array([state.estimate.x, state.estimate.y])
    # inside the bounding box is implied by inside the hull; check the box
    # plus support-function dominance along random directions
    for _ in range(50):
        u = rng.normal(size=2)
        u /= np.hypot(*u)
        assert est @ u <= np.max(pts @ u) + 1e-9


def test_centroid_empty_snapshot_no_fix():
    state = centroid_update(CentroidState.empty(), snap(np.zeros((0, 2)), []))
    assert not state.has_fix
    with pytest.raises(NoFixError):
        distances_to_estimate(state, [[0.0, 0.0]])


def test_distances_to_estimate_values_and_clamp():
    state = centroid_update(CentroidState.empty(), snap([[0.0, 0.0]], [0.0]))
    d = distances_to_estimate(state, [[3.0, 4.0], [0.0, 0.0]])
    assert_allclose(d, [5.0, D_MIN])


def test_distances_batch_matches_elementwise():
    state = centroid_update(CentroidState.empty(), snap([[10.0, -3.0]], [-60.0]))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-100, 100, (10, 2))
    batch = distances_to_estimate(state, pts)
    single = [distances_to_estimate(state, p.reshape(1, 2))[0] for p in pts]
    assert_allclose(batch, single, rtol=1e-15)


def _noise_free_snapshot(rng, n, tx, p=-10.0, alpha=3.5):
    pos = rng.uniform(0, 200, (n, 2))
    d = np.maximum(np.hypot(pos[:, 0] - tx[0], pos[:, 1] - tx[1]), D_MIN)
    return snap(pos, p - 10 * alpha * np.log10(d))


def test_refine_recovers_transmitter_and_agrees_with_grid_search():
    rng = np.random.default_rng(3)
    tx = (120.0, 80.0)
    s = _noise_free_snapshot(rng, 20, tx)
    init = Position(100.0, 100.0)
    pos, degenerate = refine_transmitter(s, s.positions, -10.0, 3.5, init)
    assert not degenerate
    assert math.hypot(pos.x - tx[0], pos.y - tx[1]) < 0.5

    # dense grid search confirms the global minimum sits at the transmitter
    def objective(x0):
        d = np.maximum(np.hypot(s.positions[:, 0] - x0[0], s.positions[:, 1] - x0[1]), D_MIN)
        r = s.rss + 10.0 + 35.0 * np.log10(d)
        return r @ r
    xs = np.linspace(0, 200, 101)
    vals = np.array([[objective((x, y)) for y in xs] for x in xs])
    ix, iy = np.unravel_index(np.argmin(vals), vals.shape)
    assert math.hypot(xs[ix] - tx[0], xs[iy] - tx[1]) <= 2 * math.sqrt(2)


def test_refine_stationary_at_truth():
    rng = np.random.default_rng(4)
    tx = (50.0, 60.0)
    s = _noise_free_snapshot(rng, 15, tx)
    pos, degenerate = refine_transmitter(s, s.positions, -10.0, 3.5, Position(*tx))
    assert not degenerate
    assert math.hypot(pos.x - tx[0], pos.y - tx[1]) < 1e-3


def test_refine_single_sensor_degenerate():
    s = snap([[1.0, 2.0]], [-50.0])
    init = Position(9.0, 9.0)
    pos, degenerate = refine_transmitter(s, s.positions, -10.0, 3.5, init)
    assert degenerate
    assert (pos.x, pos.y) == (9.0, 9.0)


def test_refine_never_increases_objective():
    rng = np.random.default_rng(5)
    for trial in range(10):
        pos_xy = rng.uniform(0, 100, (8, 2))
        rss = rng.uniform(-90, -40, 8)
        s = snap(pos_xy, rss)
        mu_p, mu_alpha = rng.uniform(-20, 0), rng.uniform(2, 4)
        init = Position(*rng.uniform(0, 100, 2))

        def objective(p):
            d = np.maximum(np.hypot(pos_xy[:, 0] - p.x, pos_xy[:, 1] - p.y), D_MIN)
            r = rss - mu_p + 10 * mu_alpha * np.log10(d)
            return r @ r

        out, _ = refine_transmitter(s, pos_xy, mu_p, mu_alpha, init)
        assert objective(out) <= objective(init) + 1e-9


def test_refine_clamps_to_area():
    rng = np.random.default_rng(6)
    s = _noise_free_snapshot(rng, 12, (150.0, 150.0))
    bounds = ((0.0, 100.0), (0.0, 100.0))
    pos, _ = refine_transmitter(s, s.positions, -10.0, 3.5, Position(50.0, 50.0), area_bounds=bounds)
    assert 0.0 <= pos.x <= 100.0 and 0.0 <= pos.y <= 100.0


def _objective(pos_xy, rss, mu_p, mu_alpha, p):
    d = np.maximum(np.hypot(pos_xy[:, 0] - p.x, pos_xy[:, 1] - p.y), D_MIN)
    r = rss - mu_p + 10 * mu_alpha * np.log10(d)
    return r @ r


def _nelder_mead_fix(pos_xy, rss, mu_p, mu_alpha, init):
    """Oracle: a converged derivative-free search of the same objective."""
    res = minimize(
        lambda x: _objective(pos_xy, rss, mu_p, mu_alpha, Position(*x)),
        init.as_array(),
        method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-14},
    )
    return Position(*res.x)


def _random_problems():
    """The draws of test_refine_never_increases_objective."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        pos_xy = rng.uniform(0, 100, (8, 2))
        rss = rng.uniform(-90, -40, 8)
        mu_p, mu_alpha = rng.uniform(-20, 0), rng.uniform(2, 4)
        yield pos_xy, rss, mu_p, mu_alpha, Position(*rng.uniform(0, 100, 2))


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
        yield pos_xy, rss, -10.0 + rng.normal(), 3.5 + 0.1 * rng.normal(), Position(*(tx + off))


def test_jacobian_matches_central_differences():
    for pos_xy, rss, mu_p, mu_alpha, init in list(_random_problems()) + list(_noisy_problems()):
        x0 = init.as_array()
        args = (pos_xy, rss, mu_p, mu_alpha)
        jac = localize._jacobian(x0, *args)
        h = 1e-5
        fd = np.column_stack(
            [
                (localize._residuals(x0 + h * e, *args) - localize._residuals(x0 - h * e, *args)) / (2 * h)
                for e in np.eye(2)
            ]
        )
        assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def test_refine_objective_not_above_nelder_mead_oracle():
    for pos_xy, rss, mu_p, mu_alpha, init in list(_random_problems()) + list(_noisy_problems()):
        out, degenerate = refine_transmitter(snap(pos_xy, rss), pos_xy, mu_p, mu_alpha, init)
        assert not degenerate
        oracle = _objective(pos_xy, rss, mu_p, mu_alpha, _nelder_mead_fix(pos_xy, rss, mu_p, mu_alpha, init))
        assert _objective(pos_xy, rss, mu_p, mu_alpha, out) <= oracle * (1 + 1e-9)
