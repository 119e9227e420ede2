import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rssfield as rf
from rssfield import gp, synth
from rssfield.model import Position, PropagationParams
from rssfield.synth import (
    Intermittent,
    Moving,
    PowerSchedule,
    Scenario,
    Static,
    _correlation,
    sample_snapshot,
)


def small_scenario(seed=0, *, sigma_v=math.sqrt(10), sigma_w=math.sqrt(7), sigma_d=13.16,
                   n_sensors=12, dynamics=Static(), power=-10.0):
    params = PropagationParams(
        alpha=3.5, power=power, sigma_v=sigma_v, d_corr=50.0,
        sigma_w=sigma_w, sigma_d=sigma_d, tx_position=Position(100.0, 100.0),
    )
    return Scenario(
        params=params,
        grid=rf.uniform_grid(200.0, 200.0, 3, 3),
        area=(200.0, 200.0),
        n_sensors=n_sensors,
        seed=seed,
        dynamics=dynamics,
    )


def test_scenario_needs_a_sensor():
    # every snapshot holds a report: Intermittent keeps ceil((1 - f) n) >= 1 of n >= 1
    with pytest.raises(ValueError, match="n_sensors must be >= 1"):
        small_scenario(0, n_sensors=0)


def _params(**fields):
    return dataclasses.replace(small_scenario(0).params, **fields)


def _area(area):
    return dataclasses.replace(small_scenario(0), area=area)


# case -> (construction, the field its ValueError names)
_NON_FINITE = {
    "alpha-nan": (lambda: _params(alpha=math.nan), "alpha"),
    "power-nan": (lambda: _params(power=math.nan), "power"),
    "power-inf": (lambda: _params(power=-math.inf), "power"),
    "sigma_v-nan": (lambda: _params(sigma_v=math.nan), "sigma_v"),
    "d_corr-inf": (lambda: _params(d_corr=math.inf), "d_corr"),
    "sigma_w-nan": (lambda: _params(sigma_w=math.nan), "sigma_w"),
    "sigma_w-inf": (lambda: _params(sigma_w=math.inf), "sigma_w"),
    "sigma_d-nan": (lambda: _params(sigma_d=math.nan), "sigma_d"),
    "area-nan": (lambda: _area((math.nan, 200.0)), "area"),
    "area-inf": (lambda: _area((200.0, math.inf)), "area"),
    "step_std-nan": (lambda: Moving(step_std=math.nan), "step_std"),
    "step_std-inf": (lambda: Moving(step_std=math.inf), "step_std"),
    "power_schedule-nan": (lambda: PowerSchedule(((1, math.nan),)), "power_schedule"),
    "power_schedule-inf": (lambda: PowerSchedule(((0, -10.0), (1, math.inf))), "power_schedule"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_synth_value_types_reject_non_finite_fields_at_construction(case):
    # a non-finite field would otherwise surface at sample time, if at all: a
    # nan step_std never moves the roster, a nan area overflows the placement
    build, field = _NON_FINITE[case]
    with pytest.raises(ValueError, match=rf"^{field}\b.* finite"):
        build()


def test_shadowing_covariance_matches_entrywise_oracle():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 300, (5, 2))
    sigma_v, d_corr = 3.0, 42.0
    cov = sigma_v**2 * _correlation(pts, pts, d_corr)
    for i in range(5):
        for j in range(5):
            d = math.hypot(*(pts[i] - pts[j]))
            assert_allclose(cov[i, j], sigma_v**2 * math.exp(-d / d_corr), rtol=1e-12)
    assert_allclose(cov, cov.T)
    assert_allclose(np.diag(cov), sigma_v**2)


def test_shadowing_covariance_short_range_limit():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 25.0]])
    cov = 2.0**2 * _correlation(pts, pts, 1e-9)
    off = cov[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 1e-12)


def test_joint_shadowing_is_positive_definite_after_jitter():
    sc = small_scenario(3)
    pts = np.vstack([sc.grid.xy, np.random.default_rng(1).uniform(0, 200, (8, 2))])
    cov = sc.params.sigma_v**2 * _correlation(pts, pts, sc.params.d_corr)
    cov[np.diag_indices_from(cov)] += 1e-8 * sc.params.sigma_v**2
    np.linalg.cholesky(cov)  # must not raise


def place_sensors(monkeypatch, pos):
    """Replace the seeded uniform placement with the fixed geometry pos; the
    seed then governs only the field and noise draws."""
    monkeypatch.setattr(synth, "base_positions", lambda scenario: np.array(pos))


def test_sample_snapshot_noise_free_closed_form(monkeypatch):
    pos = np.array([[200.0, 100.0]])  # 100 m east of the transmitter
    place_sensors(monkeypatch, pos)
    sc = small_scenario(0, sigma_v=0.0, sigma_w=0.0, sigma_d=0.0, n_sensors=1)
    snap, truth = sample_snapshot(sc, 0)
    assert_allclose(snap.rss, [-10.0 - 35.0 * math.log10(100.0)], rtol=1e-12)
    assert_allclose(snap.rss, [-80.0], rtol=1e-12)
    assert_allclose(snap.positions, pos)
    # grid truth is the deterministic trend
    d = rf.clamped_distances(sc.grid.xy, sc.params.tx_position)
    assert_allclose(truth.grid_field, -10.0 - 35.0 * np.log10(d), rtol=1e-12)


def test_sample_snapshot_noise_free_is_deterministic():
    sc = small_scenario(5, sigma_v=0.0, sigma_w=0.0, sigma_d=0.0)
    a, ta = sample_snapshot(sc, 0)
    b, tb = sample_snapshot(sc, 0)
    assert_allclose(a.rss, b.rss)
    assert_allclose(ta.grid_field, tb.grid_field)


def test_sample_snapshot_reference_configuration_shapes():
    sc = rf.benchmark_scenario(seed=0)
    assert sc.grid.n_nodes == 1088
    snap, truth = sample_snapshot(sc, 0)
    assert snap.n_sensors == 218
    assert truth.grid_field.shape == (1088,)
    assert truth.sensor_shadowing.shape == (218,)


def test_sensor_shadowing_monte_carlo_covariance(monkeypatch):
    # fixed five-sensor geometry; sample covariance over replicates must match
    # the exponential model within 5% relative on every entry
    pos = np.array([[20.0, 30.0], [60.0, 40.0], [110.0, 150.0], [80.0, 90.0], [160.0, 60.0]])
    place_sensors(monkeypatch, pos)
    draws = []
    for seed in range(10_000):
        sc = small_scenario(seed, sigma_d=0.0, sigma_w=0.0, n_sensors=5)
        _, truth = sample_snapshot(sc, 0)
        draws.append(truth.sensor_shadowing)
    draws = np.array(draws)
    sample_cov = np.cov(draws.T, bias=True)
    target = math.sqrt(10) ** 2 * _correlation(pos, pos, 50.0)
    assert_allclose(sample_cov, target, rtol=0.05, atol=0.15)


def test_reported_distance_error_std_matches_location_scale():
    # linearization check: std of 10*alpha*(log10 d_hat - log10 d) ~ rho_u / d
    alpha, sigma_d = 3.5, 13.16
    rho_u = rf.rho_u_from(alpha, sigma_d)
    assert_allclose(rho_u, 200.0, atol=0.1)
    rng = np.random.default_rng(7)
    for d in (10 * sigma_d, 20 * sigma_d):
        true = np.array([d, 0.0]) + 100.0
        err = rng.normal(0.0, sigma_d, size=(200_000, 2))
        d_hat = np.hypot(true[0] - 100.0 + err[:, 0], true[1] - 100.0 + err[:, 1])
        feat_err = 10 * alpha * (np.log10(d_hat) - np.log10(d))
        assert_allclose(np.std(feat_err), rho_u / d, rtol=0.10)


def test_intermittent_truth_names_the_reporting_sensors():
    sc = rf.benchmark_scenario(seed=0, dynamics=Intermittent(0.2))
    snap, truth = sample_snapshot(sc, 1)
    assert snap.n_sensors == len(truth.sensor_ids) == 175  # ceil(0.8 * 218)
    assert np.all(np.diff(truth.sensor_ids) > 0)
    assert_array_equal(truth.sensor_true_positions, synth.base_positions(sc)[truth.sensor_ids])
    # t = 0 keeps the full roster
    _, truth0 = sample_snapshot(sc, 0)
    assert_array_equal(truth0.sensor_ids, np.arange(218))


def test_sample_snapshot_places_the_roster_once(monkeypatch):
    calls, real = [], synth.base_positions

    def counting(scenario):
        calls.append(scenario.seed)
        return real(scenario)

    monkeypatch.setattr(synth, "base_positions", counting)
    for dynamics in (Static(), Intermittent(0.5), Moving(5.0), PowerSchedule(((1, -4.0),))):
        calls.clear()
        sample_snapshot(small_scenario(1, dynamics=dynamics), 2)
        assert calls == [1]


def test_moving_step_zero_std_keeps_positions():
    sc = small_scenario(2, dynamics=Moving(step_std=0.0))
    assert_allclose(synth._advance(sc, 0).roster_xy, synth._advance(sc, 5).roster_xy)


def test_moving_roster_is_a_random_walk():
    sc = small_scenario(2, dynamics=Moving(step_std=4.0))
    w1 = synth._advance(sc, 1)
    w2 = synth._advance(sc, 2)
    assert_allclose(w2.roster_xy, synth._advance(sc, 2).roster_xy)  # reproducible
    step = w2.roster_xy - w1.roster_xy
    assert np.all(np.abs(step) > 0)
    # the whole roster reports, and its shadowing is conditioned at the current step
    assert_array_equal(w2.reporting, np.arange(12))
    assert (w1.shadow_step, w2.shadow_step) == (1, 2)


def test_power_schedule_step_power():
    sc = small_scenario(0, dynamics=PowerSchedule(((0, -10.0), (5, -5.0))))
    assert synth._advance(sc, 7).power == -5.0
    assert synth._advance(sc, 4).power == -10.0
    assert synth._advance(sc, 7).shadow_step == 0
    with pytest.raises(ValueError):
        PowerSchedule(((5, -5.0), (5, -6.0)))


def test_power_schedule_moves_grid_truth():
    sc = small_scenario(0, sigma_v=0.0, sigma_w=0.0, sigma_d=0.0,
                        dynamics=PowerSchedule(((3, -4.0),)))
    _, t0 = sample_snapshot(sc, 0)
    _, t3 = sample_snapshot(sc, 3)
    assert_allclose(t3.grid_field - t0.grid_field, 6.0 * np.ones(9), rtol=1e-12)


def test_moving_sensors_share_the_static_grid_field():
    sc = small_scenario(4, dynamics=Moving(step_std=5.0), sigma_w=0.0, sigma_d=0.0)
    _, t0 = sample_snapshot(sc, 0)
    _, t3 = sample_snapshot(sc, 3)
    assert_allclose(t0.grid_field, t3.grid_field)  # static field
    assert not np.allclose(t0.sensor_true_positions, t3.sensor_true_positions)


def _counting_cholesky(monkeypatch):
    """The list of the sizes synth.cholesky factors from now on."""
    built, real = [], synth.cholesky

    def counting(a, **kwargs):
        built.append(a.shape[0])  # 9 grid nodes, 12 sensors
        return real(a, **kwargs)

    monkeypatch.setattr(synth, "cholesky", counting)
    return built


def test_a_world_factors_its_grid_once_and_keeps_the_factor_only_if_it_moves(monkeypatch):
    # a fixed-roster world makes all its draws at its first sample and reads
    # them at every later t; a new world on the same seed draws its own
    for dynamics in (Static(), Intermittent(0.5), PowerSchedule(((1, -4.0),))):
        built = _counting_cholesky(monkeypatch)
        world = small_scenario(0, dynamics=dynamics)
        for t in (0, 1, 2, 0):
            sample_snapshot(world, t)
        assert built == [9, 12]
        sample_snapshot(small_scenario(0, dynamics=dynamics), 0)
        assert built == [9, 12, 9, 12]

    # a moving world needs a new conditional every step, so it keeps the factor
    built = _counting_cholesky(monkeypatch)
    world = small_scenario(0, dynamics=Moving(5.0))
    for t in range(4):
        sample_snapshot(world, t)
    assert built == [9, 12, 12, 12, 12]

    # worlds on one grid that share one Draws, as a case sweep's do, factor the
    # grid once, and each world's roster gets its own conditional
    built = _counting_cholesky(monkeypatch)
    draws = synth.Draws()
    for seed in range(4):
        sample_snapshot(small_scenario(seed), 0, draws=draws)
    assert built == [9, 12, 12, 12, 12]


@pytest.mark.parametrize("dynamics", [Static(), Moving(5.0)], ids=["static", "moving"])
def test_sensor_factors_rebuild_the_joint_correlation(dynamics):
    # dense oracle: with L L^T the grid's correlation, V = L^-1 K_gs and L_c the
    # conditional's factor, [[L L^T, L V], [V^T L^T, V^T V + L_c L_c^T]] is the
    # correlation of [grid; sensors] with the jitter on its diagonal
    sc = small_scenario(2, dynamics=dynamics)
    d_corr = sc.params.d_corr
    for t in (0, 2):
        xy = synth._advance(sc, t).roster_xy
        low = synth._factor_in_place(_correlation(sc.grid.xy, sc.grid.xy, d_corr))
        v, low_c = synth._sensor_factors(low, sc.grid, xy, d_corr)
        assert v.shape == (9, 12) and low_c.shape == (12, 12)
        joint = np.block([[low @ low.T, low @ v], [v.T @ low.T, v.T @ v + low_c @ low_c.T]])
        pts = np.vstack([sc.grid.xy, xy])
        target = _correlation(pts, pts, d_corr) + synth._SHADOW_JITTER * np.eye(len(pts))
        assert_allclose(joint, target, rtol=1e-10, atol=0)


@pytest.mark.parametrize("dynamics", [Static(), Moving(5.0)], ids=["static", "moving"])
def test_sensor_shadowing_is_sigma_v_times_one_unit_draw_per_roster(monkeypatch, dynamics):
    # a sweep over sigma_v^2 through one Draws scales one unit draw, as the
    # grid's does, and factors each roster's conditional once
    built = _counting_cholesky(monkeypatch)
    draws = synth.Draws()
    for t in (0, 1):
        for sigma_v in (1.0, math.sqrt(10), 4.0):
            _, truth = sample_snapshot(small_scenario(3, sigma_v=sigma_v, dynamics=dynamics), t, draws=draws)
            if sigma_v == 1.0:
                u_s = truth.sensor_shadowing
            assert_array_equal(truth.sensor_shadowing, sigma_v * u_s)
    assert built == ([9, 12, 12] if isinstance(dynamics, Moving) else [9, 12])


def _assert_same_snapshot(a, b):
    (snap_a, truth_a), (snap_b, truth_b) = a, b
    assert snap_a.t == snap_b.t
    for x, y in [(snap_a.positions, snap_b.positions), (snap_a.rss, snap_b.rss),
                 (truth_a.grid_field, truth_b.grid_field),
                 (truth_a.sensor_shadowing, truth_b.sensor_shadowing)]:
        assert_array_equal(x, y)


def _small_world(seed, dynamics=Static()):
    return rf.benchmark_scenario(seed=seed, nx=8, ny=9, n_sensors=30, dynamics=dynamics)


def test_shared_and_warm_draws_draw_what_a_fresh_world_draws():
    # order-independence oracle: a sweep, then tracked worlds of every dynamics,
    # then the sweep again, drawn through one shared Draws and through each
    # world's own, each snapshot against one from a fresh copy of its world
    sweep = [(_small_world(seed), 0) for seed in range(3)]
    tracked = [
        (_small_world(seed, dynamics), t)
        for seed, dynamics in [(3, Intermittent(0.2)), (4, Moving(5.0)), (5, PowerSchedule(((2, -4.0),)))]
        for t in range(4)
    ]
    order = sweep + tracked + sweep
    shared = synth.Draws()
    through_shared = [sample_snapshot(sc, t, draws=shared) for sc, t in order]
    through_own = [sample_snapshot(sc, t) for sc, t in order]
    for (sc, t), a, b in zip(order, through_shared, through_own):
        fresh = sample_snapshot(dataclasses.replace(sc), t)
        _assert_same_snapshot(a, fresh)
        _assert_same_snapshot(b, fresh)


def test_two_worlds_sampled_in_turn_factor_nothing_after_their_first_samples(monkeypatch):
    alone = {seed: [sample_snapshot(_small_world(seed, Intermittent(0.2)), t) for t in range(11)]
             for seed in (1, 2)}
    worlds = {seed: _small_world(seed, Intermittent(0.2)) for seed in (1, 2)}
    for world in worlds.values():
        sample_snapshot(world, 0)
    built = _counting_cholesky(monkeypatch)
    for t in range(1, 11):
        for seed, world in worlds.items():
            _assert_same_snapshot(sample_snapshot(world, t), alone[seed][t])
    assert built == []


@pytest.mark.parametrize("shape", [(9, 9), (12, 9), (12, 12)], ids=["grid", "grid-sensor", "sensor"])
def test_non_finite_correlation_raises_before_lapack(monkeypatch, shape):
    # synth scans the grid correlation and the sensor conditional, and
    # gp.solve_w scans K_gs, one block of rows at a time, and tells LAPACK not
    # to: a NaN still raises scipy's ValueError
    real = synth._correlation

    def poisoned(a_xy, b_xy, d_corr):
        corr = real(a_xy, b_xy, d_corr)
        if corr.shape == shape:
            # upper triangle: subtract_gram mirrors K_ss's upper triangle onto its lower
            corr[0, -1] = np.nan
        return corr

    calls = []
    # the factorizations run in synth, the solve for V in gp.solve_w
    for module, name in ((synth, "cholesky"), (gp, "solve_triangular")):
        def recording(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)
    monkeypatch.setattr(synth, "_correlation", poisoned)
    with pytest.raises(ValueError, match="infs or NaNs"):
        sample_snapshot(small_scenario(3), 0)
    # the poisoned matrix never reached LAPACK: the grid's is scanned before
    # its factorization, K_gs before the solve against L and the conditional
    # before its factorization
    expected = {(9, 9): [], (12, 9): ["cholesky"], (12, 12): ["cholesky", "solve_triangular"]}
    assert calls == expected[shape]


@pytest.mark.parametrize("dynamics", [Static(), Intermittent(0.2), Moving(5.0)],
                         ids=["static", "intermittent", "moving"])
def test_first_snapshot_factors_in_place_and_the_world_frees_its_draws_with_itself(dynamics):
    # lazy imports and first-call set-up happen outside the trace
    sample_snapshot(rf.benchmark_scenario(seed=1, nx=4, ny=4, n_sensors=5, dynamics=dynamics), 1)
    sc = rf.benchmark_scenario(seed=2, nx=32, ny=32, n_sensors=50, dynamics=dynamics)
    n_nodes, n_sensors = sc.grid.n_nodes, sc.n_sensors
    one_matrix = n_nodes**2 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sample_snapshot(sc, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
        held_t0 = tracemalloc.get_traced_memory()[0] - base
        sample_snapshot(sc, 1)
        held_t1 = tracemalloc.get_traced_memory()[0] - base
        del sc
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # the grid factor is the correlation buffer itself: a copy would double it,
    # and scipy's finiteness scan of it (one byte per entry) would add 0.125
    assert peak < 1.1 * one_matrix, f"first snapshot peak {peak / one_matrix:.2f} grid matrices"
    # only a moving world keeps L, for its next step's conditional; besides L
    # the world keeps its unit draws and their keys, O(M + N) floats: no M x N
    # array outlives the draw
    factor = one_matrix if isinstance(dynamics, Moving) else 0
    for held in (held_t0, held_t1):
        beside_factor = held - factor
        assert 0 <= beside_factor < 16 * 8 * (n_nodes + n_sensors), f"{beside_factor / 1e3:.0f} kB beside L"
    assert left < 8 * n_nodes, f"{left} bytes left after the world is dropped"
