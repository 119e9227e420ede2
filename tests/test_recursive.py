import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular

import rssfield as rf
from rssfield import gp, recursive
from rssfield.empbayes import HyperEstimate
from rssfield.gp import KernelParams, chol_with_jitter, kernel_matrix, posterior
from rssfield.localize import CentroidState
from rssfield.model import Grid, MeasurementSnapshot, NoiseModel, Position, uniform_grid
from rssfield.pipeline import PipelineConfig
from rssfield.recursive import RecursiveConfig, RecursiveState, init_state, rgp_step


# the area make_snapshot and random_inputs draw their sensors and nodes in
AREA = ((0.0, 200.0), (0.0, 200.0))


def make_snapshot(rng, n, t=0, lo=5.0, hi=195.0):
    return MeasurementSnapshot(
        t=t,
        positions=rng.uniform(lo, hi, (n, 2)),
        rss=rng.uniform(-90, -40, n),
    )


def random_inputs(rng, n_train=8, n_grid=6):
    snap = make_snapshot(rng, n_train)
    grid = Grid(rng.uniform(0, 200, (n_grid, 2)))
    hyper = HyperEstimate(
        mu_p=rng.uniform(-15, -5), mu_alpha=rng.uniform(2, 4),
        var_p=rng.uniform(0, 2), var_alpha=rng.uniform(0, 0.05),
        tx=Position(*rng.uniform(50, 150, 2)),
    )
    kernel = KernelParams.from_decay(
        sigma_k=rng.uniform(1, 4), decay_scale=rng.uniform(30, 120),
        sigma_alpha_k=math.sqrt(hyper.var_alpha), sigma_p_k=math.sqrt(hyper.var_p),
    )
    noise = NoiseModel(rho_u=rng.uniform(0, 250), sigma_w=rng.uniform(0.5, 3))
    return snap, grid, hyper, kernel, noise


def state_from_posterior(post, grid):
    return RecursiveState(
        posterior=post,
        centroid=CentroidState(),
        grid_prior_cov=kernel_matrix(grid.xy, grid.xy, post.kernel, post.hyper.tx),
        cov_tx=post.hyper.tx,
    )


def frozen_config(pin_hyper, hyper, kernel, noise, lam):
    """(config, pin): steps under the fixed kernel and the pinned hyper."""
    pcfg = PipelineConfig(noise=noise, area_bounds=AREA, kernel=kernel)
    return RecursiveConfig(pipeline=pcfg, lam=lam), pin_hyper(hyper)


def test_lambda_one_matches_static_posterior(pin_hyper):
    # with all prior knowledge forgotten, one recursive step equals the
    # static fit on the current snapshot alone
    rng = np.random.default_rng(0)
    for _ in range(20):
        snap0, grid, hyper, kernel, noise = random_inputs(rng)
        snap1 = make_snapshot(rng, snap0.n_sensors, t=1)
        post0 = posterior((snap0.positions, snap0.rss), grid, hyper, kernel, noise, t=0)
        state = state_from_posterior(post0, grid)
        cfg, pin = frozen_config(pin_hyper, hyper, kernel, noise, 1.0)
        stepped = rgp_step(state, snap1, grid, cfg)
        assert pin.calls == 1
        ref = posterior((snap1.positions, snap1.rss), grid, hyper, kernel, noise, t=1)
        assert_array_equal(stepped.posterior.mean, ref.mean)
        assert_array_equal(stepped.posterior.cov, ref.cov)


def test_lambda_one_matches_static_posterior_beyond_one_accumulation_block(pin_hyper):
    # 600 reports: W^T W is accumulated over several dsyrk blocks, where the
    # order of the updates decides the last bits
    rng = np.random.default_rng(9)
    snap0, grid, hyper, kernel, noise = random_inputs(rng, n_train=600, n_grid=300)
    snap1 = make_snapshot(rng, 600, t=1)
    post0 = posterior((snap0.positions, snap0.rss), grid, hyper, kernel, noise, t=0)
    state = state_from_posterior(post0, grid)
    cfg, pin = frozen_config(pin_hyper, hyper, kernel, noise, 1.0)
    stepped = rgp_step(state, snap1, grid, cfg)
    assert pin.calls == 1
    ref = posterior((snap1.positions, snap1.rss), grid, hyper, kernel, noise, t=1)
    assert_array_equal(stepped.posterior.mean, ref.mean)
    assert_array_equal(stepped.posterior.cov, ref.cov)


def test_blend_in_blocks_of_rows_gives_the_whole_matrix_blends_covariance(pin_hyper):
    # the step forms K_g - (1 - lam)(K_g - C_prev) a block of rows at a time,
    # over several blocks of the 600-node grid; its covariance is the one the
    # blend of the whole matrix in one pass gives
    rng = np.random.default_rng(13)
    snap0, grid, hyper, kernel, noise = random_inputs(rng, n_train=50, n_grid=600)
    snap1 = make_snapshot(rng, 50, t=1)
    post0 = posterior((snap0.positions, snap0.rss), grid, hyper, kernel, noise, t=0)
    state = state_from_posterior(post0, grid)
    lam = 0.3
    cfg, pin = frozen_config(pin_hyper, hyper, kernel, noise, lam)
    stepped = rgp_step(state, snap1, grid, cfg)
    assert pin.calls == 1
    xy = snap1.positions
    noise_var = noise.variances(rf.clamped_distances(xy, hyper.tx))
    resid = snap1.rss - gp.prior_mean(xy, hyper)
    low, k_gx, _ = gp.condition(xy, grid.xy, resid, kernel, hyper.tx, noise_var)
    w = solve_triangular(low, k_gx.T, lower=True)
    k_grid = state.grid_prior_cov
    expected = k_grid - (1 - lam) * (k_grid - post0.cov)
    gp.subtract_gram(expected, w, lam)
    assert_array_equal(stepped.posterior.cov, expected)


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


def test_posterior_and_step_hold_one_grid_covariance_at_a_time(pin_hyper):
    # the returned M x M covariance is the only one: kernel assembly, the Gram
    # update and the PD check all run inside it
    rng = np.random.default_rng(10)
    snap0, _, hyper, kernel, noise = random_inputs(rng, n_train=100)
    grid = uniform_grid(200.0, 200.0, 32, 32)
    budget = 1.5 * grid.n_nodes**2 * 8
    post0, peak = _traced_peak(
        lambda: posterior((snap0.positions, snap0.rss), grid, hyper, kernel, noise, t=0)
    )
    assert peak < budget, f"posterior peak {peak / 1e6:.1f} MB"
    state = state_from_posterior(post0, grid)
    snap1 = make_snapshot(rng, 100, t=1)
    cfg, pin = frozen_config(pin_hyper, hyper, kernel, noise, 0.5)
    stepped, peak = _traced_peak(lambda: rgp_step(state, snap1, grid, cfg))
    assert peak < budget, f"rgp_step peak {peak / 1e6:.1f} MB"
    assert pin.calls == 1
    assert stepped.posterior.cov.shape == (grid.n_nodes, grid.n_nodes)


def test_lambda_to_zero_carries_field(pin_hyper):
    rng = np.random.default_rng(1)
    snap0, grid, hyper, kernel, noise = random_inputs(rng)
    snap1 = make_snapshot(rng, snap0.n_sensors, t=1)
    post0 = posterior((snap0.positions, snap0.rss), grid, hyper, kernel, noise, t=0)
    lam = 1e-12
    state = state_from_posterior(post0, grid)
    cfg, pin = frozen_config(pin_hyper, hyper, kernel, noise, lam)
    stepped = rgp_step(state, snap1, grid, cfg)
    assert pin.calls == 1
    assert_allclose(stepped.posterior.mean, post0.mean, atol=1e-8)
    assert_allclose(stepped.posterior.cov, post0.cov, atol=1e-8)


def test_two_step_trace_matches_hand_unrolled_equations(pin_hyper):
    # independent re-implementation of the five update equations on a
    # 2-node / 2-sensor case, two steps at lambda = 0.5
    lam = 0.5
    grid = Grid(np.array([[50.0, 50.0], [120.0, 80.0]]))
    tx = Position(100.0, 100.0)
    hyper = HyperEstimate(mu_p=-10.0, mu_alpha=3.0, var_p=1.0, var_alpha=0.01, tx=tx)
    kernel = KernelParams.from_decay(sigma_k=2.0, decay_scale=60.0, sigma_alpha_k=0.1, sigma_p_k=1.0)
    noise = NoiseModel(rho_u=150.0, sigma_w=2.0)
    rng = np.random.default_rng(2)
    snaps = [make_snapshot(rng, 2, t=t) for t in range(3)]

    post0 = posterior((snaps[0].positions, snaps[0].rss), grid, hyper, kernel, noise, t=0)
    state = state_from_posterior(post0, grid)
    cfg, pin = frozen_config(pin_hyper, hyper, kernel, noise, lam)
    for snap in snaps[1:]:
        state = rgp_step(state, snap, grid, cfg)
    assert pin.calls == 2

    # oracle: plain numpy evaluation of the update equations
    def k_mat(a, b):
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        qa = 10 * np.log10(np.maximum(np.hypot(a[:, 0] - tx.x, a[:, 1] - tx.y), 1.0))
        qb = 10 * np.log10(np.maximum(np.hypot(b[:, 0] - tx.x, b[:, 1] - tx.y), 1.0))
        return 2.0**2 * np.exp(-d / 60.0) + 0.1**2 * np.outer(qa, qb) + 1.0

    def mean_at(a):
        q = 10 * np.log10(np.maximum(np.hypot(a[:, 0] - tx.x, a[:, 1] - tx.y), 1.0))
        return -10.0 - 3.0 * q

    k_gg = k_mat(grid.xy, grid.xy)
    m_g = mean_at(grid.xy)

    def static(snap):
        xy = snap.positions
        d_hat = np.maximum(np.hypot(xy[:, 0] - tx.x, xy[:, 1] - tx.y), 1.0)
        c = k_mat(xy, xy) + np.diag(2.0**2 + 150.0**2 / d_hat**2)
        k_gx = k_mat(grid.xy, xy)
        mu_post = k_gx @ np.linalg.solve(c, snap.rss - mean_at(xy))
        sig_post = k_gx @ np.linalg.solve(c, k_gx.T)
        return mu_post, sig_post

    mu_post0, sig_post0 = static(snaps[0])
    mu, sig = m_g + mu_post0, k_gg - sig_post0
    for snap in snaps[1:]:
        mu_prior = mu - m_g
        sig_prior = k_gg - sig
        mu_post, sig_post = static(snap)
        mu = m_g + (1 - lam) * mu_prior + lam * mu_post
        sig = k_gg - ((1 - lam) * sig_prior + lam * sig_post)

    assert_allclose(state.posterior.mean, mu, atol=1e-8)
    assert_allclose(state.posterior.cov, 0.5 * (sig + sig.T), atol=1e-8)


def test_refit_step_is_convex_blend_of_static_and_carried_posteriors(pin_hyper):
    # under a new kernel the step is lam * (static posterior under it) +
    # (1 - lam) * (carried posterior), in mean deviation and covariance
    rng = np.random.default_rng(12)
    lam = 0.3
    for _ in range(10):
        snap0, grid, hyper, kernel, noise = random_inputs(rng)
        snap1 = make_snapshot(rng, snap0.n_sensors, t=1)
        post0 = posterior((snap0.positions, snap0.rss), grid, hyper, kernel, noise, t=0)
        new_kernel = KernelParams.from_decay(
            sigma_k=rng.uniform(1, 4), decay_scale=rng.uniform(30, 120),
            sigma_alpha_k=kernel.sigma_alpha_k, sigma_p_k=kernel.sigma_p_k,
        )
        cfg = RecursiveConfig(
            pipeline=PipelineConfig(noise=noise, area_bounds=AREA, kernel=new_kernel), lam=lam,
            kernel_refit="every_step",
        )
        pin = pin_hyper(hyper)
        stepped = rgp_step(state_from_posterior(post0, grid), snap1, grid, cfg)
        assert pin.calls == 1
        static = posterior((snap1.positions, snap1.rss), grid, hyper, new_kernel, noise, t=1)
        assert stepped.posterior.kernel == new_kernel
        assert_allclose(stepped.posterior.mean, lam * static.mean + (1 - lam) * post0.mean, atol=1e-8)
        assert_allclose(stepped.posterior.cov, lam * static.cov + (1 - lam) * post0.cov, atol=1e-8)


def test_init_then_identical_snapshot_at_lambda_one(pin_hyper):
    rng = np.random.default_rng(3)
    sc = rf.benchmark_scenario(seed=4, sigma_v_sq=10.0, nx=4, ny=4, n_sensors=15, area=(200.0, 200.0))
    snap0, _ = rf.sample_snapshot(sc, 0)
    noise = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    pcfg = PipelineConfig(noise=noise, area_bounds=sc.area_bounds)
    rcfg = RecursiveConfig(pipeline=pcfg, lam=1.0)
    state = init_state(snap0, sc.grid, rcfg)
    pin = pin_hyper(state.posterior.hyper)
    snap0b = MeasurementSnapshot(
        t=1, positions=snap0.positions, rss=snap0.rss
    )
    stepped = rgp_step(state, snap0b, sc.grid, rcfg)
    assert pin.calls == 1
    assert_allclose(stepped.posterior.mean, state.posterior.mean, atol=1e-8)


def test_init_state_requires_data_and_gives_pd_covariance():
    sc = rf.benchmark_scenario(seed=5, sigma_v_sq=10.0, nx=5, ny=5, n_sensors=20, area=(250.0, 250.0))
    snap0, _ = rf.sample_snapshot(sc, 0)
    noise = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    rcfg = RecursiveConfig(pipeline=PipelineConfig(noise=noise, area_bounds=sc.area_bounds))
    state = init_state(snap0, sc.grid, rcfg)
    chol_with_jitter(np.array(state.posterior.cov), "check")  # must not raise

    lone = MeasurementSnapshot(t=0, positions=np.array([[10.0, 10.0]]), rss=np.array([-60.0]))
    with pytest.raises(rf.DegenerateFitError):
        init_state(lone, sc.grid, rcfg)


def test_init_state_is_run_static_and_the_first_step_builds_the_grid_prior(monkeypatch):
    sc = rf.benchmark_scenario(seed=5, sigma_v_sq=10.0, nx=5, ny=5, n_sensors=20, area=(250.0, 250.0))
    snap0, _ = rf.sample_snapshot(sc, 0)
    noise = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    rcfg = RecursiveConfig(pipeline=PipelineConfig(noise=noise, area_bounds=sc.area_bounds))
    static = rf.run_static(snap0, sc.grid, rcfg.pipeline)

    shapes = []
    for module in (gp, recursive):
        def recording(*args, _real=module.kernel_matrix, **kwargs):
            out = _real(*args, **kwargs)
            shapes.append(out.shape)
            return out
        monkeypatch.setattr(module, "kernel_matrix", recording)
    grid_prior = (sc.grid.n_nodes, sc.grid.n_nodes)
    state = init_state(snap0, sc.grid, rcfg)
    assert shapes.count(grid_prior) == 1  # run_static's posterior

    assert_array_equal(state.posterior.mean, static.posterior.mean)
    assert_array_equal(state.posterior.cov, static.posterior.cov)
    assert state.grid_prior_cov is None
    assert (state.posterior.kernel, state.posterior.hyper, state.cov_tx, state.centroid.estimate) == (
        static.kernel, static.hyper, static.hyper.tx, static.centroid.estimate
    )

    # under freeze_after_init the first step builds K_g and every later one reuses it
    states = [state]
    for t in range(1, 4):
        snap, _ = rf.sample_snapshot(sc, t)
        states.append(rgp_step(states[-1], snap, sc.grid, rcfg))
    assert shapes.count(grid_prior) == 2
    assert_array_equal(
        states[1].grid_prior_cov, kernel_matrix(sc.grid.xy, sc.grid.xy, static.kernel, static.hyper.tx)
    )
    assert all(s.grid_prior_cov is states[1].grid_prior_cov for s in states[1:])


def test_covariance_stays_pd_along_a_noisy_run():
    sc = rf.benchmark_scenario(
        seed=7, sigma_v_sq=10.0, nx=6, ny=6, n_sensors=40, area=(300.0, 300.0),
        dynamics=rf.Moving(step_std=5.0),
    )
    noise = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    rcfg = RecursiveConfig(
        pipeline=PipelineConfig(noise=noise, area_bounds=sc.area_bounds),
        lam=0.5,
    )
    snap0, _ = rf.sample_snapshot(sc, 0)
    state = init_state(snap0, sc.grid, rcfg)
    for t in range(1, 8):
        snap, _ = rf.sample_snapshot(sc, t)
        state = rgp_step(state, snap, sc.grid, rcfg)  # raises if non-PD
        cov = np.array(state.posterior.cov)
        assert_allclose(cov, cov.T, atol=1e-10)


def intermittent_run(kernel_refit, steps=5, empty_at=3, seed=8, fixed_tx=None, rebuild=False):
    """States of an Intermittent run that takes no step at t = empty_at, as
    for a time step without reports; the transmitter sits at the area center,
    (150, 150). With rebuild, each step starts from its state without the
    carried grid prior, so it builds K_g itself."""
    sc = rf.benchmark_scenario(
        seed=seed, sigma_v_sq=10.0, nx=6, ny=5, n_sensors=30, area=(300.0, 300.0),
        dynamics=rf.Intermittent(0.3),
    )
    noise = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    rcfg = RecursiveConfig(
        pipeline=PipelineConfig(noise=noise, area_bounds=sc.area_bounds, fixed_tx=fixed_tx),
        lam=0.5,
        kernel_refit=kernel_refit,
    )
    snap0, _ = rf.sample_snapshot(sc, 0)
    states = [init_state(snap0, sc.grid, rcfg)]
    for t in range(1, steps + 1):
        if t == empty_at:
            continue
        prev = replace(states[-1], grid_prior_cov=None) if rebuild else states[-1]
        snap, _ = rf.sample_snapshot(sc, t)
        states.append(rgp_step(prev, snap, sc.grid, rcfg))
    return sc.grid, states


def assert_same_states(states, rebuilt):
    """The states of a run and of its rebuild=True replay are bit-identical."""
    assert len(states) == len(rebuilt)
    for a, b in zip(states, rebuilt):
        assert a.posterior.t == b.posterior.t
        assert_array_equal(a.posterior.mean, b.posterior.mean)
        assert_array_equal(a.posterior.cov, b.posterior.cov)
        assert (a.posterior.hyper, a.posterior.kernel, a.cov_tx) == (b.posterior.hyper, b.posterior.kernel, b.cov_tx)
        assert (a.grid_prior_cov is None) == (b.grid_prior_cov is None)
        if a.grid_prior_cov is not None:
            assert_array_equal(a.grid_prior_cov, b.grid_prior_cov)


def test_grid_prior_reuse_gives_identical_states():
    grid, reused = intermittent_run("freeze_after_init")
    # under a frozen kernel every step keeps the grid prior the first step built
    assert reused[0].grid_prior_cov is None
    assert all(s.grid_prior_cov is reused[1].grid_prior_cov for s in reused[1:])
    assert all(np.array_equal(s.posterior.cov, s.posterior.cov.T) for s in reused)

    # stepping from each state without its grid prior builds K_g anew
    _, rebuilt = intermittent_run("freeze_after_init", rebuild=True)
    assert_same_states(reused, rebuilt)


def test_every_step_refit_recomputes_grid_prior(monkeypatch):
    # each step blends the current static posterior covariance with the
    # carried one convexly, so a refitted kernel and fix need no jitter
    checks = []

    def recording(mat, what="covariance", **kwargs):
        out = chol_with_jitter(mat, what, **kwargs)
        checks.append((what, out[1]))
        return out

    monkeypatch.setattr(recursive, "chol_with_jitter", recording)
    runs = [intermittent_run("every_step", steps=5, empty_at=3, seed=seed)[1] for seed in range(10)]
    for states in runs:
        # no state keeps a grid prior that its next step, refitting, would not read
        assert all(s.grid_prior_cov is None for s in states)
        for prev, cur in zip(states, states[1:]):
            assert (cur.posterior.kernel, cur.cov_tx) != (prev.posterior.kernel, prev.cov_tx)
    assert checks == [("recursive grid covariance", 0.0)] * (10 * 4)

    # every step builds its grid prior from scratch, as the always-rebuild path does
    for seed, states in enumerate(runs):
        _, rebuilt = intermittent_run("every_step", steps=5, empty_at=3, seed=seed, rebuild=True)
        assert_same_states(states, rebuilt)


@pytest.mark.parametrize("kernel_refit", recursive.KERNEL_REFIT_MODES)
def test_known_transmitter_holds_at_every_step(kernel_refit):
    known = Position(150.0, 150.0)
    _, states = intermittent_run(kernel_refit, seed=3, fixed_tx=known)
    assert len(states) == 5
    for state in states:
        assert (state.posterior.hyper.tx, state.cov_tx) == (known, known)


def test_config_validation():
    noise = NoiseModel(rho_u=0.0, sigma_w=1.0)
    with pytest.raises(ValueError):
        RecursiveConfig(pipeline=PipelineConfig(noise=noise, area_bounds=AREA), lam=0.0)
    with pytest.raises(ValueError):
        RecursiveConfig(pipeline=PipelineConfig(noise=noise, area_bounds=AREA), lam=0.5, kernel_refit="sometimes")


@pytest.mark.xfail(
    strict=False,
    reason=(
        "the lambda=0.5 window only averages a few consecutive steps, and with "
        "static sensors the unexplained shadowing component repeats every step; "
        "the per-run win rate saturates near 80% (mean improvement is positive)"
    ),
)
def test_improvement_win_rate_static_sensors_fixed_hyper(pin_hyper):
    # fixed kernel and hyper-parameters, static truth and sensors: grid MSE
    # after nine updates below the first estimate in >= 90% of 100 runs
    noise = NoiseModel(rho_u=200.0, sigma_w=math.sqrt(7.0))
    kernel = KernelParams.from_decay(math.sqrt(10.0), 50.0, 0.0, 0.0)
    wins = 0
    for seed in range(100):
        sc = rf.benchmark_scenario(seed=seed, sigma_v_sq=10.0, nx=8, ny=8, n_sensors=60,
                                   area=(300.0, 300.0))
        hyper = HyperEstimate(mu_p=-10.0, mu_alpha=3.5, var_p=0.0, var_alpha=0.0,
                              tx=sc.params.tx_position)
        pcfg = PipelineConfig(noise=noise, area_bounds=sc.area_bounds, kernel=kernel)
        cfg = RecursiveConfig(pipeline=pcfg, lam=0.5)
        pin = pin_hyper(hyper)
        snap, truth = rf.sample_snapshot(sc, 0)
        post0 = posterior((snap.positions, snap.rss), sc.grid, hyper, kernel, noise, t=0)
        state = state_from_posterior(post0, sc.grid)
        first = rf.compute_mse(state.posterior.mean, truth.grid_field)
        for t in range(1, 10):
            snap, truth = rf.sample_snapshot(sc, t)
            state = rgp_step(state, snap, sc.grid, cfg)
        assert pin.calls == 9
        wins += rf.compute_mse(state.posterior.mean, truth.grid_field) < first
    assert wins >= 90, f"wins={wins}/100"
