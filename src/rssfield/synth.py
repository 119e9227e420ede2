"""Synthetic ground-truth fields and noisy crowdsourced measurements.

The generator realizes one spatially correlated shadowing field per scenario
seed. With L L^T = K_gg the grid's correlation, the grid component is
sigma_v L xi_g, drawn once per seed, and sensor shadowing is drawn from its
exact conditional given the grid: sigma_v (V^T xi_g + L_c xi_s), where
V = L^-1 K_gs takes one triangular solve and L_c L_c^T = K_ss - V^T V. So the
joint law over nodes and sensors is the exponential-covariance Gaussian.
Every stochastic draw is keyed off a seed tree (scenario seed x purpose x
time step), so replicates and steps are bit-reproducible and
order-independent on a fixed BLAS build and thread count. OpenBLAS's potrf
and syrk split their work differently at different thread counts, so
reference-size snapshots hash differently at OPENBLAS_NUM_THREADS=1 and =2;
the library sets no thread count.

The generator caches one world's unit draws (M grid floats, N sensor
floats), not the M x M grid factor L that made them (keys and reasons at the
caches below). L is factored in place in the correlation buffer, and a world
whose roster does not move (Static, Intermittent, PowerSchedule) releases it
when sampled at t >= 1; a case sweep and a Moving world keep it. V is solved
in the buffer of K_gs and L_c is factored in the buffer of K_ss; neither
outlives the draw of its roster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import cholesky

from .gp import check_finite, check_in_place, matvec, solve_w, subtract_gram
from .model import (
    Grid,
    MeasurementSnapshot,
    Position,
    PropagationParams,
    clamped_distances,
    distance_matrix,
    uniform_grid,
)

# seed-tree purpose keys
_K_PLACE = 0
_K_GRID_FIELD = 1
_K_SENSOR_FIELD = 2
_K_NOISE = 3
_K_POS_ERR = 4
_K_DROP = 5
_K_MOVE = 6

_SHADOW_JITTER = 1e-8  # relative diagonal jitter on correlation matrices


@dataclass(frozen=True)
class Static:
    """Sensors and transmit power fixed over time."""


@dataclass(frozen=True)
class Intermittent:
    """A random fraction of sensors is unavailable at each step t >= 1."""

    drop_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.drop_fraction < 1.0:
            raise ValueError("drop_fraction must be in [0, 1)")


@dataclass(frozen=True)
class Moving:
    """Sensors take an independent Gaussian random-walk step each t >= 1."""

    step_std: float  # meters, per axis

    def __post_init__(self):
        if self.step_std < 0:
            raise ValueError("step_std must be >= 0")


@dataclass(frozen=True)
class PowerSchedule:
    """Transmit power follows a step function of time."""

    schedule: tuple  # ((t, power_dbm), ...) with strictly increasing t

    def __post_init__(self):
        sched = tuple((int(t), float(p)) for t, p in self.schedule)
        times = [t for t, _ in sched]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("power_schedule times must be strictly increasing")
        object.__setattr__(self, "schedule", sched)


Dynamics = Union[Static, Intermittent, Moving, PowerSchedule]


@dataclass(frozen=True)
class Scenario:
    """Ground-truth world configuration for the synthetic generator.

    The seed (an integer >= 0) roots the seed tree of every draw: sensor
    placement, field, noise and dynamics.
    """

    params: PropagationParams
    grid: Grid
    area: tuple  # (width, height), meters
    n_sensors: int
    seed: int
    dynamics: Dynamics = Static()

    def __post_init__(self):
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ValueError("area must be positive")

    @property
    def area_bounds(self) -> tuple:
        w, h = self.area
        return ((0.0, float(w)), (0.0, float(h)))


@dataclass(frozen=True)
class GroundTruth:
    """The latent world behind one snapshot."""

    grid_field: np.ndarray  # (M,) true RSS at the grid nodes, dBm
    sensor_ids: np.ndarray  # (N,) int, the reporting sensors' indices in the roster
    sensor_true_positions: np.ndarray  # (N, 2)
    sensor_shadowing: np.ndarray  # (N,) dB


@dataclass(frozen=True)
class _Step:
    """The world at one time step: the roster, which of it reports, the power
    and the roster step its sensor shadowing is conditioned on."""

    roster_xy: np.ndarray  # (n_sensors, 2) true positions
    reporting: np.ndarray  # (n_report,) int indices into the roster, ascending
    power: float  # dBm
    shadow_step: int  # t for a moving roster, 0 otherwise


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _correlation(a_xy, b_xy, d_corr: float) -> np.ndarray:
    """Shadowing correlation exp(-d_ij / d_corr), in the distance buffer."""
    corr = distance_matrix(a_xy, b_xy)
    corr /= -d_corr
    np.exp(corr, out=corr)
    return corr


# One world's draws at a time, each under its key: every workload and
# subcommand draws from one grid and one sensor roster at a time, so a second
# slot would only hold entries that are never read again, and a new key drops
# the old entry before its replacement is built.
# - _grid_draw: the unit grid draw u_g = L xi_g (M floats), keyed on
#   (grid, d_corr, seed); the grid shadowing is sigma_v u_g.
# - _sensor_draw: the unit sensor draw u_s (N floats, see _unit_sensor_draw),
#   keyed on (grid, roster, d_corr, seed, step); the step is t for a Moving
#   world and 0 otherwise. The sensor shadowing is sigma_v u_s, so a sweep
#   over sigma_v^2 factors each roster's conditional once.
# - _grid_factor: the grid correlation's Cholesky factor L (M x M), keyed on
#   (grid, d_corr). Only the two entries above read it, so a world whose
#   roster does not move drops it when sampled at t >= 1: from then on that
#   world reads only its draws. A case sweep samples only t = 0 and keeps L
#   for the next replicate's world on the same grid; moving sensors need a new
#   conditional every step and keep it too.
_grid_factor: dict = {}
_grid_draw: dict = {}
_sensor_draw: dict = {}


def _factor_in_place(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of corr + _SHADOW_JITTER I in corr's own buffer,
    after a blocked finiteness scan. corr is exactly symmetric, so its
    F-ordered view is the same matrix and reaches LAPACK without a copy."""
    corr[np.diag_indices_from(corr)] += _SHADOW_JITTER
    check_finite(corr)
    low = cholesky(corr.T, lower=True, overwrite_a=True, check_finite=False)
    check_in_place(low, corr, "potrf")
    return low


def _grid_corr_chol(grid: Grid, d_corr: float) -> np.ndarray:
    key = (grid.xy.tobytes(), float(d_corr))
    if key not in _grid_factor:
        _grid_factor.clear()
        _grid_factor[key] = _factor_in_place(_correlation(grid.xy, grid.xy, d_corr))
    return _grid_factor[key]


def _grid_normals(grid: Grid, seed: int) -> np.ndarray:
    """xi_g: the seed's standard normal vector behind its grid shadowing."""
    return _rng(seed, _K_GRID_FIELD).standard_normal(grid.n_nodes)


def _unit_grid_draw(grid: Grid, d_corr: float, seed: int) -> np.ndarray:
    """u_g = L xi_g: the grid shadowing of the seed's world per unit sigma_v."""
    key = (grid.xy.tobytes(), float(d_corr), seed)
    if key not in _grid_draw:
        _grid_draw.clear()
        _grid_draw[key] = matvec(_grid_corr_chol(grid, d_corr), _grid_normals(grid, seed))
    return _grid_draw[key]


def _sensor_factors(grid: Grid, sensor_xy: np.ndarray, d_corr: float) -> tuple:
    """(V, L_c) of the sensor correlation given the grid's, with L L^T = K_gg.

    V = L^-1 K_gs (M x N) and L_c L_c^T = K_ss - V^T V, the conditional
    correlation, so the joint correlation of [grid; sensors] is
    [[L L^T, L V], [V^T L^T, V^T V + L_c L_c^T]]. V is solved in the buffer
    of K_gs (``gp.solve_w``) and L_c is factored in the buffer of K_ss.
    """
    v = solve_w(_grid_corr_chol(grid, d_corr), _correlation(sensor_xy, grid.xy, d_corr))
    cond = _correlation(sensor_xy, sensor_xy, d_corr)
    subtract_gram(cond, v)
    return v, _factor_in_place(cond)


def _unit_sensor_draw(grid: Grid, sensor_xy: np.ndarray, d_corr: float, seed: int, step: int) -> np.ndarray:
    """u_s = V^T xi_g + L_c xi_s: the sensor shadowing per unit sigma_v, drawn
    from its exact conditional given the grid's u_g = L xi_g.

    The conditional mean K_sg K_gg^-1 u_g is V^T xi_g, so one triangular solve
    (GPML Algorithm 2.1's V = L^-1 k) stands in for a full solve with K_gg.
    """
    key = (grid.xy.tobytes(), sensor_xy.tobytes(), float(d_corr), seed, step)
    if key not in _sensor_draw:
        _sensor_draw.clear()
        v, low_cond = _sensor_factors(grid, sensor_xy, d_corr)
        xi_s = _rng(seed, _K_SENSOR_FIELD, step).standard_normal(sensor_xy.shape[0])
        _sensor_draw[key] = matvec(v.T, _grid_normals(grid, seed)) + matvec(low_cond, xi_s)
    return _sensor_draw[key]


def base_positions(scenario: Scenario) -> np.ndarray:
    """Base (t=0) true sensor positions, uniform over the area."""
    w, h = scenario.area
    rng = _rng(scenario.seed, _K_PLACE)
    return rng.uniform([0.0, 0.0], [w, h], size=(scenario.n_sensors, 2))


def _advance(scenario: Scenario, t: int) -> _Step:
    """The roster, its reporting sensors and the transmit power at step t.

    Moving sensors follow a random walk, so positions at t are reconstructed
    by accumulating the per-step displacements 1..t from the seed tree.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    roster = base_positions(scenario)
    n = roster.shape[0]
    reporting = np.arange(n)
    power = scenario.params.power
    dyn = scenario.dynamics

    if isinstance(dyn, Moving):
        if dyn.step_std > 0:
            for s in range(1, t + 1):
                roster = roster + _rng(scenario.seed, _K_MOVE, s).normal(0.0, dyn.step_std, size=(n, 2))
        return _Step(roster, reporting, power, t)
    if isinstance(dyn, PowerSchedule):
        for ts, p in dyn.schedule:
            if ts <= t:
                power = p
    if isinstance(dyn, Intermittent) and t >= 1:
        n_report = math.ceil((1.0 - dyn.drop_fraction) * n)
        reporting = np.sort(_rng(scenario.seed, _K_DROP, t).choice(n, size=n_report, replace=False))
    return _Step(roster, reporting, power, 0)


def _shadowing_at(scenario: Scenario, t: int, step: _Step):
    """(v_grid, v_roster) sharing one correlated field.

    The grid component is fixed per scenario seed. The roster's shadowing is
    drawn conditionally on it at the step's conditioning step: once (at the
    base roster) when sensors do not move, per step at the current positions
    when they do.
    """
    p = scenario.params
    if p.sigma_v == 0.0:
        return np.zeros(scenario.grid.n_nodes), np.zeros(scenario.n_sensors)
    u_g = _unit_grid_draw(scenario.grid, p.d_corr, scenario.seed)
    u_s = _unit_sensor_draw(scenario.grid, step.roster_xy, p.d_corr, scenario.seed, step.shadow_step)
    if t >= 1 and step.shadow_step == 0:
        _grid_factor.clear()  # this world reads only its cached draws from now on
    return p.sigma_v * u_g, p.sigma_v * u_s


def sample_snapshot(scenario: Scenario, t: int = 0) -> tuple:
    """Draw the measurement snapshot and matching ground truth for step t.

    The truth names the reporting sensors by their roster indices. Reported
    sensor positions are the true positions plus an isotropic Gaussian
    perturbation with per-axis std sigma_d, which makes the reported
    transmitter-distance error std approach sigma_d at distances >> sigma_d.
    """
    p = scenario.params
    step = _advance(scenario, t)
    ids = step.reporting
    v_g, v_roster = _shadowing_at(scenario, t, step)

    d_grid = clamped_distances(scenario.grid.xy, p.tx_position)
    grid_field = step.power - 10.0 * p.alpha * np.log10(d_grid) + v_g

    true_xy = step.roster_xy[ids]
    v_s = v_roster[ids]
    n_roster = scenario.n_sensors
    w_noise = _rng(scenario.seed, _K_NOISE, t).normal(0.0, p.sigma_w, size=n_roster)[ids]
    d_true = clamped_distances(true_xy, p.tx_position)
    rss = step.power - 10.0 * p.alpha * np.log10(d_true) + v_s + w_noise

    pos_err = _rng(scenario.seed, _K_POS_ERR, t).normal(0.0, p.sigma_d, size=(n_roster, 2))[ids]
    reported_xy = true_xy + pos_err

    snapshot = MeasurementSnapshot(t=t, positions=reported_xy, rss=rss)
    truth = GroundTruth(
        grid_field=grid_field,
        sensor_ids=ids,
        sensor_true_positions=true_xy,
        sensor_shadowing=v_s,
    )
    return snapshot, truth


def benchmark_scenario(
    seed: int = 0,
    *,
    sigma_v_sq: float = 10.0,
    sigma_w: float = math.sqrt(7.0),
    sigma_d: float = 13.16,
    alpha: float = 3.5,
    power: float = -10.0,
    d_corr: float = 50.0,
    area: tuple = (500.0, 500.0),
    nx: int = 32,
    ny: int = 34,
    n_sensors: int = 218,
    dynamics: Dynamics = Static(),
    tx: Optional[Position] = None,
) -> Scenario:
    """Reference synthetic setup: 500 m x 500 m, 1088-node grid, 218 sensors,
    transmitter at the area center."""
    w, h = area
    if tx is None:
        tx = Position(w / 2.0, h / 2.0)
    params = PropagationParams(
        alpha=alpha,
        power=power,
        sigma_v=math.sqrt(sigma_v_sq),
        d_corr=d_corr,
        sigma_w=sigma_w,
        sigma_d=sigma_d,
        tx_position=tx,
    )
    return Scenario(
        params=params,
        grid=uniform_grid(w, h, nx, ny),
        area=(float(w), float(h)),
        n_sensors=n_sensors,
        seed=seed,
        dynamics=dynamics,
    )
