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

Each Scenario owns its unit draws (M grid floats, N sensor floats; see
``Draws``), so they live exactly as long as the world. A world whose roster
does not move (Static, Intermittent, PowerSchedule) makes them all at its
first sample and keeps no M x M grid factor L; a Moving world conditions its
roster anew at every step and keeps L for as long as it lives. L is factored
in place in the correlation buffer, V is solved in the buffer of K_gs and L_c
is factored in the buffer of K_ss; neither outlives the draw of its roster.
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
        if not (math.isfinite(self.step_std) and self.step_std >= 0):
            raise ValueError(f"step_std must be finite and >= 0, got {self.step_std!r}")


@dataclass(frozen=True)
class PowerSchedule:
    """Transmit power follows a step function of time."""

    schedule: tuple  # ((t, power_dbm), ...) with strictly increasing t

    def __post_init__(self):
        sched = tuple((int(t), float(p)) for t, p in self.schedule)
        times = [t for t, _ in sched]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("power_schedule times must be strictly increasing")
        if not all(math.isfinite(p) for _, p in sched):
            raise ValueError(f"power_schedule powers must be finite, got {sched!r}")
        object.__setattr__(self, "schedule", sched)


Dynamics = Union[Static, Intermittent, Moving, PowerSchedule]


@dataclass(frozen=True)
class Scenario:
    """Ground-truth world configuration for the synthetic generator.

    The seed (an integer >= 0) roots the seed tree of every draw: sensor
    placement, field, noise and dynamics. Its own ``Draws`` is not a field:
    it is not compared, shown or copied by ``dataclasses.replace``.
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
        if not (math.isfinite(w) and math.isfinite(h) and w > 0 and h > 0):
            raise ValueError(f"area must be finite and positive, got {self.area!r}")
        object.__setattr__(self, "_draws", Draws(keep_factor=isinstance(self.dynamics, Moving)))

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


def _factor_in_place(corr: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of corr + _SHADOW_JITTER I in corr's own buffer,
    after a blocked finiteness scan. corr is exactly symmetric, so its
    F-ordered view is the same matrix and reaches LAPACK without a copy."""
    corr[np.diag_indices_from(corr)] += _SHADOW_JITTER
    check_finite(corr)
    low = cholesky(corr.T, lower=True, overwrite_a=True, check_finite=False)
    check_in_place(low, corr, "potrf")
    return low


def _grid_normals(grid: Grid, seed: int) -> np.ndarray:
    """xi_g: the seed's standard normal vector behind its grid shadowing."""
    return _rng(seed, _K_GRID_FIELD).standard_normal(grid.n_nodes)


def _sensor_factors(low: np.ndarray, grid: Grid, sensor_xy: np.ndarray, d_corr: float) -> tuple:
    """(V, L_c) of the sensor correlation given the grid's, with L L^T = K_gg
    and ``low`` = L.

    V = L^-1 K_gs (M x N) and L_c L_c^T = K_ss - V^T V, the conditional
    correlation, so the joint correlation of [grid; sensors] is
    [[L L^T, L V], [V^T L^T, V^T V + L_c L_c^T]]. V is solved in the buffer
    of K_gs (``gp.solve_w``) and L_c is factored in the buffer of K_ss.
    """
    v = solve_w(low, _correlation(sensor_xy, grid.xy, d_corr))
    cond = _correlation(sensor_xy, sensor_xy, d_corr)
    subtract_gram(cond, v)
    return v, _factor_in_place(cond)


def _unit_sensor_draw(low, grid: Grid, sensor_xy: np.ndarray, d_corr: float, seed: int, step: int) -> np.ndarray:
    """u_s = V^T xi_g + L_c xi_s: the sensor shadowing per unit sigma_v, drawn
    from its exact conditional given the grid's u_g = L xi_g.

    The conditional mean K_sg K_gg^-1 u_g is V^T xi_g, so one triangular solve
    (GPML Algorithm 2.1's V = L^-1 k) stands in for a full solve with K_gg.
    """
    v, low_cond = _sensor_factors(low, grid, sensor_xy, d_corr)
    xi_s = _rng(seed, _K_SENSOR_FIELD, step).standard_normal(sensor_xy.shape[0])
    return matvec(v.T, _grid_normals(grid, seed)) + matvec(low_cond, xi_s)


class Draws:
    """Unit draws of synthetic worlds as (key, array) pairs: the grid draw
    u_g = L xi_g under (grid, d_corr, seed), the roster's sensor draw u_s
    under that key, the roster and the step (t if the roster moves, else 0)
    and, with ``keep_factor``, the grid factor L under (grid, d_corr). A new
    key replaces its entry. Every Scenario owns one; worlds on one grid that
    share one, as a case sweep's do, factor the grid once and draw each
    roster once for every sigma_v."""

    def __init__(self, keep_factor: bool = True):
        self.keep_factor = keep_factor
        self.factor = self.grid = self.sensor = (None, None)

    def unit(self, grid: Grid, roster_xy: np.ndarray, d_corr: float, seed: int, step: int) -> tuple:
        """(u_g, u_s), drawn from L only where the held draw's key differs.
        Each entry is read and replaced as one pair, so a caller always gets
        the draws of its own keys."""
        factor_key = (grid.xy.tobytes(), float(d_corr))
        grid_key = factor_key + (seed,)
        sensor_key = grid_key + (roster_xy.tobytes(), step)
        (held_grid, u_g), (held_sensor, u_s) = self.grid, self.sensor
        if held_grid == grid_key and held_sensor == sensor_key:
            return u_g, u_s
        held_factor, low = self.factor
        if held_factor != factor_key:
            low = _factor_in_place(_correlation(grid.xy, grid.xy, d_corr))
            if self.keep_factor:
                self.factor = (factor_key, low)
        if held_grid != grid_key:
            u_g = matvec(low, _grid_normals(grid, seed))
            self.grid = (grid_key, u_g)
        u_s = _unit_sensor_draw(low, grid, roster_xy, d_corr, seed, step)
        self.sensor = (sensor_key, u_s)
        return u_g, u_s


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


def _shadowing_at(scenario: Scenario, step: _Step, draws: Draws):
    """(v_grid, v_roster) sharing one correlated field.

    The grid component is fixed per scenario seed. The roster's shadowing is
    drawn conditionally on it at the step's conditioning step: once (at the
    base roster) when sensors do not move, per step at the current positions
    when they do.
    """
    p = scenario.params
    if p.sigma_v == 0.0:
        return np.zeros(scenario.grid.n_nodes), np.zeros(scenario.n_sensors)
    u_g, u_s = draws.unit(scenario.grid, step.roster_xy, p.d_corr, scenario.seed, step.shadow_step)
    return p.sigma_v * u_g, p.sigma_v * u_s


def sample_snapshot(scenario: Scenario, t: int = 0, *, draws: Optional[Draws] = None) -> tuple:
    """Draw the measurement snapshot and matching ground truth for step t.

    The truth names the reporting sensors by their roster indices. Reported
    sensor positions are the true positions plus an isotropic Gaussian
    perturbation with per-axis std sigma_d, which makes the reported
    transmitter-distance error std approach sigma_d at distances >> sigma_d.
    The unit draws come from ``draws`` if given, else from the scenario's own.
    """
    p = scenario.params
    step = _advance(scenario, t)
    ids = step.reporting
    v_g, v_roster = _shadowing_at(scenario, step, scenario._draws if draws is None else draws)

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
