"""Synthetic ground-truth fields and noisy crowdsourced measurements.

The generator realizes one spatially correlated shadowing field per scenario
seed: the grid component is drawn once and sensor shadowing is drawn from its
exact conditional given the grid, so the joint law over sensors and nodes is
the exponential-covariance Gaussian. Every stochastic draw is keyed off a
seed tree (scenario seed x purpose x time step), so replicates and steps are
bit-reproducible and order-independent on a fixed BLAS build and thread
count. The sensor conditional's threaded matrix product is split differently
at different thread counts, so reference-size snapshots hash differently at
OPENBLAS_NUM_THREADS=1 and =2; the library sets no thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import cho_solve, cholesky

from .gp import matvec
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
    """Ground-truth world configuration for the synthetic generator."""

    params: PropagationParams
    grid: Grid
    area: tuple  # (width, height), meters
    n_sensors: int
    seed: int
    dynamics: Dynamics = Static()
    # Optional fixed base placement (n_sensors, 2); when given, the seed
    # governs only the field and noise draws (used for fixed-geometry replays).
    sensor_positions: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_sensors < 0:
            raise ValueError("n_sensors must be >= 0")
        w, h = self.area
        if w <= 0 or h <= 0:
            raise ValueError("area must be positive")
        if self.sensor_positions is not None:
            pos = np.asarray(self.sensor_positions, dtype=float).reshape(-1, 2)
            if pos.shape[0] != self.n_sensors:
                raise ValueError("sensor_positions length must equal n_sensors")
            pos = pos.copy()
            pos.setflags(write=False)
            object.__setattr__(self, "sensor_positions", pos)

    @property
    def area_bounds(self) -> tuple:
        w, h = self.area
        return ((0.0, float(w)), (0.0, float(h)))


@dataclass(frozen=True)
class GroundTruth:
    """The latent world behind one snapshot."""

    grid_field: np.ndarray  # (M,) true RSS at the grid nodes, dBm
    sensor_true_positions: np.ndarray  # (N, 2)
    sensor_shadowing: np.ndarray  # (N,) dB


@dataclass(frozen=True)
class StepWorld:
    """Effective sensor roster and transmit power at one time step."""

    active_ids: tuple
    true_positions: np.ndarray  # (n_active, 2)
    power: float  # dBm


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _correlation(a_xy, b_xy, d_corr: float) -> np.ndarray:
    """Shadowing correlation exp(-d_ij / d_corr), in the distance buffer."""
    corr = distance_matrix(a_xy, b_xy)
    corr /= -d_corr
    np.exp(corr, out=corr)
    return corr


class _FifoCache:
    """Bounded cache keyed by byte fingerprints of numpy arrays; when full it
    evicts the oldest insertion, whatever was read since."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: dict = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value):
        if key not in self._data and len(self._data) >= self.maxsize:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value


_grid_chol_cache = _FifoCache(4)
_cond_cache = _FifoCache(4)


def _grid_corr_chol(grid: Grid, d_corr: float) -> np.ndarray:
    key = (grid.xy.tobytes(), float(d_corr))
    hit = _grid_chol_cache.get(key)
    if hit is not None:
        return hit
    corr = _correlation(grid.xy, grid.xy, d_corr)
    corr[np.diag_indices_from(corr)] += _SHADOW_JITTER
    # corr is exactly symmetric, so its F-ordered view is the same matrix and
    # reaches LAPACK without a transposing copy
    low = cholesky(corr.T, lower=True)
    _grid_chol_cache.put(key, low)
    return low


def _sensor_conditional(grid: Grid, sensor_xy: np.ndarray, d_corr: float):
    """W and chol factor of the sensor-correlation conditional on the grid.

    v_S | v_g ~ N(W^T v_g, sigma_v^2 * L L^T) on the correlation scale.
    """
    key = (grid.xy.tobytes(), sensor_xy.tobytes(), float(d_corr))
    hit = _cond_cache.get(key)
    if hit is not None:
        return hit
    low_gg = _grid_corr_chol(grid, d_corr)
    corr_gs = _correlation(grid.xy, sensor_xy, d_corr)
    w = cho_solve((low_gg, True), corr_gs)  # (M, N), F-ordered
    cond = _correlation(sensor_xy, sensor_xy, d_corr)
    # numpy's BLAS on purpose: scipy's OpenBLAS splits this threaded product
    # differently, which would change every snapshot's bits; runs once per roster
    cond -= corr_gs.T @ w
    cond[np.diag_indices_from(cond)] += _SHADOW_JITTER
    # cond is C-ordered on purpose: the product above leaves it only nearly
    # symmetric, and the factor must read its lower triangle as before
    low_cond = cholesky(cond, lower=True)
    _cond_cache.put(key, (w, low_cond))
    return w, low_cond


def base_positions(scenario: Scenario) -> np.ndarray:
    """Base (t=0) true sensor positions: fixed override or uniform placement."""
    if scenario.sensor_positions is not None:
        return np.array(scenario.sensor_positions)
    w, h = scenario.area
    rng = _rng(scenario.seed, _K_PLACE)
    return rng.uniform([0.0, 0.0], [w, h], size=(scenario.n_sensors, 2))


def advance_dynamics(scenario: Scenario, t: int) -> StepWorld:
    """Effective sensor set, true positions and transmit power at step t.

    Moving sensors follow a random walk, so positions at t are reconstructed
    by accumulating the per-step displacements 1..t from the seed tree.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    base = base_positions(scenario)
    n = base.shape[0]
    ids = tuple(range(n))
    power = scenario.params.power
    dyn = scenario.dynamics

    if isinstance(dyn, PowerSchedule):
        for ts, p in dyn.schedule:
            if ts <= t:
                power = p
        return StepWorld(ids, base, power)

    if isinstance(dyn, Moving):
        pos = base
        if dyn.step_std > 0:
            for s in range(1, t + 1):
                step = _rng(scenario.seed, _K_MOVE, s).normal(0.0, dyn.step_std, size=(n, 2))
                pos = pos + step
        return StepWorld(ids, pos, power)

    if isinstance(dyn, Intermittent) and t >= 1 and n > 0:
        n_report = math.ceil((1.0 - dyn.drop_fraction) * n)
        keep = _rng(scenario.seed, _K_DROP, t).choice(n, size=n_report, replace=False)
        keep = np.sort(keep)
        return StepWorld(tuple(int(i) for i in keep), base[keep], power)

    return StepWorld(ids, base, power)


def _shadowing_at(scenario: Scenario, t: int, sensor_xy: np.ndarray):
    """(v_grid, v_sensors) sharing one correlated field.

    The grid component is fixed per scenario seed. Sensor shadowing is drawn
    conditionally on it: once (at the base roster) when sensors do not move,
    per step at the current positions when they do.
    """
    p = scenario.params
    m = scenario.grid.n_nodes
    if p.sigma_v == 0.0:
        return np.zeros(m), np.zeros(sensor_xy.shape[0])
    low_gg = _grid_corr_chol(scenario.grid, p.d_corr)
    v_g = p.sigma_v * matvec(low_gg, _rng(scenario.seed, _K_GRID_FIELD).standard_normal(m))
    if sensor_xy.shape[0] == 0:
        return v_g, np.zeros(0)
    field_step = t if isinstance(scenario.dynamics, Moving) else 0
    w, low_cond = _sensor_conditional(scenario.grid, sensor_xy, p.d_corr)
    xi = _rng(scenario.seed, _K_SENSOR_FIELD, field_step).standard_normal(sensor_xy.shape[0])
    v_s = matvec(w.T, v_g) + p.sigma_v * matvec(low_cond, xi)
    return v_g, v_s


def sample_snapshot(scenario: Scenario, t: int = 0) -> tuple:
    """Draw the measurement snapshot and matching ground truth for step t.

    Reported sensor positions are the true positions plus an isotropic
    Gaussian perturbation with per-axis std sigma_d, which makes the reported
    transmitter-distance error std approach sigma_d at distances >> sigma_d.
    """
    p = scenario.params
    world = advance_dynamics(scenario, t)

    # moving sensors need conditional shadowing for the full roster at their
    # current positions; static rosters reuse the t=0 draw (active subset below)
    roster_xy = world.true_positions if isinstance(scenario.dynamics, Moving) else base_positions(scenario)
    active = np.asarray(world.active_ids, dtype=int)

    v_g, v_roster = _shadowing_at(scenario, t, roster_xy)

    d_grid = clamped_distances(scenario.grid.xy, p.tx_position)
    grid_field = world.power - 10.0 * p.alpha * np.log10(d_grid) + v_g

    true_xy = roster_xy[active]
    v_s = v_roster[active]
    n_roster = roster_xy.shape[0]
    w_noise = _rng(scenario.seed, _K_NOISE, t).normal(0.0, p.sigma_w, size=n_roster)[active]
    d_true = clamped_distances(true_xy, p.tx_position)
    rss = world.power - 10.0 * p.alpha * np.log10(d_true) + v_s + w_noise

    pos_err = _rng(scenario.seed, _K_POS_ERR, t).normal(0.0, p.sigma_d, size=(n_roster, 2))[active]
    reported_xy = true_xy + pos_err

    snapshot = MeasurementSnapshot(
        t=t,
        sensor_ids=tuple(int(i) for i in active),
        positions=reported_xy,
        rss=rss,
    )
    truth = GroundTruth(
        grid_field=grid_field,
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
    sensor_positions: Optional[np.ndarray] = None,
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
        sensor_positions=sensor_positions,
    )
