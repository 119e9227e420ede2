"""Core domain types and geometric primitives shared by the whole library.

Unit conventions: positions and distances in meters, received power in dBm,
variances in dB^2. The location-error scale ``rho_u`` is kept numerically as
quoted in mdB (dimensionally dB*m: sigma_u = rho_u / d_hat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# Distances are clamped below at this floor (meters) before any logarithm or
# 1/d^2 weighting; the log-distance model diverges as d -> 0.
D_MIN = 1.0

LOG10_E = math.log10(math.e)


class NumericalError(RuntimeError):
    """A covariance factorization failed beyond the jitter ladder, or an error
    bound is not finite."""


def require_finite(obj, *names) -> None:
    """Raise ValueError naming the first of obj's fields that is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Position:
    """A 2-D location in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Fixed, ordered set of nodes where the field is estimated.

    Node order is part of the identity of a run; all field vectors and
    covariance matrices are indexed in this order.
    """

    xy: np.ndarray  # (M, 2) node coordinates, meters

    def __post_init__(self):
        xy = _readonly(self.xy)
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] < 1:
            raise ValueError("grid must be an (M, 2) array with M >= 1")
        if not np.all(np.isfinite(xy)):
            raise ValueError("grid coordinates must be finite")
        m = xy.shape[0]
        if m > 1:
            # reject exact duplicates
            order = np.lexsort((xy[:, 1], xy[:, 0]))
            s = xy[order]
            if np.any(np.all(s[1:] == s[:-1], axis=1)):
                raise ValueError("grid contains duplicate nodes")
        object.__setattr__(self, "xy", xy)

    @property
    def n_nodes(self) -> int:
        return self.xy.shape[0]


def uniform_grid(width: float, height: float, nx: int, ny: int) -> Grid:
    """Regular lattice of nx*ny cell-center nodes covering a width x height area."""
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be >= 1")
    xs = (np.arange(nx) + 0.5) * (width / nx)
    ys = (np.arange(ny) + 0.5) * (height / ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return Grid(np.column_stack([gx.ravel(), gy.ravel()]))


def check_reports(positions, values) -> tuple:
    """(positions, values) of a report set as read-only float copies, (N, 2)
    and (N,), after checking equal lengths, at least one report and finite
    entries (else ValueError). A snapshot and every function that takes a raw
    (positions, rss) tuple check it here, so the two are checked alike."""
    pos = _readonly(positions).reshape(-1, 2)
    vals = _readonly(values).reshape(-1)
    if pos.shape[0] != vals.shape[0]:
        raise ValueError(f"{pos.shape[0]} report positions but {vals.shape[0]} report values")
    if vals.size == 0:
        raise ValueError("a report set needs at least one report, got zero reports")
    if not np.all(np.isfinite(vals)):
        raise ValueError("report values must be finite")
    if not np.all(np.isfinite(pos)):
        raise ValueError("report positions must be finite")
    return pos, vals


@dataclass(frozen=True)
class MeasurementSnapshot:
    """One time step of crowdsourced reports that pass ``check_reports``: at
    least one, each an estimated position and an RSS value. A report carries
    no sensor identity: no estimator reads one, and two reports from one
    sensor are two reports."""

    t: int
    positions: np.ndarray  # (N, 2) reported (estimated) locations, meters
    rss: np.ndarray  # (N,) dBm

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("time index must be >= 0")
        pos, rss = check_reports(self.positions, self.rss)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "rss", rss)

    @property
    def n_sensors(self) -> int:
        return self.rss.shape[0]


@dataclass(frozen=True)
class PropagationParams:
    """Log-distance path-loss world: exponent, EIRP and the noise scales."""

    alpha: float  # path-loss exponent, unitless
    power: float  # EIRP, dBm
    sigma_v: float  # shadowing std, dB
    d_corr: float  # shadowing decorrelation distance, meters
    sigma_w: float  # additive measurement-noise std, dB
    sigma_d: float  # sensor distance-error std, meters
    tx_position: Position

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        for name in ("sigma_v", "sigma_w", "sigma_d"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # the shadowing correlation exp(-d / d_corr) is nan on its diagonal at 0
        if not self.d_corr > 0:
            raise ValueError("d_corr must be > 0")
        require_finite(self, "alpha", "power", "sigma_v", "d_corr", "sigma_w", "sigma_d")


@dataclass(frozen=True)
class NoiseModel:
    """Per-sensor measurement-noise scales.

    Induces the diagonal covariance sigma_w^2 * I + rho_u^2 * diag(1/d_hat^2).
    """

    rho_u: float  # mdB (numerically dB*m); sigma_u = rho_u / d_hat
    sigma_w: float  # dB

    def __post_init__(self):
        for name in ("rho_u", "sigma_w"):
            x = getattr(self, name)
            if x < 0:
                raise ValueError(f"{name} must be >= 0")
            if not math.isfinite(x * x):
                raise ValueError(f"{name} squared must be finite")
        # the largest entry of variances(), at a sensor on the fix
        if not math.isfinite(self.sigma_w**2 + self.rho_u**2 / D_MIN**2):
            raise ValueError("sigma_w^2 + rho_u^2 / D_MIN^2 must be finite")

    def variances(self, d_hat: np.ndarray) -> np.ndarray:
        """Diagonal entries sigma_w^2 + rho_u^2 / d_hat^2 (dB^2)."""
        d = np.asarray(d_hat, dtype=float)
        if np.any(d < D_MIN - 1e-12):
            raise ValueError("d_hat entries must be clamped at the distance floor")
        with np.errstate(over="ignore"):  # d^2 = inf gives the limit rho_u^2 / d^2 = 0
            return self.sigma_w**2 + self.rho_u**2 / d**2


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All Euclidean distances between rows of a (n,2) and b (m,2)."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    return cdist(a, b)


def clamped_distances(points: np.ndarray, origin: Position) -> np.ndarray:
    """Distances from rows of points to origin, clamped below at D_MIN."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    d = np.hypot(pts[:, 0] - origin.x, pts[:, 1] - origin.y)
    return np.maximum(d, D_MIN)


def log_distance_feature(d_hat):
    """10*log10(d_hat); the regressor multiplying the path-loss exponent.

    Keeps the shape of d_hat (a float gives a numpy float). Raises ValueError
    for any nonpositive distance: that signals a sensor colocated with the
    estimated transmitter, and the caller must clamp at D_MIN first.
    """
    d = np.asarray(d_hat, dtype=float)
    if np.any(d <= 0):
        raise ValueError("log-distance feature requires d_hat > 0 (apply the D_MIN floor)")
    return 10.0 * np.log10(d)


def rho_u_from(alpha: float, sigma_d: float) -> float:
    """Location-error scale 10 * alpha * sigma_d * log10(e), in mdB."""
    if alpha < 0 or sigma_d < 0:
        raise ValueError("alpha and sigma_d must be >= 0")
    return 10.0 * alpha * sigma_d * LOG10_E
