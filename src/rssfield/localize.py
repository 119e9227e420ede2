"""Transmitter localization from RSS reports.

A running weighted centroid (weights are the reported powers in linear
units) accumulates every snapshot ever seen. It is the starting fix that
``empbayes.refine_transmitter`` sharpens jointly with the path-loss means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# minimize is unused here; the benchmark tracer resolves it by module name
from scipy.optimize import minimize  # noqa: F401

from .model import MeasurementSnapshot, Position


class NoFixError(RuntimeError):
    """The centroid is undefined: no measurement has ever contributed weight,
    or the weights overflow."""


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
    accumulated weight, so the recursion keeps all past information. Reports
    so strong that a weight or the weighted sum overflows leave no finite
    centroid and raise NoFixError.
    """
    if snapshot.n_sensors == 0:
        return state
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.power(10.0, snapshot.rss / 10.0)
        weighted_sum = state.weighted_sum + w @ snapshot.positions
        total = state.total_weight + float(np.sum(w))
    if not (np.isfinite(weighted_sum).all() and np.isfinite(total)):
        raise NoFixError(f"reported powers up to {np.max(snapshot.rss):g} dBm overflow the centroid weights")
    if total <= 0.0:
        return CentroidState(weighted_sum=weighted_sum, total_weight=total, estimate=None)
    est = weighted_sum / total
    return CentroidState(
        weighted_sum=weighted_sum,
        total_weight=total,
        estimate=Position(float(est[0]), float(est[1])),
    )

