"""Transmitter localization from RSS reports.

A running weighted centroid (weights are the reported powers in linear
units) accumulates every snapshot ever seen. It carries only a fix and the
weight behind it: the fix stands for all earlier reports, so a new
snapshot's reports are averaged with it at that weight. It is the starting
fix that ``empbayes.refine_transmitter`` sharpens jointly with the path-loss
means, and ``empbayes.refine_all`` carries the sharpened fix forward in its
place.
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
    """The recursive weighted centroid's carried memory: the current fix and
    the linear-power weight behind it. ``CentroidState()`` has seen nothing."""

    estimate: Optional[Position] = None
    total_weight: float = 0.0  # linear-power units

    def __post_init__(self):
        if self.total_weight < 0:
            raise ValueError("total_weight must be >= 0")

    @property
    def has_fix(self) -> bool:
        return self.estimate is not None


def centroid_update(state: CentroidState, snapshot: MeasurementSnapshot) -> CentroidState:
    """Fold one snapshot into the running weighted centroid.

    Weights are w_i = 10^(z_i / 10); the previous estimate enters with the
    accumulated weight W, so the new estimate is
    (estimate * W + sum w_i x_i) / (W + sum w_i) and the recursion keeps all
    past information. Reports so strong that a weight or the weighted sum
    overflows leave no finite centroid and raise NoFixError.
    """
    carried = state.estimate.as_array() if state.has_fix else np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.power(10.0, snapshot.rss / 10.0)
        weighted_sum = carried * state.total_weight + w @ snapshot.positions
        total = state.total_weight + float(np.sum(w))
    if not (np.isfinite(weighted_sum).all() and np.isfinite(total)):
        raise NoFixError(f"reported powers up to {np.max(snapshot.rss):g} dBm overflow the centroid weights")
    if total <= 0.0:
        return CentroidState(total_weight=total)
    est = weighted_sum / total
    return CentroidState(Position(float(est[0]), float(est[1])), total)
