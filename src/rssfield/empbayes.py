"""Empirical-Bayes estimation of the path-loss hyper-parameters.

The means of the exponent and the transmitted power come from a weighted
least-squares fit of the log-distance model (weights d_hat^2, so reports far
from the transmitter dominate and badly located nearby sensors cannot skew
the fit); their variances from a nonnegative fit of the residual outer
product (or, when the shadowing parameters are unknown, the constant
KERNEL_PATH_VAR); and the transmitter fix is sharpened by alternating the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import MeasurementSnapshot, Position, log_distance_feature
from .localize import CentroidState, centroid_update, distances_to_estimate, refine_transmitter

ALPHA_MIN = 2.0
# var_p and var_alpha when the shadowing parameters are unknown (the kernel
# variance path). Fitting them by marginal likelihood next to the kernel scales
# drove both to this value, the lower bound of that fit, on every measured
# snapshot: the means were just fitted to the same residuals, so the
# likelihood carries no information on those two directions.
KERNEL_PATH_VAR = 1e-4


class DegenerateFitError(ValueError):
    """The design is rank deficient (too few sensors or constant feature)."""


@dataclass(frozen=True)
class HyperEstimate:
    """Estimated hyper-parameters of the propagation prior.

    var_p / var_alpha come from ``estimate_variances`` when the shadowing
    parameters are known and are KERNEL_PATH_VAR otherwise (see
    ``hyper_at``); the kernel fit freezes its rank-one and constant terms
    at them.
    """

    mu_p: float  # dBm
    mu_alpha: float  # unitless, >= ALPHA_MIN
    var_p: float  # dBm^2
    var_alpha: float  # unitless^2
    tx: Position

    def __post_init__(self):
        if self.mu_alpha < ALPHA_MIN - 1e-12:
            raise ValueError("mu_alpha must be >= 2")
        if min(self.var_p, self.var_alpha) < 0:
            raise ValueError("variances must be >= 0")


def estimate_means(z, q_hat, d_hat) -> tuple:
    """Weighted least squares for (mu_p, mu_alpha), subject to mu_alpha >= 2.

    Minimizes sum_i d_hat_i^2 (mu_p - q_i mu_alpha - z_i)^2. The constrained
    solution is exact: if the unconstrained minimizer violates the exponent
    floor, mu_alpha is pinned at 2 and mu_p re-solved in closed form.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    q = np.asarray(q_hat, dtype=float).reshape(-1)
    d = np.asarray(d_hat, dtype=float).reshape(-1)
    n = z.shape[0]
    if not (q.shape[0] == n and d.shape[0] == n):
        raise ValueError("z, q_hat and d_hat must have equal length")
    if n < 2:
        raise DegenerateFitError("need at least 2 sensors to fit (mu_p, mu_alpha)")
    w = d**2
    sw = float(np.sum(w))
    sq = float(np.sum(w * q))
    sqq = float(np.sum(w * q * q))
    sz = float(np.sum(w * z))
    sqz = float(np.sum(w * q * z))
    det = sw * sqq - sq * sq
    if det <= 1e-12 * max(sw * sqq, 1.0):
        raise DegenerateFitError(
            "rank-deficient design: log-distance feature is constant across sensors"
        )
    # normal equations of [1, -q] against z with weights w
    mu_p = (sz * sqq - sq * sqz) / det
    mu_alpha = (sq * sz - sw * sqz) / det
    if mu_alpha < ALPHA_MIN:
        mu_alpha = ALPHA_MIN
        mu_p = (sz + ALPHA_MIN * sq) / sw
    return float(mu_p), float(mu_alpha)


def estimate_variances(z, mu_p, mu_alpha, q_hat, known_var) -> tuple:
    """Nonnegative least squares for (var_p, var_alpha).

    Fits the element-wise squared residuals, less the known per-sensor
    measurement variances ``known_var``, against the columns [1, q_hat^2].
    Solved exactly: the unconstrained 2x2 solution if feasible, else the best
    of the three boundary candidates.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    q = np.asarray(q_hat, dtype=float).reshape(-1)
    known = np.asarray(known_var, dtype=float).reshape(-1)
    resid = z - (mu_p - q * mu_alpha)
    a = resid**2 - known
    b = q**2

    n = float(z.shape[0])
    sb = float(np.sum(b))
    sbb = float(np.sum(b * b))
    sa = float(np.sum(a))
    sba = float(np.sum(b * a))

    def objective(vp, va):
        r = vp + va * b - a
        return float(r @ r)

    candidates = []
    det = n * sbb - sb * sb
    if det > 1e-12 * max(n * sbb, 1.0):
        vp = (sa * sbb - sb * sba) / det
        va = (n * sba - sb * sa) / det
        if vp >= 0 and va >= 0:
            candidates.append((vp, va))
    candidates.append((max(sa / n, 0.0), 0.0))
    if sbb > 0:
        candidates.append((0.0, max(sba / sbb, 0.0)))
    candidates.append((0.0, 0.0))
    vp, va = min(candidates, key=lambda c: objective(*c))
    return float(vp), float(va)


def hyper_at(z, mu_p, mu_alpha, d_hat, tx: Position, sigma_z_given: Optional[Callable]) -> HyperEstimate:
    """HyperEstimate at the fix tx with the means already fitted.

    With ``sigma_z_given`` (a callable of d_hat giving the known per-sensor
    measurement variances) the variances come from ``estimate_variances``;
    without it both are KERNEL_PATH_VAR.
    """
    if sigma_z_given is None:
        var_p = var_alpha = KERNEL_PATH_VAR
    else:
        q_hat = log_distance_feature(d_hat)
        var_p, var_alpha = estimate_variances(z, mu_p, mu_alpha, q_hat, sigma_z_given(d_hat))
    return HyperEstimate(mu_p=mu_p, mu_alpha=mu_alpha, var_p=var_p, var_alpha=var_alpha, tx=tx)


def refine_all(
    snapshot: MeasurementSnapshot,
    centroid_state: CentroidState,
    *,
    area_bounds=None,
    passes: int = 10,
    tol: float = 1e-9,
    sigma_z_given: Optional[Callable] = None,
) -> tuple:
    """Full hyper-parameter pass: centroid -> means -> refine x0 -> means.

    The refine/re-estimate alternation is repeated until the fix moves less
    than ``tol`` meters or ``passes`` is exhausted (a single alternation does
    not reach the noise-free fixed point). Returns (HyperEstimate, new
    CentroidState); the refined fix is folded back into the centroid state so
    the recursion carries the best available estimate forward.

    The variances follow ``hyper_at``. ``sigma_z_given`` maps the final
    distance vector to the known per-sensor measurement variances (known
    shadowing parameters; the location-error part depends on the refined
    fix).
    """
    if snapshot.n_sensors == 0:
        raise DegenerateFitError("snapshot is empty")
    state = centroid_update(centroid_state, snapshot)
    tx = state.estimate
    d_hat = distances_to_estimate(state, snapshot.positions)
    q_hat = log_distance_feature(d_hat)
    mu_p, mu_alpha = estimate_means(snapshot.rss, q_hat, d_hat)

    for _ in range(max(passes, 0)):
        refined, degenerate = refine_transmitter(
            snapshot, snapshot.positions, mu_p, mu_alpha, tx, area_bounds=area_bounds
        )
        moved = np.hypot(refined.x - tx.x, refined.y - tx.y)
        tx = refined
        state = state.with_estimate(tx)
        d_hat = distances_to_estimate(state, snapshot.positions)
        q_hat = log_distance_feature(d_hat)
        mu_p, mu_alpha = estimate_means(snapshot.rss, q_hat, d_hat)
        if degenerate or moved < tol:
            break

    return hyper_at(snapshot.rss, mu_p, mu_alpha, d_hat, tx, sigma_z_given), state
