"""Empirical-Bayes estimation of the path-loss hyper-parameters.

The means of the exponent and the transmitted power come from a weighted
least-squares fit of the log-distance model (weights d_hat^2, so reports far
from the transmitter dominate and badly located nearby sensors cannot skew
the fit); their variances from a nonnegative fit of the residual outer
product (or, when the shadowing parameters are unknown, the constant
KERNEL_PATH_VAR). The transmitter fix is sharpened from the same reports:
given the fix the means are linear, so they are profiled out (variable
projection) and one bounded least-squares solve moves the fix alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .model import MeasurementSnapshot, Position, clamped_distances, log_distance_feature
from .localize import CentroidState, NoFixError, centroid_update

ALPHA_MIN = 2.0
# var_p and var_alpha when the shadowing parameters are unknown (the kernel
# variance path). Fitting them by marginal likelihood next to the kernel scales
# drove both to this value, the lower bound of that fit, on every measured
# snapshot: the means were just fitted to the same residuals, so the
# likelihood carries no information on those two directions.
KERNEL_PATH_VAR = 1e-4
# Stopping tolerance of the fix solve on the relative change of the cost, the
# relative step and the scaled gradient. Started at the centroid of 18
# reference-size snapshots, 1e-12 stops within 5e-5 m of a converged
# Nelder-Mead search from the fix (1e-10: 1.2e-4 m) after a median of 11.5
# residual evaluations, those of the forward-difference Jacobian included.
_FIX_TOL = 1e-12


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
    Distances whose weighted sums overflow raise DegenerateFitError.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    q = np.asarray(q_hat, dtype=float).reshape(-1)
    d = np.asarray(d_hat, dtype=float).reshape(-1)
    n = z.shape[0]
    if not (q.shape[0] == n and d.shape[0] == n):
        raise ValueError("z, q_hat and d_hat must have equal length")
    if n < 2:
        raise DegenerateFitError("need at least 2 sensors to fit (mu_p, mu_alpha)")
    with np.errstate(over="ignore", invalid="ignore"):
        w = d**2
        sw = float(np.sum(w))
        sq = float(np.sum(w * q))
        sqq = float(np.sum(w * q * q))
        sz = float(np.sum(w * z))
        sqz = float(np.sum(w * q * z))
    det = sw * sqq - sq * sq
    if not np.isfinite(det):
        raise DegenerateFitError(f"sensors up to {np.max(d):g} m from the fix overflow the weighted means' sums")
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
    of the three boundary candidates. Squared residuals whose own sum of
    squares overflows raise DegenerateFitError: that sum is the objective at
    (0, 0), and it bounds the objective of every other candidate. Known
    variances whose sum of squares overflows raise it first, naming them.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    q = np.asarray(q_hat, dtype=float).reshape(-1)
    known = np.asarray(known_var, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        sum_known_sq = np.sum(np.square(known))
    if not np.isfinite(sum_known_sq):
        raise DegenerateFitError(
            f"known measurement variances up to {np.max(known):g} dB^2 overflow the variance fit's fourth powers"
        )
    resid = z - (mu_p - q * mu_alpha)
    a = resid**2 - known
    b = q**2
    with np.errstate(over="ignore"):
        sum_a_sq = np.sum(np.square(a))
    if not np.isfinite(sum_a_sq):
        raise DegenerateFitError(f"reports up to {np.max(np.abs(z)):g} dBm overflow the variance fit's fourth powers")

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


def hyper_at(snapshot: MeasurementSnapshot, tx: Position, known_var=None) -> HyperEstimate:
    """HyperEstimate at the fix tx: the means by ``estimate_means`` at the
    clamped distances to tx, then the variances.

    With ``known_var`` (the known per-sensor measurement variances at those
    distances) the variances come from ``estimate_variances``; without it
    both are KERNEL_PATH_VAR. Reports whose residuals' sum of squares
    overflows raise DegenerateFitError: the kernel fit and the variogram both
    square them.
    """
    z = snapshot.rss
    d_hat = clamped_distances(snapshot.positions, tx)
    q_hat = log_distance_feature(d_hat)
    mu_p, mu_alpha = estimate_means(z, q_hat, d_hat)
    with np.errstate(over="ignore"):
        sum_sq = np.sum(np.square(z - mu_p + mu_alpha * q_hat))
    if not np.isfinite(sum_sq):
        raise DegenerateFitError(f"reports up to {np.max(np.abs(z)):g} dBm overflow the residuals' sum of squares")
    if known_var is None:
        var_p = var_alpha = KERNEL_PATH_VAR
    else:
        var_p, var_alpha = estimate_variances(z, mu_p, mu_alpha, q_hat, known_var)
    return HyperEstimate(mu_p=mu_p, mu_alpha=mu_alpha, var_p=var_p, var_alpha=var_alpha, tx=tx)


def _profiled_residuals(x0, xy, z) -> np.ndarray:
    """r(x0) = z - mu_p(x0) + mu_alpha(x0) q(x0): the log-distance residuals
    with the means refitted by ``estimate_means`` at the fix x0."""
    d = clamped_distances(xy, Position(*x0))
    q = log_distance_feature(d)
    mu_p, mu_alpha = estimate_means(z, q, d)
    return z - mu_p + mu_alpha * q


def _profiled_objective(x0, xy, z) -> float:
    r = _profiled_residuals(x0, xy, z)
    return float(r @ r)


def refine_transmitter(snapshot: MeasurementSnapshot, init: Position, area_bounds) -> tuple:
    """Least-squares fix of the transmitter with the means profiled out.

    Minimizes the unweighted sum of squares of ``_profiled_residuals`` over
    x0 by a bounded trust-region solve (``least_squares`` "dogbox",
    forward-difference Jacobian), started at ``init`` clipped into the box
    ``area_bounds``. Returns (position, degenerate): with fewer than 3
    sensors the fix is not identifiable and the clipped start is returned
    with the degenerate flag set. The result never has a larger objective
    than the clipped start.

    The fix is searched in the box ``area_bounds``. The box keeps the means
    identifiable: far from the sensors the log-distance feature is nearly
    constant across them, and from a start on a symmetry line of the
    sensors (all of them on one line, say) an unbounded first step goes
    kilometers out.
    """
    lo, hi = np.transpose(np.asarray(area_bounds, dtype=float))
    x0 = np.clip(init.as_array(), lo, hi)
    if snapshot.n_sensors < 3:
        return Position(float(x0[0]), float(x0[1])), True
    xy, z = snapshot.positions, snapshot.rss
    res = least_squares(
        _profiled_residuals, x0, args=(xy, z), method="dogbox", bounds=(lo, hi),
        ftol=_FIX_TOL, xtol=_FIX_TOL, gtol=_FIX_TOL,
    )
    x = x0 if res.fun @ res.fun > _profiled_objective(x0, xy, z) else res.x
    return Position(float(x[0]), float(x[1])), False


def refine_all(snapshot: MeasurementSnapshot, centroid_state: CentroidState, area_bounds) -> tuple:
    """The transmitter fix of one snapshot: centroid, then the profiled fix
    in the box ``area_bounds``.

    Returns (fix, new CentroidState); the new state's estimate is the fix,
    under the updated weight, so the recursion carries the best available
    estimate forward. The means and variances at the fix come from
    ``hyper_at``.
    """
    state = centroid_update(centroid_state, snapshot)
    if not state.has_fix:
        raise NoFixError("centroid has no fix: no report has carried positive linear power yet")
    tx, _ = refine_transmitter(snapshot, state.estimate, area_bounds)
    return tx, dataclasses.replace(state, estimate=tx)
