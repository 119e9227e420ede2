"""Empirical-Bayes estimation of the path-loss hyper-parameters.

The means of the exponent and the transmitted power come from a weighted
least-squares fit of the log-distance model (weights d_hat^2, so reports far
from the transmitter dominate and badly located nearby sensors cannot skew
the fit); their variances from a nonnegative fit of the residual outer
product (or, when the shadowing parameters are unknown, the constant
KERNEL_PATH_VAR). The transmitter fix is sharpened from the same reports:
given the fix the means are linear, so they are profiled out (variable
projection) and Newton steps in the area's box move the fix alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import D_MIN, MeasurementSnapshot, Position, clamped_distances, log_distance_feature
from .localize import CentroidState, NoFixError, centroid_update

ALPHA_MIN = 2.0
# var_p and var_alpha when the shadowing parameters are unknown (the kernel
# variance path). Fitting them by marginal likelihood next to the kernel scales
# drove both to this value, the lower bound of that fit, on every measured
# snapshot: the means were just fitted to the same residuals, so the
# likelihood carries no information on those two directions.
KERNEL_PATH_VAR = 1e-4
# d q / d ln d_hat for the log-distance feature q = 10 log10(d_hat)
_DQ = 10.0 / np.log(10.0)
# The fix solve: at most this many Newton steps, each halved at most
# _MAX_HALVINGS times and accepted where f falls by _ARMIJO of its linear
# prediction. Changes within _F_ROUNDING of f are left to the gradient to
# judge: under a permutation of the reports, f at the fix of a
# reference-size snapshot spreads by up to 4e-15 of f. From the centroid,
# the fixes of 36 such snapshots took 5 to 9 steps.
_NEWTON_MAX_ITER = 50
_MAX_HALVINGS = 30
_ARMIJO = 1e-4
_F_ROUNDING = 1e-12


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

    The normal equations are solved with the weighted means of q and z
    subtracted, where they are diagonal. Solved from the plain sums, whose
    determinant sw sqq - sq^2 cancels, the profiled objective at the fix of
    a reference-size snapshot moved by up to 6e-13 of itself under a
    permutation of the reports, against 4e-15 here.
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
        sw = float(w.sum())
        q_bar = float((w * q).sum()) / sw
        z_bar = float((w * z).sum()) / sw
        qc = q - q_bar
        wq = w * qc
        sqq = float((wq * qc).sum())
        sqz = float((wq * (z - z_bar)).sum())
        det = sw * sqq
    if not np.isfinite(det):
        raise DegenerateFitError(f"sensors up to {np.max(d):g} m from the fix overflow the weighted means' sums")
    # sw (sqq + sw q_bar^2) is sw sum w q^2, the plain sums' sw sqq
    if det <= 1e-12 * max(sw * (sqq + sw * q_bar**2), 1.0):
        raise DegenerateFitError(
            "rank-deficient design: log-distance feature is constant across sensors"
        )
    mu_alpha = max(-sqz / sqq, ALPHA_MIN)
    return z_bar + mu_alpha * q_bar, mu_alpha


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


def _profiled_derivatives(x0, xy, z) -> tuple:
    """(f, gradient, Hessian) in x0 of the profiled objective f = sum r^2,
    r = ``_profiled_residuals``, all exact.

    The means theta = (mu_p, mu_alpha) solve the weighted normal equations
    A theta = b of ``estimate_means``, so they are differentiated through
    them: A theta' = F' and A theta'' = F'' - A' theta' - (A' theta')^T,
    with A = (sw, -sq; -sq, sqq) and F = b - A theta = (sum w r,
    -sum w q r) differentiated at fixed means. q is measured from its
    weighted mean at x0, a constant shift that moves mu_p but not r, so A
    is diag(sw, sqq) there. On the floor mu_alpha = 2 only mu_p moves. Every
    sum S = sum w h(q), w = d_hat^2, has the gradient sum (2 h + c h') e and
    the Hessian (sum over unclamped rows of 2 h + c h') I +
    sum kappa (2 h' + c h'') e e^T, where e = x0 - x_i, c = 10 / ln 10,
    kappa = c / d_hat^2 and q' = kappa e. Rows clamped at D_MIN have e = 0
    and kappa = 0, so they have zero derivatives.
    """
    x0 = np.asarray(x0, dtype=float)
    d = clamped_distances(xy, Position(*x0))
    q = log_distance_feature(d)
    mu_p, mu_alpha = estimate_means(z, q, d)
    r = z - mu_p + mu_alpha * q
    w = d * d
    sw = w.sum()
    q = q - (w * q).sum() / sw
    free = d > D_MIN
    e = (x0 - xy) * free[:, None]
    kappa = np.where(free, _DQ / w, 0.0)
    rk = r * kappa
    qr = q * r

    # 2 h + c h' of sq, sqq, F_p (h = r) and F_alpha (h = -q r), then
    # r kappa, each summed against e (the gradients) and over the unclamped
    # rows (the Hessians' multiples of I); sw's is 2
    dh_alpha = -(r + mu_alpha * q)
    lin = np.array([2.0 * q + _DQ, 2.0 * q * (q + _DQ), 2.0 * r + _DQ * mu_alpha,
                    -2.0 * qr + _DQ * dh_alpha, rk])
    sums = lin @ np.column_stack([e, free])
    g_sq, g_sqq, g_p, g_alpha, g_rk = sums[:, :2]
    g_sw = 2.0 * e.sum(axis=0)
    # kappa (2 h' + c h'') of F_p and F_alpha, then r kappa^2, against e e^T
    coef = np.array([2.0 * mu_alpha * kappa, 2.0 * (dh_alpha - _DQ * mu_alpha) * kappa, rk * kappa])
    h_p, h_alpha, curv = (coef[:, None, :] * e.T) @ e
    h_p += sums[2, 2] * np.eye(2)
    h_alpha += sums[3, 2] * np.eye(2)

    dp = g_p / sw
    da, da_h = np.zeros(2), np.zeros((2, 2))
    if mu_alpha > ALPHA_MIN:
        sqq = (w * q * q).sum()
        da = g_alpha / sqq
        cross = g_sqq[:, None] * da - g_sq[:, None] * dp
        da_h = (h_alpha - cross - cross.T) / sqq
    cross = g_sw[:, None] * dp - g_sq[:, None] * da
    dp_h = (h_p - cross - cross.T) / sw

    # r' = -mu_p' + q mu_alpha' + mu_alpha kappa e
    jac = q[:, None] * da + (mu_alpha * kappa)[:, None] * e - dp
    products = jac.T @ np.column_stack([jac, r])
    mixed = g_rk[:, None] * da
    hess = products[:, :2] - r.sum() * dp_h + qr.sum() * da_h + mixed + mixed.T
    hess += mu_alpha * (sums[4, 2] * np.eye(2) - (2.0 / _DQ) * curv)
    return float(r @ r), 2.0 * products[:, 2], 2.0 * hess


def _held(x, grad, lo, hi) -> np.ndarray:
    """Coordinates at a bound of the box whose gradient points out of it."""
    return ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))


def _projected_norm(x, grad, lo, hi) -> float:
    """Norm of the gradient in the coordinates not held at the box."""
    return float(np.hypot(*np.where(_held(x, grad, lo, hi), 0.0, grad)))


def _line_search(x, f, grad, step, xy, z, lo, hi):
    """(point, its ``_profiled_derivatives``) accepted along the step, its
    halvings clipped into the box, or None where none is.

    A point is accepted where f falls by _ARMIJO of its linear prediction.
    Where f cannot tell the point from x (they differ by at most
    _F_ROUNDING of f), the point is accepted if it shrinks the projected
    gradient, and none is otherwise: x is converged to rounding.
    """
    projected = _projected_norm(x, grad, lo, hi)
    for halving in range(_MAX_HALVINGS):
        trial = np.clip(x + 0.5**halving * step, lo, hi)
        f_trial = _profiled_objective(trial, xy, z)
        if abs(f_trial - f) <= _F_ROUNDING * f:
            derivs = _profiled_derivatives(trial, xy, z)
            return (trial, derivs) if _projected_norm(trial, derivs[1], lo, hi) < projected else None
        if f_trial < f and f_trial <= f + _ARMIJO * np.sum(grad * (trial - x)):
            return trial, _profiled_derivatives(trial, xy, z)
    return None


def _step(x, f, grad, hess, xy, z, lo, hi):
    """The next point of the fix solve and its ``_profiled_derivatives``, or
    None where x is converged.

    The coordinates held at the box stay. In the others the step is
    Newton's, with the Hessian's eigenvalues taken by magnitude where it is
    not positive definite: that step still goes downhill, and along a
    direction of negative curvature it goes away from the saddle or maximum
    instead of toward it. That component is at least D_MIN long, so a start
    on a symmetry line of the sensors, where the gradient has none, leaves
    it; each step there then doubles its distance from the line. The step is
    at most the box's diagonal long.
    """
    free = ~_held(x, grad, lo, hi)
    if not np.any(grad[free]):
        return None
    vals, vecs = np.linalg.eigh(hess[np.ix_(free, free)])
    along = -(vecs.T @ grad[free]) / np.abs(vals)
    if vals[0] <= 0 and abs(along[0]) < D_MIN:
        along[0] = D_MIN if along[0] >= 0 else -D_MIN
    step = np.zeros(2)
    step[free] = vecs @ along
    step *= min(1.0, float(np.hypot(*(hi - lo)) / np.hypot(*step)))
    return _line_search(x, f, grad, step, xy, z, lo, hi)


def refine_transmitter(snapshot: MeasurementSnapshot, init: Position, area_bounds) -> tuple:
    """Least-squares fix of the transmitter with the means profiled out.

    Minimizes the unweighted sum of squares f of ``_profiled_residuals`` over
    x0 by damped, projected Newton steps with the exact gradient and Hessian
    of ``_profiled_derivatives``, started at ``init`` clipped into the box
    ``area_bounds``. A coordinate on the box's edge whose gradient points out
    of it is held there, and the step is taken in the other one; where the
    Hessian is not positive definite the step follows its direction of
    negative curvature. A step is halved until f falls by a fraction of its
    linear prediction; where f can no longer tell the trial point from the
    current one, the point is taken if it shrinks the projected gradient.
    The solve stops where neither holds, or the projected gradient is
    exactly zero, so it ends converged to rounding and not on a step
    length. Returns (position,
    degenerate): with fewer than 3 sensors the fix is not identifiable and
    the clipped start is returned with the degenerate flag set. The result
    never has a larger objective than the clipped start.

    The fix is searched in the box ``area_bounds``. The box keeps the means
    identifiable: far from the sensors the log-distance feature is nearly
    constant across them, and from a start on a symmetry line of the
    sensors (all of them on one line, say) an unbounded first step goes
    kilometers out.
    """
    lo, hi = np.transpose(np.asarray(area_bounds, dtype=float))
    start = np.clip(init.as_array(), lo, hi)
    if snapshot.n_sensors < 3:
        return Position(float(start[0]), float(start[1])), True
    xy, z = snapshot.positions, snapshot.rss
    x = start
    f, grad, hess = _profiled_derivatives(x, xy, z)
    f_start = f
    for _ in range(_NEWTON_MAX_ITER):
        accepted = _step(x, f, grad, hess, xy, z, lo, hi)
        if accepted is None:
            break
        x, (f, grad, hess) = accepted
    x = start if f > f_start else x
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
