"""Lower bound on the per-node mean squared error of the field estimate.

The GP posterior variance alone is a bound when the prior-mean parameters are
known. Estimating them (power level, path-loss exponent and the transmitter
fix) adds g^T M^-1 g, a quadratic form in the derivative of the predictive
mean with respect to those four parameters, where M is their information
matrix under the training covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm

from .empbayes import HyperEstimate
# chol_with_jitter and kernel_matrix are unused here; the benchmark tracer resolves them by module name
from .gp import KernelParams, chol_with_jitter, condition_w, kernel_diag, kernel_matrix, prior_mean  # noqa: F401
from .model import LOG10_E, Grid, NoiseModel, NumericalError, clamped_distances, log_distance_feature

_SINGULAR_RCOND = 1e-10


@dataclass(frozen=True)
class HcrbReport:
    """Error bound at one grid node, split into its two parts (dB^2)."""

    gp_variance: float
    added_term: float
    bound: float
    singular: bool = False


def grid_mean_gradient(node_xy, tx, mu_alpha: float) -> np.ndarray:
    """Derivative of the node prior mean w.r.t. (mu_p, mu_alpha, tx_x, tx_y).

    The transmitter columns are -10 mu_alpha log10(e) (x0 - x_i) / d_i^2,
    with d the clamped node-to-transmitter distances. An (m, 2) array of
    nodes gives shape (m, 4), one row per node.
    """
    xy = np.asarray(node_xy, dtype=float).reshape(-1, 2)
    d = clamped_distances(xy, tx)
    d_tx = -10.0 * mu_alpha * LOG10_E * (tx.as_array() - xy) / d[:, None] ** 2
    return np.column_stack([np.ones(xy.shape[0]), -log_distance_feature(d), d_tx])


def hcrb_all(
    train,
    grid: Grid,
    hyper: HyperEstimate,
    kernel: KernelParams,
    noise: NoiseModel,
) -> list:
    """HcrbReport for every grid node, in the grid's order, from one
    factorization C = K_X + S = L L^T.

    Every C^-1 product is a pair of triangular solves, A^T C^-1 B =
    (L^-1 A)^T (L^-1 B), with W = L^-1 K_Xg shared by the GP variance
    k(g, g) - sum(W^2) and by the predictive-mean derivative terms; the
    information matrix is (L^-1 J)^T (L^-1 J).

    L and W come from ``gp.condition_w``: right after ``posterior`` with its
    covariance on the same reports, grid, kernel, fix and noise, they are
    the posterior's own, taken from gp's handoff slot, and u = C^-1 m_X is
    one potrs on L; otherwise this conditions anew. Both give the same bits.
    """
    xy, _ = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    tx = hyper.tx
    d_hat = clamped_distances(xy, tx)
    # u = C^-1 m_X; w is (N, m)
    low, w, u = condition_w(xy, grid.xy, prior_mean(xy, hyper), kernel, tx, noise.variances(d_hat))

    # Jacobian of the training prior mean w.r.t. (mu_p, mu_alpha, tx)
    jac = grid_mean_gradient(xy, tx, hyper.mu_alpha)  # (N, 4)

    # derivative of the training covariance w.r.t. the fix, through 1/d^2
    rho_sq = noise.rho_u**2
    with np.errstate(over="ignore", invalid="ignore"):
        a1_diag = -2.0 * rho_sq * (tx.x - xy[:, 0]) / d_hat**4
        a2_diag = -2.0 * rho_sq * (tx.y - xy[:, 1]) / d_hat**4
        loc_cols = np.column_stack([u * a1_diag, u * a2_diag])
    if not np.all(np.isfinite(loc_cols)):
        raise NumericalError(f"the bound's location-error columns u * a are not finite (rho_u = {noise.rho_u:g})")

    # L^-1 [J, u*a1, u*a2]
    v = solve_triangular(low, np.column_stack([jac, loc_cols]), lower=True)
    info = v[:, :4].T @ v[:, :4]  # (4, 4)
    eig = np.linalg.eigvalsh(info)
    singular = bool(eig[0] <= _SINGULAR_RCOND * max(eig[-1], 0.0) or eig[0] <= 0.0)
    if singular:
        info_inv = np.linalg.pinv(info, rcond=_SINGULAR_RCOND, hermitian=True)
    else:
        info_inv = np.linalg.inv(info)

    gp_var = kernel_diag(grid.xy, kernel, tx) - np.einsum("ij,ij->j", w, w)

    # g = dm_g/dtheta - J^T C^-1 K_Xg + (u*a1, u*a2)^T C^-1 K_Xg, one row per node
    terms = dgemm(1.0, v, w, trans_a=1)  # V^T W, (6, m); both operands F-ordered
    g = grid_mean_gradient(grid.xy, tx, hyper.mu_alpha) - terms[:4].T
    g[:, 2] += terms[4]
    g[:, 3] += terms[5]
    added = np.maximum(np.sum((g @ info_inv) * g, axis=1), 0.0)
    if not np.all(np.isfinite(added)):
        raise NumericalError("the bound's added term g^T M^-1 g is not finite")
    var = np.maximum(gp_var, 0.0)
    return [
        HcrbReport(gp_variance=float(v_i), added_term=float(a_i), bound=float(v_i + a_i), singular=singular)
        for v_i, a_i in zip(var, added)
    ]

