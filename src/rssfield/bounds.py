"""Lower bound on the per-node mean squared error of the field estimate.

The GP posterior variance alone is a bound when the prior-mean parameters are
known. Estimating them (power level, path-loss exponent and the transmitter
fix) adds g^T M^-1 g, a quadratic form in the derivative g of the predictive
mean with respect to those four parameters, where M = J^T C^-1 J is their
information matrix under the training covariance C, J the derivative of the
reports' prior mean (the mean term of Kay, Estimation Theory, 1993, eq. 3.31;
C's dependence on the fix is not in M). Neither reads the reported levels,
so the bound does not follow them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm

from .empbayes import HyperEstimate
# chol_with_jitter and kernel_matrix are unused here; the benchmark tracer resolves them by module name
from .gp import KernelParams, chol_with_jitter, condition_w, kernel_diag, kernel_matrix  # noqa: F401
from .model import LOG10_E, Grid, NoiseModel, NumericalError, check_reports, clamped_distances, log_distance_feature

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
    k(g, g) - sum(W^2) and by g = dm_g - J^T C^-1 K_Xg; the information
    matrix is (L^-1 J)^T (L^-1 J). The reports pass ``check_reports``
    first, as a snapshot's do; only their positions are read, so a common
    dB offset on them leaves the bound where it is.

    L and W come from ``gp.condition_w``: right after ``posterior`` with its
    covariance on the same reports, grid, kernel, fix and noise, they are
    the posterior's own, taken from gp's handoff slot; otherwise this
    conditions anew. Both give the same bits.
    """
    xy, _ = check_reports(*train)
    tx = hyper.tx
    low, w = condition_w(xy, grid.xy, kernel, tx, noise.variances(clamped_distances(xy, tx)))  # w is (N, m)

    # V = L^-1 J, J the Jacobian of the training prior mean w.r.t. (mu_p, mu_alpha, tx)
    v = solve_triangular(low, grid_mean_gradient(xy, tx, hyper.mu_alpha), lower=True)  # (N, 4)
    info = v.T @ v  # (4, 4)
    eig = np.linalg.eigvalsh(info)
    singular = bool(eig[0] <= _SINGULAR_RCOND * max(eig[-1], 0.0) or eig[0] <= 0.0)
    if singular:
        info_inv = np.linalg.pinv(info, rcond=_SINGULAR_RCOND, hermitian=True)
    else:
        info_inv = np.linalg.inv(info)

    gp_var = kernel_diag(grid.xy, kernel, tx) - np.einsum("ij,ij->j", w, w)

    # g = dm_g/dtheta - J^T C^-1 K_Xg, one row per node; V^T W is (4, m), both operands F-ordered
    g = grid_mean_gradient(grid.xy, tx, hyper.mu_alpha) - dgemm(1.0, v, w, trans_a=1).T
    added = np.maximum(np.sum((g @ info_inv) * g, axis=1), 0.0)
    if not np.all(np.isfinite(added)):
        raise NumericalError("the bound's added term g^T M^-1 g is not finite")
    var = np.maximum(gp_var, 0.0)
    return [
        HcrbReport(gp_variance=float(v_i), added_term=float(a_i), bound=float(v_i + a_i), singular=singular)
        for v_i, a_i in zip(var, added)
    ]

