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
from .gp import KernelParams, chol_with_jitter, condition, kernel_diag, kernel_matrix, prior_mean  # noqa: F401
from .model import (
    Grid,
    NoiseModel,
    clamped_distances,
    log_distance_feature,
    mean_tx_gradient,
)

_SINGULAR_RCOND = 1e-10


@dataclass(frozen=True)
class HcrbReport:
    """Error bound at one grid node, split into its two parts (dB^2)."""

    node_index: int
    gp_variance: float
    added_term: float
    bound: float
    singular: bool = False


def grid_mean_gradient(node_xy, tx, mu_alpha: float) -> np.ndarray:
    """Derivative of the node prior mean w.r.t. (mu_p, mu_alpha, tx_x, tx_y).

    One node (shape (2,)) gives shape (4,); an (m, 2) array of nodes gives
    one row per node.
    """
    nodes = np.asarray(node_xy, dtype=float)
    xy = nodes.reshape(-1, 2)
    d = clamped_distances(xy, tx)
    grad = np.column_stack(
        [
            np.ones(xy.shape[0]),
            -log_distance_feature(d),
            mean_tx_gradient(xy, tx.as_array(), mu_alpha, d),
        ]
    )
    return grad[0] if nodes.ndim == 1 else grad


def hcrb_all(
    train,
    grid: Grid,
    hyper: HyperEstimate,
    kernel: KernelParams,
    noise: NoiseModel,
) -> list:
    """HcrbReport for every grid node from one factorization C = K_X + S = L L^T.

    Every C^-1 product is a pair of triangular solves, A^T C^-1 B =
    (L^-1 A)^T (L^-1 B), with W = L^-1 K_Xg shared by the GP variance
    k(g, g) - sum(W^2) and by the predictive-mean derivative terms; the
    information matrix is (L^-1 J)^T (L^-1 J).
    """
    xy, _ = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    tx = hyper.tx
    d_hat = clamped_distances(xy, tx)
    # u = C^-1 m_X; k_gx is (m, N) and k_gx.T is K_Xg
    low, k_gx, u = condition(xy, grid.xy, prior_mean(xy, hyper), kernel, tx, noise.variances(d_hat))

    # Jacobian of the training prior mean w.r.t. (mu_p, mu_alpha, tx)
    jac = grid_mean_gradient(xy, tx, hyper.mu_alpha)  # (N, 4)

    # derivative of the training covariance w.r.t. the fix, through 1/d^2
    rho_sq = noise.rho_u**2
    a1_diag = -2.0 * rho_sq * (tx.x - xy[:, 0]) / d_hat**4
    a2_diag = -2.0 * rho_sq * (tx.y - xy[:, 1]) / d_hat**4

    # L^-1 [J, u*a1, u*a2]
    v = solve_triangular(low, np.column_stack([jac, u * a1_diag, u * a2_diag]), lower=True)
    info = v[:, :4].T @ v[:, :4]  # (4, 4)
    eig = np.linalg.eigvalsh(info)
    singular = bool(eig[0] <= _SINGULAR_RCOND * max(eig[-1], 0.0) or eig[0] <= 0.0)
    if singular:
        info_inv = np.linalg.pinv(info, rcond=_SINGULAR_RCOND, hermitian=True)
    else:
        info_inv = np.linalg.inv(info)

    w = solve_triangular(low, k_gx.T, lower=True, overwrite_b=True)  # (N, m), reuses k_gx
    gp_var = kernel_diag(grid.xy, kernel, tx) - np.einsum("ij,ij->j", w, w)

    # g = dm_g/dtheta - J^T C^-1 K_Xg + (u*a1, u*a2)^T C^-1 K_Xg, one row per node
    terms = dgemm(1.0, v, w, trans_a=1)  # V^T W, (6, m); both operands F-ordered
    g = grid_mean_gradient(grid.xy, tx, hyper.mu_alpha) - terms[:4].T
    g[:, 2] += terms[4]
    g[:, 3] += terms[5]
    added = np.maximum(np.sum((g @ info_inv) * g, axis=1), 0.0)
    var = np.maximum(gp_var, 0.0)
    return [
        HcrbReport(
            node_index=int(i),
            gp_variance=float(v_i),
            added_term=float(a_i),
            bound=float(v_i + a_i),
            singular=singular,
        )
        for i, (v_i, a_i) in enumerate(zip(var, added))
    ]

