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
from scipy.linalg import cho_solve, solve_triangular

from .empbayes import HyperEstimate
from .gp import KernelParams, chol_with_jitter, kernel_matrix, prior_mean
from .model import (
    Grid,
    LOG10_E,
    NoiseModel,
    clamped_distances,
    log_distance_feature,
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
    c = -10.0 * mu_alpha * LOG10_E
    grad = np.column_stack(
        [
            np.ones(xy.shape[0]),
            -log_distance_feature(d),
            c * (tx.x - xy[:, 0]) / d**2,
            c * (tx.y - xy[:, 1]) / d**2,
        ]
    )
    return grad[0] if nodes.ndim == 1 else grad


def _unpack_train(train):
    if len(train) == 3:
        xy, z, d_hat = train
    else:
        xy, z = train
        d_hat = None
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    return xy, z, d_hat


def _reports(train, grid, hyper, kernel, noise, node_indices) -> list:
    """Bounds at the given nodes from one factorization C = K_X + S = L L^T.

    Every C^-1 product is a pair of triangular solves, A^T C^-1 B =
    (L^-1 A)^T (L^-1 B), with W = L^-1 K_Xg shared by the GP variance
    k(g, g) - sum(W^2) and by the predictive-mean derivative terms; the
    information matrix is (L^-1 J)^T (L^-1 J).
    """
    xy, z, d_hat = _unpack_train(train)
    if d_hat is None:
        d_hat = clamped_distances(xy, hyper.tx)
    d_hat = np.asarray(d_hat, dtype=float).reshape(-1)
    n = xy.shape[0]
    tx = hyper.tx

    q_hat = log_distance_feature(d_hat)
    c_mat = kernel_matrix(xy, xy, kernel, tx)
    c_mat[np.diag_indices_from(c_mat)] += noise.variances(d_hat)
    low, _ = chol_with_jitter(c_mat, "training covariance")

    # Jacobian of the training prior mean w.r.t. (mu_p, mu_alpha, tx)
    c_const = -10.0 * hyper.mu_alpha * LOG10_E
    a_mat = c_const * (np.array([tx.x, tx.y])[None, :] - xy) / d_hat[:, None] ** 2
    jac = np.column_stack([np.ones(n), -q_hat, a_mat])  # (N, 4)

    # derivative of the training covariance w.r.t. the fix, through 1/d^2
    rho_sq = noise.rho_u**2
    a1_diag = -2.0 * rho_sq * (tx.x - xy[:, 0]) / d_hat**4
    a2_diag = -2.0 * rho_sq * (tx.y - xy[:, 1]) / d_hat**4
    u = cho_solve((low, True), prior_mean(xy, hyper))

    # L^-1 [J, u*a1, u*a2]
    v = solve_triangular(low, np.column_stack([jac, u * a1_diag, u * a2_diag]), lower=True)
    info = v[:, :4].T @ v[:, :4]  # (4, 4)
    eig = np.linalg.eigvalsh(info)
    singular = bool(eig[0] <= _SINGULAR_RCOND * max(eig[-1], 0.0) or eig[0] <= 0.0)
    if singular:
        info_inv = np.linalg.pinv(info, rcond=_SINGULAR_RCOND, hermitian=True)
    else:
        info_inv = np.linalg.inv(info)

    nodes_xy = grid.xy[node_indices]
    k_gx = kernel_matrix(nodes_xy, xy, kernel, tx)  # (m, N); k_gx.T is K_Xg
    w = solve_triangular(low, k_gx.T, lower=True, overwrite_b=True)  # (N, m), reuses k_gx

    kdiag = kernel.sigma_k**2 + kernel.sigma_alpha_k**2 * log_distance_feature(
        clamped_distances(nodes_xy, tx)
    ) ** 2 + kernel.sigma_p_k**2
    gp_var = kdiag - np.einsum("ij,ij->j", w, w)

    # g = dm_g/dtheta - J^T C^-1 K_Xg + (u*a1, u*a2)^T C^-1 K_Xg, one row per node
    terms = v.T @ w  # (6, m)
    g = grid_mean_gradient(nodes_xy, tx, hyper.mu_alpha) - terms[:4].T
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
        for i, v_i, a_i in zip(node_indices, var, added)
    ]


def hcrb_all(
    train,
    grid: Grid,
    hyper: HyperEstimate,
    kernel: KernelParams,
    noise: NoiseModel,
) -> list:
    """HcrbReport for every grid node, sharing one training factorization."""
    return _reports(train, grid, hyper, kernel, noise, list(range(grid.n_nodes)))


def hcrb(
    node: int,
    train,
    grid: Grid,
    hyper: HyperEstimate,
    kernel: KernelParams,
    noise: NoiseModel,
) -> HcrbReport:
    """Bound at a single grid node."""
    if not 0 <= node < grid.n_nodes:
        raise ValueError(f"node index {node} out of range")
    return _reports(train, grid, hyper, kernel, noise, [node])[0]
