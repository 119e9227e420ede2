"""Ordinary kriging of detrended residuals, the interpolation baseline.

Reports are detrended by the estimated log-distance mean, the residual
spatial structure is summarized by an empirical semivariogram fitted with an
exponential model, and the residuals are kriged onto the grid under the
usual weights-sum-to-one constraint before the trend is added back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.optimize import least_squares

from .empbayes import DegenerateFitError, HyperEstimate
from .gp import matvec, prior_mean, row_blocks
from .model import Grid, distance_matrix

_DUP_EPS = 1e-9
# distance bins of the empirical semivariogram, before any widening
_N_BINS = 15


@dataclass(frozen=True)
class VariogramModel:
    """Exponential semivariogram gamma(h) = nugget + sill * (1 - exp(-h/range))."""

    nugget: float  # dB^2
    sill: float  # dB^2
    range_m: float  # meters

    def __post_init__(self):
        if self.nugget < 0 or self.sill < 0:
            raise ValueError("nugget and sill must be >= 0")
        if self.range_m <= 0:
            raise ValueError("range must be > 0")

    def covariance(self, h: np.ndarray) -> np.ndarray:
        """Covariance C(h) = sill * exp(-h/range), plus the nugget at h = 0."""
        h = np.asarray(h, dtype=float)
        return self.sill * np.exp(-h / self.range_m) + self.nugget * (h < _DUP_EPS)


def _empirical_semivariogram(residuals, positions, n_bins):
    d = distance_matrix(positions, positions)
    iu = np.triu_indices_from(d, k=1)
    dists = d[iu]
    gammas = 0.5 * (residuals[iu[0]] - residuals[iu[1]]) ** 2

    dup = dists < _DUP_EPS
    nugget_point = (0.0, float(np.mean(gammas[dup])), int(np.sum(dup))) if np.any(dup) else None

    half_max = float(np.max(dists)) / 2.0
    if half_max <= 0:
        raise DegenerateFitError("all positions coincide; no variogram is defined")
    in_range = (~dup) & (dists <= half_max)
    edges = np.linspace(0.0, half_max, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, dists[in_range], side="right") - 1, 0, n_bins - 1)

    binned = gammas[in_range]
    populated = np.bincount(idx, minlength=n_bins)
    hs, gs, counts = [], [], []
    for b in np.flatnonzero(populated):
        hs.append(0.5 * (edges[b] + edges[b + 1]))
        gs.append(float(np.mean(binned[idx == b])))
        counts.append(int(populated[b]))
    if nugget_point is not None:
        hs.insert(0, nugget_point[0])
        gs.insert(0, nugget_point[1])
        counts.insert(0, nugget_point[2])
    return np.array(hs), np.array(gs), np.array(counts, dtype=float), half_max


def fit_variogram(residuals, positions) -> VariogramModel:
    """Least-squares exponential fit of the binned empirical semivariogram.

    Bins are widened (fewer of them) when too sparsely populated. Fewer than
    10 points or three populated bins raise DegenerateFitError, and so does
    a binned semivariogram whose weighted sum of squares overflows.
    """
    residuals = np.asarray(residuals, dtype=float).reshape(-1)
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    if residuals.shape[0] != positions.shape[0]:
        raise ValueError("residuals and positions lengths disagree")
    if residuals.shape[0] < 10:
        raise DegenerateFitError("need at least 10 points to fit a variogram")

    hs = gs = counts = None
    half_max = None
    for bins in (_N_BINS, _N_BINS // 2, 4):
        hs, gs, counts, half_max = _empirical_semivariogram(residuals, positions, bins)
        if hs.shape[0] >= 3:
            break
    if hs.shape[0] < 3:
        raise DegenerateFitError("too few populated distance bins to fit a variogram")

    w = np.sqrt(counts)
    # least_squares' starting cost is about sum((w gamma)^2); an infinite one ends it in a ValueError
    with np.errstate(over="ignore"):
        cost = np.sum(np.square(w * gs))
    if not np.isfinite(cost):
        raise DegenerateFitError(f"residuals up to {np.max(np.abs(residuals)):g} dB overflow the variogram fit")
    s0 = max(float(np.var(residuals)), 1e-12)
    r0 = max(half_max / 3.0, 1e-3)

    def model_residuals(p):
        nugget, sill, rng = p
        return w * (nugget + sill * (1.0 - np.exp(-hs / rng)) - gs)

    fit = least_squares(
        model_residuals,
        x0=[0.0, s0, r0],
        bounds=([0.0, 0.0, 1e-6], [np.inf, np.inf, np.inf]),
    )
    nugget, sill, rng = fit.x
    return VariogramModel(nugget=float(nugget), sill=float(sill), range_m=float(rng))


def _merge_coincident(xy, resid, dists):
    """(xy, resid, dists) with each group of coincident positions replaced by
    its first position and its mean residual, so that no two kept positions
    are closer than _DUP_EPS and no two rows of the kriging system are equal.

    Input without coincident positions is returned as is.
    """
    close = dists < _DUP_EPS
    if np.count_nonzero(close) == xy.shape[0]:
        return xy, resid, dists
    label = np.argmax(close, axis=1)  # first position each one coincides with
    while np.any(label[label] != label):  # a chain of them ends at its first position
        label = label[label]
    keep, group = np.unique(label, return_inverse=True)
    mean = np.bincount(group, weights=resid) / np.bincount(group)
    xy = xy[keep]
    return xy, mean, distance_matrix(xy, xy)


def okd_predict(
    train,
    grid: Grid,
    hyper: HyperEstimate,
    variogram: VariogramModel = None,
    *,
    return_variance: bool = False,
):
    """Ordinary-kriging field estimate at the grid nodes, dBm.

    Detrends by the estimated path-loss mean, fits the variogram on all
    reports unless given, merges coincident positions into one report with
    their mean residual, kriges the residuals with the bordered
    (unbiasedness-constrained) system B shared across all nodes, and re-adds
    the trend. B is symmetric, so the prediction at the nodes is
    [c; 1]^T B^-1 [resid; 0]: one LU factorization and a single right-hand side.
    A system that is still exactly singular falls back to the pseudo-inverse
    with a warning. Each block of nodes builds its covariance c to the reports,
    takes its prediction and, for the variance c0 - w^T c - nu, solves for its
    weights w and multipliers nu and reduces them at once. The prediction is
    bit-identical to one product over all nodes wherever OpenBLAS splits that
    product between its threads at a multiple of 4 rows, as for M = 16, 64,
    1008, 1088 and 4096 at 1 to 4 threads; at another split, such as M = 2025
    on 2 threads, the rows next to it may differ in the last bit.
    """
    xy, z = train
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    z = np.asarray(z, dtype=float).reshape(-1)
    if xy.shape[0] == 0:
        raise ValueError("ordinary kriging needs at least one training point")

    resid = z - prior_mean(xy, hyper)
    if variogram is None:
        variogram = fit_variogram(resid, xy)
    xy, resid, dists = _merge_coincident(xy, resid, distance_matrix(xy, xy))
    n = xy.shape[0]

    bordered = np.zeros((n + 1, n + 1), order="F")
    bordered[:n, :n] = variogram.covariance(dists)
    bordered[:n, n] = 1.0
    bordered[n, :n] = 1.0
    resid0 = np.append(resid, 0.0)

    # LAPACK getrf/getrs is numpy's solve, run in scipy's BLAS pool (see the
    # rssfield.gp docstring); info > 0 is the exactly singular case
    lu, piv, info = dgetrf(bordered)
    if info > 0:
        warnings.warn("singular kriging system; using pseudo-inverse", RuntimeWarning, stacklevel=2)
        inv = np.linalg.pinv(bordered)
        sol0 = matvec(inv, resid0)
    else:
        sol0, _ = dgetrs(lu, piv, resid0)

    # the (N, M) covariance to the nodes, one C-ordered (N, b) block at a time:
    # matvec(blk.T, .) runs the dgemv kernel of one product over all nodes
    c0 = variogram.sill + variogram.nugget
    pred, var = np.empty(grid.n_nodes), np.empty(grid.n_nodes)
    for nodes in row_blocks(grid.n_nodes, n):
        blk = variogram.covariance(distance_matrix(xy, grid.xy[nodes]))
        pred[nodes] = matvec(blk.T, sol0[:n])
        if return_variance:
            rhs = np.ones((n + 1, blk.shape[1]), order="F")
            rhs[:n] = blk
            # [w; nu] = B^-1 [blk; 1], the pseudo-inverse's product inv @ rhs on the fallback
            sol = dgemm(1.0, inv.T, rhs, trans_a=1) if info > 0 else dgetrs(lu, piv, rhs, overwrite_b=True)[0]
            var[nodes] = c0 - np.sum(sol[:n] * blk, axis=0) - sol[n]
    pred += sol0[n]
    pred += prior_mean(grid.xy, hyper)
    return (pred, np.maximum(var, 0.0)) if return_variance else pred
