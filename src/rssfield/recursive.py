"""Recursive field estimation: fuse each snapshot with the carried posterior.

Each step blends the data-dependent part of the current static posterior
(weight lambda) with the carried deviation of the previous posterior from its
own prior (weight 1 - lambda), on top of the current prior mean and
covariance. lambda = 1 reproduces the static estimator exactly; lambda -> 0
freezes the field.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .empbayes import refine_all
from .gp import (
    FieldPosterior,
    _posterior,
    chol_with_jitter,
    condition,
    fit_kernel,
    kernel_matrix,
    matvec,
    prior_mean,
    subtract_gram,
)
from .localize import CentroidState
from .model import Grid, MeasurementSnapshot, clamped_distances
# run_static is unused here; the benchmark tracer resolves it by module name
from .pipeline import PipelineConfig, _fit, run_static  # noqa: F401

KERNEL_REFIT_MODES = ("freeze_after_init", "every_step")


@dataclass
class RecursiveConfig:
    """Knobs of the recursive estimator on top of the static-fit ones."""

    pipeline: PipelineConfig
    lam: float = 0.5
    kernel_refit: str = "freeze_after_init"
    reestimate_hyper: bool = True

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lambda must be in (0, 1]")
        if self.kernel_refit not in KERNEL_REFIT_MODES:
            raise ValueError(f"kernel_refit must be one of {KERNEL_REFIT_MODES}")


@dataclass(frozen=True)
class RecursiveState:
    """Carried state: last posterior plus its own prior mean and covariance.

    The cached grid prior belongs to the previous step's hyper-parameters and
    kernel (grid_prior_cov is K_g under posterior.kernel and cov_tx); the
    update subtracts it from the carried posterior before adding the current
    prior back in. cov_tx is the transmitter fix used inside
    covariance evaluations: under the frozen-kernel cadence it stays at its
    initialization value, which keeps every blended grid covariance dominated
    by the (then constant) grid prior and hence positive definite; the mean
    path always tracks the current estimates.
    """

    posterior: FieldPosterior
    lam: float
    centroid: CentroidState
    grid_prior_mean: np.ndarray  # m_g of the state's own step
    grid_prior_cov: np.ndarray  # K_g of the state's own step
    cov_tx: object = None  # Position used for covariance-side kernel evals


def init_state(snapshot0: MeasurementSnapshot, grid: Grid, config: RecursiveConfig) -> RecursiveState:
    """Run the full static pipeline on the first snapshot and seed the state.

    This is ``run_static`` with its grid prior K_g built once: the posterior
    covariance is assembled in a copy of it, and K_g itself is kept.
    """
    pconf = config.pipeline
    hyper, kernel, centroid = _fit(snapshot0, pconf, None)
    k_grid = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx)
    train = (snapshot0.positions, snapshot0.rss)
    post = _posterior(train, grid, hyper, kernel, pconf.noise, snapshot0.t, True, k_grid.copy())
    return RecursiveState(
        posterior=post,
        lam=config.lam,
        centroid=centroid,
        grid_prior_mean=prior_mean(grid.xy, hyper),
        grid_prior_cov=k_grid,
        cov_tx=hyper.tx,
    )


def _grid_prior_cov(state: RecursiveState, grid: Grid, kernel, cov_tx) -> np.ndarray:
    """K_g under (kernel, cov_tx): the state's own when both are unchanged."""
    if kernel == state.posterior.kernel and cov_tx == state.cov_tx:
        return state.grid_prior_cov
    return kernel_matrix(grid.xy, grid.xy, kernel, cov_tx)


def rgp_step(
    state: RecursiveState,
    snapshot: MeasurementSnapshot,
    grid: Grid,
    config: RecursiveConfig,
) -> RecursiveState:
    """Advance the recursion by one snapshot.

    The data term conditions on the snapshot through ``gp.condition``, with L
    the lower Cholesky factor of K_X + S: mu_post = K_gX (K_X + S)^-1 (z - m_X)
    and sigma_post = W^T W with W = L^-1 K_Xg. The grid prior K_g is taken from
    the state when the kernel and the covariance-side fix equal the state's
    own (every step under ``freeze_after_init`` or a fixed
    ``PipelineConfig.kernel``) and recomputed otherwise. Every term of the
    blended covariance is exactly symmetric, so the result is too, and it is
    assembled and checked in the one M x M buffer it is returned in. At
    lambda = 1 it is bit-identical to ``posterior``'s at any number of reports.

    An empty snapshot carries the state forward unchanged (the step behaves
    as lambda = 0) with a warning.
    """
    if state.posterior.cov is None:
        raise ValueError("recursive state requires a posterior covariance")
    if snapshot.n_sensors == 0:
        warnings.warn(
            f"empty snapshot at t={snapshot.t}: carrying the field forward",
            RuntimeWarning,
            stacklevel=2,
        )
        carried = replace(state.posterior, t=snapshot.t)
        return replace(state, posterior=carried)

    pconf = config.pipeline
    if config.reestimate_hyper:
        hyper, centroid = refine_all(
            snapshot,
            state.centroid,
            area_bounds=pconf.area_bounds,
            passes=pconf.refine_passes,
            sigma_z_given=pconf.sigma_z_given,
        )
    else:
        hyper, centroid = state.posterior.hyper, state.centroid

    train = (snapshot.positions, snapshot.rss)
    if config.kernel_refit == "every_step" and pconf.kernel is None:
        kernel = fit_kernel(train, hyper, pconf.noise, n_starts=pconf.n_starts, maxiter=pconf.maxiter)
        cov_tx = hyper.tx
    else:
        kernel = pconf.kernel if pconf.kernel is not None else state.posterior.kernel
        cov_tx = state.cov_tx if state.cov_tx is not None else hyper.tx

    xy = snapshot.positions
    noise_var = pconf.noise.variances(clamped_distances(xy, hyper.tx))
    resid = snapshot.rss - prior_mean(xy, hyper)
    low, k_gx, beta = condition(xy, grid.xy, resid, kernel, cov_tx, noise_var)
    mu_post = matvec(k_gx, beta)
    w = solve_triangular(low, k_gx.T, lower=True, overwrite_b=True)  # reuses k_gx

    m_grid = prior_mean(grid.xy, hyper)
    k_grid = _grid_prior_cov(state, grid, kernel, cov_tx)
    mu_prior = state.posterior.mean - state.grid_prior_mean

    lam = state.lam
    mean = m_grid + (1.0 - lam) * mu_prior + lam * mu_post
    # cov = K_g - (1 - lam) (K_g,prev - C_prev) - lam W^T W, in one buffer; at
    # lam = 1 the first two steps leave K_g, and the last is posterior's own call
    cov = state.grid_prior_cov - state.posterior.cov
    cov *= 1.0 - lam
    np.subtract(k_grid, cov, out=cov)
    subtract_gram(cov, w, lam)
    chol_with_jitter(cov, "recursive grid covariance", check_only=True)

    new_post = FieldPosterior(t=snapshot.t, mean=mean, cov=cov, hyper=hyper, kernel=kernel)
    return RecursiveState(
        posterior=new_post,
        lam=lam,
        centroid=centroid,
        grid_prior_mean=m_grid,
        grid_prior_cov=k_grid,
        cov_tx=cov_tx,
    )
