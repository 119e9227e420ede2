"""Recursive field estimation: fuse each snapshot with the carried posterior.

Each step blends the data-dependent part of the current static posterior
(weight lambda) with the carried deviation of the previous posterior from its
own prior (weight 1 - lambda), on top of the current prior mean and
covariance. lambda = 1 reproduces the static estimator exactly; lambda -> 0
freezes the field.

The covariance is blended against the current grid prior K_g:
cov = K_g - (1 - lambda)(K_g - C_prev) - lambda W^T W
    = lambda (K_g - W^T W) + (1 - lambda) C_prev,
a convex combination of the current static posterior covariance and the
carried one. Both are positive definite, so every step's covariance is too,
whether or not the kernel and the covariance-side fix changed since the last
step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .gp import (
    FieldPosterior,
    _posterior,
    chol_with_jitter,
    condition,
    kernel_matrix,
    matvec,
    prior_mean,
    subtract_gram,
)
from .localize import CentroidState
from .model import Grid, MeasurementSnapshot, Position, clamped_distances
from .pipeline import PipelineConfig, _hyper, _kernel

# unused here; the benchmark tracer wraps these names on this module, so they
# stay importable from it
from .empbayes import refine_all  # noqa: F401
from .gp import fit_kernel  # noqa: F401
from .pipeline import run_static  # noqa: F401

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
    """Carried state: the last posterior and what the next step reads besides.

    grid_prior_cov is K_g under posterior.kernel and cov_tx, kept so that a
    step under the same kernel and fix does not rebuild it; cov_tx is the
    transmitter fix of the covariance-side kernel evaluations, which moves
    only under ``every_step``. The carried prior mean is
    prior_mean(grid, posterior.hyper). Each step blends the current static
    posterior covariance with the carried posterior.cov convexly (see the
    module docstring), so the carried covariance stays positive definite
    under either kernel_refit cadence; the mean path always tracks the
    current estimates.
    """

    posterior: FieldPosterior
    centroid: CentroidState
    grid_prior_cov: np.ndarray  # K_g under (posterior.kernel, cov_tx)
    cov_tx: Position  # transmitter fix of the covariance-side kernel evaluations


def init_state(snapshot0: MeasurementSnapshot, grid: Grid, config: RecursiveConfig) -> RecursiveState:
    """Run the full static pipeline on the first snapshot and seed the state.

    This is ``run_static`` with its grid prior K_g built once: the posterior
    covariance is assembled in a copy of it, and K_g itself is kept.
    """
    pconf = config.pipeline
    hyper, centroid = _hyper(snapshot0, pconf, None)
    kernel = _kernel(snapshot0, hyper, pconf)
    k_grid = kernel_matrix(grid.xy, grid.xy, kernel, hyper.tx)
    train = (snapshot0.positions, snapshot0.rss)
    post = _posterior(train, grid, hyper, kernel, pconf.noise, snapshot0.t, True, k_grid.copy())
    return RecursiveState(posterior=post, centroid=centroid, grid_prior_cov=k_grid, cov_tx=hyper.tx)


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

    Hyper-parameters come from the static fit's own path (``pipeline._hyper``:
    the known transmitter when one is configured, else ``refine_all``) unless
    ``reestimate_hyper`` is off. Under ``every_step`` the kernel comes from
    the static fit's path too (``pipeline._kernel``: the configured kernel,
    else a refit) and the covariance-side fix follows the new
    hyper-parameters; otherwise both are the state's.

    The data term conditions on the snapshot through ``gp.condition``, with L
    the lower Cholesky factor of K_X + S: mu_post = K_gX (K_X + S)^-1 (z - m_X)
    and sigma_post = W^T W with W = L^-1 K_Xg. The grid prior K_g is the
    state's when the kernel and the fix are the state's own, and recomputed
    otherwise. Every term of the blended covariance is exactly symmetric, so
    the result is too, and it is assembled and checked in the one M x M
    buffer it is returned in. At lambda = 1 it is bit-identical to
    ``posterior``'s at any number of reports.

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
        hyper, centroid = _hyper(snapshot, pconf, state.centroid)
    else:
        hyper, centroid = state.posterior.hyper, state.centroid
    if config.kernel_refit == "every_step":
        kernel, cov_tx = _kernel(snapshot, hyper, pconf), hyper.tx
    else:
        kernel, cov_tx = state.posterior.kernel, state.cov_tx

    xy = snapshot.positions
    noise_var = pconf.noise.variances(clamped_distances(xy, hyper.tx))
    resid = snapshot.rss - prior_mean(xy, hyper)
    low, k_gx, beta = condition(xy, grid.xy, resid, kernel, cov_tx, noise_var)
    mu_post = matvec(k_gx, beta)
    w = solve_triangular(low, k_gx.T, lower=True, overwrite_b=True)  # reuses k_gx

    m_grid = prior_mean(grid.xy, hyper)
    mu_prior = state.posterior.mean - prior_mean(grid.xy, state.posterior.hyper)
    k_grid = _grid_prior_cov(state, grid, kernel, cov_tx)

    lam = config.lam
    mean = m_grid + (1.0 - lam) * mu_prior + lam * mu_post
    # cov = K_g - (1 - lam) (K_g - C_prev) - lam W^T W, in one buffer; at
    # lam = 1 the first two steps leave K_g, and the last is posterior's own call
    cov = k_grid - state.posterior.cov
    cov *= 1.0 - lam
    np.subtract(k_grid, cov, out=cov)
    subtract_gram(cov, w, lam)
    chol_with_jitter(cov, "recursive grid covariance", check_only=True)

    new_post = FieldPosterior(t=snapshot.t, mean=mean, cov=cov, hyper=hyper, kernel=kernel)
    return RecursiveState(posterior=new_post, centroid=centroid, grid_prior_cov=k_grid, cov_tx=cov_tx)
