"""Recursive field estimation: fuse each snapshot with the carried posterior.

Each step blends the data-dependent part of the current static posterior
(weight lambda) with the carried deviation of the previous posterior from its
own prior (weight 1 - lambda), on top of the current prior mean and
covariance. lambda = 1 reproduces the static estimator exactly; lambda -> 0
freezes the field. A time step without reports has no snapshot and takes no
step: the carried state stands for it as it is.

The covariance is blended against the current grid prior K_g:
cov = K_g - (1 - lambda)(K_g - C_prev) - lambda W^T W
    = lambda (K_g - W^T W) + (1 - lambda) C_prev,
a convex combination of the current static posterior covariance and the
carried one. Both are positive definite, so every step's covariance is too,
whether or not the kernel and the covariance-side fix changed since the last
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gp import (
    FieldPosterior,
    chol_with_jitter,
    condition,
    kernel_matrix,
    matvec,
    prior_mean,
    row_blocks,
    solve_w,
    subtract_gram,
)
from .localize import CentroidState
from .model import Grid, MeasurementSnapshot, Position, clamped_distances
from .pipeline import PipelineConfig, hyper_for, kernel_for, run_static

# unused here; the benchmark tracer wraps these names on this module, so they
# stay importable from it
from .empbayes import refine_all  # noqa: F401
from .gp import fit_kernel  # noqa: F401

KERNEL_REFIT_MODES = ("freeze_after_init", "every_step")


@dataclass
class RecursiveConfig:
    """Knobs of the recursive estimator on top of the static-fit ones."""

    pipeline: PipelineConfig
    lam: float = 0.5
    kernel_refit: str = "freeze_after_init"

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lambda must be in (0, 1]")
        if self.kernel_refit not in KERNEL_REFIT_MODES:
            raise ValueError(f"kernel_refit must be one of {KERNEL_REFIT_MODES}")


@dataclass(frozen=True)
class RecursiveState:
    """Carried state: the last posterior and what the next step reads besides.

    grid_prior_cov is K_g under posterior.kernel and cov_tx, carried under
    ``freeze_after_init``, where neither changes; there is no cache key. It
    is None in the state ``init_state`` returns and under ``every_step``,
    whose steps refit both and build K_g. cov_tx is the transmitter fix of
    the covariance-side kernel evaluations, which moves only under
    ``every_step``. The carried prior mean is prior_mean(grid,
    posterior.hyper). Each step blends the current static posterior
    covariance with the carried posterior.cov convexly (see the module
    docstring), so the carried covariance stays positive definite under
    either kernel_refit cadence; the mean path always tracks the current
    estimates.
    """

    posterior: FieldPosterior
    centroid: CentroidState
    grid_prior_cov: Optional[np.ndarray]  # K_g under (posterior.kernel, cov_tx), or None
    cov_tx: Position  # transmitter fix of the covariance-side kernel evaluations


def init_state(snapshot0: MeasurementSnapshot, grid: Grid, config: RecursiveConfig) -> RecursiveState:
    """Seed the state with ``run_static`` on the first snapshot.

    The state carries no grid prior: the first step builds K_g, and keeps
    it for later steps unless every step refits the kernel.
    """
    static = run_static(snapshot0, grid, config.pipeline)
    return RecursiveState(
        posterior=static.posterior, centroid=static.centroid, grid_prior_cov=None, cov_tx=static.hyper.tx,
    )


def rgp_step(
    state: RecursiveState,
    snapshot: MeasurementSnapshot,
    grid: Grid,
    config: RecursiveConfig,
) -> RecursiveState:
    """Advance the recursion by one snapshot.

    Hyper-parameters are re-estimated from every snapshot on the static fit's
    own path (``pipeline.hyper_for``: the known transmitter when one is
    configured, else ``refine_all``). Under ``every_step`` the kernel comes
    from the static fit's path too (``pipeline.kernel_for``: the configured
    kernel, else a refit) and the covariance-side fix follows the new
    hyper-parameters; otherwise both are the state's.

    The data term conditions on the snapshot through ``gp.condition``, with L
    the lower Cholesky factor of K_X + S: mu_post = K_gX (K_X + S)^-1 (z - m_X)
    and sigma_post = W^T W with W = L^-1 K_Xg. The grid prior K_g is the
    state's under ``freeze_after_init`` when it carries one, and built
    otherwise. Every term of the blended covariance is exactly symmetric, so
    the result is too, and it is assembled and checked in the one M x M
    buffer it is returned in. At lambda = 1 it is bit-identical to
    ``posterior``'s at any number of reports.
    """
    if state.posterior.cov is None:
        raise ValueError("recursive state requires a posterior covariance")

    pconf = config.pipeline
    hyper, centroid = hyper_for(snapshot, pconf, state.centroid)
    freeze = config.kernel_refit == "freeze_after_init"
    if freeze:
        kernel, cov_tx = state.posterior.kernel, state.cov_tx
    else:
        kernel, cov_tx = kernel_for(snapshot, hyper, pconf), hyper.tx

    xy = snapshot.positions
    noise_var = pconf.noise.variances(clamped_distances(xy, hyper.tx))
    resid = snapshot.rss - prior_mean(xy, hyper)
    low, k_gx, beta = condition(xy, grid.xy, resid, kernel, cov_tx, noise_var)
    mu_post = matvec(k_gx, beta)
    w = solve_w(low, k_gx)

    m_grid = prior_mean(grid.xy, hyper)
    mu_prior = state.posterior.mean - prior_mean(grid.xy, state.posterior.hyper)
    k_grid = state.grid_prior_cov if freeze else None
    if k_grid is None:
        k_grid = kernel_matrix(grid.xy, grid.xy, kernel, cov_tx)

    lam = config.lam
    mean = m_grid + (1.0 - lam) * mu_prior + lam * mu_post
    # cov = K_g - (1 - lam) (K_g - C_prev) - lam W^T W, in one buffer; at
    # lam = 1 the blend leaves K_g, and the last term is posterior's own call.
    # The blend takes its three passes over one block of rows at a time,
    # which stays in cache. Restricted to the triangle subtract_gram reads,
    # the blocks are strided, and numpy's passes over them took longer than
    # over the whole matrix (2.3 against 2.1 ms at 1088 nodes; these blocks:
    # 1.9 ms)
    cov = np.empty(k_grid.shape)
    for rows in row_blocks(*cov.shape):
        blk = cov[rows]
        np.subtract(k_grid[rows], state.posterior.cov[rows], out=blk)
        blk *= 1.0 - lam
        np.subtract(k_grid[rows], blk, out=blk)
    subtract_gram(cov, w, lam)
    chol_with_jitter(cov, "recursive grid covariance", check_only=True)

    new_post = FieldPosterior(t=snapshot.t, mean=mean, cov=cov, hyper=hyper, kernel=kernel)
    return RecursiveState(
        posterior=new_post, centroid=centroid, cov_tx=cov_tx,
        grid_prior_cov=k_grid if freeze else None,
    )
