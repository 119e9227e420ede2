"""End-to-end static fit: localization, hyper-parameters, kernel, posterior.

This is the per-snapshot estimation step shared by the one-shot estimator,
the recursive estimator's initialization and per-step update, and the
command-line runners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .empbayes import HyperEstimate, estimate_means, hyper_at, refine_all
from .gp import FieldPosterior, KernelParams, fit_kernel, posterior
from .localize import CentroidState
from .model import (
    Grid,
    MeasurementSnapshot,
    NoiseModel,
    Position,
    clamped_distances,
    log_distance_feature,
)


@dataclass
class PipelineConfig:
    """Knobs of the static fit."""

    noise: NoiseModel
    area_bounds: Optional[tuple] = None
    refine_passes: int = 10
    n_starts: int = 4
    # known per-sensor measurement variances as a callable of the fitted
    # distances (known shadowing parameters); enables the empirical variance path
    sigma_z_given: Optional[object] = None
    # fixed kernel scales; skips the marginal-likelihood fit when given
    kernel: Optional[KernelParams] = None
    # known transmitter location; bypasses localization entirely
    fixed_tx: Optional[Position] = None


@dataclass(frozen=True)
class StaticResult:
    posterior: FieldPosterior
    hyper: HyperEstimate
    kernel: KernelParams
    centroid: CentroidState


def run_static(
    snapshot: MeasurementSnapshot,
    grid: Grid,
    config: PipelineConfig,
    centroid: Optional[CentroidState] = None,
    *,
    compute_cov: bool = True,
) -> StaticResult:
    """Fit the field posterior from a single snapshot.

    Hyper-parameters first (weighted centroid, means, refinement loop and
    variances, see ``empbayes.hyper_at``), then the two spatial kernel scales
    by marginal likelihood unless a kernel is given, then the GP posterior at
    the grid.
    """
    hyper, centroid = _hyper(snapshot, config, centroid)
    kernel = _kernel(snapshot, hyper, config)
    post = posterior(
        (snapshot.positions, snapshot.rss), grid, hyper, kernel, config.noise,
        t=snapshot.t, compute_cov=compute_cov,
    )
    return StaticResult(posterior=post, hyper=hyper, kernel=kernel, centroid=centroid)


def _hyper(snapshot: MeasurementSnapshot, config: PipelineConfig, centroid: Optional[CentroidState]) -> tuple:
    """(hyper, centroid): at the known transmitter when one is configured
    (the centroid then passes through), else by ``refine_all``."""
    centroid = centroid if centroid is not None else CentroidState.empty()
    if config.fixed_tx is None:
        return refine_all(
            snapshot,
            centroid,
            area_bounds=config.area_bounds,
            passes=config.refine_passes,
            sigma_z_given=config.sigma_z_given,
        )
    d_hat = clamped_distances(snapshot.positions, config.fixed_tx)
    mu_p, mu_alpha = estimate_means(snapshot.rss, log_distance_feature(d_hat), d_hat)
    return hyper_at(snapshot.rss, mu_p, mu_alpha, d_hat, config.fixed_tx, config.sigma_z_given), centroid


def _kernel(snapshot: MeasurementSnapshot, hyper: HyperEstimate, config: PipelineConfig) -> KernelParams:
    """The configured kernel, else the marginal-likelihood fit under hyper."""
    if config.kernel is not None:
        return config.kernel
    return fit_kernel((snapshot.positions, snapshot.rss), hyper, config.noise, n_starts=config.n_starts)
