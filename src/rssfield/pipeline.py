"""End-to-end static fit: localization, hyper-parameters, kernel, posterior.

This is the per-snapshot estimation step shared by the one-shot estimator,
the recursive estimator's initialization and per-step update, and the
command-line runners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .empbayes import HyperEstimate, hyper_at, refine_all
from .gp import FieldPosterior, KernelParams, fit_kernel, posterior
from .localize import CentroidState
from .model import Grid, MeasurementSnapshot, NoiseModel, Position


@dataclass
class PipelineConfig:
    """Knobs of the static fit."""

    noise: NoiseModel
    area_bounds: Optional[tuple] = None
    n_starts: int = 4
    # known shadowing variance sigma_v^2; enables the empirical variance path
    sigma_v_sq: Optional[float] = None
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
    *,
    compute_cov: bool = True,
) -> StaticResult:
    """Fit the field posterior from a single snapshot.

    Hyper-parameters first (weighted centroid, profiled fix, means and
    variances, see ``empbayes.refine_all``), then the two spatial kernel scales
    by marginal likelihood unless a kernel is given, then the GP posterior at
    the grid.
    """
    hyper, centroid = _hyper(snapshot, config, None)
    kernel = _kernel(snapshot, hyper, config)
    post = posterior(
        (snapshot.positions, snapshot.rss), grid, hyper, kernel, config.noise,
        t=snapshot.t, compute_cov=compute_cov,
    )
    return StaticResult(posterior=post, hyper=hyper, kernel=kernel, centroid=centroid)


def _hyper(snapshot: MeasurementSnapshot, config: PipelineConfig, centroid: Optional[CentroidState]) -> tuple:
    """(hyper, centroid): at the known transmitter when one is configured
    (the centroid then passes through), else by ``refine_all``.

    On the empirical variance path both get the known per-sensor measurement
    variances sigma_v^2 + sigma_w^2 + rho_u^2 / d^2 as a function of the
    distances to the fix, under the config's noise model as it is now.
    """
    centroid = centroid if centroid is not None else CentroidState.empty()
    known = None
    if config.sigma_v_sq is not None:
        known = lambda d_hat: config.sigma_v_sq + config.noise.variances(d_hat)  # noqa: E731
    if config.fixed_tx is None:
        return refine_all(snapshot, centroid, area_bounds=config.area_bounds, sigma_z_given=known)
    return hyper_at(snapshot, config.fixed_tx, known), centroid


def _kernel(snapshot: MeasurementSnapshot, hyper: HyperEstimate, config: PipelineConfig) -> KernelParams:
    """The configured kernel, else the marginal-likelihood fit under hyper."""
    if config.kernel is not None:
        return config.kernel
    return fit_kernel((snapshot.positions, snapshot.rss), hyper, config.noise, n_starts=config.n_starts)
