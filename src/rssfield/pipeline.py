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
from .model import Grid, MeasurementSnapshot, NoiseModel, Position, clamped_distances


@dataclass
class PipelineConfig:
    """Knobs of the static fit."""

    noise: NoiseModel
    # ((x_lo, x_hi), (y_lo, y_hi)): the box the transmitter fix is searched in
    area_bounds: tuple
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

    Hyper-parameters first (centroid and profiled fix by ``refine_all``,
    means and variances by ``hyper_at``, see ``hyper_for``), then the two spatial
    kernel scales by marginal likelihood unless a kernel is given, then the
    GP posterior at the grid.
    """
    hyper, centroid = hyper_for(snapshot, config, CentroidState())
    kernel = kernel_for(snapshot, hyper, config)
    post = posterior(
        (snapshot.positions, snapshot.rss), grid, hyper, kernel, config.noise,
        t=snapshot.t, compute_cov=compute_cov,
    )
    return StaticResult(posterior=post, hyper=hyper, kernel=kernel, centroid=centroid)


def hyper_for(snapshot: MeasurementSnapshot, config: PipelineConfig, centroid: CentroidState) -> tuple:
    """(hyper, centroid): ``hyper_at`` the known transmitter when one is
    configured (the centroid then passes through), else at ``refine_all``'s
    fix in the area.

    On the empirical variance path ``hyper_at`` gets the known per-sensor
    measurement variances sigma_v^2 + sigma_w^2 + rho_u^2 / d^2 at the
    distances to the fix, under the config's noise model as it is now.
    """
    tx = config.fixed_tx
    if tx is None:
        tx, centroid = refine_all(snapshot, centroid, config.area_bounds)
    known = None
    if config.sigma_v_sq is not None:
        known = config.sigma_v_sq + config.noise.variances(clamped_distances(snapshot.positions, tx))
    return hyper_at(snapshot, tx, known), centroid


def kernel_for(snapshot: MeasurementSnapshot, hyper: HyperEstimate, config: PipelineConfig) -> KernelParams:
    """The configured kernel, else the marginal-likelihood fit under hyper."""
    if config.kernel is not None:
        return config.kernel
    return fit_kernel((snapshot.positions, snapshot.rss), hyper, config.noise)
