"""Estimation of received-signal-strength fields from crowdsourced reports."""

from .model import (
    D_MIN,
    Grid,
    MeasurementSnapshot,
    NoiseModel,
    NumericalError,
    Position,
    PropagationParams,
    clamped_distances,
    distance_matrix,
    log_distance_feature,
    rho_u_from,
    uniform_grid,
)
from .synth import (
    GroundTruth,
    Intermittent,
    Moving,
    PowerSchedule,
    Scenario,
    Static,
    benchmark_scenario,
    sample_snapshot,
)
from .localize import CentroidState, NoFixError, centroid_update
from .empbayes import (
    DegenerateFitError,
    HyperEstimate,
    estimate_means,
    estimate_variances,
    refine_all,
    refine_transmitter,
)
from .gp import (
    FieldPosterior,
    KernelParams,
    fit_kernel,
    kernel_matrix,
    posterior,
    prior_mean,
)
from .pipeline import PipelineConfig, StaticResult, run_static
from .recursive import RecursiveConfig, RecursiveState, init_state, rgp_step
from .bounds import HcrbReport, hcrb_all
from .baseline import VariogramModel, fit_variogram, okd_predict
from .experiments import compute_mse

__version__ = "0.1.0"
