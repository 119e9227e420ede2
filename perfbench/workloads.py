"""The benchmark's workloads: closed loops with one client over rssfield's
public API.

Each workload has a ``setup`` (the world and its first snapshot), an ``op``
(the unit that is timed) and a ``check`` of the op's outputs, which runs
outside the timed region and returns the failures it found plus the op's
accuracy figures. Accuracy is averaged over the first ``accuracy_ops`` ops,
which every run completes, so it is a deterministic function of the seed. The library is always reached through module attributes
(``recursive.rgp_step``, not a name bound at import), so the tracer's
wrappers and the self-test's injected faults see every call.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

from rssfield import baseline, bounds, experiments, pipeline, recursive, synth
from rssfield.gp import KernelParams
from rssfield.model import NoiseModel, rho_u_from

from spans import counting_pinv_warnings

# Reference estimator settings of the paper's synthetic study.
NOISE = NoiseModel(rho_u=rho_u_from(3.5, 13.16), sigma_w=math.sqrt(7.0))
SIGMA_V_SQ = 10.0
D_CORR = 50.0

# World sizes: "full" is what the benchmark measures; "small" runs the same
# code in seconds for the self-test.
SIZES = {
    "full": {
        "sweep_ref": {"n_sensors": 218, "nx": 32, "ny": 34},
        "track_ref": {"n_sensors": 218, "nx": 32, "ny": 34},
        "report_large": {"n_sensors": 1024, "nx": 64, "ny": 64},
    },
    "small": {
        "sweep_ref": {"n_sensors": 40, "nx": 8, "ny": 8},
        "track_ref": {"n_sensors": 40, "nx": 8, "ny": 8},
        "report_large": {"n_sensors": 60, "nx": 12, "ny": 12},
    },
}


def _tx_error(hyper, scenario) -> float:
    tx, true_tx = hyper.tx, scenario.params.tx_position
    return math.hypot(tx.x - true_tx.x, tx.y - true_tx.y)


def _field_failures(mean, var=None) -> list:
    out = []
    if not np.all(np.isfinite(mean)):
        out.append("non-finite field mean")
    if var is not None and not (np.all(np.isfinite(var)) and np.all(var >= 0.0)):
        out.append("negative or non-finite posterior variance")
    return out


class SweepRef:
    """One replicate of the location-error case sweep per op: 3 cases x
    sigma_v^2 in {4, 10, 16}, mean-only static fits, metrics CSVs written."""

    accuracy_ops = 4

    def __init__(self, seed, size, out_dir, tracer):
        self.seed, self.tracer = seed, tracer
        self.out_dir = Path(out_dir) / f"sweep_ref-seed{seed}"
        self.config = experiments.ExperimentConfig(
            grid_nx=size["nx"], grid_ny=size["ny"], n_sensors=size["n_sensors"], replicates=1
        )

    def setup(self):
        # the first snapshot fills synth's grid-Cholesky cache, shared by all ops
        with self.tracer.span("synth.sample_snapshot"):
            synth.sample_snapshot(self.config.scenario(seed=self.seed), 0)

    def op(self, i):
        cfg = dataclasses.replace(self.config, seed=self.seed * 1_000_003 + i)
        with self.tracer.span("experiments.run_cases"):
            return experiments.run_cases(cfg, out_dir=self.out_dir)

    def check(self, i, out):
        records, metrics_path = out
        fails = []
        n_expected = 3 * len(self.config.sigma_v_sq_sweep)
        if len(records) != n_expected:
            fails.append(f"{len(records)} records, expected {n_expected}")
        # a finite MSE against finite truth means every field mean was finite
        if not all(math.isfinite(r.mse) and r.mse >= 0.0 for r in records):
            fails.append("non-finite field mean (MSE not finite)")
        if not all(math.isfinite(v) for r in records for v in (r.mu_p, r.mu_alpha, r.tx_err_m)):
            fails.append("non-finite hyper-parameter or fix")
        fails += _csv_failures(records, Path(metrics_path))
        mse = float(np.mean([r.mse for r in records])) if records else math.nan
        tx = float(np.mean([r.tx_err_m for r in records])) if records else math.nan
        return fails, {"mse_db2": mse, "tx_err_m": tx}


def _csv_failures(records, metrics_path) -> list:
    """The metrics CSV holds exactly the returned records and the summary
    CSV's means recompute from them."""
    with open(metrics_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records):
        return ["metrics CSV row count differs from the returned records"]
    for row, rec in zip(rows, records):
        want = (rec.case, rec.sigma_v_sq, rec.replicate, rec.t, rec.mse, rec.mu_alpha, rec.mu_p, rec.tx_err_m)
        got = (row["case"], float(row["sigma_v_sq"]), int(row["replicate"]), int(row["t"]),
               float(row["mse"]), float(row["mu_alpha"]), float(row["mu_p"]), float(row["tx_err_m"]))
        if got != want:
            return [f"metrics CSV row {row} differs from record {rec}"]
    summary_path = metrics_path.with_name(metrics_path.name.replace("_metrics.csv", "_summary.csv"))
    with open(summary_path, encoding="utf-8", newline="") as fh:
        summary = list(csv.DictReader(fh))
    groups = {}
    for rec in records:
        groups.setdefault((rec.case, rec.sigma_v_sq), []).append(rec.mse)
    if len(summary) != len(groups):
        return ["summary CSV has the wrong number of groups"]
    for row in summary:
        vals = groups.get((row["case"], float(row["sigma_v_sq"])))
        if vals is None or int(row["n"]) != len(vals):
            return [f"summary row {row} matches no group of records"]
        if not math.isclose(float(row["mean_mse"]), float(np.mean(vals)), rel_tol=1e-12):
            return [f"summary mean {row['mean_mse']} does not recompute from the records"]
    return []


class TrackRef:
    """Recursive tracking: one op is the next snapshot plus one rgp_step."""

    accuracy_ops = 60

    def __init__(self, seed, size, out_dir, tracer):
        self.tracer = tracer
        self.scenario = synth.benchmark_scenario(
            seed=seed, sigma_v_sq=SIGMA_V_SQ, d_corr=D_CORR, n_sensors=size["n_sensors"],
            nx=size["nx"], ny=size["ny"], dynamics=synth.Intermittent(0.2),
        )
        self.config = recursive.RecursiveConfig(
            pipeline=pipeline.PipelineConfig(noise=NOISE, area_bounds=self.scenario.area_bounds),
            lam=0.5,
            kernel_refit="freeze_after_init",
        )
        self.state = None

    def setup(self):
        with self.tracer.span("synth.sample_snapshot"):
            snap0, _ = synth.sample_snapshot(self.scenario, 0)
        with self.tracer.span("recursive.init_state"):
            self.state = recursive.init_state(snap0, self.scenario.grid, self.config)

    def op(self, i):
        t = i + 1
        with self.tracer.span("synth.sample_snapshot"):
            snap, truth = synth.sample_snapshot(self.scenario, t)
        with self.tracer.span("recursive.rgp_step"):
            self.state = recursive.rgp_step(self.state, snap, self.scenario.grid, self.config)
        return t, self.state, truth

    def check(self, i, out):
        t, state, truth = out
        post = state.posterior
        fails = [] if post.t == t else [f"state is at t={post.t}, expected {t}"]
        if post.cov is None or not np.all(np.isfinite(post.cov)):
            fails.append("missing or non-finite carried covariance")
            var = None
        else:
            var = np.diag(post.cov)
        fails += _field_failures(post.mean, var)
        mse = experiments.compute_mse(post.mean, truth.grid_field)
        return fails, {"mse_db2": mse, "tx_err_m": _tx_error(post.hyper, self.scenario)}


class ReportLarge:
    """Per-snapshot field report on the scaled world: static fit with
    covariance under a given kernel, HCRB at every node, kriging baseline."""

    accuracy_ops = 4

    def __init__(self, seed, size, out_dir, tracer):
        self.tracer = tracer
        self.scenario = synth.benchmark_scenario(
            seed=seed, sigma_v_sq=SIGMA_V_SQ, d_corr=D_CORR, n_sensors=size["n_sensors"],
            nx=size["nx"], ny=size["ny"],
        )
        kernel = KernelParams.from_decay(math.sqrt(SIGMA_V_SQ), D_CORR, 1e-2, 1e-2)
        self.config = pipeline.PipelineConfig(
            noise=NOISE, area_bounds=self.scenario.area_bounds, kernel=kernel
        )

    def setup(self):
        # fills synth's grid-Cholesky and sensor-conditional caches
        with self.tracer.span("synth.sample_snapshot"):
            synth.sample_snapshot(self.scenario, 0)

    def op(self, i):
        grid, tr = self.scenario.grid, self.tracer
        with tr.span("synth.sample_snapshot"):
            snap, truth = synth.sample_snapshot(self.scenario, i)
        train = (snap.positions, snap.rss)
        with tr.span("pipeline.run_static"):
            result = pipeline.run_static(snap, grid, self.config)
        with tr.span("bounds.hcrb_all"):
            reports = bounds.hcrb_all(train, grid, result.hyper, result.kernel, NOISE)
        tr.count("bounds.singular", 1 if reports and reports[0].singular else 0)
        with tr.span("baseline.okd_predict"), counting_pinv_warnings(tr):
            okd = baseline.okd_predict(train, grid, result.hyper)
        return result, reports, okd, truth

    def check(self, i, out):
        result, reports, okd, truth = out
        post = result.posterior
        fails = _field_failures(post.mean, None if post.cov is None else np.diag(post.cov))
        if post.cov is None:
            fails.append("posterior covariance missing")
        gp_var = np.array([r.gp_variance for r in reports])
        bound = np.array([r.bound for r in reports])
        if len(reports) != self.scenario.grid.n_nodes:
            fails.append("HCRB does not cover every node")
        elif not (np.all(np.isfinite(bound)) and np.all(bound >= gp_var)):
            fails.append("HCRB bound below the GP variance or not finite")
        if not np.all(np.isfinite(okd)):
            fails.append("non-finite kriging prediction")
        return fails, {
            "mse_db2": experiments.compute_mse(post.mean, truth.grid_field),
            "tx_err_m": _tx_error(result.hyper, self.scenario),
            "okd_mse_db2": experiments.compute_mse(okd, truth.grid_field),
        }


WORKLOADS = {"sweep_ref": SweepRef, "track_ref": TrackRef, "report_large": ReportLarge}
