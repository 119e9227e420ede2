"""Experiment configuration, synthetic sweeps, real-data ingestion and I/O.

File conventions (all CSV: UTF-8, LF line endings, '.' decimal separator,
floats printed with 17 significant digits so values round-trip exactly):

measurements  t,sensor_id,x_hat_m,y_hat_m,rss_dbm
truth         node_id,x_m,y_m,rss_dbm
field         node_id,x_m,y_m,post_mean_dbm,post_var_db2[,hcrb_db2]

Metrics files are byte-reproducible for a fixed config and seed; wall-clock
timings go to a separate timings file, which is the one file allowed to
differ between reruns.
"""

from __future__ import annotations

import configparser
import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import synth
from .gp import FieldPosterior
from .model import (
    Grid,
    MeasurementSnapshot,
    NoiseModel,
    Position,
    rho_u_from,
    uniform_grid,
)
from .pipeline import PipelineConfig, run_static
from .synth import Scenario, sample_snapshot


class ConfigError(ValueError):
    """The experiment configuration is missing, malformed or inconsistent."""


class DataError(ValueError):
    """An input data file violates its schema."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def compute_mse(estimate, truth) -> float:
    """Mean squared difference between two equal-length field vectors, dB^2."""
    est = np.asarray(estimate, dtype=float).reshape(-1)
    tru = np.asarray(truth, dtype=float).reshape(-1)
    if est.shape != tru.shape:
        raise ValueError(f"length mismatch: {est.shape[0]} vs {tru.shape[0]}")
    diff = est - tru
    return float(diff @ diff) / est.shape[0]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Parsed experiment configuration (defaults follow the reference setup)."""

    # scenario
    area: tuple = (500.0, 500.0)
    grid_nx: int = 32
    grid_ny: int = 34
    n_sensors: int = 218
    alpha: float = 3.5
    power: float = -10.0
    sigma_w: float = math.sqrt(7.0)
    sigma_v: float = math.sqrt(10.0)
    d_corr: float = 50.0
    sigma_d: float = 13.16
    tx: Optional[Position] = None  # None: area center
    tx_known: bool = False  # bypass localization with the configured tx
    dynamics: str = "static"
    drop_fraction: float = 0.2
    step_std: float = 5.0
    power_schedule: tuple = ()
    # estimator
    estimator: str = "sgp"  # sgp | rgp | okd
    lam: float = 0.5
    steps: int = 1
    kernel_refit: str = "freeze_after_init"
    variance_path: str = "kernel"  # kernel | empirical
    rho_u: Optional[float] = None  # None: rho_u_from(alpha, sigma_d)
    n_starts: int = 4
    refine_passes: int = 10
    nlml_maxiter: int = 200
    # run
    replicates: int = 100
    seed: int = 0
    out_dir: str = "out"
    sigma_v_sq_sweep: tuple = (4.0, 10.0, 16.0)

    def effective_rho_u(self) -> float:
        return self.rho_u if self.rho_u is not None else rho_u_from(self.alpha, self.sigma_d)

    def noise_model(self) -> NoiseModel:
        return NoiseModel(rho_u=self.effective_rho_u(), sigma_w=self.sigma_w)

    def grid(self) -> Grid:
        return uniform_grid(self.area[0], self.area[1], self.grid_nx, self.grid_ny)

    def tx_position(self) -> Position:
        return self.tx if self.tx is not None else Position(self.area[0] / 2, self.area[1] / 2)

    def dynamics_obj(self):
        if self.dynamics == "static":
            return synth.Static()
        if self.dynamics == "intermittent":
            return synth.Intermittent(self.drop_fraction)
        if self.dynamics == "moving":
            return synth.Moving(self.step_std)
        if self.dynamics == "power_schedule":
            if not self.power_schedule:
                raise ConfigError("dynamics=power_schedule requires a power_schedule entry")
            return synth.PowerSchedule(self.power_schedule)
        raise ConfigError(f"unknown dynamics {self.dynamics!r}")

    def scenario(self, seed: Optional[int] = None, sigma_v_sq: Optional[float] = None) -> Scenario:
        sigma_v = self.sigma_v if sigma_v_sq is None else math.sqrt(sigma_v_sq)
        params = synth.PropagationParams(
            alpha=self.alpha,
            power=self.power,
            sigma_v=sigma_v,
            d_corr=self.d_corr,
            sigma_w=self.sigma_w,
            sigma_d=self.sigma_d,
            tx_position=self.tx_position(),
        )
        return Scenario(
            params=params,
            grid=self.grid(),
            area=self.area,
            n_sensors=self.n_sensors,
            seed=self.seed if seed is None else seed,
            dynamics=self.dynamics_obj(),
        )

    def pipeline_config(self) -> PipelineConfig:
        """Static-fit config; the empirical variance path also gets the known
        per-sensor measurement variances as a function of the fitted distances."""
        if self.variance_path not in ("kernel", "empirical"):
            raise ConfigError(f"unknown variance_path {self.variance_path!r}")
        cfg = PipelineConfig(
            noise=self.noise_model(),
            area_bounds=((0.0, self.area[0]), (0.0, self.area[1])),
            refine_passes=self.refine_passes,
            n_starts=self.n_starts,
            maxiter=self.nlml_maxiter,
            fixed_tx=self.tx_position() if self.tx_known else None,
        )
        if self.variance_path == "empirical":
            cfg.sigma_z_given = _known_variances(self.sigma_v**2, cfg.noise)
        return cfg


def _known_variances(sigma_v_sq: float, noise: NoiseModel):
    """Known per-sensor measurement variances sigma_v^2 + sigma_w^2 + rho_u^2 / d^2
    as a callable of the fitted distances (the empirical variance path)."""

    def known(d_hat):
        return sigma_v_sq + noise.variances(d_hat)

    return known


_SCENARIO_KEYS = {
    "area_width", "area_height", "grid_nx", "grid_ny", "n_sensors", "alpha",
    "power_dbm", "sigma_w", "sigma_v", "d_corr", "sigma_d", "tx_x", "tx_y",
    "tx_known", "dynamics", "drop_fraction", "step_std", "power_schedule",
}
_ESTIMATOR_KEYS = {
    "estimator", "lambda", "steps", "kernel_refit", "variance_path", "rho_u",
    "n_starts", "refine_passes", "nlml_maxiter",
}
_RUN_KEYS = {"replicates", "seed", "out_dir", "sigma_v_sq_sweep"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI-style experiment config (sections scenario/estimator/run)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    cfg = ExperimentConfig()
    try:
        for section, allowed in (
            ("scenario", _SCENARIO_KEYS),
            ("estimator", _ESTIMATOR_KEYS),
            ("run", _RUN_KEYS),
        ):
            if not parser.has_section(section):
                continue
            for key in parser[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")

        s = parser["scenario"] if parser.has_section("scenario") else {}
        g = lambda k, d: s.get(k, d) if hasattr(s, "get") else d
        cfg.area = (float(g("area_width", cfg.area[0])), float(g("area_height", cfg.area[1])))
        cfg.grid_nx = int(g("grid_nx", cfg.grid_nx))
        cfg.grid_ny = int(g("grid_ny", cfg.grid_ny))
        cfg.n_sensors = int(g("n_sensors", cfg.n_sensors))
        cfg.alpha = float(g("alpha", cfg.alpha))
        cfg.power = float(g("power_dbm", cfg.power))
        cfg.sigma_w = float(g("sigma_w", cfg.sigma_w))
        cfg.sigma_v = float(g("sigma_v", cfg.sigma_v))
        cfg.d_corr = float(g("d_corr", cfg.d_corr))
        cfg.sigma_d = float(g("sigma_d", cfg.sigma_d))
        tx_x, tx_y = g("tx_x", ""), g("tx_y", "")
        if str(tx_x).strip() and str(tx_y).strip():
            cfg.tx = Position(float(tx_x), float(tx_y))
        cfg.tx_known = str(g("tx_known", "false")).strip().lower() in ("1", "true", "yes")
        cfg.dynamics = str(g("dynamics", cfg.dynamics)).strip()
        cfg.drop_fraction = float(g("drop_fraction", cfg.drop_fraction))
        cfg.step_std = float(g("step_std", cfg.step_std))
        sched = str(g("power_schedule", "")).strip()
        if sched:
            pairs = []
            for part in sched.split(","):
                t_str, p_str = part.split(":")
                pairs.append((int(t_str), float(p_str)))
            cfg.power_schedule = tuple(pairs)

        e = parser["estimator"] if parser.has_section("estimator") else {}
        g = lambda k, d: e.get(k, d) if hasattr(e, "get") else d
        cfg.estimator = str(g("estimator", cfg.estimator)).strip()
        cfg.lam = float(g("lambda", cfg.lam))
        cfg.steps = int(g("steps", cfg.steps))
        cfg.kernel_refit = str(g("kernel_refit", cfg.kernel_refit)).strip()
        cfg.variance_path = str(g("variance_path", cfg.variance_path)).strip()
        rho = str(g("rho_u", "")).strip()
        cfg.rho_u = float(rho) if rho else None
        cfg.n_starts = int(g("n_starts", cfg.n_starts))
        cfg.refine_passes = int(g("refine_passes", cfg.refine_passes))
        cfg.nlml_maxiter = int(g("nlml_maxiter", cfg.nlml_maxiter))

        r = parser["run"] if parser.has_section("run") else {}
        g = lambda k, d: r.get(k, d) if hasattr(r, "get") else d
        cfg.replicates = int(g("replicates", cfg.replicates))
        cfg.seed = int(g("seed", cfg.seed))
        cfg.out_dir = str(g("out_dir", cfg.out_dir)).strip()
        sweep = str(g("sigma_v_sq_sweep", "")).strip()
        if sweep:
            cfg.sigma_v_sq_sweep = tuple(float(v) for v in sweep.split(","))
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config value: {exc}") from exc

    if cfg.steps < 1:
        raise ConfigError("steps must be >= 1")
    if cfg.replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if cfg.estimator not in ("sgp", "rgp", "okd"):
        raise ConfigError(f"unknown estimator {cfg.estimator!r}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsRecord:
    """One estimator evaluation against truth."""

    t: int
    replicate: int
    mse: float
    mu_alpha: float
    mu_p: float
    tx_err_m: float
    runtime_ms: float
    case: str = ""
    sigma_v_sq: float = float("nan")

    def __post_init__(self):
        if self.mse < 0:
            raise ValueError("mse must be >= 0")


_METRICS_HEADER = ["case", "sigma_v_sq", "replicate", "t", "mse", "mu_alpha", "mu_p", "tx_err_m"]
_TIMINGS_HEADER = ["case", "sigma_v_sq", "replicate", "t", "runtime_ms"]


def write_metrics(records, out_dir, stem: str):
    """Write deterministic metrics and the (non-deterministic) timings file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / f"{stem}_metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_METRICS_HEADER) + "\n")
        for rec in records:
            fh.write(
                ",".join(
                    [
                        rec.case,
                        _fmt(rec.sigma_v_sq),
                        str(rec.replicate),
                        str(rec.t),
                        _fmt(rec.mse),
                        _fmt(rec.mu_alpha),
                        _fmt(rec.mu_p),
                        _fmt(rec.tx_err_m),
                    ]
                )
                + "\n"
            )
    with open(out / f"{stem}_timings.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_TIMINGS_HEADER) + "\n")
        for rec in records:
            fh.write(
                f"{rec.case},{_fmt(rec.sigma_v_sq)},{rec.replicate},{rec.t},{_fmt(rec.runtime_ms)}\n"
            )
    return metrics_path


def _summarize(records):
    keys = sorted({(r.case, r.sigma_v_sq) for r in records})
    rows = []
    for case, sv in keys:
        vals = [r.mse for r in records if r.case == case and r.sigma_v_sq == sv]
        rows.append((case, sv, len(vals), float(np.mean(vals))))
    return rows


def write_summary(records, out_dir, stem: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stem}_summary.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("case,sigma_v_sq,n,mean_mse\n")
        for case, sv, n, mean in _summarize(records):
            fh.write(f"{case},{_fmt(sv)},{n},{_fmt(mean)}\n")
    return path


# ---------------------------------------------------------------------------
# case sweep (sensor-location error handling)


def _replicate_seed(base_seed: int, replicate: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(replicate,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_single_case(scenario, truth, snapshot, positions, rho_u, config: ExperimentConfig):
    """Static fit with the given sensor positions and location-error scale."""
    snap = MeasurementSnapshot(
        t=snapshot.t, sensor_ids=snapshot.sensor_ids, positions=positions, rss=snapshot.rss
    )
    pcfg = config.pipeline_config()
    pcfg.noise = NoiseModel(rho_u=rho_u, sigma_w=config.sigma_w)
    if pcfg.sigma_z_given is not None:
        # the known variance follows the swept shadowing and the case's noise model
        pcfg.sigma_z_given = _known_variances(scenario.params.sigma_v**2, pcfg.noise)
    result = run_static(snap, scenario.grid, pcfg, compute_cov=False)
    mse = compute_mse(result.posterior.mean, truth.grid_field)
    tx = result.hyper.tx
    tx_err = math.hypot(tx.x - scenario.params.tx_position.x, tx.y - scenario.params.tx_position.y)
    return mse, result.hyper, tx_err


def run_cases(config: ExperimentConfig, out_dir=None):
    """Location-error comparison: true positions with exact model (case 1),
    reported positions with the error modeled (case 2) and ignored (case 3),
    swept over the shadowing variance. Cases share draws within a replicate,
    so the comparison is paired."""
    out_dir = Path(out_dir if out_dir is not None else config.out_dir)
    rho_model = config.effective_rho_u()
    records = []
    for rep in range(config.replicates):
        seed = _replicate_seed(config.seed, rep)
        for sv_sq in config.sigma_v_sq_sweep:
            scenario = config.scenario(seed=seed, sigma_v_sq=sv_sq)
            snapshot, truth = sample_snapshot(scenario, 0)
            for case, positions, rho_u in (
                ("case1", truth.sensor_true_positions, 0.0),
                ("case2", snapshot.positions, rho_model),
                ("case3", snapshot.positions, 0.0),
            ):
                t0 = time.perf_counter()
                mse, hyper, tx_err = run_single_case(
                    scenario, truth, snapshot, positions, rho_u, config
                )
                records.append(
                    MetricsRecord(
                        t=0,
                        replicate=rep,
                        mse=mse,
                        mu_alpha=hyper.mu_alpha,
                        mu_p=hyper.mu_p,
                        tx_err_m=tx_err,
                        runtime_ms=1000.0 * (time.perf_counter() - t0),
                        case=case,
                        sigma_v_sq=sv_sq,
                    )
                )
    metrics_path = write_metrics(records, out_dir, "cases")
    write_summary(records, out_dir, "cases")
    return records, metrics_path


# ---------------------------------------------------------------------------
# real-data ingestion


_MEAS_HEADER = ["t", "sensor_id", "x_hat_m", "y_hat_m", "rss_dbm"]
_TRUTH_HEADER = ["node_id", "x_m", "y_m", "rss_dbm"]


def read_measurements(path):
    """Rows of the measurement CSV as (t, sensor_id, x, y, rss) tuples."""
    rows = []
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _MEAS_HEADER:
            raise DataError(f"{path}: expected header {','.join(_MEAS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{path}: row {lineno}: expected 5 fields, got {len(row)}")
            try:
                t = int(row[0])
                x, y, rss = float(row[2]), float(row[3]), float(row[4])
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            if t < 0 or not all(map(math.isfinite, (x, y, rss))):
                raise DataError(f"{path}: row {lineno}: non-finite value or negative t")
            rows.append((t, row[1], x, y, rss))
    return rows


def write_measurements(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_MEAS_HEADER) + "\n")
        for t, sid, x, y, rss in rows:
            fh.write(f"{t},{sid},{_fmt(x)},{_fmt(y)},{_fmt(rss)}\n")


def read_truth(path):
    """Truth CSV as (grid, rss vector)."""
    ids, xy, rss = [], [], []
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _TRUTH_HEADER:
            raise DataError(f"{path}: expected header {','.join(_TRUTH_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}: row {lineno}: expected 4 fields, got {len(row)}")
            try:
                ids.append(row[0])
                xy.append((float(row[1]), float(row[2])))
                rss.append(float(row[3]))
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
    return Grid(np.array(xy)), np.array(rss)


def write_truth(path, grid: Grid, rss):
    rss = np.asarray(rss, dtype=float).reshape(-1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_TRUTH_HEADER) + "\n")
        for i, ((x, y), v) in enumerate(zip(grid.xy, rss)):
            fh.write(f"{i},{_fmt(x)},{_fmt(y)},{_fmt(v)}\n")


def ingest_real(measurements_path, split_seed: int):
    """50/50 split of a measurement file into training reports and a test
    grid whose RSS values serve as truth.

    The split is a seeded permutation: the first floor(n/2) shuffled rows
    train, the rest test. Exact duplicate test positions are dropped (grid
    nodes must be distinct).
    """
    rows = read_measurements(measurements_path)
    n = len(rows)
    if n < 2:
        raise DataError("need at least 2 rows to split")
    perm = np.random.default_rng(split_seed).permutation(n)
    n_train = n // 2
    train_rows = [rows[i] for i in perm[:n_train]]
    test_rows = [rows[i] for i in perm[n_train:]]

    seen = set()
    test_xy, test_rss = [], []
    for _, _, x, y, rss in test_rows:
        if (x, y) in seen:
            continue
        seen.add((x, y))
        test_xy.append((x, y))
        test_rss.append(rss)
    train_snapshot = MeasurementSnapshot(
        t=0,
        sensor_ids=tuple(range(len(train_rows))),
        positions=np.array([(r[2], r[3]) for r in train_rows]),
        rss=np.array([r[4] for r in train_rows]),
    )
    return train_rows, train_snapshot, Grid(np.array(test_xy)), np.array(test_rss)


# ---------------------------------------------------------------------------
# field output


def write_field_csv(path, grid: Grid, mean, var, hcrb=None):
    mean = np.asarray(mean, dtype=float).reshape(-1)
    var = np.asarray(var, dtype=float).reshape(-1)
    header = "node_id,x_m,y_m,post_mean_dbm,post_var_db2"
    if hcrb is not None:
        hcrb = np.asarray(hcrb, dtype=float).reshape(-1)
        header += ",hcrb_db2"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(grid.n_nodes):
            row = [str(i), _fmt(grid.xy[i, 0]), _fmt(grid.xy[i, 1]), _fmt(mean[i]), _fmt(var[i])]
            if hcrb is not None:
                row.append(_fmt(hcrb[i]))
            fh.write(",".join(row) + "\n")


def emit_field(posterior: FieldPosterior, bounds, path, grid: Grid):
    """Write one posterior (and optional error bounds) as a field CSV."""
    if posterior.cov is None:
        raise ValueError("posterior has no covariance; cannot emit variances")
    hcrb = [r.bound for r in bounds] if bounds is not None else None
    write_field_csv(path, grid, posterior.mean, np.diag(posterior.cov), hcrb)


def read_field_csv(path):
    """(grid, mean, var, hcrb-or-None) from a field CSV."""
    xy, mean, var, hcrb = [], [], [], []
    has_hcrb = False
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:5] != ["node_id", "x_m", "y_m", "post_mean_dbm", "post_var_db2"]:
            raise DataError(f"{path}: unexpected field header")
        has_hcrb = len(header) == 6 and header[5] == "hcrb_db2"
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                xy.append((float(row[1]), float(row[2])))
                mean.append(float(row[3]))
                var.append(float(row[4]))
                if has_hcrb:
                    hcrb.append(float(row[5]))
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
    return Grid(np.array(xy)), np.array(mean), np.array(var), (np.array(hcrb) if has_hcrb else None)
