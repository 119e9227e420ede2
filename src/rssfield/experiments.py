"""Experiment configuration, synthetic sweeps, real-data ingestion and I/O.

File conventions (all CSV: UTF-8, LF line endings, '.' decimal separator,
floats printed with 17 significant digits so values round-trip exactly):

measurements  t,sensor_id,x_hat_m,y_hat_m,rss_dbm
truth         node_id,x_m,y_m,rss_dbm
field         node_id,x_m,y_m,post_mean_dbm,post_var_db2[,hcrb_db2]

The readers check the exact header, the field count of every row and that
every number is finite, and name the offending file and row in a DataError.

Metrics files are byte-reproducible for a fixed config and seed on a fixed
BLAS build and thread count: the synthetic snapshots themselves differ in
their last bits between OPENBLAS_NUM_THREADS=1 and =2 at the reference size
(see ``synth``), and the library sets no thread count. Wall-clock timings go
to a separate timings file, which is the one file allowed to differ between
reruns.
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
from .model import Grid, MeasurementSnapshot, NoiseModel, Position, rho_u_from
from .pipeline import PipelineConfig, run_static
from .recursive import RecursiveConfig
from .synth import Scenario, sample_snapshot


class ConfigError(ValueError):
    """The experiment configuration is missing, malformed or inconsistent."""


class DataError(ValueError):
    """An input data file violates its schema."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


_MEAS_HEADER = ("t", "sensor_id", "x_hat_m", "y_hat_m", "rss_dbm")
_TRUTH_HEADER = ("node_id", "x_m", "y_m", "rss_dbm")
_FIELD_HEADER = ("node_id", "x_m", "y_m", "post_mean_dbm", "post_var_db2")
_BOUND_HEADER = ("hcrb_db2",)


def _time_index(text: str) -> int:
    t = int(text)
    if t < 0:
        raise ValueError(f"negative time index {t}")
    return t


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {text!r}")
    return v


# column -> converter of its cells; every other column holds a finite number
_COLUMNS = {"t": _time_index, "sensor_id": str, "node_id": str}


def _read_rows(path, *headers):
    """(header, rows) of a CSV whose header is exactly one of ``headers``.

    Every row must have one cell per column, and each cell is converted by
    its column's converter; a violation raises a DataError naming the file
    and the row. Blank lines are skipped; a file without rows is an error.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    header = tuple(h.strip() for h in lines[0]) if lines else ()
    if header not in headers:
        raise DataError(f"{path}: expected header " + " or ".join(",".join(h) for h in headers))
    convert = [_COLUMNS.get(name, _finite) for name in header]
    rows = []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: row {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            rows.append(tuple(conv(cell) for conv, cell in zip(convert, row)))
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


def _grid(path, xy) -> Grid:
    try:
        return Grid(xy)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _write_rows(path, header, rows):
    """One CSV: the header, then one line per row; floats go through _fmt so
    they round-trip exactly, everything else through str."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row) + "\n")


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
    """Parsed experiment configuration (defaults follow the reference setup).

    Construction, and with it ``dataclasses.replace``, checks the whole config
    with the library's own checks (grid, scenario, noise model, dynamics,
    variance path, recursive knobs), so an invalid value raises ConfigError
    before any work starts. Assigning a field later is not re-checked.
    """

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
    lam: float = 0.5
    steps: int = 1
    kernel_refit: str = "freeze_after_init"
    variance_path: str = "kernel"  # kernel | empirical
    rho_u: Optional[float] = None  # None: rho_u_from(alpha, sigma_d)
    # run
    replicates: int = 100
    seed: int = 0
    out_dir: str = "out"
    sigma_v_sq_sweep: tuple = (4.0, 10.0, 16.0)

    def __post_init__(self):
        for name in ("steps", "replicates"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not self.sigma_v_sq_sweep or not all(v >= 0 for v in self.sigma_v_sq_sweep):
            raise ConfigError("sigma_v_sq_sweep needs one or more values >= 0")
        # the scenario takes sigma_v squared, so it cannot see the sign, and
        # squaring a huge sigma_v overflows before the scenario sees it
        if self.sigma_v < 0:
            raise ConfigError("sigma_v must be >= 0")
        if not math.isfinite(self.sigma_v * self.sigma_v):
            raise ConfigError("sigma_v squared must be finite")
        try:
            self.scenario()
            self.recursive_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_rho_u(self) -> float:
        return self.rho_u if self.rho_u is not None else rho_u_from(self.alpha, self.sigma_d)

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
        return synth.benchmark_scenario(
            self.seed if seed is None else seed,
            sigma_v_sq=self.sigma_v**2 if sigma_v_sq is None else sigma_v_sq,
            sigma_w=self.sigma_w,
            sigma_d=self.sigma_d,
            alpha=self.alpha,
            power=self.power,
            d_corr=self.d_corr,
            area=self.area,
            nx=self.grid_nx,
            ny=self.grid_ny,
            n_sensors=self.n_sensors,
            dynamics=self.dynamics_obj(),
            tx=self.tx,
        )

    def pipeline_config(self) -> PipelineConfig:
        """Static-fit config; the empirical variance path also gets the known
        shadowing variance sigma_v^2."""
        if self.variance_path not in ("kernel", "empirical"):
            raise ConfigError(f"unknown variance_path {self.variance_path!r}")
        return PipelineConfig(
            noise=NoiseModel(rho_u=self.effective_rho_u(), sigma_w=self.sigma_w),
            area_bounds=((0.0, self.area[0]), (0.0, self.area[1])),
            sigma_v_sq=self.sigma_v**2 if self.variance_path == "empirical" else None,
            fixed_tx=self.scenario().params.tx_position if self.tx_known else None,
        )

    def recursive_config(self) -> RecursiveConfig:
        return RecursiveConfig(
            pipeline=self.pipeline_config(), lam=self.lam, kernel_refit=self.kernel_refit
        )


def _bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}")
    return states[text.lower()]


def _floats(text: str) -> tuple:
    return tuple(_finite(v) for v in text.split(","))


def _schedule(text: str) -> tuple:
    """'0:-10, 5:-5' -> ((0, -10.0), (5, -5.0))"""
    return tuple((int(t), _finite(p)) for t, p in (part.split(":") for part in text.split(",")))


# (section, key) -> (ExperimentConfig field, converter, slot). A blank value
# keeps the field's default. area and tx take two keys each, one per slot of
# their (x, y) pair; every other field takes one key (slot None).
_KEYS = {
    ("scenario", "area_width"): ("area", _finite, 0),
    ("scenario", "area_height"): ("area", _finite, 1),
    ("scenario", "grid_nx"): ("grid_nx", int, None),
    ("scenario", "grid_ny"): ("grid_ny", int, None),
    ("scenario", "n_sensors"): ("n_sensors", int, None),
    ("scenario", "alpha"): ("alpha", _finite, None),
    ("scenario", "power_dbm"): ("power", _finite, None),
    ("scenario", "sigma_w"): ("sigma_w", _finite, None),
    ("scenario", "sigma_v"): ("sigma_v", _finite, None),
    ("scenario", "d_corr"): ("d_corr", _finite, None),
    ("scenario", "sigma_d"): ("sigma_d", _finite, None),
    ("scenario", "tx_x"): ("tx", _finite, 0),
    ("scenario", "tx_y"): ("tx", _finite, 1),
    ("scenario", "tx_known"): ("tx_known", _bool, None),
    ("scenario", "dynamics"): ("dynamics", str, None),
    ("scenario", "drop_fraction"): ("drop_fraction", _finite, None),
    ("scenario", "step_std"): ("step_std", _finite, None),
    ("scenario", "power_schedule"): ("power_schedule", _schedule, None),
    ("estimator", "lambda"): ("lam", _finite, None),
    ("estimator", "steps"): ("steps", int, None),
    ("estimator", "kernel_refit"): ("kernel_refit", str, None),
    ("estimator", "variance_path"): ("variance_path", str, None),
    ("estimator", "rho_u"): ("rho_u", _finite, None),
    ("run", "replicates"): ("replicates", int, None),
    ("run", "seed"): ("seed", int, None),
    ("run", "out_dir"): ("out_dir", str, None),
    ("run", "sigma_v_sq_sweep"): ("sigma_v_sq_sweep", _floats, None),
}


def parse_config(text: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse the INI-style experiment config (sections scenario/estimator/run).

    ``overrides`` ({section: {key: value}}, e.g. from command-line flags) are
    applied on top of ``text`` and go through the same key table and checks.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        parser.read_string(text)
        parser.read_dict(overrides or {})
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    values, pairs = {}, {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, convert, slot = _KEYS[section, key]
            if not raw:
                continue
            try:
                value = convert(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
            if slot is None:
                values[field] = value
            else:
                # a pair starts from the field default, or (None, None) if that is None
                pairs.setdefault(field, list(getattr(ExperimentConfig, field) or (None, None)))[slot] = value
    for field, xy in pairs.items():
        if None in xy:
            raise ConfigError(f"{field} needs both of its keys")
        values[field] = Position(*xy) if field == "tx" else tuple(xy)
    return ExperimentConfig(**values)


def load_config(path=None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """The config file at ``path`` (the defaults if None) with ``overrides``."""
    text = ""
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)


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


# column names are MetricsRecord attributes; _write_cases reads them by name
_METRICS_HEADER = ["case", "sigma_v_sq", "replicate", "t", "mse", "mu_alpha", "mu_p", "tx_err_m"]
_TIMINGS_HEADER = ["case", "sigma_v_sq", "replicate", "t", "runtime_ms"]


def _summarize(records):
    keys = sorted({(r.case, r.sigma_v_sq) for r in records})
    rows = []
    for case, sv in keys:
        vals = [r.mse for r in records if r.case == case and r.sigma_v_sq == sv]
        rows.append((case, sv, len(vals), float(np.mean(vals))))
    return rows


def _write_cases(records, out: Path) -> Path:
    """Write the sweep's deterministic metrics and summary and its
    (non-deterministic) timings under out; returns the metrics path."""
    out.mkdir(parents=True, exist_ok=True)
    for name, header in (("metrics", _METRICS_HEADER), ("timings", _TIMINGS_HEADER)):
        _write_rows(out / f"cases_{name}.csv", header, ([getattr(rec, h) for h in header] for rec in records))
    _write_rows(out / "cases_summary.csv", ("case", "sigma_v_sq", "n", "mean_mse"), _summarize(records))
    return out / "cases_metrics.csv"


# ---------------------------------------------------------------------------
# case sweep (sensor-location error handling)


def _replicate_seed(base_seed: int, replicate: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(replicate,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_single_case(scenario, truth, snapshot, positions, rho_u, config: ExperimentConfig,
                    fix: Optional[Position] = None):
    """Static fit with the given sensor positions and location-error scale,
    at the given transmitter fix if one is passed."""
    snap = MeasurementSnapshot(t=snapshot.t, positions=positions, rss=snapshot.rss)
    pcfg = config.pipeline_config()
    pcfg.noise = NoiseModel(rho_u=rho_u, sigma_w=config.sigma_w)
    if fix is not None:
        pcfg.fixed_tx = fix
    if pcfg.sigma_v_sq is not None:
        pcfg.sigma_v_sq = scenario.params.sigma_v**2  # the swept shadowing
    result = run_static(snap, scenario.grid, pcfg, compute_cov=False)
    mse = compute_mse(result.posterior.mean, truth.grid_field)
    tx = result.hyper.tx
    tx_err = math.hypot(tx.x - scenario.params.tx_position.x, tx.y - scenario.params.tx_position.y)
    return mse, result.hyper, tx_err


def run_cases(config: ExperimentConfig, out_dir=None):
    """Location-error comparison: true positions with exact model (case 1),
    reported positions with the error modeled (case 2) and ignored (case 3),
    swept over the shadowing variance. Cases share draws within a replicate,
    so the comparison is paired. Cases 2 and 3 feed the fix the same reports,
    and rho_u does not enter it, so case 3 takes case 2's fix."""
    out_dir = Path(out_dir if out_dir is not None else config.out_dir)
    rho_model = config.effective_rho_u()
    records = []
    for rep in range(config.replicates):
        seed = _replicate_seed(config.seed, rep)
        for sv_sq in config.sigma_v_sq_sweep:
            scenario = config.scenario(seed=seed, sigma_v_sq=sv_sq)
            snapshot, truth = sample_snapshot(scenario, 0)
            reported_fix = None
            for case, positions, rho_u in (
                ("case1", truth.sensor_true_positions, 0.0),
                ("case2", snapshot.positions, rho_model),
                ("case3", snapshot.positions, 0.0),
            ):
                t0 = time.perf_counter()
                mse, hyper, tx_err = run_single_case(
                    scenario, truth, snapshot, positions, rho_u, config,
                    reported_fix if case == "case3" else None,
                )
                if case == "case2":
                    reported_fix = hyper.tx
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
    return records, _write_cases(records, out_dir)


# ---------------------------------------------------------------------------
# real-data ingestion


def read_measurements(path):
    """Rows of the measurement CSV as (t, sensor_id, x, y, rss) tuples."""
    return _read_rows(path, _MEAS_HEADER)[1]


def write_measurements(path, rows):
    _write_rows(path, _MEAS_HEADER, rows)


def read_truth(path):
    """Truth CSV as (grid, rss vector)."""
    _, rows = _read_rows(path, _TRUTH_HEADER)
    table = np.array([row[1:] for row in rows])
    return _grid(path, table[:, :2]), table[:, 2]


def write_truth(path, grid: Grid, rss):
    rss = np.asarray(rss, dtype=float).reshape(-1)
    _write_rows(path, _TRUTH_HEADER, ((i, x, y, v) for i, ((x, y), v) in enumerate(zip(grid.xy, rss))))


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
    return train_rows, Grid(np.array(test_xy)), np.array(test_rss)


# ---------------------------------------------------------------------------
# field output


def write_field_csv(path, grid: Grid, mean, var, hcrb=None):
    columns = [mean, var] + ([hcrb] if hcrb is not None else [])
    table = np.column_stack([grid.xy] + [np.asarray(c, dtype=float).reshape(-1) for c in columns])
    header = _FIELD_HEADER + (_BOUND_HEADER if hcrb is not None else ())
    _write_rows(path, header, ((i, *row) for i, row in enumerate(table)))


def read_field_csv(path):
    """(grid, mean, var, hcrb-or-None) from a field CSV."""
    header, rows = _read_rows(path, _FIELD_HEADER, _FIELD_HEADER + _BOUND_HEADER)
    table = np.array([row[1:] for row in rows])
    hcrb = table[:, 4] if len(header) > len(_FIELD_HEADER) else None
    return _grid(path, table[:, :2]), table[:, 2], table[:, 3], hcrb
