"""Command-line experiment runner.

Subcommands: synth, fit-static, fit-recursive, bound, baseline-okd, cases,
eval, ingest-real. Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 I/O or data error (including sensor data too degenerate to fit).

Each subcommand takes only the flags it reads (_COMMANDS); --seed, --out,
--lambda, --steps and --replicates override config keys (_FLAGS). Without
--measurements the fit commands synthesize their reports, so --truth without
--measurements is a configuration error.

fit-recursive steps through the snapshots of a measurement file and writes a
field for every t from the first to the last, carrying the field over a t
without reports; more than MAX_EMPTY_STEPS such steps in a row are a data
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .baseline import okd_predict
from .bounds import hcrb_all
from .empbayes import DegenerateFitError
from .localize import CentroidState, NoFixError
from .model import MeasurementSnapshot, NumericalError
from .pipeline import hyper_for, run_static
from .recursive import init_state, rgp_step
from .synth import sample_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# every flag a subcommand may take -> (help, the (section, key) of the config
# value it overrides, converted and checked exactly like that key; None for
# the flags that name a file)
_FLAGS = {
    "--config": ("experiment config file (INI)", None),
    "--seed": ("override run seed", ("run", "seed")),
    "--out": ("override output directory", ("run", "out_dir")),
    "--lambda": ("forgetting factor", ("estimator", "lambda")),
    "--steps": ("number of time steps", ("estimator", "steps")),
    "--replicates": ("number of replicates", ("run", "replicates")),
    "--measurements": ("measurement CSV (the fits synthesize one without it)", None),
    "--truth": ("truth CSV (grid + reference RSS)", None),
    "--field": ("field CSV", None),
}


def _load(args) -> ex.ExperimentConfig:
    flags, overrides = vars(args), {}
    if flags.get("truth") and not flags.get("measurements"):
        raise ex.ConfigError("--truth needs --measurements: the synthetic world brings its own truth")
    for flag, (_, key) in _FLAGS.items():
        if key is not None and flags.get(flag[2:]) is not None:
            overrides.setdefault(key[0], {})[key[1]] = flags[flag[2:]]
    return ex.load_config(args.config, overrides)


def _outdir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# most consecutive steps without a report that fit-recursive carries the field over
MAX_EMPTY_STEPS = 1000


def _snapshot_at(t, rows):
    """The snapshot of the measurement rows at t."""
    return MeasurementSnapshot(
        t=t,
        positions=np.array([(r[2], r[3]) for r in rows]),
        rss=np.array([r[4] for r in rows]),
    )


def _train_inputs(args, cfg, steps):
    """(snapshots in order of t, grid, one truth per snapshot or None) from
    files or the synthetic world. A measurement file gives one snapshot per t
    it has rows at and a truth file the same field for each; the synthetic
    world gives one snapshot per t < steps."""
    if args.measurements:
        by_t = {}
        for row in ex.read_measurements(args.measurements):
            by_t.setdefault(row[0], []).append(row)
        snaps = [_snapshot_at(t, by_t[t]) for t in sorted(by_t)]
        if not args.truth:
            return snaps, cfg.scenario().grid, None
        grid, truth = ex.read_truth(args.truth)
        return snaps, grid, [truth] * len(snaps)
    scenario = cfg.scenario()
    snaps, truths = [], []
    for t in range(steps):
        sn, tr = sample_snapshot(scenario, t)
        snaps.append(sn)
        truths.append(tr.grid_field)
    return snaps, scenario.grid, truths


def _check_gaps(snaps):
    """Raise a DataError when more than MAX_EMPTY_STEPS steps in a row have no
    snapshot."""
    for prev, nxt in zip(snaps, snaps[1:]):
        if nxt.t - prev.t - 1 > MAX_EMPTY_STEPS:
            raise ex.DataError(
                f"no reports from t={prev.t + 1} to t={nxt.t - 1}: "
                f"more than {MAX_EMPTY_STEPS} steps in a row are missing"
            )


def cmd_synth(args):
    cfg = _load(args)
    out = _outdir(cfg)
    scenario = cfg.scenario()
    rows = []
    for t in range(cfg.steps):
        snap, truth = sample_snapshot(scenario, t)
        for sid, (x, y), rss in zip(truth.sensor_ids, snap.positions, snap.rss):
            rows.append((t, str(sid), x, y, rss))
        ex.write_truth(out / f"truth_t{t}.csv", scenario.grid, truth.grid_field)
    ex.write_measurements(out / "measurements.csv", rows)
    print(f"wrote {out / 'measurements.csv'} ({len(rows)} rows) and {cfg.steps} truth file(s)")
    return EXIT_OK


def cmd_fit_static(args):
    with_bounds = args.command == "bound"
    cfg = _load(args)
    out = _outdir(cfg)
    snaps, grid, truths = _train_inputs(args, cfg, 1)
    snap = snaps[0]
    pcfg = cfg.pipeline_config()
    result = run_static(snap, grid, pcfg)
    post = result.posterior
    hcrb = None
    if with_bounds:
        reports = hcrb_all((snap.positions, snap.rss), grid, result.hyper, result.kernel, pcfg.noise)
        hcrb = [r.bound for r in reports]
    path = out / ("field_bound.csv" if with_bounds else "field_static.csv")
    ex.write_field_csv(path, grid, post.mean, np.diag(post.cov), hcrb)
    print(f"wrote {path}")
    hyper = result.hyper
    print(f"t=0 mu_alpha={hyper.mu_alpha:.4f} mu_p={hyper.mu_p:.4f} tx=({hyper.tx.x:.2f},{hyper.tx.y:.2f})")
    if truths is not None:
        print(f"t=0 mse={ex.compute_mse(post.mean, truths[0]):.6g}")
    return EXIT_OK


def cmd_fit_recursive(args):
    cfg = _load(args)
    out = _outdir(cfg)
    snaps, grid, truths = _train_inputs(args, cfg, cfg.steps)
    rcfg = cfg.recursive_config()
    _check_gaps(snaps)
    state = init_state(snaps[0], grid, rcfg)
    mses = []
    # a snapshot's posterior stands for every t up to the next snapshot's
    ends = [s.t for s in snaps[1:]] + [snaps[-1].t + 1]
    for i, (snap, end) in enumerate(zip(snaps, ends)):
        if i > 0:
            state = rgp_step(state, snap, grid, rcfg)
        post = state.posterior
        var = np.diag(post.cov)
        for t in range(snap.t, end):
            ex.write_field_csv(out / f"field_rgp_t{t}.csv", grid, post.mean, var)
            if truths is not None:
                mses.append((t, ex.compute_mse(post.mean, truths[i])))
    for t, mse in mses:
        print(f"t={t} mse={mse:.6g}")
    print(f"wrote {snaps[-1].t - snaps[0].t + 1} field file(s) to {out}")
    return EXIT_OK


def cmd_baseline_okd(args):
    cfg = _load(args)
    out = _outdir(cfg)
    snaps, grid, truths = _train_inputs(args, cfg, 1)
    snap = snaps[0]
    # kriging detrends by the fitted means and needs no kernel
    hyper, _ = hyper_for(snap, cfg.pipeline_config(), CentroidState())
    pred, var = okd_predict((snap.positions, snap.rss), grid, hyper, return_variance=True)
    path = out / "field_okd.csv"
    ex.write_field_csv(path, grid, pred, var)
    print(f"wrote {path}")
    if truths is not None:
        print(f"t=0 mse={ex.compute_mse(pred, truths[0]):.6g}")
    return EXIT_OK


def cmd_cases(args):
    cfg = _load(args)
    records, path = ex.run_cases(cfg)
    print(f"wrote {path}")
    for case, sv, n, mean in ex._summarize(records):
        print(f"{case} sigma_v_sq={sv:g} n={n} mean_mse={mean:.4f}")
    return EXIT_OK


def cmd_eval(args):
    grid_f, mean, _, _ = ex.read_field_csv(args.field)
    grid_t, truth = ex.read_truth(args.truth)
    if grid_f.n_nodes != grid_t.n_nodes or not np.allclose(grid_f.xy, grid_t.xy, atol=1e-9):
        raise ex.DataError("field and truth files describe different grids")
    print(f"mse={ex.compute_mse(mean, truth):.17g}")
    return EXIT_OK


def cmd_ingest_real(args):
    cfg = _load(args)
    out = _outdir(cfg)
    train_rows, test_grid, test_rss = ex.ingest_real(args.measurements, cfg.seed)
    ex.write_measurements(out / "train_measurements.csv", [(0, r[1], r[2], r[3], r[4]) for r in train_rows])
    ex.write_truth(out / "test_truth.csv", test_grid, test_rss)
    print(
        f"split {len(train_rows)}/{test_grid.n_nodes} rows into "
        f"{out / 'train_measurements.csv'} and {out / 'test_truth.csv'}"
    )
    return EXIT_OK


_RUN = ("--config", "--seed", "--out")
_FIT = (*_RUN, "--measurements", "--truth")

# subcommand -> (handler, help, the flags it reads, those of them it requires)
_COMMANDS = {
    "synth": (cmd_synth, "generate synthetic measurement/truth files", (*_RUN, "--steps"), ()),
    "fit-static": (cmd_fit_static, "one-snapshot GP field estimate", _FIT, ()),
    "fit-recursive": (cmd_fit_recursive, "recursive GP over all time steps", (*_FIT, "--lambda", "--steps"), ()),
    "bound": (cmd_fit_static, "static fit plus per-node error bounds", _FIT, ()),
    "baseline-okd": (cmd_baseline_okd, "ordinary-kriging baseline", _FIT, ()),
    "cases": (cmd_cases, "location-error case sweep", (*_RUN, "--replicates"), ()),
    "eval": (cmd_eval, "MSE of a field file against a truth file", ("--field", "--truth"), ("--field", "--truth")),
    "ingest-real": (
        cmd_ingest_real, "split a measurement CSV into train/test", (*_RUN, "--measurements"), ("--measurements",)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rssfield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags, required) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag in flags:
            p.add_argument(flag, help=_FLAGS[flag][0], required=flag in required)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ex.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ex.DataError, DegenerateFitError, NoFixError, OSError) as exc:
        print(f"I/O or data error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
