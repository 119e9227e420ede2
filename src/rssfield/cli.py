"""Command-line experiment runner.

Subcommands: synth, fit-static, fit-recursive, bound, baseline-okd, cases,
eval, ingest-real. Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 I/O or data error (including sensor data too degenerate to fit).

fit-recursive steps through every t from the first to the last of a
measurement file, carrying the field over a t without reports; more than
MAX_EMPTY_STEPS such steps in a row are a data error.
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
from .localize import NoFixError
from .model import MeasurementSnapshot, NumericalError
from .pipeline import _hyper, run_static
from .recursive import init_state, rgp_step
from .synth import sample_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# command-line flag -> the (section, key) of the config it overrides
_OVERRIDES = {
    "seed": ("run", "seed"),
    "out": ("run", "out_dir"),
    "lam": ("estimator", "lambda"),
    "steps": ("estimator", "steps"),
    "replicates": ("run", "replicates"),
}


def _load(args) -> ex.ExperimentConfig:
    flags, overrides = vars(args), {}
    for dest, (section, key) in _OVERRIDES.items():
        if flags[dest] is not None:
            overrides.setdefault(section, {})[key] = flags[dest]
    return ex.load_config(args.config, overrides)


def _outdir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# most consecutive steps without a report that fit-recursive carries the field over
MAX_EMPTY_STEPS = 1000


def _snapshot_at(t, rows=()):
    """The snapshot of the measurement rows at t (none: an empty snapshot)."""
    return MeasurementSnapshot(
        t=t,
        sensor_ids=tuple(f"{r[1]}#{i}" for i, r in enumerate(rows)),
        positions=np.array([(r[2], r[3]) for r in rows]).reshape(-1, 2),
        rss=np.array([r[4] for r in rows]),
    )


def _train_inputs(args, cfg, steps):
    """(snapshots in order of t, grid, truth-or-None) from files or the
    synthetic world; a measurement file gives one snapshot per t it has rows at,
    the synthetic world one per t < steps."""
    if args.measurements:
        by_t = {}
        for row in ex.read_measurements(args.measurements):
            by_t.setdefault(row[0], []).append(row)
        snaps = [_snapshot_at(t, by_t[t]) for t in sorted(by_t)]
        if args.truth:
            grid, truth = ex.read_truth(args.truth)
        else:
            grid, truth = cfg.grid(), None
        return snaps, grid, truth
    scenario = cfg.scenario()
    snaps, truths = [], []
    for t in range(steps):
        sn, tr = sample_snapshot(scenario, t)
        snaps.append(sn)
        truths.append(tr.grid_field)
    return snaps, scenario.grid, np.array(truths)


def _every_step(snaps):
    """Iterator over snaps with an empty snapshot at each t missing between
    two of them, built as it is consumed.

    Raises a DataError up front when more than MAX_EMPTY_STEPS steps in a row
    are missing.
    """
    for prev, nxt in zip(snaps, snaps[1:]):
        if nxt.t - prev.t - 1 > MAX_EMPTY_STEPS:
            raise ex.DataError(
                f"no reports from t={prev.t + 1} to t={nxt.t - 1}: "
                f"more than {MAX_EMPTY_STEPS} steps in a row are missing"
            )

    def steps():
        for prev, nxt in zip(snaps, snaps[1:]):
            yield prev
            yield from map(_snapshot_at, range(prev.t + 1, nxt.t))
        yield snaps[-1]

    return steps()


def _truth_at(truth, i):
    """Truth for the i-th snapshot: a row of the synthetic (T, M) truths, or
    the single field read from a truth file."""
    return truth[i] if truth.ndim == 2 else truth


def cmd_synth(args):
    cfg = _load(args)
    out = _outdir(cfg)
    scenario = cfg.scenario()
    rows = []
    for t in range(cfg.steps):
        snap, truth = sample_snapshot(scenario, t)
        for sid, (x, y), rss in zip(snap.sensor_ids, snap.positions, snap.rss):
            rows.append((t, str(sid), x, y, rss))
        ex.write_truth(out / f"truth_t{t}.csv", scenario.grid, truth.grid_field)
    ex.write_measurements(out / "measurements.csv", rows)
    print(f"wrote {out / 'measurements.csv'} ({len(rows)} rows) and {cfg.steps} truth file(s)")
    return EXIT_OK


def cmd_fit_static(args, *, with_bounds=False):
    cfg = _load(args)
    out = _outdir(cfg)
    snaps, grid, truth = _train_inputs(args, cfg, 1)
    snap = snaps[0]
    result = run_static(snap, grid, cfg.pipeline_config())
    bounds = None
    if with_bounds:
        bounds = hcrb_all(
            (snap.positions, snap.rss), grid, result.hyper, result.kernel, cfg.noise_model()
        )
    path = out / ("field_bound.csv" if with_bounds else "field_static.csv")
    ex.emit_field(result.posterior, bounds, path, grid)
    print(f"wrote {path}")
    _report_fit(result, truth, 0)
    return EXIT_OK


def _report_fit(result, truth, t):
    hyper = result.hyper
    print(f"t={t} mu_alpha={hyper.mu_alpha:.4f} mu_p={hyper.mu_p:.4f} tx=({hyper.tx.x:.2f},{hyper.tx.y:.2f})")
    if truth is not None:
        print(f"t={t} mse={ex.compute_mse(result.posterior.mean, _truth_at(truth, t)):.6g}")


def cmd_fit_recursive(args):
    cfg = _load(args)
    out = _outdir(cfg)
    snaps, grid, truth = _train_inputs(args, cfg, cfg.steps)
    rcfg = cfg.recursive_config()
    steps = _every_step(snaps)
    state = init_state(snaps[0], grid, rcfg)
    mses = []
    for i, snap in enumerate(steps):
        if i > 0:
            state = rgp_step(state, snap, grid, rcfg)
        ex.emit_field(state.posterior, None, out / f"field_rgp_t{snap.t}.csv", grid)
        if truth is not None:
            mses.append((snap.t, ex.compute_mse(state.posterior.mean, _truth_at(truth, i))))
    for t, mse in mses:
        print(f"t={t} mse={mse:.6g}")
    print(f"wrote {i + 1} field file(s) to {out}")
    return EXIT_OK


def cmd_baseline_okd(args):
    cfg = _load(args)
    out = _outdir(cfg)
    snaps, grid, truth = _train_inputs(args, cfg, 1)
    snap = snaps[0]
    # kriging detrends by the fitted means and needs no kernel
    hyper, _ = _hyper(snap, cfg.pipeline_config(), None)
    pred, var = okd_predict((snap.positions, snap.rss), grid, hyper, return_variance=True)
    path = out / "field_okd.csv"
    ex.write_field_csv(path, grid, pred, var)
    print(f"wrote {path}")
    if truth is not None:
        print(f"t=0 mse={ex.compute_mse(pred, _truth_at(truth, 0)):.6g}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rssfield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, measurements=False):
        p.add_argument("--config", help="experiment config file (INI)")
        # converted and checked with the config keys they override (_OVERRIDES)
        p.add_argument("--seed", help="override run seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--lambda", dest="lam", help="forgetting factor")
        p.add_argument("--steps", help="number of time steps")
        p.add_argument("--replicates", help="number of replicates")
        if measurements:
            p.add_argument("--measurements", help="measurement CSV (else synthetic)")
            p.add_argument("--truth", help="truth CSV (grid + reference RSS)")

    common(sub.add_parser("synth", help="generate synthetic measurement/truth files"))
    common(sub.add_parser("fit-static", help="one-snapshot GP field estimate"), measurements=True)
    common(sub.add_parser("fit-recursive", help="recursive GP over all time steps"), measurements=True)
    common(sub.add_parser("bound", help="static fit plus per-node error bounds"), measurements=True)
    common(sub.add_parser("baseline-okd", help="ordinary-kriging baseline"), measurements=True)
    common(sub.add_parser("cases", help="location-error case sweep"))
    p_eval = sub.add_parser("eval", help="MSE of a field file against a truth file")
    p_eval.add_argument("--field", required=True)
    p_eval.add_argument("--truth", required=True)
    p_ing = sub.add_parser("ingest-real", help="split a measurement CSV into train/test")
    p_ing.add_argument("--measurements", required=True)
    common(p_ing)
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "fit-static": cmd_fit_static,
    "fit-recursive": cmd_fit_recursive,
    "bound": lambda args: cmd_fit_static(args, with_bounds=True),
    "baseline-okd": cmd_baseline_okd,
    "cases": cmd_cases,
    "eval": cmd_eval,
    "ingest-real": cmd_ingest_real,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
