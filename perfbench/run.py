"""rssfield benchmark: closed-loop workloads over the library's public API.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_ref --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced then traced
    python3 perfbench/selftest.py              # shrunken runs and a fault injection

One process runs one workload as a closed loop with one client: each op
starts when the previous one returns. BLAS threads are pinned to the number
of CPUs this process may use. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` installs wrappers at the layer boundaries (see spans.py) and
reports per-layer figures per op. Each run writes a result file with an
environment block under perfbench/out/. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep_ref", "track_ref", "report_large")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3  # this process plus two fresh child processes
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mse_db2", "dB2"),
]

# Per-layer metrics, per op. Each is read from the per-op row of the same
# name (see Tracer.per_op), except the factor and Cholesky timings, which are
# self times of the spans named in ROW_KEY.
PER_LAYER = [
    ("synth.sample_snapshot.self_s", "s"),
    ("synth.cholesky_s", "s"),
    ("localize.refine_transmitter.calls", "count"),
    ("localize.refine_transmitter.self_s", "s"),
    ("localize.nm_evals", "count"),
    ("localize.degenerate", "count"),
    ("empbayes.refine_all.calls", "count"),
    ("empbayes.refine_all.self_s", "s"),
    ("empbayes.refine_all.capped", "count"),
    ("gp.fit_kernel.calls", "count"),
    ("gp.fit_kernel.self_s", "s"),
    ("gp.nlml_evals", "count"),
    ("gp.lbfgs_starts", "count"),
    ("gp.lbfgs_unconverged", "count"),
    ("gp.fit_kernel.bound_hits", "count"),
    ("gp.posterior_mean.self_s", "s"),
    ("gp.posterior_cov.self_s", "s"),
    ("gp.kernel_matrix.calls", "count"),
    ("gp.kernel_matrix.self_s", "s"),
    ("gp.kernel_matrix.computed_mb", "MB"),
    ("gp.train_factor_s", "s"),
    ("gp.pd_check_s", "s"),
    ("gp.jitter_nonzero", "count"),
    ("pipeline.run_static.self_s", "s"),
    ("recursive.rgp_step.self_s", "s"),
    ("bounds.hcrb_all.self_s", "s"),
    ("bounds.singular", "count"),
    ("baseline.okd_predict.self_s", "s"),
    ("baseline.fit_variogram.self_s", "s"),
    ("baseline.pinv_fallbacks", "count"),
    ("experiments.run_cases.self_s", "s"),
    ("op.unattributed_s", "s"),
]
# figures of the set-up phase, which runs once per process, not per op
SETUP_LAYER = [
    ("setup.synth.cholesky_s", "s"),
    ("setup.gp.fit_kernel.self_s", "s"),
]
ROW_KEY = {
    "synth.cholesky_s": "synth.cholesky.self_s",
    "gp.train_factor_s": "gp.train_factor.self_s",
    "gp.pd_check_s": "gp.pd_check.self_s",
    "setup.synth.cholesky_s": "synth.cholesky.self_s",
    "setup.gp.fit_kernel.self_s": "gp.fit_kernel.self_s",
}
PER_LAYER_NAMES = [n for n, _ in PER_LAYER + SETUP_LAYER] + ["op.traced_p50_s"]


def reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def pin_blas_threads():
    """Pin BLAS threads before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)


def import_library():
    """Import rssfield from this checkout's sources, never from elsewhere."""
    if not (SRC / "rssfield" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rssfield sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rssfield

    if Path(rssfield.__file__).resolve().parent != SRC / "rssfield":
        raise SystemExit(f"perfbench: imported rssfield from {rssfield.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment block


def _blas_libraries() -> list:
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if any(k in Path(path).name.lower() for k in ("openblas", "mkl_rt", "blis")):
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name, "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and entry["threads"] is None:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = int(get_threads())
                if get_config is not None and entry["config"] is None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed) -> dict:
    import numpy
    import scipy

    try:
        vendor = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": vendor,
        "blas_libraries": _blas_libraries(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measuring


def op_tail(walls):
    """(percentile, value, samples beyond) of the highest percentile with at
    least 10 samples beyond it, or None when there are too few ops."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def child_setup_time(name, seed, size) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(name, seed, seconds, trace, size="full", import_s=0.0, setup_repeats=SETUP_REPEATS):
    """Run one workload and return its result record (see module docstring)."""
    import numpy as np
    import spans
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else spans.NullTracer()
    setups = [child_setup_time(name, seed, size) for _ in range(setup_repeats - 1)] if not trace else []

    with spans.installed(tracer) if trace else contextlib.nullcontext():
        t_setup = time.perf_counter()
        with tracer.span("setup"):
            work = workloads.WORKLOADS[name](seed, workloads.SIZES[size][name], OUT, tracer)
            work.setup()
        setups.append(import_s + time.perf_counter() - t_setup)

        walls, fails, accuracy = [], [], []
        busy, i = 0.0, 0
        while busy < seconds or i < work.accuracy_ops:
            tracer.op_id = i
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    out = work.op(i)
                err = None
            except Exception as exc:  # an op that raises is a failed op, the loop goes on
                err = f"op {i} raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            tracer.op_id = None
            busy += wall
            walls.append(wall)
            if err is None:
                try:
                    problems, acc = work.check(i, out)
                except Exception as exc:  # a check that cannot run is a failed check
                    problems, acc = [f"check raised {type(exc).__name__}: {exc}"], {}
                err = "; ".join(f"op {i}: {p}" for p in problems) or None
                if err is None and i < work.accuracy_ops:
                    accuracy.append(acc)
            if err is not None:
                fails.append(err)
            i += 1

    n = len(walls)
    figures = {
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_ratio": (len(fails) / n, "ratio"),
    }
    tail = op_tail(walls)
    if tail is not None:
        figures["op_tail_s"] = (tail[1], "s")
    # accuracy over the first accuracy_ops ops that passed their checks; null when none did
    for key, unit in (("mse_db2", "dB2"), ("tx_err_m", "m"), ("okd_mse_db2", "dB2")):
        vals = [a[key] for a in accuracy if key in a]
        if vals or key == "mse_db2":
            figures[key] = (float(np.mean(vals)) if vals else None, unit)
    e2e_names = [k for k, _ in END_TO_END]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": int(trace),
        "environment": environment(seed),
        "attempted": n,
        "failed": len(fails),
        "failures": fails[:50],
        "op_wall_s": walls,
        "setup_samples_s": setups,
        "op_tail": None if tail is None else {"percentile": tail[0], "value_s": tail[1],
                                               "beyond": tail[2], "ops": n},
        "end_to_end": {k: {"value": figures[k][0], "unit": figures[k][1]} for k in e2e_names},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in figures.items() if k not in e2e_names},
    }
    stem = f"{name}-{size}-seed{seed}"
    if trace:
        result.update(_layer_figures(tracer, n, walls))
        spans_path = OUT / f"{stem}.spans.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        untraced = OUT / f"{stem}-trace0.json"
        base = json.loads(untraced.read_text()) if untraced.is_file() else {}
        if base.get("seconds") == seconds:
            p50 = base["end_to_end"]["op_p50_s"]["value"]
            result["tracing_overhead_s"] = statistics.median(walls) - p50
    path = OUT / f"{stem}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def _layer_figures(tracer, n_ops, walls) -> dict:
    rows = tracer.per_op(range(n_ops))
    for i, row in rows.items():
        parts = sum(v for k, v in row.items() if k.endswith(".self_s")) + row["op.unattributed_s"]
        if abs(parts - row["op.wall_s"]) > 1e-9 * max(1.0, row["op.wall_s"]):
            raise RuntimeError(f"op {i}: layer self times do not add up to the op wall time")
    keys = sorted({k for row in rows.values() for k in row})
    table = {k: sum(row.get(k, 0.0) for row in rows.values()) / n_ops for k in keys}
    setup_row = tracer.per_op([None])[None]
    per_layer = {m: (table.get(ROW_KEY.get(m, m), 0.0), unit) for m, unit in PER_LAYER}
    per_layer.update({m: (setup_row.get(ROW_KEY[m], 0.0), unit) for m, unit in SETUP_LAYER})
    per_layer["op.traced_p50_s"] = (statistics.median(walls), "s")
    wall = table["op.wall_s"]
    shares = {m: per_layer[m][0] / wall for m, unit in PER_LAYER if unit == "s" and wall > 0}
    return {
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "layer_table_per_op": table,
        "layer_shares": shares,
        "setup_layer_table": dict(setup_row),
    }


# ---------------------------------------------------------------------------
# reporting


def result_line(result) -> dict:
    """The contract's last line: end-to-end metrics untraced, per-layer traced."""
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_report(result):
    name = result["workload"]
    env = result["environment"]
    print(f"# {name} seed={result['seed']} trace={result['trace']} size={result['size']} "
          f"ops={result['attempted']} failed={result['failed']} nproc={env['nproc']} "
          f"blas={env['blas_vendor']} threads={[b['threads'] for b in env['blas_libraries']]}")
    for msg in result["failures"][:5]:
        print(f"#   FAILED {msg}")
    if not result["trace"]:
        for k, m in {**result["end_to_end"], **result["extra"]}.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:13s} {k:28s} {value} {m['unit']}")
        tail = result["op_tail"]
        if tail is None:
            print(f"{name:13s} op_tail_s: too few ops ({result['attempted']}) for a percentile "
                  f"with 10 samples beyond it")
        else:
            print(f"{name:13s} op_tail_s is p{tail['percentile']:g} over {tail['ops']} ops "
                  f"({tail['beyond']} beyond)")
        return
    print(f"{name:13s} {'layer (per op)':40s} {'value':>12s} unit   share of op wall")
    shares = result["layer_shares"]
    for k, m in result["per_layer"].items():
        share_txt = f"{100.0 * shares[k]:6.2f}%" if k in shares else ""
        print(f"{name:13s} {k:40s} {m['value']:12.6g} {m['unit']:6s} {share_txt}")
    if "tracing_overhead_s" in result:
        print(f"{name:13s} tracing overhead (traced - untraced op_p50_s): "
              f"{result['tracing_overhead_s']:.6g} s")
    else:
        print(f"{name:13s} tracing overhead: no untraced run of this seed, size and length under {OUT}")


def run_all(seed, seconds, size) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--size", size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            if trace == 0:
                combined["attempted"] += last["attempted"]
                combined["failed"] += last["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: reference.json)")
    parser.add_argument("--seconds", type=float, default=30.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import_library()
    seed = args.seed if args.seed is not None else reference()["default_seed"]
    if args.workload == "all":
        return run_all(seed, args.seconds, args.size)
    import spans
    import workloads

    if args.setup_only:
        size = workloads.SIZES[args.size][args.workload]
        workloads.WORKLOADS[args.workload](seed, size, OUT, spans.NullTracer()).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0
    import_s = time.perf_counter() - T0
    result = measure(args.workload, seed, args.seconds, args.trace, args.size, import_s)
    print_report(result)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
