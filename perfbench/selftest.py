"""Self-test of the benchmark, in seconds.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py reports; runs
every workload shrunken (``--size small``) through the same code, untraced
and traced, and checks the last-line contract and the expected layer
picture; injects a NaN into a returned field mean of every workload and
checks that the op lands in ``failed`` and the run is not ``correct``; and
checks that a directory holding only BENCHMARK.json and perfbench/ exits
non-zero without printing a result. Exits 0 when every check holds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run

SEED = 3


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_benchmark_file():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END, "end_to_end names")
    expect([m["name"] for m in bench["per_layer"]] == run.PER_LAYER_NAMES, "per_layer names")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES), "workload names")


def check_shrunken_runs():
    e2e = {n for n, _ in run.END_TO_END}
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                   "--seconds", "0.5", "--trace", str(trace), "--size", "small"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, f"{name} trace={trace}: {proc.stderr[-2000:]}")
            last = _last_json(proc.stdout)
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{name}: keys")
            expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, f"{name}: {last}")
            want = set(run.PER_LAYER_NAMES) if trace else e2e
            expect(set(last["metrics"]) == want, f"{name} trace={trace}: metric names")
            if trace:
                _check_layer_picture(name, {k: v["value"] for k, v in last["metrics"].items()})


def _check_layer_picture(name, m):
    if name == "sweep_ref":
        expect(m["gp.fit_kernel.calls"] == 9, "sweep_ref fits a kernel in every run_static")
        expect(m["gp.pd_check_s"] == 0 and m["gp.posterior_cov.self_s"] == 0, "sweep_ref is mean-only")
    if name == "track_ref":
        expect(m["gp.fit_kernel.calls"] == 0 and m["setup.gp.fit_kernel.self_s"] > 0, "fit once, in set-up")
        expect(m["gp.pd_check_s"] > 0, "every step checks the carried covariance")
    if name == "report_large":
        expect(m["gp.fit_kernel.calls"] == 0, "report_large uses a given kernel")
        expect(m["bounds.hcrb_all.self_s"] > 0 and m["baseline.okd_predict.self_s"] > 0, "report layers")


def _poisoned(fn):
    """fn returning a result (or state) whose posterior mean holds a NaN."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        mean = out.posterior.mean.copy()
        mean[0] = float("nan")
        return dataclasses.replace(out, posterior=dataclasses.replace(out.posterior, mean=mean))

    return wrapper


def check_injected_nan():
    from rssfield import experiments, pipeline, recursive

    targets = {
        "sweep_ref": (experiments, "run_static"),
        "track_ref": (recursive, "rgp_step"),
        "report_large": (pipeline, "run_static"),
    }
    for name, (module, attr) in targets.items():
        original = getattr(module, attr)
        setattr(module, attr, _poisoned(original))
        try:
            result = run.measure(name, SEED, 0.2, 0, "small", setup_repeats=1)
        finally:
            setattr(module, attr, original)
        line = run.result_line(result)
        expect(line["failed"] == line["attempted"] >= 1 and not line["correct"], f"{name}: {line}")
        expect(result["extra"]["failed_ratio"]["value"] == 1.0, f"{name}: failed_ratio")
        expect(any("non-finite field mean" in f for f in result["failures"]), f"{name}: {result['failures']}")


def check_bare_directory():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep_ref", "--seed", str(SEED),
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and _last_json(proc.stdout) is None, "bare directory must fail")


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    for check in (check_benchmark_file, check_shrunken_runs, check_injected_nan, check_bare_directory):
        check()
        print(f"ok {check.__name__}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
