import argparse
import csv
import dataclasses
import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rssfield as rf
from rssfield import cli, synth
from rssfield.experiments import (
    ConfigError,
    DataError,
    ExperimentConfig,
    compute_mse,
    ingest_real,
    parse_config,
    read_field_csv,
    read_measurements,
    read_truth,
    run_cases,
    write_field_csv,
    write_measurements,
    write_truth,
)
from rssfield.model import Position, uniform_grid


def test_compute_mse_identical_and_offset():
    v = np.array([-60.0, -70.0, -80.0])
    assert compute_mse(v, v) == 0.0
    assert_allclose(compute_mse(v + 3.0, v), 9.0, rtol=1e-12)


def test_compute_mse_matches_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=7), rng.normal(size=7)
    acc = 0.0
    for x, y in zip(a, b):
        acc += (x - y) ** 2
    assert_allclose(compute_mse(a, b), acc / 7, rtol=1e-12)


def test_compute_mse_length_mismatch():
    with pytest.raises(ValueError):
        compute_mse(np.zeros(3), np.zeros(4))


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("""
[scenario]
area_width = 300
area_height = 250
n_sensors = 50
sigma_v = 2.0
dynamics = moving
step_std = 4.0
[estimator]
lambda = 0.7
steps = 5
[run]
replicates = 3
seed = 42
sigma_v_sq_sweep = 4, 9
""")
    assert cfg.area == (300.0, 250.0)
    assert cfg.n_sensors == 50
    assert cfg.lam == 0.7
    assert cfg.steps == 5
    assert cfg.replicates == 3
    assert cfg.seed == 42
    assert cfg.sigma_v_sq_sweep == (4.0, 9.0)
    assert isinstance(cfg.dynamics_obj(), rf.Moving)
    # defaults follow the reference setup
    default = parse_config("")
    assert default.scenario().grid.n_nodes == 1088
    assert default.n_sensors == 218
    assert_allclose(default.effective_rho_u(), 200.0, atol=0.1)


def test_parse_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nwidth = 10\n")
    with pytest.raises(ConfigError):
        parse_config("[estimator]\nestimator = magic\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nreplicates = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nalpha = much\n")
    with pytest.raises(ConfigError, match="tx"):
        parse_config("[scenario]\ntx_x = 10\n")
    with pytest.raises(ConfigError):
        parse_config("[scenario]\ntx_known = ture\n")
    with pytest.raises(ConfigError, match="dynamics"):
        parse_config("[scenario]\ndynamics = sideways\n")
    with pytest.raises(ConfigError, match="variance_path"):
        parse_config("[estimator]\nvariance_path = guess\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[estimatr]\nlambda = 0.5\n")
    # dataclasses.replace re-runs the checks
    with pytest.raises(ConfigError, match="lambda"):
        dataclasses.replace(ExperimentConfig(), lam=2.0)


@pytest.mark.parametrize("sweep", [(4.0, math.inf), (math.nan,), (-math.inf, 4.0)])
def test_experiment_config_rejects_a_non_finite_sweep_value(sweep):
    # the INI parser already rejects a non-finite value; a config built in code
    # is checked at construction, not first in run_cases
    with pytest.raises(ConfigError, match="sigma_v_sq_sweep needs one or more finite values >= 0"):
        ExperimentConfig(sigma_v_sq_sweep=sweep)


def test_parse_config_blank_value_keeps_default_and_overrides_win():
    cfg = parse_config("[estimator]\nrho_u =\nlambda = 0.7\n", {"estimator": {"lambda": "0.25"}})
    assert cfg.rho_u is None
    assert cfg.lam == 0.25


def test_readme_config_example_parses_to_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert parse_config(blocks[0]) == ExperimentConfig()


def test_readme_nlml_timing_command_runs():
    # the "Performance notes" timeit command, run once in-process: its -s setup
    # builds one reference-size snapshot's objective and its statement
    # evaluates the NLML once
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```\w*\n(.*?)^```$", readme, flags=re.S | re.M)
    blocks = [b for b in fenced if "-m timeit" in b]
    assert len(blocks) == 1
    setup, statement = re.search(r"-s '(.*?)' '(.*?)'", blocks[0], flags=re.S).groups()
    scope = {}
    exec(setup, scope)
    nlml, grad = eval(statement, scope)
    assert math.isfinite(nlml) and np.all(np.isfinite(grad))


def test_power_schedule_config_round_trip():
    cfg = parse_config("""
[scenario]
dynamics = power_schedule
power_schedule = 0:-10, 5:-5
""")
    dyn = cfg.dynamics_obj()
    assert dyn.schedule == ((0, -10.0), (5, -5.0))


def test_field_csv_round_trip(tmp_path):
    grid = uniform_grid(100, 100, 4, 4)
    rng = np.random.default_rng(1)
    mean = rng.normal(-70, 5, 16)
    var = rng.uniform(0.1, 4, 16)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, mean, var)
    grid2, mean2, var2, hcrb = read_field_csv(path)
    assert hcrb is None
    assert_allclose(grid2.xy, grid.xy, atol=1e-12)
    assert_allclose(mean2, mean, atol=1e-12)
    assert_allclose(var2, var, atol=1e-12)


def test_write_field_csv_includes_bounds_column_iff_supplied(tmp_path):
    grid = uniform_grid(50, 50, 2, 2)
    mean, var = np.full(4, -60.0), np.ones(4)
    p1 = tmp_path / "plain.csv"
    write_field_csv(p1, grid, mean, var)
    assert "hcrb_db2" not in p1.read_text().splitlines()[0]
    p2 = tmp_path / "with_bounds.csv"
    write_field_csv(p2, grid, mean, var, [1.5] * 4)
    _, _, var2, hcrb = read_field_csv(p2)
    assert_allclose(var2, 1.0)
    assert_allclose(hcrb, 1.5)


def test_write_field_csv_reference_grid_row_count(tmp_path):
    grid = uniform_grid(500, 500, 32, 34)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, np.full(1088, -70.0), np.ones(1088))
    lines = path.read_text().splitlines()
    assert len(lines) == 1089  # header + one row per node


def test_measurements_round_trip_and_validation(tmp_path):
    rows = [(0, "a", 1.5, 2.5, -61.0), (1, "b", 3.0, 4.0, -72.5)]
    path = tmp_path / "meas.csv"
    write_measurements(path, rows)
    back = read_measurements(path)
    assert back == [(0, "a", 1.5, 2.5, -61.0), (1, "b", 3.0, 4.0, -72.5)]

    bad = tmp_path / "bad.csv"
    bad.write_text("t,sensor_id,x_hat_m,y_hat_m,rss_dbm\n0,a,1.0,2.0,not_a_number\n")
    with pytest.raises(DataError, match="row 2"):
        read_measurements(bad)
    header = tmp_path / "header.csv"
    header.write_text("a,b,c\n")
    with pytest.raises(DataError, match="header"):
        read_measurements(header)
    empty = tmp_path / "empty.csv"
    empty.write_text("t,sensor_id,x_hat_m,y_hat_m,rss_dbm\n")
    with pytest.raises(DataError, match="no data rows"):
        read_measurements(empty)


@pytest.mark.parametrize("reader, text", [
    (read_measurements, "t,sensor_id,x_hat_m,y_hat_m,rss_dbm\n0,a,1,2,-60\n0,b,3,inf,-61\n"),
    (read_measurements, "t,sensor_id,x_hat_m,y_hat_m,rss_dbm\n0,a,1,2,-60\n-1,b,3,4,-61\n"),
    (read_truth, "node_id,x_m,y_m,rss_dbm\n0,1,2,-60\n1,3,4,nan\n"),
    (read_truth, "node_id,x_m,y_m,rss_dbm\n0,1,2,-60\n1,3,4\n"),
    (read_field_csv, "node_id,x_m,y_m,post_mean_dbm,post_var_db2\n0,1,2,-60,1\n1,3,4,-61,-inf\n"),
    (read_field_csv, "node_id,x_m,y_m,post_mean_dbm,post_var_db2\n0,1,2,-60,1\n1,3,4,-61,1,7\n"),
], ids=["meas-inf", "meas-negative-t", "truth-nan", "truth-short-row", "field-inf", "field-long-row"])
def test_readers_name_the_bad_row(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=r"bad\.csv: row 3"):
        reader(path)


def test_readers_reject_unknown_column_and_duplicate_nodes(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("node_id,x_m,y_m,post_mean_dbm,post_var_db2,extra\n0,1,2,-60,1,7\n")
    with pytest.raises(DataError, match="header"):
        read_field_csv(path)
    duplicate = tmp_path / "truth.csv"
    duplicate.write_text("node_id,x_m,y_m,rss_dbm\n0,1,2,-60\n1,1,2,-61\n")
    with pytest.raises(DataError, match="duplicate"):
        read_truth(duplicate)


def test_ingest_real_split_sizes(tmp_path):
    rng = np.random.default_rng(2)
    rows = [(0, str(i), *rng.uniform(0, 100, 2), float(rng.uniform(-90, -50))) for i in range(6437)]
    path = tmp_path / "real.csv"
    write_measurements(path, rows)
    train_rows, test_grid, test_rss = ingest_real(path, split_seed=7)
    assert len(train_rows) == 3218
    assert test_grid.n_nodes == 3219
    assert test_rss.shape == (3219,)


def test_ingest_real_two_rows_and_determinism(tmp_path):
    rows = [(0, "a", 1.0, 2.0, -60.0), (0, "b", 3.0, 4.0, -70.0)]
    path = tmp_path / "two.csv"
    write_measurements(path, rows)
    train1, grid1, rss1 = ingest_real(path, split_seed=3)
    train2, grid2, rss2 = ingest_real(path, split_seed=3)
    assert len(train1) == 1 and grid1.n_nodes == 1
    assert train1 == train2
    assert_allclose(grid1.xy, grid2.xy)
    assert_allclose(rss1, rss2)


def _tiny_cases_config(tmp_path, seed=0):
    cfg = ExperimentConfig()
    cfg.area = (300.0, 300.0)
    cfg.grid_nx = cfg.grid_ny = 5
    cfg.n_sensors = 40
    cfg.replicates = 2
    cfg.seed = seed
    cfg.sigma_v_sq_sweep = (10.0,)
    cfg.out_dir = str(tmp_path)
    return cfg


def test_run_cases_produces_paired_records(tmp_path):
    cfg = _tiny_cases_config(tmp_path)
    records, metrics_path = run_cases(cfg)
    assert len(records) == 2 * 1 * 3  # replicates x sweep x cases
    assert metrics_path.exists()
    cases = {r.case for r in records}
    assert cases == {"case1", "case2", "case3"}
    assert all(r.mse >= 0 for r in records)
    # summary means are recomputable from the per-replicate records
    text = (tmp_path / "cases_summary.csv").read_text()
    for case in sorted(cases):
        vals = [r.mse for r in records if r.case == case]
        assert f"{np.mean(vals):.17g}" in text


def test_run_cases_metrics_are_byte_identical_across_runs(tmp_path):
    cfg1 = _tiny_cases_config(tmp_path / "a")
    cfg2 = _tiny_cases_config(tmp_path / "b")
    _, p1 = run_cases(cfg1)
    _, p2 = run_cases(cfg2)
    assert p1.read_bytes() == p2.read_bytes()
    s1 = (tmp_path / "a" / "cases_summary.csv").read_bytes()
    s2 = (tmp_path / "b" / "cases_summary.csv").read_bytes()
    assert s1 == s2


def test_run_cases_factors_the_grid_once_and_each_roster_once_per_call(tmp_path, monkeypatch):
    # one Draws per call: the grid (25 nodes) is factored once, and each
    # replicate's roster (40 sensors) once across the sigma_v^2 sweep, since
    # the unit draws do not depend on sigma_v; a second call starts afresh
    built, real = [], synth.cholesky

    def counting(a, **kwargs):
        built.append(a.shape[0])
        return real(a, **kwargs)

    monkeypatch.setattr(synth, "cholesky", counting)
    cfg = _tiny_cases_config(tmp_path)
    cfg.sigma_v_sq_sweep = (4.0, 10.0, 16.0)
    for _ in range(2):
        built.clear()
        run_cases(cfg)
        assert built == [25, 40, 40]


def test_run_cases_noise_free_degenerate(tmp_path):
    cfg = _tiny_cases_config(tmp_path)
    cfg.sigma_v = 0.0
    cfg.sigma_w = 0.0
    cfg.sigma_d = 0.0
    cfg.rho_u = 0.0
    cfg.replicates = 1
    cfg.sigma_v_sq_sweep = (0.0,)
    records, _ = run_cases(cfg)
    for rec in records:
        assert rec.mse <= 1e-6


# ---------------------------------------------------------------------------
# command-line interface


def write_cfg(tmp_path, text):
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return str(p)


SMALL_SCENARIO = """
[scenario]
area_width = 200
area_height = 200
grid_nx = 4
grid_ny = 4
n_sensors = 25
[estimator]
[run]
seed = 1
"""


def test_cli_synth_then_fit_static_and_eval(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out), "--steps", "1"]) == 0
    assert (out / "measurements.csv").exists()
    assert (out / "truth_t0.csv").exists()

    rc = cli.main([
        "fit-static", "--config", cfg, "--out", str(out),
        "--measurements", str(out / "measurements.csv"), "--truth", str(out / "truth_t0.csv"),
    ])
    assert rc == 0
    assert (out / "field_static.csv").exists()

    rc = cli.main(["eval", "--field", str(out / "field_static.csv"), "--truth", str(out / "truth_t0.csv")])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "mse=" in out_text


def test_cli_bound_and_okd_and_recursive(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out), "--steps", "2"]) == 0
    meas = str(out / "measurements.csv")

    assert cli.main(["bound", "--config", cfg, "--out", str(out), "--measurements", meas]) == 0
    _, _, var, hcrb = read_field_csv(out / "field_bound.csv")
    assert hcrb is not None
    assert np.all(hcrb >= var - 1e-9)

    assert cli.main(["baseline-okd", "--config", cfg, "--out", str(out), "--measurements", meas]) == 0
    assert (out / "field_okd.csv").exists()

    assert cli.main(["fit-recursive", "--config", cfg, "--out", str(out), "--measurements", meas, "--lambda", "0.5"]) == 0
    assert (out / "field_rgp_t0.csv").exists()
    assert (out / "field_rgp_t1.csv").exists()


def test_one_snapshot_commands_synthesize_only_the_first_step(tmp_path, monkeypatch):
    calls = []

    def counting(scenario, t=0):
        calls.append(t)
        return rf.sample_snapshot(scenario, t)

    monkeypatch.setattr(cli, "sample_snapshot", counting)
    fields = []
    for steps in ("1", "6"):
        cfg = write_cfg(tmp_path, _cfg_with(f"steps = {steps}"))
        out = tmp_path / f"out{steps}"
        for command in ("fit-static", "bound", "baseline-okd"):
            calls.clear()
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
            assert calls == [0]
        fields.append((out / "field_static.csv").read_bytes())
    assert fields[0] == fields[1]


def test_baseline_okd_fits_no_kernel(tmp_path, monkeypatch):
    # kriging reads only the fitted means; the kernel fit is not run
    cfg = write_cfg(tmp_path, SMALL_SCENARIO)
    assert cli.main(["baseline-okd", "--config", cfg, "--out", str(tmp_path / "fit")]) == 0

    def no_fit(*args, **kwargs):
        raise AssertionError("baseline-okd ran the kernel fit")

    monkeypatch.setattr(rf.pipeline, "fit_kernel", no_fit)
    assert cli.main(["baseline-okd", "--config", cfg, "--out", str(tmp_path / "nofit")]) == 0
    want = (tmp_path / "fit" / "field_okd.csv").read_bytes()
    assert (tmp_path / "nofit" / "field_okd.csv").read_bytes() == want


def test_cli_ingest_real(tmp_path):
    rng = np.random.default_rng(3)
    rows = [(0, str(i), *rng.uniform(0, 100, 2), float(rng.uniform(-90, -50))) for i in range(40)]
    raw = tmp_path / "raw.csv"
    write_measurements(raw, rows)
    out = tmp_path / "out"
    assert cli.main(["ingest-real", "--measurements", str(raw), "--seed", "5", "--out", str(out)]) == 0
    assert (out / "train_measurements.csv").exists()
    assert (out / "test_truth.csv").exists()
    assert len((out / "train_measurements.csv").read_text().splitlines()) == 21  # header + 20


def test_real_data_workflow_with_known_transmitter(tmp_path):
    # end-to-end: raw measurement file -> split -> fixed-transmitter fit on
    # the training half, scored on the held-out grid
    rng = np.random.default_rng(9)
    tx = Position(150.0, 150.0)
    n = 200
    pos = rng.uniform(0, 300, (n, 2))
    d = np.maximum(np.hypot(pos[:, 0] - tx.x, pos[:, 1] - tx.y), 1.0)
    rss = -10.0 - 35.0 * np.log10(d) + rng.normal(0, 2.0, n)
    raw = tmp_path / "raw.csv"
    write_measurements(raw, [(0, str(i), pos[i, 0], pos[i, 1], rss[i]) for i in range(n)])

    out = tmp_path / "out"
    assert cli.main(["ingest-real", "--measurements", str(raw), "--seed", "2", "--out", str(out)]) == 0

    cfg_text = """
[scenario]
area_width = 300
area_height = 300
tx_x = 150
tx_y = 150
tx_known = true
sigma_w = 2.0
[estimator]
rho_u = 50
"""
    cfg = write_cfg(tmp_path, cfg_text)
    rc = cli.main([
        "fit-static", "--config", cfg, "--out", str(out),
        "--measurements", str(out / "train_measurements.csv"),
        "--truth", str(out / "test_truth.csv"),
    ])
    assert rc == 0
    grid, mean, _, _ = read_field_csv(out / "field_static.csv")
    _, truth = read_truth(out / "test_truth.csv")
    assert compute_mse(mean, truth) < 25.0  # clearly informative on held-out points


def test_pipeline_empirical_variance_path():
    cfg = ExperimentConfig()
    cfg.area = (300.0, 300.0)
    cfg.grid_nx = cfg.grid_ny = 4
    cfg.n_sensors = 40
    cfg.seed = 4
    cfg.variance_path = "empirical"
    scenario = cfg.scenario()
    snap, _ = rf.sample_snapshot(scenario, 0)
    from rssfield.pipeline import run_static

    result = run_static(snap, scenario.grid, cfg.pipeline_config())
    # the variance fields come from the residual fit, and the kernel freezes
    # them rather than re-learning
    assert result.hyper.var_p >= 0.0
    assert_allclose(result.kernel.sigma_p_k, math.sqrt(result.hyper.var_p), rtol=1e-12)
    assert_allclose(result.kernel.sigma_alpha_k, math.sqrt(result.hyper.var_alpha), rtol=1e-12)


def test_empirical_known_variance_follows_swept_shadowing_and_case_noise(tmp_path, monkeypatch):
    # run_cases sweeps sigma_v^2 per scenario and sets rho_u per case; the
    # known variance handed to estimate_variances must follow both
    from rssfield import empbayes
    from rssfield.experiments import run_single_case

    handed = []
    original = empbayes.estimate_variances

    def recording(z, mu_p, mu_alpha, q_hat, known_var):
        handed.append((np.array(q_hat), np.array(known_var)))
        return original(z, mu_p, mu_alpha, q_hat, known_var)

    monkeypatch.setattr(empbayes, "estimate_variances", recording)
    cfg = _tiny_cases_config(tmp_path)
    cfg.variance_path = "empirical"
    scenario = cfg.scenario(seed=3, sigma_v_sq=4.0)
    snap, truth = rf.sample_snapshot(scenario, 0)
    sw_sq = cfg.sigma_w**2

    run_single_case(scenario, truth, snap, truth.sensor_true_positions, 0.0, cfg)  # case1
    assert handed
    for _, known in handed:
        assert np.array_equal(known, np.full(snap.n_sensors, 4.0 + sw_sq))

    handed.clear()
    rho = cfg.effective_rho_u()
    run_single_case(scenario, truth, snap, snap.positions, rho, cfg)  # case2
    assert handed
    for q_hat, known in handed:
        d_hat = 10.0 ** (q_hat / 10.0)  # q = 10 log10(d_hat)
        assert_allclose(known, 4.0 + sw_sq + rho**2 / d_hat**2, rtol=1e-12)


def test_cli_exit_codes(tmp_path):
    # config error
    bad_cfg = write_cfg(tmp_path, "[scenario]\nnot_a_key = 1\n")
    assert cli.main(["synth", "--config", bad_cfg, "--out", str(tmp_path / "x")]) == 2
    # I/O error: missing measurement file
    cfg = write_cfg(tmp_path, SMALL_SCENARIO)
    rc = cli.main(["fit-static", "--config", cfg, "--out", str(tmp_path / "y"),
                   "--measurements", str(tmp_path / "missing.csv")])
    assert rc == 4
    # I/O error: malformed truth file
    bad_truth = tmp_path / "bad_truth.csv"
    bad_truth.write_text("wrong,header\n")
    out = tmp_path / "out2"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    rc = cli.main(["eval", "--field", str(out / "truth_t0.csv"), "--truth", str(bad_truth)])
    assert rc == 4


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    run = {"--config", "--seed", "--out"}
    fit = run | {"--measurements", "--truth"}
    assert taken == {
        "synth": run | {"--steps"},
        "fit-static": fit,
        "fit-recursive": fit | {"--lambda", "--steps"},
        "bound": fit,
        "baseline-okd": fit,
        "cases": run | {"--replicates"},
        "eval": {"--field", "--truth"},
        "ingest-real": run | {"--measurements"},
    }
    assert sum(map(len, taken.values())) == 36
    # a flag the command would not read is an argparse error, not ignored
    for argv in (["fit-static", "--steps", "1"], ["eval", "--field", "f.csv"], ["ingest-real"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --steps 1" in err
    assert "the following arguments are required: --truth" in err
    assert "the following arguments are required: --measurements" in err


def _cfg_with(lines):
    """SMALL_SCENARIO with each key line of lines set (replacing the key's own line)."""
    text = SMALL_SCENARIO
    for line in lines.splitlines():
        key = line.split("=")[0].strip()
        section = {
            "lambda": "estimator", "kernel_refit": "estimator", "refine_passes": "estimator", "steps": "estimator",
            "n_starts": "estimator", "variance_path": "estimator", "rho_u": "estimator",
            "sigma_v_sq_sweep": "run",
        }.get(key, "scenario")
        text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
        text = text.replace(f"[{section}]", f"[{section}]\n{line}")
    return text


@pytest.mark.parametrize("command, line, flags", [
    ("fit-recursive", "lambda = 1.5", []),
    ("fit-recursive", None, ["--lambda", "0"]),
    ("fit-recursive", "kernel_refit = sometimes", []),
    ("fit-static", "grid_nx = 0", []),
    ("synth", "n_sensors = 0", []),
    ("synth", None, ["--steps", "0"]),
    ("fit-recursive", None, ["--steps", "0"]),
    ("cases", None, ["--replicates", "0"]),
    ("cases", "sigma_v_sq_sweep = 4, -4", []),
    ("synth", None, ["--seed", "seven"]),
    ("fit-static", "refine_passes = 10", []),  # a removed key
    ("fit-static", "sigma_v = -1", []),  # the scenario sees only sigma_v squared
    ("fit-static", "sigma_v = 1e200", []),  # whose square overflows
    ("fit-static", "sigma_v = inf", []),
    ("fit-static", "d_corr = nan", []),
    # the synthetic world brings its own truth, so a truth file scores only a measurement file
    ("fit-static", None, ["--truth", "truth.csv"]),
    ("fit-recursive", None, ["--truth", "truth.csv"]),
    ("fit-static", "n_starts = 2", []),  # a removed key, like refine_passes
    ("synth", None, ["--seed", "-1"]),
    ("cases", None, ["--seed", "-1"]),
    ("ingest-real", None, ["--seed", "-1", "--measurements", "measurements.csv"]),
    ("fit-static", "d_corr = 0", []),
    ("fit-static", "sigma_w = 1e200", []),  # whose square overflows
    ("fit-recursive", "rho_u = 1e200", []),
    ("fit-static", "sigma_w = 1e154\nrho_u = 1e154", []),  # whose squares' sum overflows
])
def test_cli_invalid_config_exits_2_before_any_work(tmp_path, capsys, command, line, flags):
    cfg = write_cfg(tmp_path, _cfg_with(line) if line else SMALL_SCENARIO)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()
    # the error line names the offending key or flag; grid_nx reaches the grid as nx
    key = line.split("=")[0].strip() if line else flags[0][2:]
    assert {"grid_nx": "nx"}.get(key, key) in err[0]


def _hostile_inputs(case, tmp_path):
    """(measurements, truth) CSVs for one hostile case on SMALL_SCENARIO's grid."""
    rng = np.random.default_rng(5)
    grid = uniform_grid(200, 200, 4, 4)
    pos = rng.uniform(0, 200, (25, 2))
    if case == "coincident":
        pos[:] = pos[0]
    elif case == "two sensors":
        pos = pos[:2]
    elif case == "six sensors":
        pos = pos[:6]
    elif case == "duplicate":
        pos = np.vstack([pos, pos[:1]])  # 26 rows, two at one position
    elif case == "collinear":
        pos[:, 1] = 50.0  # a line that misses the transmitter at (100, 100)
    elif case == "on transmitter":
        pos[0] = (100.0, 100.0)
    elif case.startswith("sensor 1e"):
        pos[0, 0] = float(case.split()[1])  # "sensor 1e150 m out", with or without ", known tx"
    d = np.maximum(np.hypot(pos[:, 0] - 100, pos[:, 1] - 100), 1.0)
    rows = []
    # no report at t = 1, or none for 10^8 steps
    for t in {"empty step": (0, 2), "long gap": (0, 10**8)}.get(case, (0,)):
        rss = -10.0 - 35.0 * np.log10(d) + rng.normal(0, 2.0, len(d))
        if case == "rss -4000":
            rss[:] = -4000.0  # finite, but 10^(rss/10) underflows to 0
        elif case == "rss 4000":
            rss[0] = 4000.0  # finite, but 10^(rss/10) overflows
        elif case == "rss 1e160 known tx":
            rss[:] = np.where(np.arange(len(d)) % 2 == 0, 1e160, -1e160)  # finite, but their squares overflow
        elif case == "rss 1e80 known tx, empirical variances":
            rss[:] = np.where(np.arange(len(d)) % 2 == 0, 1e80, -1e80)  # finite, but their fourth powers overflow
        rows += [(t, str(i), x, y, r) for i, ((x, y), r) in enumerate(zip(pos, rss))]
    if case == "repeated id":
        rows[1] = (0, rows[0][1], *rows[1][2:])  # two rows of sensor "0" at t = 0
    meas, truth = tmp_path / "meas.csv", tmp_path / "truth.csv"
    write_measurements(meas, rows)
    field = np.full(grid.n_nodes, -60.0)
    if case == "nan truth":
        field[5] = np.nan
    write_truth(truth, grid, field)
    return str(meas), str(truth)


def _written_fields(out):
    """Names of the field CSVs under out, each checked to hold only finite numbers."""
    names = []
    for path in sorted(out.glob("field_*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row[1:]), path.name
        names.append(path.name)
    return names


_CASE_CONFIG = {
    "rss 1e160 known tx": "tx_known = true",
    "rss 1e80 known tx, empirical variances": "tx_known = true\nvariance_path = empirical",
    "sensor 1e150 m out, known tx": "tx_known = true",
    "sensor 1e200 m out, known tx": "tx_known = true",
    "sigma_w 1e154": "sigma_w = 1e154",
    "rho_u 1e154": "rho_u = 1e154",
    "rho_u 1e154, empirical variances": "rho_u = 1e154\nvariance_path = empirical",
}


def _run_hostile(case, command, tmp_path, capsys):
    """(exit code, stderr, field files written) of one command on one hostile case."""
    meas, truth = _hostile_inputs(case, tmp_path)
    cfg = write_cfg(tmp_path, _cfg_with(_CASE_CONFIG.get(case, "")))
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                   "--measurements", meas, "--truth", truth])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err, _written_fields(tmp_path / "out")


_FIT_COMMANDS = ["fit-static", "bound", "baseline-okd", "fit-recursive"]


@pytest.mark.parametrize("case, command", [
    *itertools.product(["coincident", "two sensors", "nan truth"], ["fit-static", "bound", "baseline-okd"]),
    ("rss -4000", "fit-static"),
    ("rss -4000", "bound"),
    ("rss -4000", "baseline-okd"),
    ("six sensors", "baseline-okd"),  # the variogram needs 10 reports
    *[(case, "fit-recursive") for case in ["coincident", "two sensors", "nan truth", "rss -4000", "long gap"]],
    *[("rss 4000", command) for command in _FIT_COMMANDS],
    # a known transmitter forms no centroid: the residuals' sum of squares overflows
    *[("rss 1e160 known tx", command) for command in _FIT_COMMANDS],
    # the empirical variance fit sums the residuals' fourth powers
    *[("rss 1e80 known tx, empirical variances", command) for command in _FIT_COMMANDS],
    # ordinary reports, but the known variances' own fourth powers overflow
    *[("rho_u 1e154, empirical variances", command) for command in _FIT_COMMANDS],
    # the squared distances weighting the means overflow their sums
    *[(f"sensor {far} m out{tx}", command)
      for far in ("1e150", "1e200") for tx in ("", ", known tx") for command in _FIT_COMMANDS],
])
def test_cli_hostile_data_exits_4_with_one_line(tmp_path, capsys, case, command):
    rc, err, fields = _run_hostile(case, command, tmp_path, capsys)
    assert rc == 4
    assert len(err.splitlines()) == 1 and err.startswith("I/O or data error: ")
    if case.startswith("sensor 1e"):
        assert f"sensors up to {float(case.split()[1]):g} m from the fix" in err
    if case == "nan truth":
        assert "truth.csv: row 7" in err
    if case == "long gap":
        assert "no reports from t=1 to t=99999999" in err
    if case == "rho_u 1e154, empirical variances":
        assert "known measurement variances up to" in err
    assert fields == []


@pytest.mark.parametrize("command, lines", [
    *itertools.product(["fit-static", "fit-recursive", "baseline-okd"], ["power_dbm = 4000", "sigma_v = 1e100"]),
    # a known transmitter forms no centroid: the reports overflow the variogram fit's cost
    ("baseline-okd", "tx_known = true\nsigma_v = 1e100"),
])
def test_cli_overflowing_synthetic_reports_exit_4_with_one_line(tmp_path, capsys, command, lines):
    # a valid config whose synthetic reports overflow the centroid weights
    cfg = write_cfg(tmp_path, _cfg_with(lines))
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("I/O or data error: ")
    assert _written_fields(out) == []


def test_fit_recursive_fills_up_to_max_empty_steps_and_rejects_more(tmp_path, capsys):
    meas, truth = _hostile_inputs("empty step", tmp_path)
    cfg = write_cfg(tmp_path, SMALL_SCENARIO)
    rows = read_measurements(meas)

    def run(gap):
        """(exit code, field files written) with no report from t = 1 to t = gap."""
        write_measurements(meas, [(0 if t == 0 else gap + 1, *rest) for t, *rest in rows])
        out = tmp_path / f"gap{gap}"
        rc = cli.main(["fit-recursive", "--config", cfg, "--out", str(out), "--measurements", meas, "--truth", truth])
        return rc, list(out.glob("field_*.csv"))

    rc, fields = run(cli.MAX_EMPTY_STEPS)
    assert rc == 0 and len(fields) == cli.MAX_EMPTY_STEPS + 2
    assert f"wrote {cli.MAX_EMPTY_STEPS + 2} field file(s)" in capsys.readouterr().out
    rc, fields = run(cli.MAX_EMPTY_STEPS + 1)
    assert rc == 4 and fields == []
    assert f"more than {cli.MAX_EMPTY_STEPS} steps in a row" in capsys.readouterr().err


@pytest.mark.parametrize("case, command", [
    *itertools.product(["duplicate", "collinear", "on transmitter", "empty step"], _FIT_COMMANDS),
    # the one-snapshot commands fit the first t and never step through the gap
    *[("long gap", command) for command in _FIT_COMMANDS if command != "fit-recursive"],
    *[("six sensors", command) for command in _FIT_COMMANDS if command != "baseline-okd"],
    # a training diagonal near 1e308 (the bound, whose added term overflows, exits 3)
    *[("sigma_w 1e154", command) for command in _FIT_COMMANDS if command != "bound"],
    # location-error variances near 1e308 / d^2: the bound takes no derivative of
    # them, so it stays finite
    ("rho_u 1e154", "bound"),
])
def test_cli_fittable_hostile_data_exits_0_with_finite_fields(tmp_path, capsys, case, command):
    # no warning of any kind, raised as an error, stops a fit; fit-recursive
    # steps only through snapshots with reports, so not even at an empty step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, fields = _run_hostile(case, command, tmp_path, capsys)
    assert rc == 0
    want = {
        "fit-static": ["field_static.csv"],
        "bound": ["field_bound.csv"],
        "baseline-okd": ["field_okd.csv"],
        # the file has no row at t = 1: that step is empty and carries the field forward
        "fit-recursive": ["field_rgp_t0.csv", "field_rgp_t1.csv", "field_rgp_t2.csv"] if case == "empty step"
        else ["field_rgp_t0.csv"],
    }
    assert fields == want[command]
    if command == "fit-recursive" and case == "empty step":
        out = tmp_path / "out"
        assert (out / "field_rgp_t1.csv").read_bytes() == (out / "field_rgp_t0.csv").read_bytes()


@pytest.mark.parametrize("command", _FIT_COMMANDS)
def test_cli_repeated_sensor_id_fits_as_unique_ids_do(tmp_path, capsys, command):
    # a fit carries sensor_id through files but never reads it: two rows that
    # share an id at one t are two reports
    fields = {}
    for case in ("repeated id", "unique ids"):
        work = tmp_path / case.replace(" ", "_")
        work.mkdir()
        rc, _, names = _run_hostile(case, command, work, capsys)
        assert rc == 0
        fields[case] = {name: (work / "out" / name).read_bytes() for name in names}
    assert fields["repeated id"] and fields["repeated id"] == fields["unique ids"]


def test_synth_sensor_id_column_lists_the_active_roster(tmp_path):
    cfg = write_cfg(tmp_path, _cfg_with("dynamics = intermittent"))
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out), "--steps", "3"]) == 0
    ids = {}
    for t, sid, *_ in read_measurements(out / "measurements.csv"):
        ids.setdefault(t, []).append(sid)
    scenario = parse_config(Path(cfg).read_text()).scenario()
    want = {t: [str(i) for i in rf.sample_snapshot(scenario, t)[1].sensor_ids] for t in range(3)}
    assert ids == want
    assert len(ids[1]) < len(ids[0])  # the intermittent world dropped sensors at t = 1


@pytest.mark.parametrize("case", ["sigma_w 1e154"])
def test_cli_bound_that_is_not_finite_exits_3_with_one_line(tmp_path, capsys, case):
    # valid noise scales whose bound overflows: under sigma_w^2 = 1e308 the
    # information matrix it inverts for the added term is near 1e-308
    rc, err, fields = _run_hostile(case, "bound", tmp_path, capsys)
    assert rc == 3
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")
    assert fields == []
