"""Effect of sensor-location errors on field accuracy (small-scale sweep).

Three estimator variants on identical data: true positions (case 1),
reported positions with the induced error modeled in the noise term
(case 2), and reported positions used as if exact (case 3). Modeling the
error recovers part of the loss from not knowing the positions.
"""

from rssfield.experiments import ExperimentConfig, run_cases


def main():
    cfg = ExperimentConfig()
    cfg.area = (400.0, 400.0)
    cfg.grid_nx = cfg.grid_ny = 8
    cfg.n_sensors = 120
    cfg.replicates = 20
    cfg.seed = 3
    cfg.sigma_v_sq_sweep = (4.0, 10.0)
    cfg.out_dir = "out_cases_demo"

    records, path = run_cases(cfg)
    print(f"per-replicate metrics: {path}")
    print("\nmean grid MSE (dB^2) over 20 replicates:")
    print("sigma_v^2   case1    case2    case3")
    for sv in cfg.sigma_v_sq_sweep:
        means = []
        for case in ("case1", "case2", "case3"):
            vals = [r.mse for r in records if r.case == case and r.sigma_v_sq == sv]
            means.append(sum(vals) / len(vals))
        print(f"{sv:9.0f}   {means[0]:6.3f}   {means[1]:6.3f}   {means[2]:6.3f}")
    print("\ncase1 (exact positions) <= case2 (error modeled) <= case3 (error ignored)")


if __name__ == "__main__":
    main()
