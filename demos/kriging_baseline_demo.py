"""GP field estimate versus the ordinary-kriging baseline.

Both detrend with the same estimated log-distance mean; kriging interpolates
the residuals with a fitted exponential variogram, while the GP carries the
full noise model (including the location-error term) and the learned kernel.
"""

import math

import numpy as np

import rssfield as rf
from rssfield.pipeline import PipelineConfig, run_static


def main():
    gp_mse, okd_mse = [], []
    for seed in range(10):
        scenario = rf.benchmark_scenario(seed=seed, sigma_v_sq=10.0, nx=8, ny=8,
                                         n_sensors=120, area=(400.0, 400.0))
        snapshot, truth = rf.sample_snapshot(scenario, 0)
        noise = rf.NoiseModel(rho_u=rf.rho_u_from(3.5, 13.16), sigma_w=math.sqrt(7.0))
        result = run_static(
            snapshot, scenario.grid,
            PipelineConfig(noise=noise, area_bounds=scenario.area_bounds),
            compute_cov=False,
        )
        gp_mse.append(rf.compute_mse(result.posterior.mean, truth.grid_field))

        okd = rf.okd_predict((snapshot.positions, snapshot.rss), scenario.grid, result.hyper)
        okd_mse.append(rf.compute_mse(okd, truth.grid_field))

    print("seed   GP MSE   OKD MSE   (dB^2)")
    for s, (g, o) in enumerate(zip(gp_mse, okd_mse)):
        print(f"{s:4d}   {g:6.2f}   {o:7.2f}")
    print(f"\nmean   {np.mean(gp_mse):6.2f}   {np.mean(okd_mse):7.2f}")


if __name__ == "__main__":
    main()
