"""Per-node error bounds versus the plain posterior variance.

The bound adds to the GP variance a term for the estimated prior-mean
parameters (power, exponent, transmitter fix). The addition is largest near
the transmitter, where the fix error bends the log-distance mean the most.
"""

import math

import numpy as np

import rssfield as rf
from rssfield.pipeline import PipelineConfig, run_static


def main():
    scenario = rf.benchmark_scenario(seed=5, sigma_v_sq=10.0, nx=8, ny=8, n_sensors=100, area=(400.0, 400.0))
    snapshot, _ = rf.sample_snapshot(scenario, 0)
    noise = rf.NoiseModel(rho_u=rf.rho_u_from(3.5, 13.16), sigma_w=math.sqrt(7.0))
    result = run_static(snapshot, scenario.grid, PipelineConfig(noise=noise, area_bounds=scenario.area_bounds))

    reports = rf.hcrb_all(
        (snapshot.positions, snapshot.rss), scenario.grid, result.hyper, result.kernel, noise
    )
    d_tx = rf.clamped_distances(scenario.grid.xy, result.hyper.tx)

    print("node   d_tx[m]   gp_var   added   bound")
    order = np.argsort(d_tx)
    for i in list(order[:5]) + list(order[-3:]):
        r = reports[i]
        print(f"{i:4d}   {d_tx[i]:7.1f}   {r.gp_variance:6.2f}  {r.added_term:6.3f}  {r.bound:6.2f}")

    added = np.array([r.added_term for r in reports])
    near = added[d_tx < np.median(d_tx)].mean()
    far = added[d_tx >= np.median(d_tx)].mean()
    print(f"\nmean added term: {near:.3f} dB^2 (near half) vs {far:.3f} dB^2 (far half)")
    print(f"bound >= variance at every node: {all(r.bound >= r.gp_variance for r in reports)}")


if __name__ == "__main__":
    main()
