"""Tracking a transmit-power change with the recursive estimator.

The transmitter power drops 5 dB midway through the run. The forgetting
factor controls how quickly the field estimate follows: lambda = 1 reacts
instantly (and noisily), smaller values trade lag for smoothness. The error
bars come from the per-node bound.
"""

import math

import rssfield as rf
from rssfield.pipeline import PipelineConfig
from rssfield.recursive import RecursiveConfig, init_state, rgp_step


def run(lam, scenario, noise, probe_node):
    """(rows, final state, final snapshot) of one run through t = 11."""
    config = RecursiveConfig(
        pipeline=PipelineConfig(noise=noise, area_bounds=scenario.area_bounds),
        lam=lam,
    )
    snapshot, truth = rf.sample_snapshot(scenario, 0)
    state = init_state(snapshot, scenario.grid, config)
    rows = [(0, truth.grid_field[probe_node], state.posterior.mean[probe_node])]
    for t in range(1, 12):
        snapshot, truth = rf.sample_snapshot(scenario, t)
        state = rgp_step(state, snapshot, scenario.grid, config)
        rows.append((t, truth.grid_field[probe_node], state.posterior.mean[probe_node]))
    return rows, state, snapshot


def main():
    scenario = rf.benchmark_scenario(
        seed=11, sigma_v_sq=10.0, nx=8, ny=8, n_sensors=120, area=(400.0, 400.0),
        dynamics=rf.PowerSchedule(((6, -15.0),)),
    )
    noise = rf.NoiseModel(rho_u=rf.rho_u_from(3.5, 13.16), sigma_w=math.sqrt(7.0))
    probe = 27
    print(f"power schedule: -10 dBm, dropping to -15 dBm at t=6; probe node {probe}")
    for lam in (1.0, 0.5):
        rows, state, snapshot = run(lam, scenario, noise, probe)
        print(f"\nlambda = {lam}")
        print(" t   true dBm   estimate dBm")
        for t, truth_val, est in rows:
            print(f"{t:2d}   {truth_val:8.2f}   {est:12.2f}")
        reports = rf.hcrb_all(
            (snapshot.positions, snapshot.rss), scenario.grid, state.posterior.hyper, state.posterior.kernel, noise
        )
        band = 3.0 * math.sqrt(reports[probe].bound)
        print(f"final +-3*sqrt(bound) band at the probe: +-{band:.2f} dB")


if __name__ == "__main__":
    main()
