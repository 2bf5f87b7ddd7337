#!/usr/bin/env python3
"""Quantum-jump unraveling vs exact master-equation evolution.

Runs the CLI's default trajectories config with 2000 members from the
two-mode vacuum, prints the trace-distance time series, and shows the no-jump
(postselected) state matching the conditional exp(-i H_nh t) evolution.
"""

import numpy as np

from epsim import cli
from epsim import model as md
from epsim import spectral as sp
from epsim import trajectory as tj
from epsim import fockspace as fs

DEMO = cli.load_config("trajectories", None, {"seed": 42, "trajectories": {"n_traj": 2000}})
PARAMS, CONFIG = DEMO.params, DEMO.trajectories


def run() -> None:
    report = tj.ensemble_vs_master(PARAMS, CONFIG)
    ensemble = report.ensemble
    print(f"{'t':>6} {'trace dist':>12} {'mean jumps':>11} {'survival':>10}")
    for i, t in enumerate(ensemble.sample_times):
        print(
            f"{t:6.2f} {report.trace_distances[i]:12.3e} "
            f"{ensemble.mean_jumps[i]:11.3f} {ensemble.mean_survival[i]:10.4f}"
        )

    post = tj.postselect_no_jump(PARAMS, CONFIG)
    h_nh = md.build_h_nh(PARAMS, CONFIG.cutoff)
    reference = sp.mat_exp(-1j * h_nh * CONFIG.t_final) @ fs.basis_state(
        CONFIG.cutoff, 0, 0
    )
    reference /= np.linalg.norm(reference)
    print(
        "\npostselected no-jump state vs conditional propagator: "
        f"|diff| = {np.linalg.norm(post.final_state - reference):.2e}, "
        f"survival = {post.survival:.4f}"
    )


if __name__ == "__main__":
    run()
