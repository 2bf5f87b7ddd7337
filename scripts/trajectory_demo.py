#!/usr/bin/env python3
"""Quantum-jump unraveling vs exact master-equation evolution.

Runs a modest ensemble from the two-mode vacuum, prints the trace-distance
time series, and shows the no-jump (postselected) state matching the
conditional exp(-i H_nh t) evolution.
"""

import numpy as np

from epsim import model as md
from epsim import spectral as sp
from epsim import trajectory as tj
from epsim import fockspace as fs

PARAMS = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.0)
CONFIG = tj.TrajectoryConfig(
    dt=0.01, t_final=1.0, n_traj=2000, seed=42, cutoff=6, sample_every=20
)


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
