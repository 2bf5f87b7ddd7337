#!/usr/bin/env python3
"""Locate the no-jump (conditional) and full-dynamics transitions vs n.

For kappa = 1, gamma = 2 the conditional spectrum coalesces at
g = (2n+1)*kappa while the first-moment dynamics coalesces at g = kappa for
every n; the gap 2*n*kappa is the thermal splitting of the two transitions.
"""

import numpy as np

from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp

GRID = list(0.8 + 0.01 * np.arange(81))
KAPPA = 1.0


def locate(matrices) -> float:
    estimate = sp.estimate_ep(sp.coalescence_scan(matrices, GRID))
    if estimate is None:
        raise RuntimeError("no coalescence found on the grid")
    return estimate.param


def run() -> None:
    print(f"{'n':>5} {'conditional':>12} {'full':>8} {'gap':>8} {'2*n*kappa':>10}")
    for n_th in (0.0, 0.1, 0.2, 0.3):
        base = md.SystemParams.from_mean_split(1.0, 2.0, KAPPA, eps=1.0, n_th=n_th)
        points = [base.along("g", g) for g in GRID]
        hep = locate([md.h_nh_block(p, 6, 1) for p in points])
        lep = locate([lv.dynamical_matrix(p) for p in points])
        print(
            f"{n_th:5.2f} {hep:12.3f} {lep:8.3f} {hep - lep:8.3f} "
            f"{2 * n_th * KAPPA:10.3f}"
        )


if __name__ == "__main__":
    run()
