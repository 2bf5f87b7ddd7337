#!/usr/bin/env python3
"""Regenerate the tracked-state eigenvalue curves across the gain-loss sweep.

Writes one CSV per thermal occupation (n = 0, 0.1, 0.2) with the analytic
and numeric eigenvalue curves of the four tracked states as functions of
kappa/g at gamma/g = 2, eps/g = 1. The n = 0 file shows the transition at
kappa = g; the thermal files show it moving to kappa = g/(2n+1).
"""

import json
import pathlib
import sys

from epsim.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run() -> None:
    OUT.mkdir(exist_ok=True)
    for n_th in (0.0, 0.1, 0.2):
        # the default spectrum config (cli.DEFAULT_CONFIGS) fills the rest
        config = {"mode": "hamiltonian-spectrum", "params": {"n_th": n_th}}
        config_path = OUT / f"spectrum_n{n_th:g}.json"
        config_path.write_text(json.dumps(config, indent=2))
        out_path = OUT / f"spectrum_n{n_th:g}.csv"
        code = main(
            ["spectrum", "--config", str(config_path), "--out", str(out_path)]
        )
        if code != 0:
            sys.exit(code)
        print(f"wrote {out_path}")


if __name__ == "__main__":
    run()
