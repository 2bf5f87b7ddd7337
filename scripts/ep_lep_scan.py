#!/usr/bin/env python3
"""Locate the no-jump (conditional) and full-dynamics transitions vs n.

Runs the CLI's default ep-scan and lep-scan (kappa = 1, gamma = 2) at each n.
The conditional spectrum coalesces at g = (2n+1)*kappa while the first-moment
dynamics coalesces at g = kappa for every n; the gap 2*n*kappa is the thermal
splitting of the two transitions.
"""

from epsim import cli


def located(mode: str, n_th: float) -> float:
    """The coupling where the CLI's default scan of mode locates its EP at n_th."""
    config = cli.load_config(mode, None, {"params": {"n_th": n_th}})
    located = cli.cmd_ep_scan(config).summary["located"]
    if located is None:
        raise RuntimeError(f"{mode} located no coalescence on its default grid at n_th = {n_th}")
    return located


def run() -> None:
    params = cli.DEFAULT_CONFIGS["ep-scan"]["params"]
    kappa = (params["gamma_a"] - params["gamma_b"]) / 2
    print(f"{'n':>5} {'conditional':>12} {'full':>8} {'gap':>8} {'2*n*kappa':>10}")
    for n_th in (0.0, 0.1, 0.2, 0.3):
        hep, lep = located("ep-scan", n_th), located("lep-scan", n_th)
        print(
            f"{n_th:5.2f} {hep:12.3f} {lep:8.3f} {hep - lep:8.3f} "
            f"{2 * n_th * kappa:10.3f}"
        )


if __name__ == "__main__":
    run()
