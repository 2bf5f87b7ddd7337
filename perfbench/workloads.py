"""Workload definitions: the epsim commands each workload runs and their output checks.

A workload is a fixed list of CLI commands. Each command carries its config
(written to a JSON file and passed with --config), whether the workload seed
is passed with --seed, and a check that turns its exit code and captured
output table into (attempted, failed) counts plus a list of failure messages.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

# Criterion 8's bound on the final trace distance of the thermal ensemble.
THERMAL_TRACE_DISTANCE_BOUND = 0.03

SCAN_GRID = {"axis": "g", "min": 0.8, "max": 1.8, "step": 0.001}
SCAN_N_TH = (0.0, 0.1, 0.2, 0.3)
SPECTRUM_N_TH = (0.0, 0.1, 0.2)
SPECTRUM_POINTS = 101  # default kappa sweep 0..2 step 0.02
ROWS_PER_SPECTRUM_POINT = 4  # one per tracked state


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str):
        self.count(1, 0 if ok else 1, message)

    def count(self, attempted: int, failed: int, message: str):
        """Record `attempted` checks of which `failed` failed."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(message)


@dataclass(frozen=True)
class Command:
    label: str
    subcommand: str
    config: dict
    seeded: bool
    check: Callable[[int, str, "Command"], Outcome]

    def argv(self, config_path: str, seed: int) -> list[str]:
        argv = [self.subcommand, "--config", config_path]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


def parse_table(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Split a CSV table into (columns, rows, '#' comment lines)."""
    comments, body = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else body).append(line)
    if not body:
        return [], [], comments
    return body[0].split(","), [line.split(",") for line in body[1:]], comments


def _finite(cells: list[str]) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


def check_trajectories(code: int, text: str, cmd: Command) -> Outcome:
    out = Outcome()
    out.check(code == 0, f"{cmd.label}: exit code {code}")
    columns, rows, _ = parse_table(text)
    settings = cmd.config["trajectories"]
    n_samples = len(range(0, round(settings["t_final"] / settings["dt"]), settings["sample_every"])) + 1
    out.check(
        len(rows) == n_samples and all(_finite(r) for r in rows),
        f"{cmd.label}: expected {n_samples} finite rows, got {len(rows)}",
    )
    if rows and "trace_distance" in columns:
        final = float(rows[-1][columns.index("trace_distance")])
        out.check(
            final <= THERMAL_TRACE_DISTANCE_BOUND,
            f"{cmd.label}: final trace distance {final:.4g} > {THERMAL_TRACE_DISTANCE_BOUND}",
        )
    else:
        out.check(False, f"{cmd.label}: no trace_distance column")
    return out


def check_liouvillian(code: int, text: str, cmd: Command) -> Outcome:
    out = Outcome()
    out.check(code == 0, f"{cmd.label}: exit code {code}")
    columns, rows, _ = parse_table(text)
    out.check(len(rows) == 6, f"{cmd.label}: expected 6 check rows, got {len(rows)}")
    for row in rows:
        record = dict(zip(columns, row))
        out.check(record.get("passed") == "True", f"{cmd.label}: row {row[0]} failed")
    return out


def check_spectrum(code: int, text: str, cmd: Command) -> Outcome:
    out = Outcome()
    out.check(code == 0, f"{cmd.label}: exit code {code}")
    _, rows, _ = parse_table(text)
    per_point: dict[str, list[list[str]]] = {}
    for row in rows:
        per_point.setdefault(row[0], []).append(row)
    good = sum(
        len(rs) == ROWS_PER_SPECTRUM_POINT and all(_finite(r) for r in rs)
        for rs in per_point.values()
    )
    out.count(
        SPECTRUM_POINTS,
        SPECTRUM_POINTS - good,
        f"{cmd.label}: {SPECTRUM_POINTS - good} of {SPECTRUM_POINTS} points "
        f"lack {ROWS_PER_SPECTRUM_POINT} finite rows",
    )
    return out


def check_scan(code: int, text: str, cmd: Command) -> Outcome:
    """The scan locates its expected coupling within one grid step, excluding no point."""
    out = Outcome()
    out.check(code == 0, f"{cmd.label}: exit code {code}")
    _, rows, comments = parse_table(text)
    summary = None
    for line in comments:
        if line.startswith("# summary: "):
            summary = json.loads(line[len("# summary: "):])
    grid = cmd.config["sweep"]
    n_points = int(math.floor((grid["max"] - grid["min"]) / grid["step"] + 1e-9)) + 1
    excluded = n_points if summary is None else summary["excluded_points"]
    excluded = min(n_points, max(excluded, n_points - len(rows)))
    out.count(n_points, excluded, f"{cmd.label}: {excluded} of {n_points} points excluded")
    params = cmd.config["params"]
    kappa = 0.5 * (params["gamma_a"] - params["gamma_b"])
    expected = (2 * params["n_th"] + 1) * kappa if cmd.subcommand == "ep-scan" else kappa
    located = None if summary is None else summary["located"]
    out.check(
        located is not None and abs(located - expected) <= grid["step"] * (1 + 1e-6),
        f"{cmd.label}: located {located}, expected {expected:.4g} +- {grid['step']}",
    )
    return out


UNRAVEL_THERMAL_CONFIG = {
    "mode": "trajectories",
    "params": {"g": 1.0, "gamma_a": 2.5, "gamma_b": 1.5, "eps": 1.0, "n_th": 0.2},
    "cutoff": 6,
    "trajectories": {
        "dt": 1e-3,
        "t_final": 1.0,
        "n_traj": 4096,
        "sample_every": 200,
        "guard_threshold": 1.0,
    },
}

LIOUVILLIAN_WITNESS_CONFIG = {"mode": "liouvillian-check", "cutoff": 6}


def _spectrum(n_th: float) -> Command:
    return Command(
        label=f"spectrum[n_th={n_th}]",
        subcommand="spectrum",
        config={"mode": "hamiltonian-spectrum", "params": {"n_th": n_th}},
        seeded=False,
        check=check_spectrum,
    )


def _scan(which: str, n_th: float) -> Command:
    return Command(
        label=f"{which}[n_th={n_th}]",
        subcommand=which,
        config={
            "mode": which,
            "params": {"g": 1.0, "gamma_a": 3.0, "gamma_b": 1.0, "eps": 1.0, "n_th": n_th},
            "sweep": dict(SCAN_GRID),
        },
        seeded=False,
        check=check_scan,
    )


WORKLOADS: dict[str, list[Command]] = {
    "unravel-thermal": [
        Command(
            label="trajectories[thermal]",
            subcommand="trajectories",
            config=UNRAVEL_THERMAL_CONFIG,
            seeded=True,
            check=check_trajectories,
        )
    ],
    "liouvillian-witness": [
        Command(
            label="liouvillian-check[d=6]",
            subcommand="liouvillian-check",
            config=LIOUVILLIAN_WITNESS_CONFIG,
            seeded=True,
            check=check_liouvillian,
        )
    ],
    "ep-sweep": (
        [_spectrum(n) for n in SPECTRUM_N_TH]
        + [_scan(which, n) for n in SCAN_N_TH for which in ("ep-scan", "lep-scan")]
    ),
}
