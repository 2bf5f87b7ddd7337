"""Command-line front end: sweep drivers with machine-readable CSV/JSON output.

Subcommands: spectrum, ep-scan, lep-scan, liouvillian-check, trajectories.
Every command is deterministic given its config (including seeds). Output
tables are CSV with '#'-prefixed header lines carrying the canonical config
echo and the tool version; --json switches tables to JSON lines (one meta
object followed by one object per row). Exit codes: 0 success, 1 config
error (including an --out that cannot be written, checked before the command
runs), 2 numerical failure or a failed liouvillian-check row. A command
computes its whole table before anything is written, so a numerical failure
writes no table and creates no --out file.

Physical values in configs are in units of the coupling g unless g itself is
swept (then absolute rate units); the convention is recorded in the output
header.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import __version__
from . import liouvillian as lv
from . import model as md
from . import spectral as sp
from . import trajectory as tj
from .errors import ConfigError, NumericalError
from .fockspace import FockCutoff

SWEEP_AXES = ("kappa", "g", "gamma_a", "gamma_b", "eps", "n_th")
TOLERANCE_KEYS = ("cluster_eps", "angle_eps")
MAX_SWEEP_POINTS = 10**6

DEFAULT_CONFIGS: dict[str, dict] = {
    # kappa sweep of the four tracked eigenvalue curves, gamma/g = 2, eps/g = 1
    "hamiltonian-spectrum": {
        "mode": "hamiltonian-spectrum",
        "params": {"g": 1.0, "gamma_a": 2.0, "gamma_b": 2.0, "eps": 1.0, "n_th": 0.0},
        "sweep": {"axis": "kappa", "min": 0.0, "max": 2.0, "step": 0.02},
        "cutoff": 8,
        "seed": 1,
    },
    # coupling sweep at kappa = 1 across the thermal transition
    "ep-scan": {
        "mode": "ep-scan",
        "params": {"g": 1.0, "gamma_a": 3.0, "gamma_b": 1.0, "eps": 1.0, "n_th": 0.0},
        "sweep": {"axis": "g", "min": 0.8, "max": 1.6, "step": 0.01},
        "cutoff": 6,
        "seed": 1,
        "tolerances": {"cluster_eps": None, "angle_eps": 1e-3},
    },
    "lep-scan": {
        "mode": "lep-scan",
        "params": {"g": 1.0, "gamma_a": 3.0, "gamma_b": 1.0, "eps": 1.0, "n_th": 0.0},
        "sweep": {"axis": "g", "min": 0.8, "max": 1.6, "step": 0.01},
        "cutoff": 6,
        "seed": 1,
        "tolerances": {"cluster_eps": None, "angle_eps": 1e-3},
    },
    "liouvillian-check": {
        "mode": "liouvillian-check",
        "params": {"g": 1.0, "gamma_a": 2.5, "gamma_b": 1.5, "eps": 1.0, "n_th": 0.0},
        "cutoff": 4,
        "seed": 1,
    },
    "trajectories": {
        "mode": "trajectories",
        "params": {"g": 1.0, "gamma_a": 2.5, "gamma_b": 1.5, "eps": 1.0, "n_th": 0.0},
        "cutoff": 6,
        "seed": 1,
        "trajectories": {
            "dt": 0.01,
            "t_final": 1.0,
            "n_traj": 1000,
            "sample_every": 20,
            "guard_threshold": 1e-6,
        },
    },
}
MODES = tuple(DEFAULT_CONFIGS)


@dataclass
class SweepConfig:
    """Validated run configuration for one CLI command."""

    mode: str
    params: md.SystemParams
    sweep: dict | None
    cutoff: int
    seed: int
    trajectories: tj.TrajectoryConfig | None
    tolerances: dict
    raw: dict = field(default_factory=dict)

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def load_config(mode: str, path: str | None, overrides: dict) -> SweepConfig:
    """Merge defaults, the optional config file, and CLI flag overrides.

    Every check of the config happens here, except that each sweep point's
    parameters are built and checked by the sweep commands (apply_axis),
    before any numerics.
    """
    data = copy.deepcopy(DEFAULT_CONFIGS[mode])
    if path is not None:
        try:
            with open(path) as handle:
                user = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        _require(isinstance(user, dict), f"config {path}: top level must be an object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(data.get(key), dict):
                data[key].update(value)
            else:
                data[key] = value
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    _require(data.get("mode") == mode, f"config field 'mode' must be {mode!r}")
    try:
        params = md.SystemParams(**data["params"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'params': {exc}") from exc
    sweep = data.get("sweep")
    # a mode sweeps when its defaults carry a sweep
    _require(
        sweep is not None or "sweep" not in DEFAULT_CONFIGS[mode],
        f"{mode} mode requires a sweep",
    )
    if sweep is not None:
        _require(isinstance(sweep, dict), "config field 'sweep' must be an object")
        for key in ("axis", "min", "max", "step"):
            _require(key in sweep, f"config field 'sweep.{key}' is required")
        _require(sweep["axis"] in SWEEP_AXES, f"sweep.axis must be one of {SWEEP_AXES}")
        for key in ("min", "max", "step"):
            _require(
                md.is_finite_number(sweep[key]),
                f"sweep.{key} must be a finite number, got {sweep[key]!r}",
            )
        _require(sweep["min"] < sweep["max"], "sweep.min must be < sweep.max")
        _require(sweep["step"] > 0, "sweep.step must be > 0")
        count = sweep_count(sweep)
        _require(
            math.isfinite(count) and count <= MAX_SWEEP_POINTS,
            f"sweep has {count:.0f} points; at most {MAX_SWEEP_POINTS} are allowed",
        )
    try:
        cutoff = FockCutoff(data["cutoff"]).d
    except ValueError as exc:
        raise ConfigError(f"config field 'cutoff': {exc}") from exc
    if mode == "liouvillian-check":
        try:
            lv.check_witness_cutoff(cutoff)
        except ValueError as exc:
            raise ConfigError(f"config field 'cutoff': {exc}") from exc
    seed = data["seed"]
    _require(
        isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
        f"seed must be a nonnegative integer, got {seed!r}",
    )
    tolerances = data.get("tolerances", {})
    _require(isinstance(tolerances, dict), "config field 'tolerances' must be an object")
    unknown = sorted(set(tolerances) - set(TOLERANCE_KEYS))
    _require(not unknown, f"unknown tolerances {unknown}; expected {TOLERANCE_KEYS}")
    cluster_eps = tolerances.get("cluster_eps")
    angle_eps = tolerances.get("angle_eps", sp.DEFAULT_ANGLE_EPS)
    _require(
        cluster_eps is None or (md.is_finite_number(cluster_eps) and cluster_eps > 0),
        f"tolerances.cluster_eps must be null or a finite number > 0, got {cluster_eps!r}",
    )
    _require(
        md.is_finite_number(angle_eps) and angle_eps > 0,
        f"tolerances.angle_eps must be a finite number > 0, got {angle_eps!r}",
    )
    trajectories = None
    if mode == "trajectories":
        settings = data["trajectories"]
        _require(isinstance(settings, dict), "config field 'trajectories' must be an object")
        try:
            trajectories = tj.TrajectoryConfig(seed=seed, cutoff=cutoff, **settings)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field 'trajectories': {exc}") from exc
    return SweepConfig(
        mode=mode,
        params=params,
        sweep=sweep,
        cutoff=cutoff,
        seed=seed,
        trajectories=trajectories,
        tolerances={"cluster_eps": cluster_eps, "angle_eps": angle_eps},
        raw=data,
    )


def sweep_count(sweep: dict) -> float:
    """Number of grid points, as a float: inf when (max - min) / step overflows."""
    return float(np.floor((sweep["max"] - sweep["min"]) / sweep["step"] + 1e-9)) + 1


def sweep_values(sweep: dict) -> np.ndarray:
    return sweep["min"] + sweep["step"] * np.arange(int(sweep_count(sweep)))


def apply_axis(params: md.SystemParams, axis: str, value: float) -> md.SystemParams:
    """One sweep point; kappa is applied at fixed mean damping."""
    try:
        if axis == "kappa":
            gamma = 0.5 * (params.gamma_a + params.gamma_b)
            return md.SystemParams.from_mean_split(
                params.g, gamma, value, eps=params.eps, n_th=params.n_th
            )
        return params.with_(**{axis: value})
    except ValueError as exc:
        raise ConfigError(f"sweep point {axis}={value} invalid: {exc}") from exc


def _meta(config: SweepConfig, schema: str) -> dict:
    units = (
        "absolute rate units (g swept)"
        if config.sweep and config.sweep["axis"] == "g"
        else f"rates in units of g (g = {config.raw['params']['g']})"  # as written
    )
    return {
        "epsim-version": __version__,
        "schema": schema,
        "config": config.canonical(),
        "units": units,
        "seed": config.seed,
    }


@dataclass
class Table:
    """One command's result: its rows, the scan summary, and the verdict."""

    columns: list[str]
    rows: list[list]
    summary: dict | None = None  # ep-scan / lep-scan estimate of the transition
    failed: bool = False  # a liouvillian-check row failed (exit code 2)


def cmd_spectrum(config: SweepConfig) -> Table:
    """Tracked-state eigenvalue curves, analytic vs numeric, per sweep point.

    Numeric values come from dense diagonalization of the built matrices at
    the configured cutoff, matched to each tracked state by nearest distance
    to its analytic value; the reported non-Hermitian numeric values are
    shifted by +Re(chi_p_full) to match the imaginary-chi convention of the
    analytic column.
    """
    columns = [
        "sweep_value", "n_e", "n_f",
        "re_pt_analytic", "im_pt_analytic", "re_pt_numeric", "im_pt_numeric", "err_pt",
        "re_nh_analytic", "im_nh_analytic", "re_nh_numeric", "im_nh_numeric", "err_nh",
    ]

    grid = sweep_values(config.sweep)
    # every grid point is validated before any numerics
    points = [apply_axis(config.params, config.sweep["axis"], v) for v in grid]
    rows = []
    for value, point in zip(grid, points):
        der = md.derive(point)
        h_pt, _ = md.build_h_pt_split(point, config.cutoff)
        pt_vals = sp.eig(h_pt, want_vectors=False).eigenvalues
        nh_vals = sp.eig(
            md.build_h_nh(point, config.cutoff), want_vectors=False
        ).eigenvalues
        for n_e, n_f in md.TRACKED_STATES:
            pt_a = md.analytic_lambda_pt(n_e, n_f, der)
            nh_a = md.analytic_lambda_nh(n_e, n_f, der)
            nh_a_full = md.analytic_lambda_nh(n_e, n_f, der, full_chi=True)
            pt_n = pt_vals[np.argmin(np.abs(pt_vals - pt_a))]
            nh_n = nh_vals[np.argmin(np.abs(nh_vals - nh_a_full))] + der.chi_p_full.real
            rows.append([
                float(value), n_e, n_f,
                pt_a.real, pt_a.imag, pt_n.real, pt_n.imag, abs(pt_a - pt_n),
                nh_a.real, nh_a.imag, nh_n.real, nh_n.imag, abs(nh_a - nh_n),
            ])
    return Table(columns, rows)


def cmd_ep_scan(config: SweepConfig) -> Table:
    """Coalescence scan over the sweep grid.

    ep-scan diagonalizes the single-excitation block of the non-Hermitian
    Hamiltonian (drive removed: it shifts all eigenvalues uniformly and does
    not move the coalescence); lep-scan diagonalizes the 2x2 first-moment
    dynamical matrix.
    """
    axis = config.sweep["axis"]
    grid = sweep_values(config.sweep)
    # every grid point is validated before any numerics
    points = {value: apply_axis(config.params, axis, value) for value in grid}
    if config.mode == "ep-scan":
        def builder(value: float) -> np.ndarray:
            return md.h_nh_block(points[value], config.cutoff, 1)
    else:
        def builder(value: float) -> np.ndarray:
            return lv.dynamical_matrix(points[value])

    reports = sp.coalescence_scan(builder, list(grid), **config.tolerances)
    estimate = sp.estimate_ep(reports, config.sweep["step"])

    columns = [
        "sweep_value", "n_clusters", "min_angle", "coalescing",
        "cluster_re", "cluster_im", "error",
    ]
    rows = []
    for report in reports:
        if report.error is not None:
            rows.append([report.param, None, None, None, None, None, report.error])
            continue
        best = report.best
        centroid = complex(np.mean(best.eigenvalues)) if best else None
        rows.append([
            report.param,
            len(report.clusters),
            best.min_angle if best else None,
            report.coalescing,
            centroid.real if centroid else None,
            centroid.imag if centroid else None,
            None,
        ])
    summary = {
        "located": None if estimate is None else estimate.value,
        "uncertainty": None if estimate is None else estimate.uncertainty,
        "min_angle": None if estimate is None else estimate.min_angle,
        "excluded_points": sum(report.error is not None for report in reports),
    }
    return Table(columns, rows, summary=summary)


def cmd_trajectories(config: SweepConfig) -> Table:
    """Ensemble unraveling vs exact master-equation evolution, as a time series."""
    report = tj.ensemble_vs_master(config.params, config.trajectories)
    rows = [
        [
            float(t),
            float(report.trace_distances[i]),
            float(report.mean_jumps[i]),
            float(report.mean_survival[i]),
        ]
        for i, t in enumerate(report.times)
    ]
    return Table(["time", "trace_distance", "mean_jumps", "mean_survival"], rows)


def cmd_liouvillian_check(config: SweepConfig) -> Table:
    """Consistency checks of the master-equation generator at the config point."""
    cutoff = config.cutoff
    params = config.params
    rng = np.random.default_rng(config.seed)
    checks: list[tuple[str, float, float]] = []

    gen_a = lv.build_liouvillian(params, cutoff)
    gen_b = lv.build_liouvillian_from_hnh(params, cutoff)
    scale = max(1.0, float(np.max(np.abs(gen_a.csr.data), initial=0.0)))
    checks.append((
        "assembly_agreement",
        float(np.max(np.abs((gen_a.csr - gen_b.csr).data), initial=0.0)) / scale,
        1e-12,
    ))

    trace_dev = moment_dev = 0.0
    for _ in range(20):
        rho = lv.interior_density_matrix(cutoff, rng)
        trace_dev = max(trace_dev, abs(np.trace(gen_a.apply(rho))))
        moment_dev = max(
            moment_dev,
            lv.moment_rhs_check(params, cutoff, rho, liouvillian=gen_a).max_abs_diff,
        )
    checks.append(("trace_annihilation", trace_dev, 1e-10))
    checks.append(("moment_closure", moment_dev, 1e-8))

    witness = lv.liouvillian_spectrum_check(params, cutoff)
    checks.append(("spectrum_moment_pair", float(witness.distances.max()), 1e-6))
    checks.append(("zero_mode", witness.zero_mode_distance, 1e-10))

    m_spec = sp.eig(lv.dynamical_matrix(params)).eigenvalues
    lam_p, lam_m = lv.lambda_pm(params)
    lam_dev = max(
        float(np.min(np.abs(m_spec - lam_p))), float(np.min(np.abs(m_spec - lam_m)))
    )
    checks.append(("lambda_pm_match", lam_dev, 1e-12))

    rows = [[name, float(value), tol, bool(value <= tol)] for name, value, tol in checks]
    return Table(
        ["check", "value", "tolerance", "passed"],
        rows,
        failed=not all(row[-1] for row in rows),
    )


# subcommand -> (config mode, command); each table's schema is "<subcommand>-v1"
COMMANDS: dict[str, tuple[str, Callable[[SweepConfig], Table]]] = {
    "spectrum": ("hamiltonian-spectrum", cmd_spectrum),
    "ep-scan": ("ep-scan", cmd_ep_scan),
    "lep-scan": ("lep-scan", cmd_ep_scan),
    "liouvillian-check": ("liouvillian-check", cmd_liouvillian_check),
    "trajectories": ("trajectories", cmd_trajectories),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def _render(table: Table, meta: dict, as_json: bool) -> str:
    """The table as CSV with '#' header lines, or as JSON lines."""
    notes = []
    if table.summary is not None:
        notes.append(f"summary: {json.dumps(table.summary, sort_keys=True)}")
    if as_json:
        lines = [json.dumps({"meta": meta}, sort_keys=True)]
        lines += [
            json.dumps(dict(zip(table.columns, row)), sort_keys=True, default=_fmt)
            for row in table.rows
        ]
        lines += [json.dumps({"note": note}) for note in notes]
    else:
        lines = [f"# {key}: {value}" for key, value in meta.items()]
        lines.append(",".join(table.columns))
        lines += [",".join(_fmt(v) for v in row) for row in table.rows]
        lines += [f"# {note}" for note in notes]
    return "".join(line + "\n" for line in lines)


def _check_writable(path: str):
    """Raise ConfigError unless path can be written as a file; creates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no directory {parent}"
    elif not os.access(parent, os.W_OK | os.X_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        problem = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write {path}: {problem}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsim",
        description="Exceptional-point workbench for two coupled lossy driven modes",
    )
    parser.add_argument("--version", action="version", version=f"epsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", metavar="PATH", help="JSON config file")
        cmd.add_argument("--out", metavar="PATH", help="output file (default stdout)")
        cmd.add_argument("--cutoff", type=int, metavar="D", help="Fock levels per mode")
        cmd.add_argument("--seed", type=int, metavar="N", help="deterministic RNG seed")
        cmd.add_argument(
            "--json", action="store_true", help="emit JSON lines instead of CSV"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    mode, command = COMMANDS[args.command]
    try:
        config = load_config(mode, args.config, {"cutoff": args.cutoff, "seed": args.seed})
        if args.out is not None:
            _check_writable(args.out)
        table = command(config)
        text = _render(table, _meta(config, f"{args.command}-v1"), args.json)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from exc
            if table.summary is not None:
                print(json.dumps({"summary": table.summary}, sort_keys=True))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 2 if table.failed else 0


if __name__ == "__main__":
    sys.exit(main())
