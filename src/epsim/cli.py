"""Command-line front end: sweep drivers with machine-readable CSV/JSON output.

Subcommands: spectrum, ep-scan, lep-scan, liouvillian-check, trajectories.
Every command is deterministic given its config (including seeds). Output
tables are CSV with '#'-prefixed header lines carrying the canonical config
echo and the tool version; --json switches tables to JSON lines (one meta
object followed by one object per row). A config file, then the flags, merge
over the mode's defaults (DEFAULT_CONFIGS) as load_config says; a config may
hold only their fields, inside each section too, and any other field is a
config error that names it. Exit codes: 0 success, 1 config error (including
a command-line usage error and an --out that cannot be written, checked
before the command runs), 2 numerical failure or a failed liouvillian-check
row, 3 an internal error (any other exception: its traceback, then an
'internal error:' line on stderr). A command computes its whole table before
anything is written, so a failure writes no table and creates no --out file.

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
import traceback
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
        "tolerances": {"cluster_eps": None, "angle_eps": sp.DEFAULT_ANGLE_EPS},
    },
    "lep-scan": {
        "mode": "lep-scan",
        "params": {"g": 1.0, "gamma_a": 3.0, "gamma_b": 1.0, "eps": 1.0, "n_th": 0.0},
        "sweep": {"axis": "g", "min": 0.8, "max": 1.6, "step": 0.01},
        "cutoff": 6,
        "seed": 1,
        "tolerances": {"cluster_eps": None, "angle_eps": sp.DEFAULT_ANGLE_EPS},
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
# modes whose memory grows with the cutoff: the peak estimate (bytes) of a
# validated config, held to md.MEMORY_BUDGET in load_config
MEMORY_ESTIMATES: dict[str, Callable[[SweepConfig], float]] = {
    "hamiltonian-spectrum": lambda config: md.spectrum_peak_bytes(config.cutoff),
    "liouvillian-check": lambda config: lv.witness_peak_bytes(config.cutoff),
    "trajectories": lambda config: tj.unraveling_peak_bytes(config.trajectories),
}
# scan -> (its frame: the fields its matrix does not read, dropped before
# sweep_points checks a point's derived rates; the matrix it diagonalizes at
# a point). ep-scan: the single-excitation block of the non-Hermitian
# Hamiltonian, without the drive (a uniform shift of every eigenvalue, which
# does not move the coalescence); lep-scan: the 2x2 first-moment matrix.
SCANS: dict[str, tuple[dict, Callable[[md.SystemParams, int], np.ndarray]]] = {
    "ep-scan": ({"eps": 0.0}, lambda point, cutoff: md.h_nh_block(point, cutoff, 1)),
    "lep-scan": ({"eps": 0.0, "n_th": 0.0}, lambda point, cutoff: lv.dynamical_matrix(point)),
}


@dataclass
class SweepConfig:
    """Validated run configuration for one CLI command."""

    mode: str
    params: md.SystemParams
    sweep: dict | None
    cutoff: int
    seed: int
    trajectories: tj.TrajectoryConfig | None
    tolerances: dict | None  # the scans' cluster_eps and angle_eps
    raw: dict = field(default_factory=dict)

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def load_config(mode: str, path: str | None, overrides: dict) -> SweepConfig:
    """Merge the config file, if any, then the overrides not None over the defaults.

    Both merge by one rule: an object merges into the section it names key by
    key, and any other value replaces the field. Every check of the config
    happens here, except that each sweep point's parameters are built and
    checked by the sweep commands (sweep_points), before any numerics. Without
    a sweep, the parameters must have finite derived rates (md.check_derived).
    The last check holds a mode of MEMORY_ESTIMATES to md.MEMORY_BUDGET.
    """
    user = {}
    if path is not None:
        try:
            with open(path) as handle:
                user = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        _require(isinstance(user, dict), f"config {path}: top level must be an object")
    data = copy.deepcopy(DEFAULT_CONFIGS[mode])
    for layer in (user, {key: value for key, value in overrides.items() if value is not None}):
        for key, value in layer.items():
            if isinstance(value, dict) and isinstance(data.get(key), dict):
                data[key].update(value)
            else:
                data[key] = value
    _require(data["mode"] == mode, f"config field 'mode' must be {mode!r}")
    # the mode's defaults are its schema: their keys and no others, and an
    # object wherever the default is one, holding only the default's keys
    schema = DEFAULT_CONFIGS[mode]
    for key, value in data.items():
        _require(key in schema, f"unknown config field {key!r}; expected one of {list(schema)}")
        if isinstance(schema[key], dict):
            _require(isinstance(value, dict), f"config field {key!r} must be an object")
            for inner in value:
                _require(
                    inner in schema[key],
                    f"unknown config field '{key}.{inner}'; expected one of {list(schema[key])}",
                )
    try:
        params = md.SystemParams(**data["params"])
        if data.get("sweep") is None:  # a sweep computes only its points
            md.check_derived(params)
    except ValueError as exc:
        raise ConfigError(f"config field 'params': {exc}") from exc
    sweep = data.get("sweep")
    if sweep is not None:
        _require(
            sweep["axis"] in md.SWEEP_AXES, f"sweep.axis must be one of {md.SWEEP_AXES}"
        )
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
    seed = data["seed"]
    _require(
        isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64,
        f"seed must be an integer in [0, 2**64), got {seed!r}",
    )
    tolerances = data.get("tolerances")
    if tolerances is not None:
        cluster_eps, angle_eps = tolerances["cluster_eps"], tolerances["angle_eps"]
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
        try:
            trajectories = tj.TrajectoryConfig(seed=seed, cutoff=cutoff, **data["trajectories"])
        except ValueError as exc:
            raise ConfigError(f"config field 'trajectories': {exc}") from exc
    config = SweepConfig(
        mode=mode,
        params=params,
        sweep=sweep,
        cutoff=cutoff,
        seed=seed,
        trajectories=trajectories,
        tolerances=tolerances,
        raw=data,
    )
    if mode in MEMORY_ESTIMATES:
        if trajectories is None:
            what = f"{mode} at cutoff d={cutoff}"
        else:
            what = (
                f"{mode} of {trajectories.n_traj} trajectories at cutoff d={cutoff}"
                f" with {trajectories.n_samples} samples"
            )
        try:
            md.check_memory(MEMORY_ESTIMATES[mode](config), what)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config


def sweep_count(sweep: dict) -> float:
    """Number of grid points, as a float: inf when (max - min) / step overflows."""
    return float(np.floor((sweep["max"] - sweep["min"]) / sweep["step"] + 1e-9)) + 1


def sweep_values(sweep: dict) -> np.ndarray:
    return sweep["min"] + sweep["step"] * np.arange(int(sweep_count(sweep)))


def sweep_points(config: SweepConfig) -> tuple[np.ndarray, list[md.SystemParams]]:
    """The sweep grid and the parameters of each point, all checked up front."""
    axis = config.sweep["axis"]
    grid = sweep_values(config.sweep)
    frame = SCANS[config.mode][0] if config.mode in SCANS else {}
    points = []
    for value in grid:
        try:
            point = config.params.along(axis, value)
            try:  # the frames only zero eps and n_th: a point that passes passes there
                md.check_derived(point)
            except ValueError:
                md.check_derived(point.with_(**frame))
        except ValueError as exc:
            raise ConfigError(f"sweep point {axis}={value} invalid: {exc}") from exc
        points.append(point)
    return grid, points


def _meta(config: SweepConfig, schema: str, table: Table) -> dict:
    units = (
        "absolute rate units (g swept)"
        if config.sweep and config.sweep["axis"] == "g"
        else f"rates in units of g (g = {config.raw['params']['g']})"  # as written
    )
    if table.units is not None:
        units = f"{units}; {table.units}"
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
    units: str | None = None  # liouvillian-check: the scale each row's value is read in


def cmd_spectrum(config: SweepConfig) -> Table:
    """Tracked-state eigenvalue curves, analytic vs numeric, per sweep point.

    Numeric values come from dense diagonalization of the built matrices at
    the configured cutoff, matched to each tracked state by nearest distance
    to its analytic value; the reported non-Hermitian numeric values are
    shifted by +Re(chi_p_full) to match the imaginary-chi convention of the
    analytic column. The h_pt and h_nh of a chunk of points are solved as
    one stack (sp.eigvals_stack, bit-identical to one solve per matrix): a
    chunk holds enough points for a piece on every core, as many as
    md.spectrum_chunk_points allows.
    """
    columns = [
        "sweep_value", "n_e", "n_f",
        "re_pt_analytic", "im_pt_analytic", "re_pt_numeric", "im_pt_numeric", "err_pt",
        "re_nh_analytic", "im_nh_analytic", "re_nh_numeric", "im_nh_numeric", "err_nh",
    ]

    grid, points = sweep_points(config)
    axis, cutoff, n = config.sweep["axis"], config.cutoff, config.cutoff**2
    # two matrices a point: enough points for a piece on every core, as the budget allows
    depth = min(len(points), md.spectrum_chunk_points(cutoff, -(-sp.threaded_depth(n) // 2)))
    stack = np.empty((2 * depth, n, n), dtype=complex)  # reused by every chunk
    rows = []
    for start in range(0, len(points), depth):
        chunk = list(zip(grid[start : start + depth], points[start : start + depth]))
        names = []
        for k, (value, point) in enumerate(chunk):
            stack[2 * k] = md.build_h_pt(point, cutoff)
            stack[2 * k + 1] = md.build_h_nh(point, cutoff)
            names += [f"{op} at sweep point {axis}={value}" for op in ("h_pt", "h_nh")]
        values = sp.eigvals_stack(stack[: 2 * len(chunk)], names)
        for (value, point), pt_vals, nh_vals in zip(chunk, values[::2], values[1::2]):
            der = md.derive(point)
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
    """Coalescence scan over the sweep grid of the matrix SCANS names for the mode."""
    grid, points = sweep_points(config)
    _, matrix = SCANS[config.mode]
    matrices = [matrix(point, config.cutoff) for point in points]
    reports = sp.coalescence_scan(matrices, list(grid), **config.tolerances)
    estimate = sp.estimate_ep(reports)

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
            centroid.real if best else None,
            centroid.imag if best else None,
            None,
        ])
    summary = {
        "located": None if estimate is None else estimate.param,
        "uncertainty": None if estimate is None else config.sweep["step"],
        "min_angle": None if estimate is None else estimate.min_angle,
        "excluded_points": sum(report.error is not None for report in reports),
    }
    return Table(columns, rows, summary=summary)


def cmd_trajectories(config: SweepConfig) -> Table:
    """Ensemble unraveling vs exact master-equation evolution, as a time series."""
    report = tj.ensemble_vs_master(config.params, config.trajectories)
    ensemble = report.ensemble
    columns = (
        ensemble.sample_times, report.trace_distances, ensemble.mean_jumps, ensemble.mean_survival
    )
    rows = [[float(value) for value in row] for row in zip(*columns)]
    return Table(["time", "trace_distance", "mean_jumps", "mean_survival"], rows)


# liouvillian-check row -> (its tolerance, the scale its value is read in).
# Each value is an error on quantities the size of what the row reads, so no
# verdict depends on the rate unit; the witness and M do not read the drive.
CHECK_ROWS = {
    "assembly_agreement": (1e-12, "max|L|"),
    "trace_annihilation": (1e-10, "max(g, gamma_a, gamma_b, eps)"),
    "moment_closure": (1e-8, "max(g, gamma_a, gamma_b, eps)"),
    "spectrum_moment_pair": (1e-6, "max(g, gamma_a, gamma_b)"),
    "zero_mode": (1e-10, "max(g, gamma_a, gamma_b)"),
    "lambda_pm_match": (1e-12, "max(g, gamma_a, gamma_b)"),
}


def cmd_liouvillian_check(config: SweepConfig) -> Table:
    """Consistency checks of the master-equation generator at the config point.

    Deterministic: no row reads the seed. The trace and moment rows bound
    their identities for every state at once (lv.adjoint_defects).
    """
    cutoff, params = config.cutoff, config.params
    rates = max(params.g, params.gamma_a, params.gamma_b)
    gen_a = lv.build_liouvillian(params, cutoff)
    gen_b = lv.build_liouvillian_from_hnh(params, cutoff)
    scales = {
        "max|L|": float(np.max(np.abs(gen_a.csr.data))),
        "max(g, gamma_a, gamma_b, eps)": max(rates, params.eps),
        "max(g, gamma_a, gamma_b)": rates,
    }
    values = {"assembly_agreement": float(np.max(np.abs((gen_a.csr - gen_b.csr).data), initial=0))}
    values["trace_annihilation"], values["moment_closure"] = lv.adjoint_defects(params, gen_a)
    del gen_a, gen_b  # released before the witness assembles its own generator

    witness = lv.liouvillian_spectrum_check(params, cutoff)
    values["spectrum_moment_pair"] = float(witness.distances.max())
    values["zero_mode"] = witness.zero_mode_distance
    m_spec = sp.eig(lv.dynamical_matrix(params)).eigenvalues
    values["lambda_pm_match"] = max(
        float(np.min(np.abs(m_spec - lam))) for lam in lv.lambda_pm(params)
    )

    rows = []
    for name, (tol, scale) in CHECK_ROWS.items():
        value = values[name] / scales[scale]
        rows.append([name, value, tol, value <= tol])
    units = "; ".join(
        f"{', '.join(n for n, (_, s) in CHECK_ROWS.items() if s == scale)} in units of {scale}"
        f" = {_fmt(size)}"
        for scale, size in scales.items()
    )
    return Table(
        ["check", "value", "tolerance", "passed"],
        rows,
        failed=not all(row[-1] for row in rows),
        units=f"values of {units}",
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1).

    Subparsers are made with the parent's class, so they inherit this.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        text = _render(table, _meta(config, f"{args.command}-v1", table), args.json)
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
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2 if table.failed else 0


if __name__ == "__main__":
    sys.exit(main())
