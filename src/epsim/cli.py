"""Command-line front end: sweep drivers with machine-readable CSV/JSON output.

Subcommands: spectrum, ep-scan, lep-scan, liouvillian-check, trajectories.
Every command is deterministic given its config (including seeds). Output
tables are CSV with '#'-prefixed header lines carrying the canonical config
echo and the tool version; --json switches tables to JSON lines (one meta
object followed by one object per row). Exit codes: 0 success, 1 config
error, 2 numerical failure (with partial output flushed).

Physical values in configs are in units of the coupling g unless g itself is
swept (then absolute rate units); the convention is recorded in the output
header.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from . import liouvillian as lv
from . import model as md
from . import spectral as sp
from . import trajectory as tj
from .errors import ConfigError, NumericalError
from .fockspace import FockCutoff

MODES = ("hamiltonian-spectrum", "ep-scan", "lep-scan", "liouvillian-check", "trajectories")
SWEEP_AXES = ("kappa", "g", "gamma_a", "gamma_b", "eps", "n_th")

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


@dataclass
class SweepConfig:
    """Validated run configuration for one CLI command."""

    mode: str
    params: md.SystemParams
    sweep: dict | None
    cutoff: int
    seed: int
    trajectories: dict | None
    tolerances: dict
    raw: dict = field(default_factory=dict)

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def load_config(mode: str, path: str | None, overrides: dict) -> SweepConfig:
    """Merge defaults, the optional config file, and CLI flag overrides."""
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
    if sweep is not None:
        for key in ("axis", "min", "max", "step"):
            _require(key in sweep, f"config field 'sweep.{key}' is required")
        _require(sweep["axis"] in SWEEP_AXES, f"sweep.axis must be one of {SWEEP_AXES}")
        _require(sweep["min"] < sweep["max"], "sweep.min must be < sweep.max")
        _require(sweep["step"] > 0, "sweep.step must be > 0")
    try:
        cutoff = FockCutoff.of(data["cutoff"]).d
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"config field 'cutoff': {exc}") from exc
    seed = data.get("seed", 1)
    _require(isinstance(seed, int) and seed >= 0, "seed must be a nonnegative integer")
    return SweepConfig(
        mode=mode,
        params=params,
        sweep=sweep,
        cutoff=cutoff,
        seed=seed,
        trajectories=data.get("trajectories"),
        tolerances=data.get("tolerances") or {},
        raw=data,
    )


def sweep_values(sweep: dict) -> np.ndarray:
    lo, hi, step = sweep["min"], sweep["max"], sweep["step"]
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


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


class TableWriter:
    """CSV (default) or JSON-lines table writer with '#' metadata headers.

    Rows are flushed as written so a numerical failure mid-run leaves the
    completed prefix on disk.
    """

    def __init__(self, stream: TextIO, columns: Sequence[str], meta: dict, as_json: bool):
        self.stream = stream
        self.columns = list(columns)
        self.as_json = as_json
        if as_json:
            self._emit(json.dumps({"meta": meta}, sort_keys=True))
        else:
            for key, value in meta.items():
                self._emit(f"# {key}: {value}")
            self._emit(",".join(self.columns))

    def _emit(self, line: str):
        self.stream.write(line + "\n")
        self.stream.flush()

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.12g}"
        if value is None:
            return ""
        return str(value)

    def row(self, values: Sequence):
        if self.as_json:
            payload = dict(zip(self.columns, values))
            self._emit(json.dumps(payload, sort_keys=True, default=self._fmt))
        else:
            self._emit(",".join(self._fmt(v) for v in values))

    def comment(self, text: str):
        if self.as_json:
            self._emit(json.dumps({"note": text}))
        else:
            self._emit(f"# {text}")


def _meta(config: SweepConfig, schema: str) -> dict:
    units = (
        "absolute rate units (g swept)"
        if config.sweep and config.sweep["axis"] == "g"
        else f"rates in units of g (g = {config.params.g})"
    )
    return {
        "epsim-version": __version__,
        "schema": schema,
        "config": config.canonical(),
        "units": units,
        "seed": config.seed,
    }


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w"), True


def cmd_spectrum(config: SweepConfig, out: str | None, as_json: bool) -> int:
    """Tracked-state eigenvalue curves, analytic vs numeric, per sweep point.

    Numeric values come from dense diagonalization of the built matrices at
    the configured cutoff, matched to each tracked state by nearest distance
    to its analytic value; the reported non-Hermitian numeric values are
    shifted by +Re(chi_full) to match the imaginary-chi convention of the
    analytic column.
    """
    _require(config.sweep is not None, "spectrum mode requires a sweep")
    thermal = config.params.n_th > 0
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
        h_pt, _ = md.build_h_pt_split(point, config.cutoff, thermal=thermal)
        pt_vals = sp.eig(h_pt, want_vectors=False).eigenvalues
        nh_vals = sp.eig(
            md.build_h_nh(point, config.cutoff), want_vectors=False
        ).eigenvalues
        chi_full = der.chi_p_full if thermal else der.chi_full
        for n_e, n_f in md.TRACKED_STATES:
            pt_a = md.analytic_lambda_pt(n_e, n_f, der, thermal=thermal)
            nh_a = md.analytic_lambda_nh(n_e, n_f, der, thermal=thermal)
            nh_a_full = md.analytic_lambda_nh(
                n_e, n_f, der, thermal=thermal, full_chi=True
            )
            pt_n = pt_vals[np.argmin(np.abs(pt_vals - pt_a))]
            nh_n = nh_vals[np.argmin(np.abs(nh_vals - nh_a_full))] + chi_full.real
            rows.append([
                float(value), n_e, n_f,
                pt_a.real, pt_a.imag, pt_n.real, pt_n.imag, abs(pt_a - pt_n),
                nh_a.real, nh_a.imag, nh_n.real, nh_n.imag, abs(nh_a - nh_n),
            ])

    stream, close = _open_out(out)
    try:
        writer = TableWriter(stream, columns, _meta(config, "spectrum-v1"), as_json)
        for row in rows:
            writer.row(row)
    finally:
        if close:
            stream.close()
    return 0


def cmd_ep_scan(config: SweepConfig, out: str | None, as_json: bool, which: str) -> int:
    """Coalescence scan over the sweep grid.

    ep-scan diagonalizes the single-excitation block of the non-Hermitian
    Hamiltonian (drive removed: it shifts all eigenvalues uniformly and does
    not move the coalescence); lep-scan diagonalizes the 2x2 first-moment
    dynamical matrix.
    """
    _require(config.sweep is not None, f"{which} mode requires a sweep")
    axis = config.sweep["axis"]
    cluster_eps = config.tolerances.get("cluster_eps")
    angle_eps = config.tolerances.get("angle_eps", sp.DEFAULT_ANGLE_EPS)

    grid = sweep_values(config.sweep)
    # every grid point is validated before any numerics
    points = {value: apply_axis(config.params, axis, value) for value in grid}
    if which == "ep-scan":
        def builder(value: float) -> np.ndarray:
            return md.h_nh_block(points[value], config.cutoff, 1)
    else:
        def builder(value: float) -> np.ndarray:
            return lv.dynamical_matrix(points[value]).matrix

    reports = sp.coalescence_scan(
        builder, list(grid), cluster_eps=cluster_eps, angle_eps=angle_eps
    )
    estimate = sp.estimate_ep(reports, config.sweep["step"])

    columns = [
        "sweep_value", "n_clusters", "min_angle", "coalescing",
        "cluster_re", "cluster_im", "error",
    ]
    stream, close = _open_out(out)
    try:
        writer = TableWriter(stream, columns, _meta(config, f"{which}-v1"), as_json)
        excluded = 0
        for report in reports:
            if report.error is not None:
                excluded += 1
                writer.row([report.param, None, None, None, None, None, report.error])
                continue
            best = report.best
            centroid = complex(np.mean(best.eigenvalues)) if best else None
            writer.row([
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
            "excluded_points": excluded,
        }
        writer.comment(f"summary: {json.dumps(summary, sort_keys=True)}")
    finally:
        if close:
            stream.close()
    if out is not None:
        print(json.dumps({"summary": summary}, sort_keys=True))
    return 0


def cmd_trajectories(config: SweepConfig, out: str | None, as_json: bool) -> int:
    """Ensemble unraveling vs exact master-equation evolution, as a time series."""
    settings = dict(config.trajectories or {})
    settings.setdefault("guard_threshold", tj.TOP_LEVEL_GUARD)
    try:
        traj_config = tj.TrajectoryConfig(
            dt=settings["dt"],
            t_final=settings["t_final"],
            n_traj=settings["n_traj"],
            seed=config.seed,
            cutoff=config.cutoff,
            sample_every=settings.get("sample_every", 10),
            guard_threshold=settings["guard_threshold"],
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config field 'trajectories': {exc}") from exc
    report = tj.ensemble_vs_master(config.params, traj_config)
    columns = ["time", "trace_distance", "mean_jumps", "mean_survival"]
    stream, close = _open_out(out)
    try:
        writer = TableWriter(stream, columns, _meta(config, "trajectories-v1"), as_json)
        for i, t in enumerate(report.times):
            writer.row([
                float(t),
                float(report.trace_distances[i]),
                float(report.mean_jumps[i]),
                float(report.mean_survival[i]),
            ])
    finally:
        if close:
            stream.close()
    return 0


def cmd_liouvillian_check(config: SweepConfig, out: str | None, as_json: bool) -> int:
    """Consistency checks of the master-equation generator at the config point."""
    cutoff = config.cutoff
    _require(cutoff <= 8, "liouvillian-check requires cutoff <= 8")
    params = config.params
    rng = np.random.default_rng(config.seed)
    rows: list[tuple[str, float, float]] = []

    gen_a = lv.build_liouvillian(params, cutoff)
    gen_b = lv.build_liouvillian_from_hnh(params, cutoff)
    scale = max(1.0, float(np.max(np.abs(gen_a.csr.data), initial=0.0)))
    rows.append((
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
    rows.append(("trace_annihilation", trace_dev, 1e-10))
    rows.append(("moment_closure", moment_dev, 1e-8))

    # tol=inf defers the verdict to the row: exact at n_th = 0,
    # truncation-limited for thermal baths
    witness = lv.liouvillian_spectrum_check(params, cutoff, tol=np.inf)
    rows.append(("spectrum_moment_pair", float(witness.distances.max()), 1e-6))
    rows.append(("zero_mode", witness.zero_mode_distance, 1e-10))

    der = md.derive(params)
    m_spec = sp.eig(lv.dynamical_matrix(params).matrix).eigenvalues
    lam_p, lam_m = lv.lambda_pm(der)
    lam_dev = max(
        float(np.min(np.abs(m_spec - lam_p))), float(np.min(np.abs(m_spec - lam_m)))
    )
    rows.append(("lambda_pm_match", lam_dev, 1e-12))

    columns = ["check", "value", "tolerance", "passed"]
    stream, close = _open_out(out)
    all_passed = True
    try:
        writer = TableWriter(
            stream, columns, _meta(config, "liouvillian-check-v1"), as_json
        )
        for name, value, tol in rows:
            passed = bool(value <= tol)
            all_passed &= passed
            writer.row([name, float(value), tol, passed])
    finally:
        if close:
            stream.close()
    return 0 if all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsim",
        description="Exceptional-point workbench for two coupled lossy driven modes",
    )
    parser.add_argument("--version", action="version", version=f"epsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, mode in (
        ("spectrum", "hamiltonian-spectrum"),
        ("ep-scan", "ep-scan"),
        ("lep-scan", "lep-scan"),
        ("liouvillian-check", "liouvillian-check"),
        ("trajectories", "trajectories"),
    ):
        cmd = sub.add_parser(name)
        cmd.set_defaults(mode=mode)
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
    try:
        config = load_config(
            args.mode, args.config, {"cutoff": args.cutoff, "seed": args.seed}
        )
        if args.mode == "hamiltonian-spectrum":
            return cmd_spectrum(config, args.out, args.json)
        if args.mode in ("ep-scan", "lep-scan"):
            return cmd_ep_scan(config, args.out, args.json, args.mode)
        if args.mode == "trajectories":
            return cmd_trajectories(config, args.out, args.json)
        return cmd_liouvillian_check(config, args.out, args.json)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
