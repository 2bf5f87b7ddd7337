import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from conftest import valid_params
from epsim import cli
from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp
from epsim import trajectory as tj
from epsim.errors import ConfigError


def run(args):
    return cli.main(args)


def read_rows(path):
    header = None
    rows = []
    meta = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


# one valid key change per object section of the defaults (sweep.min off the grid)
SECTION_CHANGES = {
    "params": ("n_th", 0.2),
    "sweep": ("min", 0.8005),
    "tolerances": ("angle_eps", 2e-3),
    "trajectories": ("n_traj", 10),
}
DEFAULT_SECTIONS = [
    (mode, section)
    for mode, defaults in cli.DEFAULT_CONFIGS.items()
    for section, value in defaults.items()
    if isinstance(value, dict)
]


class TestConfigHandling:
    def test_defaults_valid_for_every_mode(self):
        for mode in cli.MODES:
            cfg = cli.load_config(mode, None, {"cutoff": None, "seed": None})
            assert cfg.mode == mode

    def test_bad_json_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["spectrum", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_sweep_invariant_violation_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "ep-scan",
            "sweep": {"axis": "kappa", "min": 0.5, "max": 3.0, "step": 0.05},
        }))
        assert run(["ep-scan", "--config", str(cfg)]) == 1
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep",
        [
            {"step": "0.01"},
            {"min": "0.8"},
            {"max": None},
            {"step": True},
        ],
    )
    def test_non_numeric_sweep_exit_code(self, tmp_path, capsys, sweep):
        cfg = tmp_path / "cfg.json"
        grid = {"axis": "g", "min": 0.8, "max": 1.2, "step": 0.01}
        grid.update(sweep)
        cfg.write_text(json.dumps({"mode": "ep-scan", "sweep": grid}))
        assert run(["ep-scan", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, key",
        [("ep-scan", "sweep"), ("trajectories", "trajectories"), ("ep-scan", "tolerances")],
    )
    def test_section_must_be_object(self, tmp_path, capsys, mode, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, key: 5}))
        assert run([mode, "--config", str(cfg)]) == 1
        assert "must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"tolerances": {"angle_eps": "x"}},
            {"tolerances": None},
            {"tolerances": {"cluster_eps": "1e-6"}},
            {"tolerances": {"angle_eps": -1}},
            {"tolerances": {"angle_eps": float("nan")}},
            {"tolerances": {"cluster_eps": 0}},
            {"tolerances": {"angle_esp": 1e-3}},
            {"seed": True},
            {"seed": -1},
            {"seed": 2**64},  # a Philox key word
            {"cutoff": 6.5},
            {"cutoff": "6"},
            {"sweep": None},
            {"sweep": {"step": 1e-17}},
            {"sweep": {"max": 1e300, "step": 1e-300}},
            # JSON integers too large for a float
            {"sweep": {"min": 10**400}},
            {"sweep": {"max": 10**400}},
            {"sweep": {"step": 10**400}},
            {"params": {"g": 10**400}},
            {"params": {"n_th": 10**400}},
            {"tolerances": {"angle_eps": 10**400}},
            {"tolerances": {"cluster_eps": 10**400}},
            # JSON booleans and strings are not numbers
            {"params": {"g": True}},
            {"params": {"eps": False}},
            {"params": {"g": "1.0"}},
        ],
        ids=[
            "angle_eps-string", "tolerances-null",
            "cluster_eps-string", "angle_eps-negative", "angle_eps-nan",
            "cluster_eps-zero", "tolerances-unknown-key", "seed-bool",
            "seed-negative", "seed-too-large", "cutoff-float", "cutoff-string", "sweep-null",
            "sweep-too-many-points", "sweep-count-overflow",
            "sweep.min-huge-int", "sweep.max-huge-int", "sweep.step-huge-int",
            "g-huge-int", "n_th-huge-int", "angle_eps-huge-int", "cluster_eps-huge-int",
            "g-bool", "eps-bool", "g-string",
        ],
    )
    def test_bad_field_exit_code(self, tmp_path, capsys, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "ep-scan", **fields}))
        assert run(["ep-scan", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err
        (body,) = fields.values()
        if isinstance(body, dict) and any(
            isinstance(value, (bool, str)) or value == 10**400 for value in body.values()
        ):
            assert all(f"{key} must" in captured.err for key in body)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, fields, field",
        [
            ("liouvillian-check", {"cutof": 2}, "cutof"),
            ("liouvillian-check", {"parms": {"g": 5}}, "parms"),
            ("ep-scan", {"sweep": {"stpe": 0.1}}, "sweep.stpe"),
            (
                "trajectories",
                {"sweep": {"axis": "g", "min": 0.8, "max": 1.6, "step": 0.01}},
                "sweep",
            ),
            ("liouvillian-check", {"tolerances": {"angle_eps": 1e-3}}, "tolerances"),
            ("ep-scan", {"trajectories": {"dt": 0.01}}, "trajectories"),
            ("spectrum", {"tolerances": {}}, "tolerances"),
            ("trajectories", {"seeed": 9}, "seeed"),
        ],
        ids=[
            "cutof", "parms", "sweep.stpe", "trajectories-sweep",
            "check-tolerances", "ep-scan-trajectories", "spectrum-tolerances", "seeed",
        ],
    )
    def test_unknown_field_exit_code(self, tmp_path, capsys, command, fields, field):
        # a config holds only the fields of its mode's defaults
        mode = cli.COMMANDS[command][0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, **fields}))
        assert run([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert f"unknown config field {field!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_default_config_file_accepted(self, tmp_path, mode):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cli.DEFAULT_CONFIGS[mode]))
        assert cli.load_config(mode, str(cfg), {}).raw == cli.DEFAULT_CONFIGS[mode]

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(["lep-scan", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "config error: cannot write" in captured.err
        assert captured.out == ""
        assert not out.parent.exists()

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_is_found_before_the_command_runs(
        self, tmp_path, capsys, monkeypatch, target
    ):
        def must_not_run(config):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setitem(cli.COMMANDS, "trajectories", ("trajectories", must_not_run))
        out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path
        assert run(["trajectories", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "config error: cannot write" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [["spectrum", "--cutoff", "abc"], ["spectrum", "--bogus"]])
    def test_usage_error_is_config_error(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: epsim")
        assert err.splitlines()[-1].startswith("config error: ")

    @pytest.mark.parametrize("args", [["--version"], ["--help"], ["spectrum", "--help"]])
    def test_version_and_help_exit_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def crash(config):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "spectrum", ("hamiltonian-spectrum", crash))
        assert run(["spectrum"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert captured.err.splitlines()[-1] == "internal error: RuntimeError: boom"

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["ep-scan", "--out", str(out), "--cutoff", "4", "--seed", "9"]) == 0
        meta, _, _ = read_rows(out)
        echoed = json.loads(meta["config"])
        assert echoed["cutoff"] == 4 and echoed["seed"] == 9

    def test_config_roundtrip(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["lep-scan", "--out", str(out)]) == 0
        meta, _, _ = read_rows(out)
        echoed = json.loads(meta["config"])
        again = cli.load_config("lep-scan", None, {})
        again.raw.update(echoed)
        assert json.dumps(echoed, sort_keys=True, separators=(",", ":")) == again.canonical()

    @pytest.mark.parametrize("mode, section", DEFAULT_SECTIONS)
    def test_section_override_merges_like_a_file(self, tmp_path, mode, section):
        # an override merges into its section key by key, as a config file's does
        key, value = SECTION_CHANGES[section]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        overridden = cli.load_config(mode, None, {section: {key: value}})
        assert overridden == cli.load_config(mode, str(cfg), {})
        assert overridden.raw[section] == {**cli.DEFAULT_CONFIGS[mode][section], key: value}
        assert cli.DEFAULT_CONFIGS[mode][section][key] != value  # merged into a copy

    @pytest.mark.parametrize(
        "mode, overrides, field",
        [
            ("ep-scan", {"params": {"g": -1}}, "config field 'params': coupling g"),
            ("lep-scan", {"sweep": {"step": 0}}, "sweep.step"),
            ("trajectories", {"trajectories": {"n_traj": 0}}, "config field 'trajectories': n_traj"),
        ],
        ids=["params.g", "sweep.step", "trajectories.n_traj"],
    )
    def test_bad_section_override_is_a_config_error(self, mode, overrides, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            cli.load_config(mode, None, overrides)

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_none_override_keeps_the_default(self, mode):
        overrides = dict.fromkeys(cli.DEFAULT_CONFIGS[mode], None)
        assert cli.load_config(mode, None, overrides).raw == cli.DEFAULT_CONFIGS[mode]

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_only_the_scans_have_tolerances(self, mode):
        tolerances = cli.load_config(mode, None, {}).tolerances
        if mode in cli.SCANS:
            assert tolerances == cli.DEFAULT_CONFIGS[mode]["tolerances"]
        else:
            assert tolerances is None


OVERFLOW_CONFIGS = {
    # g * g overflows at every sweep point
    "spectrum": (
        "spectrum",
        {"mode": "hamiltonian-spectrum", "params": {"g": 1e308, "gamma_a": 1e308}},
        "sweep point kappa=0.0 invalid: derived xi_p = inf is not finite",
    ),
    "ep-scan": (
        "ep-scan",
        {
            "mode": "ep-scan",
            "params": {"gamma_a": 1e300},
            "sweep": {"axis": "g", "min": 1e300, "max": 1.5e300, "step": 1e299},
        },
        "sweep point g=1e+300 invalid: derived xi_p = inf is not finite",
    ),
    # no sweep: the parameters themselves are checked
    "liouvillian-check": (
        "liouvillian-check",
        {"mode": "liouvillian-check", "params": {"g": 1e200, "gamma_a": 1e200}},
        "config field 'params': derived xi_p = inf is not finite",
    ),
}


@pytest.mark.parametrize("name", OVERFLOW_CONFIGS)
def test_overflowing_derived_rates_are_config_errors(tmp_path, capsys, name):
    # refused before any operator is built: no warning, no table
    command, config, message = OVERFLOW_CONFIGS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, params, sweep",
    [
        # the scans drop the drive, so its overflowing shift chi is not read
        ("ep-scan", {"eps": 1e155}, None),
        ("lep-scan", {"eps": 1e155}, None),
        # lep-scan reads the full-dynamics frame, not the thermal one
        ("lep-scan", {"n_th": 1e300}, None),
        # a sweep computes only its points, which replace the base g
        ("ep-scan", {"g": 1e160}, None),
        ("spectrum", {"g": 1e160}, {"axis": "g", "min": 1.0, "max": 1.5, "step": 0.25}),
    ],
    ids=["ep-scan-eps", "lep-scan-eps", "lep-scan-n_th", "ep-scan-base-g", "spectrum-base-g"],
)
def test_overflow_the_command_does_not_read_runs(tmp_path, capsys, command, params, sweep):
    mode = "hamiltonian-spectrum" if command == "spectrum" else command
    config = {"mode": mode, "params": params, "cutoff": 3}
    if sweep is not None:
        config["sweep"] = sweep
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


class TestOutputRouting:
    SHORT_GRID = {"axis": "g", "min": 0.9, "max": 1.1, "step": 0.05}

    def short_scan(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "ep-scan", "sweep": self.SHORT_GRID}))
        return ["ep-scan", "--config", str(cfg)]

    def test_stdout_is_looked_up_at_call_time(self, tmp_path, capsys):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert run(self.short_scan(tmp_path)) == 0
        text = buffer.getvalue()
        assert text.startswith("# epsim-version: ")
        assert "sweep_value,n_clusters" in text
        assert capsys.readouterr().out == ""

    def test_summary_line_only_with_out(self, tmp_path, capsys):
        argv = self.short_scan(tmp_path)
        assert run(argv) == 0
        table = capsys.readouterr().out
        summary_lines = [l for l in table.splitlines() if "summary" in l]
        assert len(summary_lines) == 1
        assert summary_lines[0].startswith("# summary: ")

        out = tmp_path / "scan.csv"
        assert run(argv + ["--out", str(out)]) == 0
        echoed = capsys.readouterr().out.splitlines()
        assert len(echoed) == 1
        summary = json.loads(echoed[0])["summary"]
        assert set(summary) == {"excluded_points", "located", "min_angle", "uncertainty"}
        assert f"# summary: {json.dumps(summary, sort_keys=True)}" in out.read_text()
        assert out.read_text() == table

    @pytest.mark.parametrize("command", ["ep-scan", "liouvillian-check"])
    def test_csv_and_json_carry_same_rows(self, tmp_path, command):
        argv = self.short_scan(tmp_path) if command == "ep-scan" else [command]
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.jsonl"
        assert run(argv + ["--out", str(csv_out)]) == 0
        assert run(argv + ["--out", str(json_out), "--json"]) == 0
        meta, header, csv_rows = read_rows(csv_out)
        lines = [json.loads(l) for l in json_out.read_text().splitlines()]
        assert lines[0]["meta"]["config"] == meta["config"]
        json_rows = [l for l in lines[1:] if "note" not in l]
        assert len(json_rows) == len(csv_rows) > 0
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert sorted(json_row) == sorted(header)
            for key in header:
                cell, value = csv_row[key], json_row[key]
                if isinstance(value, float):
                    assert math.isclose(float(cell), value, rel_tol=1e-11)
                else:
                    assert cell == ("" if value is None else str(value))


class TestSpectrumCommand:
    def test_schema_and_structure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "hamiltonian-spectrum",
            "sweep": {"axis": "kappa", "min": 0.0, "max": 1.2, "step": 0.2},
            "cutoff": 6,
        }))
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert meta["schema"] == "spectrum-v1"
        assert header == [
            "sweep_value", "n_e", "n_f",
            "re_pt_analytic", "im_pt_analytic", "re_pt_numeric", "im_pt_numeric",
            "err_pt",
            "re_nh_analytic", "im_nh_analytic", "re_nh_numeric", "im_nh_numeric",
            "err_nh",
        ]
        assert len(rows) == 7 * 4  # grid points x tracked states
        below = [r for r in rows if float(r["sweep_value"]) < 1.0]
        assert all(float(r["im_pt_analytic"]) == 0.0 for r in below)

    def test_thermal_spectrum_uses_primed_quantities(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "hamiltonian-spectrum",
            "params": {"g": 1.0, "gamma_a": 2.0, "gamma_b": 2.0, "eps": 1.0, "n_th": 0.1},
            "sweep": {"axis": "kappa", "min": 0.5, "max": 0.5001, "step": 0.0001},
            "cutoff": 6,
        }))
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        der = md.derive(md.SystemParams.from_mean_split(1.0, 2.0, 0.5, eps=1.0, n_th=0.1))
        first = rows[0]
        lam = md.analytic_lambda_nh(1, 0, der)
        assert float(first["re_nh_analytic"]) == pytest.approx(lam.real)
        assert float(first["im_nh_analytic"]) == pytest.approx(lam.imag)

    def test_n_th_sweep_from_cold_base_matches_numeric(self, tmp_path):
        # each sweep point is analysed in the frame of its own n_th, so the
        # analytic column tracks the numeric one across the thermal sweep
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "hamiltonian-spectrum",
            "params": {"g": 1.0, "gamma_a": 2.5, "gamma_b": 1.5, "eps": 1.0, "n_th": 0.0},
            "sweep": {"axis": "n_th", "min": 0.0, "max": 0.3, "step": 0.1},
        }))
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert len(rows) == 4 * 4
        assert max(float(r["err_nh"]) for r in rows) < 1e-3

    def test_cutoff_guard(self, capsys, monkeypatch):
        # refused in load_config, before any operator is built
        def unreachable(*args):
            raise AssertionError("a point was built")

        monkeypatch.setattr(md, "build_h_pt", unreachable)
        assert md.spectrum_peak_bytes(8) <= md.MEMORY_BUDGET < md.spectrum_peak_bytes(60)
        assert cli.load_config("hamiltonian-spectrum", None, {"cutoff": 8}).cutoff == 8
        assert run(["spectrum", "--cutoff", "60"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: hamiltonian-spectrum at cutoff d=60 needs an")
        assert f"{md.spectrum_peak_bytes(60) / 1e6:.0f} MB" in err

    def test_budget_admits_d42_and_refuses_d43(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a point was built")

        monkeypatch.setattr(md, "build_h_pt", unreachable)
        assert md.spectrum_peak_bytes(42) <= md.MEMORY_BUDGET < md.spectrum_peak_bytes(43)
        assert cli.load_config("hamiltonian-spectrum", None, {"cutoff": 42}).cutoff == 42
        with pytest.raises(ConfigError, match="cutoff d=43"):
            cli.load_config("hamiltonian-spectrum", None, {"cutoff": 43})
        # a chunk holds as many points as the budget allows, never fewer than one
        assert md.spectrum_chunk_points(42, 8) == 1
        assert md.spectrum_chunk_points(8, 8) == 8
        for d in (20, 30, 36):
            points = md.spectrum_chunk_points(d, 1000)
            assert 1 < points < 1000
            assert md.spectrum_peak_bytes(d, points) <= md.MEMORY_BUDGET
            assert md.spectrum_peak_bytes(d, points + 1) > md.MEMORY_BUDGET

    def test_each_usable_core_adds_a_piece(self, monkeypatch):
        # a chunk is solved in at most one piece per usable core, and each
        # piece holds memory that does not grow with the cutoff
        peaks = {}
        for cores in (1, 2, 16):
            monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
            peaks[cores] = [md.spectrum_peak_bytes(d, k) for d, k in ((3, 1), (43, 1), (8, 8))]
        for cores in (2, 16):
            for one, many in zip(peaks[1], peaks[cores]):
                assert many - one == (cores - 1) * md._SPECTRUM_PIECE_BYTES
        # two cores still admit d = 42 and refuse --cutoff 60
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1})
        assert cli.load_config("hamiltonian-spectrum", None, {"cutoff": 42}).cutoff == 42
        with pytest.raises(ConfigError, match="cutoff d=60"):
            cli.load_config("hamiltonian-spectrum", None, {"cutoff": 60})

    def test_rows_equal_a_per_point_reference_loop(self, tmp_path, monkeypatch):
        # two cores at d = 8: chunks of 8 points (two pieces of 8 matrices),
        # so 21 points are two full chunks and a short one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"n_th": 0.1},
            "sweep": {"axis": "kappa", "min": 0.0, "max": 2.0, "step": 0.1},
        }))
        config = cli.load_config("hamiltonian-spectrum", str(cfg), {})
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1})
        depths = []
        real_eigvals_stack = sp.eigvals_stack

        def recording_eigvals_stack(stack, names):
            depths.append(len(stack))
            return real_eigvals_stack(stack, names)

        monkeypatch.setattr(sp, "eigvals_stack", recording_eigvals_stack)
        table = cli.cmd_spectrum(config)
        assert depths == [16, 16, 10]

        reference = []
        for value, point in zip(*cli.sweep_points(config)):
            der = md.derive(point)
            pt_vals = np.linalg.eigvals(md.build_h_pt(point, 8))
            nh_vals = np.linalg.eigvals(md.build_h_nh(point, 8))
            for n_e, n_f in md.TRACKED_STATES:
                pt_a = md.analytic_lambda_pt(n_e, n_f, der)
                nh_a = md.analytic_lambda_nh(n_e, n_f, der)
                nh_a_full = md.analytic_lambda_nh(n_e, n_f, der, full_chi=True)
                pt_n = pt_vals[np.argmin(np.abs(pt_vals - pt_a))]
                nh_n = nh_vals[np.argmin(np.abs(nh_vals - nh_a_full))] + der.chi_p_full.real
                reference.append([
                    float(value), n_e, n_f,
                    pt_a.real, pt_a.imag, pt_n.real, pt_n.imag, abs(pt_a - pt_n),
                    nh_a.real, nh_a.imag, nh_n.real, nh_n.imag, abs(nh_a - nh_n),
                ])
        assert table.rows == reference

    def test_huge_drive_is_a_numerical_failure(self, tmp_path):
        # eps = 1e100 puts entries near 1e200 in h_pt: their Frobenius norm
        # overflows, which fails the command without a warning (-W error) or a table
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"params": {"eps": 1e100}, "cutoff": 3}')
        out = tmp_path / "spec.csv"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "epsim", "spectrum",
             "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr == (
            "numerical failure: h_pt at sweep point kappa=0.0: Frobenius norm inf is not finite\n"
        )
        assert done.stdout == "" and not out.exists()

    @pytest.mark.parametrize("mode", ["ep-scan", "lep-scan"])
    def test_scans_have_no_memory_estimate(self, mode):
        # a scan solves closed-form excitation blocks, not d^2 x d^2 operators
        assert mode not in cli.MEMORY_ESTIMATES
        assert cli.load_config(mode, None, {"cutoff": 60}).cutoff == 60

    def test_huge_integer_g_matches_float(self, tmp_path):
        # an integer parameter is made a float once, so 10**300 is refused as
        # 1e300 is (g * g overflows), instead of overflowing in integer arithmetic
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        echo = ("# config: ", "# units: ")
        outputs = []
        for g in ("1" + "0" * 300, "1e300"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(
                '{"mode": "hamiltonian-spectrum", "cutoff": 3, "params": {"g": %s}, '
                '"sweep": {"axis": "kappa", "min": 0.0, "max": 0.5, "step": 0.25}}' % g
            )
            done = subprocess.run(
                [sys.executable, "-m", "epsim", "spectrum", "--config", str(cfg)],
                env=env, capture_output=True, text=True,
            )
            table = [line for line in done.stdout.splitlines() if not line.startswith(echo)]
            outputs.append((done.returncode, table, done.stderr))
        assert outputs[0] == outputs[1]
        assert outputs[0][:2] == (1, [])
        assert outputs[0][2] == (
            "config error: sweep point kappa=0.0 invalid: derived xi_p = inf is not finite\n"
        )


class TestScanCommands:
    @pytest.mark.parametrize(
        "command,n_th,target", [("ep-scan", 0.1, 1.2), ("ep-scan", 0.0, 1.0),
                                ("lep-scan", 0.1, 1.0), ("lep-scan", 0.2, 1.0)]
    )
    def test_locates_transition(self, tmp_path, command, n_th, target):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": command,
            "params": {"g": 1.0, "gamma_a": 3.0, "gamma_b": 1.0, "eps": 1.0, "n_th": n_th},
            "sweep": {"axis": "g", "min": 0.8, "max": 1.6, "step": 0.01},
        }))
        out = tmp_path / "scan.csv"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
        summary_line = [l for l in out.read_text().splitlines() if l.startswith("# summary")][0]
        summary = json.loads(summary_line.split("summary: ", 1)[1])
        assert summary["located"] == pytest.approx(target, abs=0.0101)
        assert summary["uncertainty"] == pytest.approx(0.01)

    def test_thermal_ep_at_smallest_cutoff(self, tmp_path, capsys):
        # at d = 2 the single-excitation block touches the top Fock level,
        # where a truncated build would drop the thermal gain term
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "ep-scan",
            "params": {"g": 1.0, "gamma_a": 3.0, "gamma_b": 1.0, "eps": 1.0, "n_th": 0.2},
        }))
        out = tmp_path / "scan.csv"
        assert run(["ep-scan", "--config", str(cfg), "--cutoff", "2", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["excluded_points"] == 0
        assert abs(summary["located"] - md.hep_coupling(1.0, 0.2)) <= 0.01 * (1 + 1e-9)

    def test_centroid_at_zero_is_printed(self, tmp_path):
        # undamped modes: the eigenvalues +-i g form one cluster centred at 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "lep-scan",
            "params": {"g": 1, "gamma_a": 0, "gamma_b": 0, "eps": 0},
            "sweep": {"axis": "g", "min": 0.5, "max": 0.52, "step": 0.01},
            "tolerances": {"cluster_eps": 10},
        }))
        out = tmp_path / "scan.csv"
        assert run(["lep-scan", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert [row["n_clusters"] for row in rows] == ["1", "1", "1"]
        for row in (rows[0], rows[2]):
            assert (row["cluster_re"], row["cluster_im"]) == ("0", "0")
        jsonl = tmp_path / "scan.jsonl"
        assert run(["lep-scan", "--config", str(cfg), "--out", str(jsonl), "--json"]) == 0
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        body = [line for line in lines if "sweep_value" in line]
        assert all(line["cluster_re"] is not None for line in body)
        assert all(line["cluster_im"] is not None for line in body)

    def test_no_coalescing_point_locates_nothing(self, tmp_path, capsys):
        # every point clusters (cluster_eps=10) but none coalesces
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "lep-scan",
            "params": {"g": 1, "gamma_a": 0, "gamma_b": 0, "eps": 0},
            "sweep": {"axis": "g", "min": 0.5, "max": 0.52, "step": 0.01},
            "tolerances": {"cluster_eps": 10},
        }))
        out = tmp_path / "scan.csv"
        assert run(["lep-scan", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["located"] is None
        assert summary["uncertainty"] is None and summary["min_angle"] is None
        _, _, rows = read_rows(out)
        assert [row["coalescing"] for row in rows] == ["False"] * 3

    @pytest.mark.parametrize("command", ["ep-scan", "lep-scan"])
    def test_points_whose_norm_overflows_are_excluded(self, tmp_path, command):
        # gamma 1e154 passes the derived-rate check, but the Frobenius norm of
        # every scanned matrix overflows: each point is excluded, without a
        # warning (-W error would make it exit status 3)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": command,
            "params": {"gamma_a": 1e154, "gamma_b": 1e154},
            "sweep": {"axis": "g", "min": 1, "max": 2, "step": 1},
        }))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "epsim", command, "--config", str(cfg), "--json"],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        lines = [json.loads(line) for line in done.stdout.splitlines()]
        errors = [line["error"] for line in lines if "sweep_value" in line]
        assert errors == ["eig refused dim=2: Frobenius norm inf is not finite"] * 2
        summary = json.loads(lines[-1]["note"].split("summary: ", 1)[1])
        assert summary["excluded_points"] == 2 and summary["located"] is None

    @given(params=valid_params())
    @pytest.mark.parametrize("mode", sorted(cli.SCANS))
    def test_matrix_does_not_read_its_frame(self, mode, params):
        # sweep_points checks a point in its scan's frame, so the scan's
        # matrix must not read the fields the frame drops
        frame, matrix = cli.SCANS[mode]
        assert np.array_equal(matrix(params, 6), matrix(params.with_(**frame), 6))

    def test_json_lines_mode(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        assert run(["lep-scan", "--out", str(out), "--json"]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert "meta" in lines[0]
        assert lines[0]["meta"]["schema"] == "lep-scan-v1"
        body = [l for l in lines if "sweep_value" in l]
        assert len(body) == 81


class TestTrajectoriesCommand:
    def test_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectories",
            "trajectories": {"dt": 0.01, "t_final": 0.3, "n_traj": 100,
                             "sample_every": 10, "guard_threshold": 1e-6},
        }))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["trajectories", "--config", str(cfg), "--out", str(out_a), "--seed", "5"]) == 0
        assert run(["trajectories", "--config", str(cfg), "--out", str(out_b), "--seed", "5"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_out_of_range_names_the_seed(self, capsys):
        assert run(["trajectories", "--seed", str(2**64)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be an integer in [0, 2**64)")
        assert "'trajectories'" not in err

    def test_memory_guard(self, tmp_path, capsys, monkeypatch):
        # refused in load_config, before any operator is built: a cutoff, or
        # a sample count, whose arrays exceed the budget
        def unreachable(*args):
            raise AssertionError("an ensemble was run")

        monkeypatch.setattr(tj, "ensemble_vs_master", unreachable)
        default = cli.load_config("trajectories", None, {}).trajectories
        big = tj.TrajectoryConfig(**{**vars(default), "cutoff": 40})
        assert run(["trajectories", "--cutoff", "40"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: trajectories of 1000 trajectories at cutoff d=40 with 6 samples"
        )
        assert f"{tj.unraveling_peak_bytes(big) / 1e6:.0f} MB" in err

        cfg = tmp_path / "cfg.json"  # 10^6 steps, each one sampled
        cfg.write_text(json.dumps({
            "mode": "trajectories", "trajectories": {"t_final": 1e4, "sample_every": 1},
        }))
        assert run(["trajectories", "--config", str(cfg)]) == 1
        assert "with 1000001 samples" in capsys.readouterr().err

        # each trajectory keeps a survival and a jump list: 8.1 GB for 10^8
        cfg.write_text(json.dumps({
            "mode": "trajectories", "cutoff": 2, "trajectories": {"n_traj": 100_000_000},
        }))
        assert run(["trajectories", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: trajectories of 100000000 trajectories at cutoff d=2 with 6 samples"
        )

        # the thermal benchmark config passes, as the default does
        cfg.write_text(json.dumps({
            "mode": "trajectories",
            "params": {"n_th": 0.2},
            "trajectories": {"dt": 1e-3, "t_final": 1.0, "n_traj": 4096,
                             "sample_every": 200, "guard_threshold": 1.0},
        }))
        assert cli.load_config("trajectories", str(cfg), {}).trajectories.n_traj == 4096

    def test_step_count_overflow_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectories", "trajectories": {"t_final": 1e300, "dt": 1e-300},
        }))
        assert run(["trajectories", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config field 'trajectories': t_final / dt")
        assert "Traceback" not in err

    def test_row_count_matches_sample_times(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectories",
            "trajectories": {"dt": 0.01, "t_final": 0.3, "n_traj": 50,
                             "sample_every": 10},
        }))
        out = tmp_path / "t.csv"
        assert run(["trajectories", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, rows = read_rows(out)
        assert len(rows) == 4  # steps 0, 10, 20, 30
        assert meta["seed"] == "1"

    @pytest.mark.parametrize(
        "settings",
        [
            {"n_traj": 10.5},
            {"sample_every": 2.5},
            {"dt": "0.01"},
            {"t_final": "1.0"},
            {"guard_threshold": "1e-6"},
            {"t_final": 1e-12},
            {"n_trajs": 3},
            # JSON integers too large for a float
            {"dt": 10**400},
            {"t_final": 10**400},
            {"guard_threshold": 10**400},
        ],
    )
    def test_bad_settings_exit_code(self, tmp_path, capsys, settings):
        cfg = tmp_path / "cfg.json"
        trajectories = {"dt": 0.01, "t_final": 0.1, "n_traj": 10, "sample_every": 5}
        trajectories.update(settings)
        cfg.write_text(json.dumps({"mode": "trajectories", "trajectories": trajectories}))
        assert run(["trajectories", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        (key,) = settings
        assert key in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # hot baths at cutoff 2: a second gain jump on one mode trips the
        # top-level guard (TruncationGuardError)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectories",
            "params": {"g": 1.0, "gamma_a": 2.0, "gamma_b": 2.0, "eps": 0.0, "n_th": 5.0},
            "cutoff": 2,
            "trajectories": {"dt": 0.01, "t_final": 1.0, "n_traj": 10},
        }))
        assert run(["trajectories", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "increase the cutoff" in err


    def test_stiff_master_equation_fails_fast(self, tmp_path):
        # gamma_a = 1e8 would take 26666670 expm_multiply sub-steps (hours);
        # the sub-step limit refuses it before the first
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"gamma_a": 1e8}, "cutoff": 3, "trajectories": {"n_traj": 4},
        }))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "epsim", "trajectories", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("numerical failure: the master equation needs 26666670 ")
        assert done.stderr.endswith(f"more than the limit of {tj.MAX_MASTER_SUBSTEPS}\n")


class TestLiouvillianCheckCommand:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert {r["check"] for r in rows} == {
            "assembly_agreement", "trace_annihilation", "moment_closure",
            "spectrum_moment_pair", "zero_mode", "lambda_pm_match",
        }
        assert all(r["passed"] == "True" for r in rows)

    def test_json_passed_is_boolean(self, tmp_path):
        out = tmp_path / "check.jsonl"
        assert run(["liouvillian-check", "--out", str(out), "--json"]) == 0
        body = [json.loads(l) for l in out.read_text().splitlines()][1:]
        assert len(body) == 6
        assert all(row["passed"] is True for row in body)

    def test_cutoff_guard(self, capsys, monkeypatch):
        # the first cutoff whose memory estimate exceeds the budget, refused
        # in load_config before any generator is built
        def unreachable(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(lv, "build_liouvillian", unreachable)
        over = next(d for d in range(2, 100) if lv.witness_peak_bytes(d) > md.MEMORY_BUDGET)
        assert over > 16
        assert run(["liouvillian-check", "--cutoff", str(over)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: liouvillian-check at cutoff d={over} needs an")
        assert f"{lv.witness_peak_bytes(over) / 1e6:.0f} MB" in err

    def test_cutoff_16_passes(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--cutoff", "16", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert all(r["passed"] == "True" for r in rows)

    # the witness and the dynamical matrix do not read the drive, so their rows
    # are not read in units of eps: at eps = 1e5 the thermal truncation
    # distance (0.0897 at d = 4) still fails, read in units of 2.5
    @pytest.mark.parametrize("eps", [0.0, 1e5])
    def test_thermal_witness_reported_as_failed_row(self, tmp_path, eps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "liouvillian-check",
            "params": {"g": 1.0, "gamma_a": 2.5, "gamma_b": 1.5, "eps": eps, "n_th": 0.2},
            "cutoff": 4,
        }))
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--config", str(cfg), "--out", str(out)]) == 2
        _, _, rows = read_rows(out)
        by_name = {r["check"]: r for r in rows}
        assert by_name["spectrum_moment_pair"]["passed"] == "False"
        distance = float(by_name["spectrum_moment_pair"]["value"])
        assert distance == pytest.approx(0.0897 / 2.5, rel=1e-3)
        assert by_name["moment_closure"]["passed"] == "True"

    def test_units_header_names_each_scale(self, tmp_path):
        # eps = 4 makes the driven scale differ from the drive-free one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"eps": 4.0}}))
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, _ = read_rows(out)
        assert meta["units"] == (
            "rates in units of g (g = 1.0); values of assembly_agreement in units of "
            "max|L| = 24; trace_annihilation, moment_closure in units of "
            "max(g, gamma_a, gamma_b, eps) = 4; spectrum_moment_pair, zero_mode, "
            "lambda_pm_match in units of max(g, gamma_a, gamma_b) = 2.5"
        )

    @pytest.mark.parametrize(
        "row, position, size, other",
        # rho[1, 2] (position 1 + 36 * 2 at d = 6) fed into the trace, at
        # rho[0, 0], and into the <a> functional, at rho[6, 0] (a[0, 6] = 1).
        # 20 interior states of seed 1 read 1.7e-11 and 1.7e-9 of them, under
        # both tolerances; a 1e-9 entry cannot fail the 1e-8 moment row.
        [
            ("trace_annihilation", 0, 1e-9, "moment_closure"),
            ("moment_closure", 6, 1e-7, "trace_annihilation"),
        ],
    )
    def test_planted_entry_fails_its_row(self, tmp_path, monkeypatch, row, position, size, other):
        import scipy.sparse as sps

        d = 6
        build = lv.build_liouvillian

        def planted(params, cutoff):
            gen = build(params, cutoff)
            if params.eps:  # the witness's drive-free generator stays exact
                entry = ([size], ([position], [1 + d * d * 2]))
                gen.csr = gen.csr + sps.csr_array(entry, shape=gen.csr.shape)
            return gen

        monkeypatch.setattr(lv, "build_liouvillian", planted)
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--cutoff", str(d), "--out", str(out)]) == 2
        _, _, rows = read_rows(out)
        by_name = {r["check"]: r for r in rows}
        assert by_name[row]["passed"] == "False"
        # read in units of the default rate scale max(g, gamma_a, gamma_b, eps) = 2.5
        assert float(by_name[row]["value"]) == pytest.approx(size / 2.5, rel=1e-6)
        assert by_name[other]["passed"] == "True"

    @pytest.mark.parametrize("gamma_a", [3e152, 1e153])
    def test_generator_whose_norm_overflows_is_a_numerical_failure(self, tmp_path, gamma_a):
        # the derived rates are finite, but the Frobenius norm of the generator
        # (it sets the witness's cluster tolerance) overflows: exit 2 before any
        # ARPACK call, without a warning (-W error would make it exit status 3)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"gamma_a": gamma_a, "gamma_b": 0.0}}))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "epsim", "liouvillian-check", "--config", str(cfg)],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "numerical failure: Liouvillian generator at cutoff d=4: "
            "Frobenius norm inf is not finite\n"
        )

    @staticmethod
    def scaled_rows(n_th, s):
        """The rows of the default check at cutoff 6 and n_th, with every rate times s."""
        params = {k: v * s for k, v in cli.DEFAULT_CONFIGS["liouvillian-check"]["params"].items()}
        params["n_th"] = n_th
        config = cli.load_config("liouvillian-check", None, {"params": params, "cutoff": 6})
        return cli.cmd_liouvillian_check(config).rows

    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    def test_rows_do_not_depend_on_the_rate_unit(self, n_th):
        # g, gamma_a, gamma_b and eps times s = 4**k scale every value exactly
        # (sqrt(s) too, in the collapse operators), so each cell is identical;
        # under s = 2 * 4**k sqrt(s) rounds, and only the verdicts are. At
        # n_th = 0, s = 2048 once failed lambda_pm_match, an absolute 1e-12.
        reference = self.scaled_rows(n_th, 1.0)
        for k in range(-10, 11):
            assert self.scaled_rows(n_th, 4.0**k) == reference, k
            verdicts = [row[-1] for row in self.scaled_rows(n_th, 2 * 4.0**k)]
            assert verdicts == [row[-1] for row in reference], k

    def test_tiny_coupling_passes(self, tmp_path):
        # the rate scales are the largest rates, not g: divided by g = 1e-7,
        # the rounding noise of gamma_a = 2.5 would fail three rows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"g": 1e-7}}))
        assert run(["liouvillian-check", "--config", str(cfg)]) == 0

    def test_rows_do_not_read_the_seed(self, tmp_path):
        bodies = []
        for seed in ("1", "7"):
            out = tmp_path / f"seed-{seed}.csv"
            assert run(["liouvillian-check", "--seed", seed, "--out", str(out)]) == 0
            bodies.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert bodies[0] == bodies[1]


def test_cli_import_leaves_scipy_sparse_unloaded():
    # importing scipy.linalg takes about half of a fresh ep-scan's wall time,
    # and scipy.sparse tens of milliseconds; no scipy module is loaded until
    # the path that uses it (mat_exp, the Liouvillian, the master equation) runs
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, epsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
