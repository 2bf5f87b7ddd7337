import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epsim import cli
from epsim import liouvillian as lv
from epsim import model as md


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
            "seed-negative", "cutoff-float", "cutoff-string", "sweep-null",
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

    def test_huge_integer_g_matches_float(self, tmp_path):
        # an integer parameter is made a float once, so 10**300 runs as 1e300
        # instead of overflowing in integer arithmetic (g * g)
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
        assert outputs[0][0] == 0
        assert "Traceback" not in outputs[0][2]


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

    def test_cutoff_guard(self, capsys):
        # the first cutoff whose memory estimate exceeds the budget
        over = next(d for d in range(2, 100) if lv.witness_peak_bytes(d) > lv.WITNESS_MEMORY_BUDGET)
        assert over > 16
        assert run(["liouvillian-check", "--cutoff", str(over)]) == 1
        err = capsys.readouterr().err
        assert "cutoff" in err
        assert f"{lv.witness_peak_bytes(over) / 1e6:.0f} MB" in err

    def test_cutoff_16_passes(self, tmp_path):
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--cutoff", "16", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert all(r["passed"] == "True" for r in rows)

    def test_thermal_witness_reported_as_failed_row(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "liouvillian-check",
            "params": {"g": 1.0, "gamma_a": 2.5, "gamma_b": 1.5, "eps": 0.0, "n_th": 0.2},
            "cutoff": 4,
        }))
        out = tmp_path / "check.csv"
        assert run(["liouvillian-check", "--config", str(cfg), "--out", str(out)]) == 2
        _, _, rows = read_rows(out)
        by_name = {r["check"]: r for r in rows}
        assert by_name["spectrum_moment_pair"]["passed"] == "False"
        assert by_name["moment_closure"]["passed"] == "True"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse costs tens of milliseconds to import; only the Liouvillian
    # and master-equation paths load it, when they run
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, epsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
