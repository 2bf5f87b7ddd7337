import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epsim import cli
from epsim import model as md


def run(args):
    return cli.main(args)


def read_rows(path):
    header = None
    rows = []
    meta = {}
    for line in open(path):
        line = line.rstrip("\n")
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
        lam = md.analytic_lambda_nh(1, 0, der, thermal=True)
        assert float(first["re_nh_analytic"]) == pytest.approx(lam.real)
        assert float(first["im_nh_analytic"]) == pytest.approx(lam.imag)


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
        summary_line = [l for l in open(out) if l.startswith("# summary")][0]
        summary = json.loads(summary_line.split("summary: ", 1)[1])
        assert summary["located"] == pytest.approx(target, abs=0.0101)
        assert summary["uncertainty"] == pytest.approx(0.01)

    def test_json_lines_mode(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        assert run(["lep-scan", "--out", str(out), "--json"]) == 0
        lines = [json.loads(l) for l in open(out)]
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

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectories",
            "params": {"g": 1.0, "gamma_a": 2.0, "gamma_b": 2.0, "eps": 4.0, "n_th": 0.0},
            "trajectories": {"dt": 0.01, "t_final": 1.0, "n_traj": 10},
        }))
        assert run(["trajectories", "--config", str(cfg)]) == 2
        assert "numerical failure" in capsys.readouterr().err


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
        body = [json.loads(l) for l in open(out)][1:]
        assert len(body) == 6
        assert all(row["passed"] is True for row in body)

    def test_cutoff_guard(self, capsys):
        assert run(["liouvillian-check", "--cutoff", "10"]) == 1
        assert "cutoff" in capsys.readouterr().err

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
