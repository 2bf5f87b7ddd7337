"""Smoke tests of the example scripts: each runs and prints the physics it claims."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, capsys):
    runpy.run_path(str(SCRIPTS / name))["run"]()
    return capsys.readouterr().out


def test_ep_lep_scan_gap_is_thermal_splitting(capsys):
    lines = run_script("ep_lep_scan.py", capsys).splitlines()
    assert lines[0].split() == ["n", "conditional", "full", "gap", "2*n*kappa"]
    rows = [[float(cell) for cell in line.split()] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.0, 0.1, 0.2, 0.3]
    for n_th, _, _, gap, expected in rows:
        assert abs(gap - expected) <= 0.01, n_th


def test_trajectory_demo_postselection_matches_propagator(capsys):
    out = run_script("trajectory_demo.py", capsys)
    line = next(l for l in out.splitlines() if "|diff| = " in l)
    diff = float(line.split("|diff| = ", 1)[1].split(",")[0])
    assert diff < 1e-8
