"""Smoke tests of the example scripts and README's library example: each runs."""

import runpy
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


def run_script(name, capsys, **overrides):
    run = runpy.run_path(str(SCRIPTS / name))["run"]
    run.__globals__.update(overrides)
    run()
    return capsys.readouterr().out


def test_ep_lep_scan_gap_is_thermal_splitting(capsys):
    lines = run_script("ep_lep_scan.py", capsys).splitlines()
    assert lines[0].split() == ["n", "conditional", "full", "gap", "2*n*kappa"]
    rows = [[float(cell) for cell in line.split()] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.0, 0.1, 0.2, 0.3]
    for n_th, _, _, gap, expected in rows:
        assert abs(gap - expected) <= 0.01, n_th


def test_ep_lep_scan_names_a_scan_that_locates_nothing():
    # at n_th = 0.5 the HEP, (2n+1) kappa = 2, lies beyond the default grid's 1.6
    located = runpy.run_path(str(SCRIPTS / "ep_lep_scan.py"))["located"]
    with pytest.raises(RuntimeError, match="ep-scan located no coalescence .* n_th = 0.5"):
        located("ep-scan", 0.5)


def test_trajectory_demo_postselection_matches_propagator(capsys):
    out = run_script("trajectory_demo.py", capsys)
    line = next(l for l in out.splitlines() if "|diff| = " in l)
    diff = float(line.split("|diff| = ", 1)[1].split(",")[0])
    assert diff < 1e-8


def test_spectrum_sweep_transition_moves_with_n(tmp_path, capsys):
    # PT eigenvalues are real below kappa = g/(2n+1) and complex above it
    out = run_script("spectrum_sweep.py", capsys, OUT=tmp_path)
    step = 0.02
    for n_th in (0.0, 0.1, 0.2):
        path = tmp_path / f"spectrum_n{n_th:g}.csv"
        assert f"wrote {path}" in out
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, l.split(",")))) for l in lines[1:]]
        threshold = 1.0 / (2 * n_th + 1)
        below = [r for r in rows if r["sweep_value"] < threshold - step / 2]
        above = [r for r in rows if r["sweep_value"] > threshold + step / 2]
        assert below and above
        assert all(r["im_pt_analytic"] == 0.0 for r in below), n_th
        assert all(r["im_pt_analytic"] != 0.0 for r in above), n_th


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)  # runs to its last line
    assert np.isfinite(namespace["report"].trace_distances).all()
    assert capsys.readouterr().out
