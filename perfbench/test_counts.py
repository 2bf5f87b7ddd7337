"""The benchmark's own test: exact counts repeat, and tracing changes no output.

For each workload this starts two benchmark processes with the same seed,
each running one untraced and one traced pass. It asserts that every count
metric (tracer.EXACT_COUNTS: every ``.calls``, ``spectral.eig.work_n3``,
``spectral.mat_exp.work_n3``, ``liouvillian.generator_mb``,
``trajectory.traj_steps``, ``trajectory.jumps*`` and more) is identical in
the two traced passes, that every table is byte-identical across all four
passes, and that every output check passes. It takes about a minute on two
cores; run it from the root of a checkout with

    python3 -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import run_child  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_is_transparent(workload):
    args = argparse.Namespace(workload=workload, seed=SEED)
    deadline = time.monotonic() + 170.0
    # until=0 stops each process after one step: an untraced pass, then a traced one.
    runs = [run_child(args, deadline, until=0.0, trace=True) for _ in range(2)]
    passes = [p for run in runs for p in run["passes"]]
    assert [p["traced"] for p in passes] == [False, True, False, True]

    for p in passes:
        assert p["failed"] == 0, p["messages"]
        assert p["digests"] == passes[0]["digests"]
    first, second = passes[1]["layers"], passes[3]["layers"]
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
