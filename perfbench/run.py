"""epsim benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ep-sweep --seed 1 --seconds 40 --trace 0

The benchmark is a closed loop with one client. A run starts fresh Python
processes (perfbench/child.py), one after another: a warm-up process that
compiles bytecode and records the environment, SETUP_SAMPLES processes that
only set up (import epsim from src/, numpy and scipy, and validate the
workload's configs), and one measured process. The measured process sets up
too, then runs passes over the workload's commands through epsim.cli.main
until the next pass would end after --seconds, and times a fixed reference
kernel (perfbench/reference.py) before the first pass and after each one. Metrics
are medians: set-up time over the set-up samples, the others over the passes.
wall_per_ref is a pass's wall time over the mean of the reference times just
before and after it, which cancels most of a shared host's slow phases; the
raw wall_s, cpu_s and ref_s are per-layer metrics. With --trace 0 the
run reports the end-to-end metrics; with --trace 1 every untraced pass is
followed by a traced one and the run reports the per-layer metrics of the
traced passes.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Every line before it is a human-readable record: the
environment, one line per pass and the quartiles of every metric. The exit
code is 0 when a result was printed; a process that fails or times out ends
the run with a non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import OUT_DIR  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_per_ref": "ratio",
    "peak_rss_mb": "MB",
}
# Raw times of the untraced passes. They follow the host's slow phases, so
# they carry no bound; wall_per_ref is wall_s / ref_s pass by pass.
PASS_TIMES = ("wall_s", "cpu_s", "ref_s")
PER_LAYER_UNITS = {**PER_LAYER_METRICS, **dict.fromkeys(PASS_TIMES, "s")}
SETUP_SAMPLES = 14  # set-up-only processes per run; the measured process adds one
HARD_LIMIT_S = 170.0  # a run must end within 180 s


class RunFailed(Exception):
    """A benchmark process failed, timed out or did not report."""


def child_env() -> dict[str, str]:
    """One worker, and one BLAS thread per usable core."""
    env = dict(os.environ)
    env.pop("EPSIM_WORKERS", None)
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_child(args, deadline: float, until: float | None = None, trace: bool = False,
              env_record: bool = False) -> dict:
    """Start child.py, wait for it, and return its JSON result."""
    t0 = time.monotonic()
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--t0", repr(t0),
    ]
    if until is not None:
        argv += ["--until", repr(until), "--trace", str(int(trace))]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        argv += ["--spans-out", str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    if env_record:
        argv.append("--env")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"child timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"child exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def measure(args) -> dict:
    """Set up SETUP_SAMPLES times, then run passes until args.seconds is spent."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    # Warm-up: compiles bytecode and fills the file cache; also records the machine.
    env = run_child(args, hard_deadline, env_record=True)["env"]
    env["commit"] = git_commit()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    setups = [run_child(args, hard_deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    run = run_child(args, hard_deadline, until=start + args.seconds, trace=bool(args.trace))
    setups.append(run["setup_s"])
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    for i, p in enumerate(passes, 1):
        print(
            f"pass {i} traced={int(p['traced'])}: wall_s={p['wall_s']:.4f} "
            f"cpu_s={p['cpu_s']:.4f} ref_s={p['ref_s']:.4f} checks={p['attempted'] - p['failed']}/{p['attempted']}"
        )
        for message in p["messages"]:
            print(f"  check failed: {message}")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Same seed, same tables: every pass, traced or not, matches the first.
    reference = passes[0]["digests"]
    for p in passes[1:]:
        attempted += len(reference)
        mismatched = sum(a != b for a, b in zip(p["digests"], reference))
        failed += mismatched
        if mismatched:
            print(f"  check failed: {mismatched} tables differ from the first pass's")

    if args.trace:
        samples = {
            name: [p["layers"][name] for p in traced]
            for name in PER_LAYER_METRICS if name != "tracing.overhead_s"
        }
        # Each traced pass directly follows an untraced one: difference the pairs.
        samples["tracing.overhead_s"] = [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)]
        for name in PASS_TIMES:
            samples[name] = [p[name] for p in plain]
        for name in EXACT_COUNTS:
            attempted += 1
            if len(set(samples[name])) > 1:
                failed += 1
                print(f"  check failed: count {name} differs between passes: {samples[name]}")
        print("self-time share of traced wall time, last traced pass:")
        for name, share in traced[-1]["shares"].items():
            print(f"  {name}: {share:.3f}")
        units = PER_LAYER_UNITS
    else:
        samples = {
            "setup_s": setups,
            "wall_per_ref": [p["wall_s"] / p["ref_s"] for p in plain],
            "peak_rss_mb": [run["peak_rss_mb"]],
        }
        units = END_TO_END_UNITS
    metrics = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"{name}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} {units[name]}")
        metrics[name] = {"value": median, "unit": units[name]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "epsim" / "__init__.py").is_file():
        print(f"error: no epsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        result = measure(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
