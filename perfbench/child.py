"""One fresh Python process of the benchmark: set-up, then passes over a workload.

Started by run.py as ``python3 perfbench/child.py --workload W --seed N
--t0 T [--until U --trace 0|1]`` where T is run.py's time.monotonic() just
before it started this process (CLOCK_MONOTONIC is shared by every process
on Linux). Set-up imports epsim from the checkout's src/ and validates the
workload's configs; its time since T is the set-up time. Without --until the
process stops there. With it, the process runs passes over the workload's
commands through epsim.cli.main, tables captured in memory, until the next
pass would end after U. With --trace 1 every untraced pass is followed by a
traced one. Tables are checked after each pass, outside its measured time,
and the reference kernel (reference.py, in a process of its own) is timed
before the first pass and after every pass.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, asked through ctypes."""
    import ctypes

    with open("/proc/self/maps") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    """Machine, library and BLAS description recorded with every result."""
    import platform

    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "EPSIM_WORKERS": os.environ.get("EPSIM_WORKERS"),
    }


class Reference:
    """The reference kernel (reference.py), timed on request in its own process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time_s(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def run_once(cli, commands, paths, seed) -> tuple[float, float, list[tuple[int, str]]]:
    """One pass over the workload's commands: (wall_s, cpu_s, [(exit code, table)])."""
    outputs = []
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    for cmd, path in zip(commands, paths):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(cmd.argv(path, seed))
        outputs.append((code, buffer.getvalue()))
    return time.perf_counter() - wall_start, _cpu_seconds() - cpu_start, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument(
        "--until", type=float,
        help="time.monotonic() by which the last pass must end; omit to stop after set-up",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the last traced pass's spans here (JSON)")
    parser.add_argument("--env", action="store_true", help="also report the environment")
    args = parser.parse_args(argv)

    # --- set-up: imports and config validation ---------------------------
    if not (SRC / "epsim" / "__init__.py").is_file():
        print(f"epsim sources not found under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import epsim
    import epsim.cli as cli
    from workloads import WORKLOADS, parse_table

    if Path(epsim.__file__).resolve().parent != SRC / "epsim":
        print(f"imported epsim from {epsim.__file__}, not {SRC}", file=sys.stderr)
        return 3
    commands = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        paths = []
        for i, cmd in enumerate(commands):
            path = os.path.join(tmp, f"{i:02d}.json")
            with open(path, "w") as handle:
                json.dump(cmd.config, handle)
            cli.load_config(cmd.config["mode"], path, {"seed": args.seed if cmd.seeded else None})
            paths.append(path)
        result = {"setup_s": time.monotonic() - args.t0}
        if args.env:
            result["env"] = environment()
        if args.until is None:
            print(json.dumps(result))
            return 0

        # --- measured passes until the deadline -----------------------------
        from tracer import Tracer, layer_metrics, layer_shares

        passes = []
        tracer = None
        reference = Reference()
        try:
            ref_before = reference.time_s()
            # One step is an untraced pass, followed by a traced one with --trace 1.
            while not passes or time.monotonic() + _median_step(passes, args.trace) <= args.until:
                for traced in (False, True) if args.trace else (False,):
                    if traced:
                        tracer = Tracer()
                        tracer.install()
                    try:
                        wall_s, cpu_s, outputs = run_once(cli, commands, paths, args.seed)
                    finally:
                        if traced:
                            tracer.uninstall()
                    ref_after = reference.time_s()
                    record = {"traced": traced, "wall_s": wall_s, "cpu_s": cpu_s,
                              "ref_s": (ref_before + ref_after) / 2,
                              "attempted": 0, "failed": 0, "messages": []}
                    # Output checks, outside the measured interval.
                    rows = 0
                    for cmd, (code, text) in zip(commands, outputs):
                        outcome = cmd.check(code, text, cmd)
                        record["attempted"] += outcome.attempted
                        record["failed"] += outcome.failed
                        record["messages"] += outcome.messages
                        rows += len(parse_table(text)[1])
                    record["digests"] = [
                        hashlib.sha256(text.encode()).hexdigest() for _, text in outputs
                    ]
                    if traced:
                        layers = layer_metrics(tracer.spans)
                        layers["cli.rows"] = rows
                        record["layers"] = layers
                        record["shares"] = {
                            name: own / wall_s
                            for name, own in list(layer_shares(tracer.spans).items())[:12]
                        }
                    passes.append(record)
                    ref_before = ref_after
        finally:
            reference.close()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["passes"] = passes
        if tracer is not None and args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(
                    {"fields": ["id", "parent", "name", "start", "end", "detail"],
                     "spans": tracer.spans},
                    handle,
                )
    print(json.dumps(result))
    return 0


def _median_step(passes: list[dict], trace: int) -> float:
    """Median duration of one loop step so far (a pass and its reference, or a pair)."""
    walls = [p["wall_s"] + p["ref_s"] for p in passes]
    if trace:
        walls = [a + b for a, b in zip(walls[0::2], walls[1::2])]
    walls.sort()
    return walls[len(walls) // 2]


if __name__ == "__main__":
    sys.exit(main())
