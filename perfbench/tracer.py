"""Span tracing of epsim's layers from outside the package.

install() replaces every public function of the six epsim modules with a
wrapper that records a span: name, start, end and parent. Calls inside and
between the modules go through module attributes at call time (``fs.embed``,
``md.build_h_nh``, a bare ``build_hamiltonian`` inside ``model``), so they
reach the wrappers too. Spans are kept in memory, per thread as a stack, and
turned into per-layer metrics (self time, call counts, operation counts)
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "model", "fockspace", "spectral", "liouvillian", "trajectory")

N_CHANNELS = 4  # thermal collapse set: loss a, gain a, loss b, gain b

PER_LAYER_METRICS = {
    "trajectory.stepping.self_s": "s",
    "trajectory.setup_s": "s",
    "trajectory.master.self_s": "s",
    "trajectory.other.self_s": "s",
    "trajectory.traj_steps": "count",
    "trajectory.jumps": "count",
    **{f"trajectory.jumps.ch{i}": "count" for i in range(N_CHANNELS)},
    "trajectory.jump_frac": "ratio",
    "spectral.eig.self_s": "s",
    "spectral.eig.calls": "count",
    "spectral.eig.max_dim": "count",
    "spectral.eig.work_n3": "count",
    "spectral.eig.failed": "count",
    "spectral.mat_exp.self_s": "s",
    "spectral.mat_exp.calls": "count",
    "spectral.mat_exp.work_n3": "count",
    "spectral.scan.self_s": "s",
    "liouvillian.build.self_s": "s",
    "liouvillian.build.calls": "count",
    "liouvillian.generator_mb": "MB",
    "liouvillian.check.self_s": "s",
    "model.self_s": "s",
    "model.calls": "count",
    "fockspace.self_s": "s",
    "fockspace.calls": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}

# Everything that is not a time is a count of work and repeats exactly for a seed.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER_METRICS.items() if unit != "s")

_LIOUVILLIAN_BUILDERS = {"build_liouvillian", "build_liouvillian_from_hnh", "left_mult", "right_mult"}


class Tracer:
    """In-memory span recorder.

    A span is [id, parent_id, name, start, end, detail]; parent_id is -1 for
    a root. detail holds what the layer metrics need from the call: a matrix
    dimension, generator bytes, jump records, or the exception raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        detail_of = _DETAILS.get(name)
        clock = time.perf_counter
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[4] = clock()
                stack.pop()
                spans.append(span)
            if detail_of is not None:
                span[5] = detail_of(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "epsim"):
        """Wrap every public function defined in the layer modules."""
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    self._originals.append((module, attr, obj))
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()


def _first_dim(args, kwargs, result):
    matrix = args[0] if args else kwargs["a"]
    return {"n": int(matrix.shape[0])}


def _generator_bytes(args, kwargs, result):
    return {"bytes": int(result.matrix.nbytes)}


def _jump_records(args, kwargs, result):
    per_channel = [0] * N_CHANNELS
    for record in result.jump_records:
        for _, channel in record:
            per_channel[channel] += 1
    return {
        "traj_steps": result.config.n_traj * result.config.n_steps,
        "jumps": per_channel,
    }


_DETAILS = {
    "spectral.eig": _first_dim,
    "spectral.mat_exp": _first_dim,
    "liouvillian.build_liouvillian": _generator_bytes,
    "liouvillian.build_liouvillian_from_hnh": _generator_bytes,
    "trajectory.run_ensemble": _jump_records,
}


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration less the part its child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans (tracing.overhead_s excluded)."""
    own = self_times(spans)
    m = dict.fromkeys(PER_LAYER_METRICS, 0.0)
    m["tracing.spans"] = len(spans)
    # run_ensemble's set-up is its child spans (no-jump propagator, collapse
    # operators and their helpers) except the per-trajectory random streams,
    # which belong to stepping.
    ensembles = {s[0] for s in spans if s[2] == "trajectory.run_ensemble"}
    m["trajectory.setup_s"] = sum(
        s[4] - s[3] for s in spans
        if s[1] in ensembles and s[2] != "trajectory.philox_stream"
    )
    for s in spans:
        sid, _, name, _, _, detail = s
        layer, func = name.split(".", 1)
        self_s = own[sid]
        if layer in ("model", "fockspace", "cli"):
            m[f"{layer}.self_s"] += self_s
            if layer != "cli":
                m[f"{layer}.calls"] += 1
        elif layer == "spectral":
            if func in ("eig", "mat_exp"):
                m[f"spectral.{func}.self_s"] += self_s
                m[f"spectral.{func}.calls"] += 1
                if detail and "n" in detail:
                    m[f"spectral.{func}.work_n3"] += detail["n"] ** 3
                    if func == "eig":
                        m["spectral.eig.max_dim"] = max(m["spectral.eig.max_dim"], detail["n"])
                if func == "eig" and detail and detail.get("error") == "EigenConvergenceError":
                    m["spectral.eig.failed"] += 1
            else:
                m["spectral.scan.self_s"] += self_s
        elif layer == "liouvillian":
            if func in _LIOUVILLIAN_BUILDERS:
                m["liouvillian.build.self_s"] += self_s
                if func.startswith("build_"):
                    m["liouvillian.build.calls"] += 1
                    if detail and "bytes" in detail:
                        mb = detail["bytes"] / 1e6
                        m["liouvillian.generator_mb"] = max(m["liouvillian.generator_mb"], mb)
            else:
                m["liouvillian.check.self_s"] += self_s
        elif layer == "trajectory":
            if func in ("run_ensemble", "philox_stream"):
                m["trajectory.stepping.self_s"] += self_s
            elif func == "master_propagate":
                m["trajectory.master.self_s"] += self_s
            else:
                m["trajectory.other.self_s"] += self_s
            if func == "run_ensemble":
                if detail and "traj_steps" in detail:
                    m["trajectory.traj_steps"] += detail["traj_steps"]
                    for ch, count in enumerate(detail["jumps"]):
                        m[f"trajectory.jumps.ch{ch}"] += count
                        m["trajectory.jumps"] += count
    if m["trajectory.traj_steps"]:
        m["trajectory.jump_frac"] = m["trajectory.jumps"] / m["trajectory.traj_steps"]
    return {
        name: int(value) if PER_LAYER_METRICS[name] == "count" else value
        for name, value in m.items()
    }


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name, for the human-readable breakdown."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s[2]] += own[s[0]]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
