"""Monte Carlo wave-function (quantum-jump) unraveling of the master equation.

Waiting-time (integrated) unraveling on the time grid t_k = k * dt
(Dalibard, Castin & Molmer, PRL 68, 580 (1992); Plenio & Knight, RMP 70,
101 (1998), Sec. III). Per trajectory:

- Start from the normalized initial state and draw a threshold r ~ U(0, 1).
- Between jumps the state phi evolves with the no-jump propagator
  U = exp(-i H_nh dt) and is not renormalized. The trajectory jumps at the
  first grid step k at which ||phi||^2 < r; the jump time is recorded as
  k * dt, the first grid time at or after the continuous-time jump.
- The channel is drawn with probability proportional to <phi|C_i^dag C_i|phi>
  of that pre-jump state; the state becomes C_i phi / ||C_i phi|| and a new r
  is drawn.
- Survival is the product of the norm^2 decays of the no-jump stretches:
  ||phi||^2 at the jump step for each finished stretch, times ||phi||^2 now
  for the current one. Postselection (no jumps, r = 0) gives
  ||exp(-i H_nh t) psi_0||^2, with no error from the step dt.

The channels are the rows of model.collapse_channels. Every C_i^dag C_i is
rate_i times a diagonal cached operator, so a channel's weight is a dot
product with the populations, and a creation channel (a_dag, b_dag) guards
the top level of its own mode: a jump there with more top-level population
than guard_threshold raises TruncationGuardError.

dt is the grid of jump times and samples, not an accuracy parameter: the
no-jump propagator is exact at any dt, and a smaller dt only places jump
times more finely. Each trajectory reads its uniforms in the order r, then
per jump the channel uniform and the next r.

The engine never steps dt by dt between jumps. ||phi||^2 never increases
under no-jump evolution (H is Hermitian, so d||phi||^2/dt = -sum_i
<C_i^dag C_i> <= 0), so the first step with ||phi||^2 < r is found by
binary lifting (_Engine._lift) over U_k = U^(2^k), precomputed for 2^k up
to the longest sample interval; the next single step is the jump. A batch
of trajectories is propagated as the rows of one C-ordered (batch, d^2)
array, one contiguous row per trajectory, multiplied from the right by the
transposed powers, so a sample interval costs (its largest number of jumps
+ 1) rounds of at most n_powers + 1 batched products.

Randomness comes from one counter-based Philox stream per trajectory, keyed
by (seed, trajectory index), so results are reproducible; `philox_stream`
defines it and _Draws evaluates it. Random numbers and jump records are
independent of batching exactly, while states and survivals agree to
rounding: BLAS may sum a product in another order for another batch shape
or another number of threads (at d = 14, one OpenBLAS thread against two
moved 1831 of 2048 thermal survivals by up to 1.5e-16, with the same jump
records). Trajectories are independent. Each caller reduces the samples;
`run_ensemble` adds them in chunk order. At small cutoffs the engine steps
on one BLAS thread (_one_blas_thread).

The memory a run needs grows as d^4 and with the sample and trajectory
counts; unraveling_peak_bytes estimates it and the CLI holds it to
model.MEMORY_BUDGET (model.check_memory).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fockspace as fs
from . import liouvillian as lv
from . import model as md
from . import spectral as sp
from .errors import NumericalError, TruncationGuardError
from .fockspace import FockCutoff

TOP_LEVEL_GUARD = 1e-6
CHUNK_SIZE = 1024
# Memory held at once by ensemble_vs_master (unraveling_peak_bytes), measured
# by peak resident growth: dense d^2 x d^2 arrays of the no-jump propagator's
# build (H_nh, -i H_nh dt, scipy's expm work and its result), (batch, d^2)
# arrays of a chunk's stepping, and generator sizes of master_propagate
# (assembly, the scaled step, expm_multiply's shifted copy). master_propagate
# peaks at 4.6, 4.4 and 4.4 generator sizes beyond its output stack at d = 6,
# 12 and 20 (tracemalloc, the cutoff's cached terms built before), so
# _MASTER_GENERATOR_COPIES stays an upper bound. The thermal default run
# (guard_threshold 1) grows 30, 119 and 277 MiB over a d = 3 run at d = 12,
# 16 and 20 (ru_maxrss), and the stepping of one chunk of 1000 peaks at 4.6,
# 4.0, 3.9 and 3.9 batch arrays at d = 6, 12, 16 and 20 (tracemalloc), so
# _BATCH_ARRAYS stays an upper bound.
_PROPAGATOR_ARRAYS = 9
_BATCH_ARRAYS = 6
_MASTER_GENERATOR_COPIES = 5
# Bytes run_ensemble keeps for each trajectory whatever its jumps: its
# survival (8), its jump list (56 when empty) and that list's place in
# jump_records (8, and 9 more while the list grows). tracemalloc measured a
# peak of 81.2 per trajectory over 2e5 trajectories that never jump.
_TRAJECTORY_BYTES = 81
# Uniforms evaluated per trajectory at a time. A trajectory reads 1 + 2 per
# jump; a longer block means fewer calls that refill but more unread words.
_DRAW_BLOCK = 32
_NORM2_FLOOR = np.finfo(float).tiny  # smallest norm^2, over a lift, a skip may reach
# The largest cutoff d at which run_chunk steps on one BLAS thread
# (_one_blas_thread). In-process run_ensemble of the thermal benchmark config
# (n_th = 0.2, dt = 1e-3, t_final = 1, sample_every = 200; 4096 trajectories
# up to d = 8, 2048 above), one OpenBLAS thread against two, medians on a
# 2-core Intel Xeon host (numpy 2.4 with OpenBLAS 0.3.31): d = 6 -20 to
# -25 %, d = 7 -23 %, d = 8 -1 to -12 %, d = 10 -2 to +6 %, d = 12 +2 to
# +27 %, d = 14 +22 to +30 %. Jump records and survivals were bit-identical
# either way up to d = 12.
_ONE_THREAD_MAX_CUTOFF = 8


@dataclass(frozen=True)
class TrajectoryConfig:
    """Stepping and ensemble settings (times in inverse rate units).

    guard_threshold is the top-level population above which a creation-type
    jump aborts the run. The default is strict; ensemble runs that only care
    about consistency with the equally-truncated master equation may raise
    it, since rare gain-jump chains otherwise abort large thermal ensembles
    at moderate cutoffs.
    """

    dt: float
    t_final: float
    n_traj: int
    seed: int
    cutoff: FockCutoff | int = fs.DEFAULT_DIM
    sample_every: int = 10
    guard_threshold: float = TOP_LEVEL_GUARD

    def __post_init__(self):
        for name in ("dt", "t_final", "guard_threshold"):
            value = getattr(self, name)
            if not md.is_finite_number(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        for name in ("n_traj", "sample_every", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**64:  # a Philox key word
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        FockCutoff.of(self.cutoff)
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.guard_threshold <= 0:
            raise ValueError(f"guard_threshold must be > 0, got {self.guard_threshold}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be > 0, got {self.t_final}")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        steps = self.t_final / self.dt
        if not np.isfinite(steps):
            raise ValueError(
                f"t_final / dt must be finite, got t_final = {self.t_final}, dt = {self.dt}"
            )
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_final = {self.t_final} is not an integer number of steps dt = {self.dt}"
            )
        if round(steps) < 1:
            raise ValueError(f"t_final = {self.t_final} is shorter than one step dt = {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def n_samples(self) -> int:
        """len(sample_steps), from the step counts without building the list."""
        return (self.n_steps - 1) // self.sample_every + 2

    @property
    def n_powers(self) -> int:
        """Propagator powers exp(-i H_nh dt 2^k) the engine keeps: 2^k up to the
        longest sample interval, min(sample_every, n_steps) steps."""
        return min(self.sample_every, self.n_steps).bit_length()

    @property
    def sample_steps(self) -> list[int]:
        steps = list(range(0, self.n_steps, self.sample_every))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return steps

    @property
    def sample_times(self) -> np.ndarray:
        return np.array([s * self.dt for s in self.sample_steps])


def unraveling_peak_bytes(config: TrajectoryConfig) -> float:
    """Estimate of the memory (bytes) ensemble_vs_master needs for this config.

    It counts what grows with the cutoff, the batch, the samples and the
    trajectories, as if held at once. Dense d^2 x d^2 complex arrays, 16 d^4
    bytes each: the cutoff's cached terms (FockCutoff.ops), _PROPAGATOR_ARRAYS
    while exp(-i H_nh dt) is formed, the further propagator powers, four
    collapse operators, and two (n_samples, d^2, d^2) stacks (the master
    reference, which ensemble_vs_master holds while the ensemble runs, and
    the ensemble's sums, averaged in place). The chunk's _BATCH_ARRAYS
    (batch, d^2) complex arrays. _TRAJECTORY_BYTES for each of the n_traj
    trajectories (its survival and jump list); the jumps themselves, tuples
    in those lists, cannot be known before the run and are not counted.
    _MASTER_GENERATOR_COPIES of the CSR generator master_propagate
    assembles (lv.generator_entries, 20 bytes an entry). The sample count
    is n_samples, so a long t_final is caught before its sample list is
    built.
    """
    cut = FockCutoff.of(config.cutoff)
    cached = len(fs.TwoModeOps._fields) - 2  # occ_a and occ_b are vectors
    dense = cached + _PROPAGATOR_ARRAYS + config.n_powers - 1 + 4 + 2 * config.n_samples
    batch = _BATCH_ARRAYS * cut.dim * min(config.n_traj, CHUNK_SIZE)
    generator = _MASTER_GENERATOR_COPIES * 20.0 * lv.generator_entries(cut)
    trajectories = float(_TRAJECTORY_BYTES) * config.n_traj
    return 16.0 * cut.dim**2 * dense + 16.0 * batch + generator + trajectories


@dataclass
class TrajectoryResult:
    """One stochastic realization: jump record and norm bookkeeping."""

    jumps: list[tuple[float, int]]
    survival: float
    final_state: np.ndarray
    sample_times: np.ndarray
    sampled_states: np.ndarray


@dataclass
class TrajectoryEnsemble:
    """Ensemble aggregate: averaged density matrix plus per-trajectory records."""

    sample_times: np.ndarray
    rho_avg: np.ndarray  # (n_samples, dim, dim)
    mean_jumps: np.ndarray  # cumulative mean jump count at sample times
    mean_survival: np.ndarray
    jump_records: list[list[tuple[float, int]]]
    survivals: np.ndarray
    config: TrajectoryConfig


def philox_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for trajectory `index`.

    The definition of a trajectory's uniforms: the engine evaluates the
    same numbers with _philox_uniforms and does not build this generator.
    """
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 constants: round multipliers and key bumps (Random123).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit limbs.

    Every product of two limbs fits in 64 bits; the low word is the
    wrapped product. Array arithmetic wraps silently.
    """
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, lo_hi = x_lo * m_lo, x_hi * m_lo
    hi_lo, hi_hi = x_lo * m_hi, x_hi * m_hi
    carry = ((lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> _SHIFT32
    return hi_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + carry, x * m


def _philox_uniforms(seed: int, index: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """Uniforms first[r] .. first[r] + count - 1 of stream philox_stream(seed, index[r]).

    Row r equals philox_stream(seed, index[r]).random(first[r] + count)[first[r]:],
    bit for bit. numpy increments the 256-bit counter before it generates a
    block, so word w of a stream is lane w % 4 of the block at counter
    w // 4 + 1 (its upper three words stay 0), and a word's double is
    (word >> 11) * 2**-53.
    """
    index = np.asarray(index, dtype=np.uint64)
    first = np.asarray(first, dtype=np.int64)
    lane = first % 4
    n_blocks = (int(lane.max()) + count + 3) // 4
    c0 = (first // 4 + 1).astype(np.uint64)[:, None] + np.arange(n_blocks, dtype=np.uint64)
    zero = np.zeros_like(c0)
    ctr = (c0, zero, zero, zero)
    bumps = np.arange(_PHILOX_ROUNDS, dtype=np.uint64)
    key0 = np.full(1, seed, dtype=np.uint64) + bumps * _PHILOX_W0
    key1 = index[:, None] + bumps * _PHILOX_W1
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M0, ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M1, ctr[2])
        ctr = (hi1 ^ ctr[1] ^ key0[r : r + 1], lo1, hi0 ^ ctr[3] ^ key1[:, r : r + 1], lo0)
    words = np.stack(ctr, axis=-1).reshape(len(index), 4 * n_blocks)
    words = np.take_along_axis(words, lane[:, None] + np.arange(count), axis=1)
    return (words >> np.uint64(11)).astype(float) * 2.0**-53


def no_jump_propagator(
    params: md.SystemParams, cutoff: FockCutoff | int, dt: float
) -> np.ndarray:
    """exp(-i H_nh dt); contractive on states when the drive vanishes."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return sp.mat_exp(-1j * dt * md.build_h_nh(params, cutoff))


def _populations(states: np.ndarray) -> np.ndarray:
    return np.square(states.real) + np.square(states.imag)


def _norm2(rows: np.ndarray) -> np.ndarray:
    """The norm^2 of each row of a C-ordered complex array."""
    flat = rows.view(float)
    return np.einsum("ij,ij->i", flat, flat)


def _scale_rows(rows: np.ndarray, divisors: np.ndarray) -> None:
    """Divide each row of a C-ordered complex array by a real number, in place."""
    flat = rows.view(float)
    flat /= divisors[:, None]


@functools.cache
def _blas_thread_setter():
    """numpy's openblas_set_num_threads_local, or None for any other BLAS.

    The symbol is looked up through numpy's own extension module, so it is
    the OpenBLAS that numpy links. scipy bundles another OpenBLAS, and once
    mat_exp has imported scipy.linalg it is the first one the process maps;
    setting that one would leave numpy's products on every thread.
    """
    try:
        from numpy._core import _multiarray_umath

        setter = ctypes.CDLL(_multiarray_umath.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


_blas_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread(cut: FockCutoff):
    """Run the body on one OpenBLAS thread if cut.d <= _ONE_THREAD_MAX_CUTOFF.

    The engine's products are (rows, d^2) @ (d^2, d^2); at d = 6 OpenBLAS
    splits them over two threads from 64 rows with no gain in wall time.
    In numpy's OpenBLAS the setter returns the old count but sets the
    count of the whole process, whatever its name says, so overlapping
    callers take turns: each holds _blas_lock while its body runs and
    restores the count it found. Larger cutoffs, and any other BLAS, run
    unchanged and take no lock.
    """
    setter = _blas_thread_setter() if cut.d <= _ONE_THREAD_MAX_CUTOFF else None
    if setter is None:
        yield
        return
    with _blas_lock:
        old = setter(1)
        try:
            yield
        finally:
            setter(old)


class _Draws:
    """Each trajectory's uniforms, evaluated from its Philox stream _DRAW_BLOCK at a time.

    Philox4x64-10 (Salmon et al., SC'11) makes uniform j of a stream a pure
    function of (seed, index, j), so every trajectory that needs a new
    block gets it in one vectorized _philox_uniforms pass, bit-identical to
    what the stream's Generator.random() gives. taken counts the uniforms
    each stream has given: the next one sits in buffer slot
    taken % _DRAW_BLOCK, and a refill at slot 0 starts at word taken, so
    the numbers do not depend on the block length.
    """

    def __init__(self, seed: int, indices: range):
        self.seed = seed
        self.index = np.asarray(indices, dtype=np.uint64)
        self.buffer = np.empty((len(indices), _DRAW_BLOCK))
        self.taken = np.zeros(len(indices), dtype=np.int64)

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each trajectory at chunk positions rows (distinct)."""
        slot = self.taken[rows] % _DRAW_BLOCK
        empty = rows[slot == 0]
        if empty.size:
            self.buffer[empty] = _philox_uniforms(
                self.seed, self.index[empty], self.taken[empty], _DRAW_BLOCK
            )
        self.taken[rows] += 1
        return self.buffer[rows, slot]


class _Engine:
    """Precomputed matrices shared by every trajectory of one configuration.

    A batch holds one trajectory per row, so an operator acts on it from the
    right, through its transpose.
    """

    def __init__(self, params: md.SystemParams, config: TrajectoryConfig):
        self.config = config
        self.cut = FockCutoff.of(config.cutoff)
        # powers_t[k] = exp(-i H_nh dt 2^k)^T, config.n_powers of them
        power = no_jump_propagator(params, self.cut, config.dt)
        self.powers_t = [power.T]
        for _ in range(config.n_powers - 1):
            power = power @ power
            self.powers_t.append(power.T)
        self.collapse = md.build_collapse_ops(params, self.cut)
        self.collapse_t = [op.T for op in self.collapse]
        # (channel, basis state): the jump weight rate * <i|product|i>, and the
        # guard of a creation jump (a_dag, b_dag), 1.0 on its mode's top level
        ops, top = self.cut.ops, self.cut.d - 1
        weights, guards = [], []
        for rate, jump, product in md.collapse_channels(params):
            mode = jump.removesuffix("_dag")
            weights.append(rate * getattr(ops, product).diagonal().real)
            guards.append((mode != jump) & (getattr(ops, "occ_" + mode) == top))
        self.weights = np.array(weights)
        self.guards = np.array(guards, dtype=float)

    def run_chunk(
        self,
        initial: np.ndarray,
        indices: range,
        on_sample: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None],
        allow_jumps: bool = True,
    ) -> tuple[list[list[tuple[float, int]]], np.ndarray]:
        """Carry the trajectories `indices` from `initial` over the whole grid.

        The batch goes from one sample time to the next in rounds (see
        _advance); jumps are located to the grid step, their channels drawn
        and their collapses applied in batches. Thresholds and channel
        uniforms come from each trajectory's own Philox stream (_Draws).

        At the i-th sample time it calls on_sample(i, states, survival,
        jump_counts): the normalized states (dim, batch), each trajectory's
        survival so far and its jump count so far. These are views of the
        engine's working arrays, changed in place once the call returns, so
        a caller that keeps them copies them. The stepping and these calls
        run inside _one_blas_thread.

        Returns each trajectory's jump record and survival (product of the
        norm^2 decays of its no-jump stretches). Without allow_jumps every
        threshold is 0 and no random numbers are drawn: the postselected
        no-jump record.
        """
        cfg = self.config
        batch = len(indices)
        states = np.tile(initial.astype(complex), (batch, 1))  # (batch, dim), one row each
        survival = np.ones(batch)
        jump_counts = np.zeros(batch)
        if allow_jumps:
            draws = _Draws(cfg.seed, indices)
            threshold = draws.next(np.arange(batch))
        else:
            draws = None
            threshold = np.zeros(batch)
        jumps: list[list[tuple[float, int]]] = [[] for _ in range(batch)]

        sample_steps = cfg.sample_steps
        with _one_blas_thread(self.cut):
            for i, stop in enumerate(sample_steps):
                if i:
                    self._advance(
                        states, threshold, survival, jump_counts,
                        sample_steps[i - 1], stop, draws, jumps,
                    )
                on_sample(i, states.T, survival, jump_counts)
        return jumps, survival

    def _advance(
        self,
        states: np.ndarray,
        threshold: np.ndarray,
        survival: np.ndarray,
        jump_counts: np.ndarray,
        start: int,
        stop: int,
        draws: _Draws | None,
        jumps: list[list[tuple[float, int]]],
    ) -> None:
        """Carry every row from grid step start to stop, in place.

        Each round lifts the pending rows as far as their thresholds allow
        (_lift); those still short of stop jump at their next step and stay
        pending. A zero threshold (postselection) never jumps: such a row is
        short of stop only because a long skip underflowed, and the next
        round carries it on. Each jump (step * dt, channel) is appended to
        its row's list in jumps. When one step dt alone underflows a row's
        norm^2, with or without jumps, NumericalError asks for a smaller dt.
        """
        rows = np.arange(len(states))
        remaining = np.full(rows.size, stop - start)
        while rows.size:
            psi = states[rows]
            thr = threshold[rows]
            surv = survival[rows]
            before = remaining.copy()
            self._lift(psi, thr, surv, remaining)
            carried = remaining > 0
            if np.any(carried & (thr == 0) & (remaining == before)):
                raise self._step_underflow()
            jumping = np.flatnonzero(carried & (thr > 0))
            if jumping.size:
                remaining[jumping] -= 1
                pending = rows[jumping]
                jumped = psi[jumping] @ self.powers_t[0]  # collapsed below
                populations = _populations(jumped)
                norm2 = populations.sum(axis=1)
                if np.any(norm2 < _NORM2_FLOOR):  # _collapse divides by it
                    raise self._step_underflow()
                surv[jumping] *= norm2
                channels = self._collapse(jumped, populations, norm2, draws.next(pending))
                psi[jumping] = jumped
                thr[jumping] = draws.next(pending)
                jump_counts[pending] += 1.0
                times = (stop - remaining[jumping]) * self.config.dt
                for row, time, channel in zip(pending.tolist(), times.tolist(), channels.tolist()):
                    jumps[row].append((time, channel))
            states[rows] = psi
            threshold[rows] = thr
            survival[rows] = surv
            rows = rows[carried]
            remaining = remaining[carried]

    def _step_underflow(self) -> NumericalError:
        return NumericalError(
            f"no-jump norm^2 underflows within one step dt = {self.config.dt}; "
            f"decrease dt"
        )

    def _lift(
        self,
        psi: np.ndarray,
        threshold: np.ndarray,
        survival: np.ndarray,
        remaining: np.ndarray,
    ) -> None:
        """Advance each row by the most steps, up to remaining, without a jump.

        By descending powers of two, a row takes 2^k more steps while it has
        that many left and its advanced norm^2 stays >= its threshold. Because
        norm^2 is non-increasing this finds the last step before the jump.
        Only the rows with 2^k steps left are multiplied at level k. A row is
        not renormalized between levels: its norm^2 is relative to the start
        of the lift, and a skip that takes it below the smallest normal float
        is not taken, so the final division stays finite. Each row that
        moved is then renormalized once, its threshold divided and its
        survival multiplied by the norm^2 it lost. Works in place.
        """
        norm2 = np.ones(len(psi))
        for k in reversed(range(len(self.powers_t))):
            size = 1 << k
            movable = np.flatnonzero(remaining >= size)
            if movable.size == len(psi):
                advanced = psi @ self.powers_t[k]
            elif movable.size:
                advanced = psi[movable] @ self.powers_t[k]
            else:
                continue
            reached = _norm2(advanced)
            kept = (reached >= threshold[movable]) & (reached >= _NORM2_FLOOR)
            sel = movable[kept]
            psi[sel] = advanced[kept]
            norm2[sel] = reached[kept]
            remaining[sel] -= size
        # a row that did not move divides by 1.0, which changes nothing
        _scale_rows(psi, np.sqrt(norm2))
        threshold /= norm2
        survival *= norm2

    def _collapse(
        self,
        psi: np.ndarray,
        populations: np.ndarray,
        norm2: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Draw a channel per row, check it and collapse psi in place.

        Returns the channels. Raises TruncationGuardError for a creation jump
        on a state with top-level population above guard_threshold, or for a
        jump that annihilates the state.
        """
        weights = populations @ self.weights.T  # (n, n_ch)
        cum = np.cumsum(weights, axis=1)
        channels = (cum < (uniforms * cum[:, -1])[:, None]).sum(axis=1)
        channels = np.minimum(channels, len(self.collapse) - 1)
        top = (populations @ self.guards.T)[np.arange(channels.size), channels] / norm2
        worst = int(np.argmax(top))
        if top[worst] > self.config.guard_threshold:
            raise TruncationGuardError(
                f"creation jump on channel {channels[worst]} with top-level "
                f"population {top[worst]:.3e} > {self.config.guard_threshold}; "
                f"increase the cutoff"
            )
        for channel, op_t in enumerate(self.collapse_t):
            sel = np.flatnonzero(channels == channel)
            if sel.size:
                psi[sel] = psi[sel] @ op_t
        norms = np.sqrt(_norm2(psi))
        if np.any(norms == 0):
            channel = channels[np.flatnonzero(norms == 0)[0]]
            raise TruncationGuardError(f"jump on channel {channel} annihilated the state")
        _scale_rows(psi, norms)
        return channels


def _check_initial(initial: np.ndarray | None, cut: FockCutoff) -> np.ndarray:
    if initial is None:
        return fs.basis_state(cut, 0, 0)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (cut.dim,):
        raise ValueError(f"initial state shape {initial.shape} != ({cut.dim},)")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    return initial


def _single(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None,
    traj_index: int,
    allow_jumps: bool,
) -> TrajectoryResult:
    """Trajectory traj_index alone, keeping its normalized state at each sample."""
    engine = _Engine(params, config)
    psi0 = _check_initial(initial, engine.cut)
    sampled = np.empty((config.n_samples, engine.cut.dim), dtype=complex)

    def store(i, states, survival, jump_counts):
        sampled[i] = states[:, 0]

    jumps, survival = engine.run_chunk(
        psi0, range(traj_index, traj_index + 1), store, allow_jumps
    )
    return TrajectoryResult(
        jumps=jumps[0],
        survival=float(survival[0]),
        final_state=sampled[-1],
        sample_times=config.sample_times,
        sampled_states=sampled,
    )


def run_trajectory(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
    traj_index: int = 0,
) -> TrajectoryResult:
    """Single stochastic trajectory, identical to ensemble member traj_index."""
    if not 0 <= traj_index < config.n_traj:
        raise ValueError(f"traj_index must be in [0, {config.n_traj}), got {traj_index}")
    return _single(params, config, initial, traj_index, allow_jumps=True)


def run_ensemble(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
) -> TrajectoryEnsemble:
    """Average n_traj independent trajectories.

    Chunks of fixed size are simulated one after another; each sample is
    added into the ensemble's sums in chunk order.
    """
    engine = _Engine(params, config)
    psi0 = _check_initial(initial, engine.cut)
    n_samples = config.n_samples
    dim = engine.cut.dim
    rho_sum = np.zeros((n_samples, dim, dim), dtype=complex)
    survival_sum = np.zeros(n_samples)
    jumps_sum = np.zeros(n_samples)

    def add_sample(i, states, survival, jump_counts):
        rho_sum[i] += states @ states.conj().T
        survival_sum[i] += survival.sum()
        jumps_sum[i] += jump_counts.sum()

    jump_records: list[list[tuple[float, int]]] = []
    survivals = np.empty(config.n_traj)
    for start in range(0, config.n_traj, CHUNK_SIZE):
        chunk = range(start, min(start + CHUNK_SIZE, config.n_traj))
        jumps, survival = engine.run_chunk(psi0, chunk, add_sample)
        jump_records.extend(jumps)
        survivals[chunk.start : chunk.stop] = survival

    for total in (rho_sum, survival_sum, jumps_sum):
        total /= config.n_traj
    return TrajectoryEnsemble(
        sample_times=config.sample_times,
        rho_avg=rho_sum,
        mean_jumps=jumps_sum,
        mean_survival=survival_sum,
        jump_records=jump_records,
        survivals=survivals,
        config=config,
    )


def postselect_no_jump(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
) -> TrajectoryResult:
    """Deterministic no-jump (postselected) evolution with survival tracking.

    The sampled states equal the normalized exp(-i H_nh t) evolution of the
    initial state; the survival probability is ||exp(-i H_nh t_final) psi_0||^2.
    """
    return _single(params, config, initial, 0, allow_jumps=False)


def trace_distance(rho_1: np.ndarray, rho_2: np.ndarray) -> float:
    """Half the trace norm of the (Hermitian) difference."""
    diff = rho_1 - rho_2
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# expm_multiply picks its Taylor degree from the exact 1-norm of the shifted
# generator only while step * ||L - mu I||_1 stays below about 63; above it
# the choice rests on onenormest, which draws from numpy's global random
# state. Sub-steps with step * ||L||_1 <= this bound (||L - mu I||_1 <=
# 2 ||L||_1) keep every call on the deterministic path.
_EXPM_STEP_NORM = 30.0
# The most sub-steps master_propagate takes over its whole time grid. One
# expm_multiply call took 0.52 ms at d = 3 and 1.07 ms at d = 6, so this is
# about 100 s at d = 6; the CI thermal run (t_final 5, d = 6) needs 25.
MAX_MASTER_SUBSTEPS = 10**5


def master_propagate(
    params: md.SystemParams,
    cutoff: FockCutoff | int,
    rho_0: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Exact master-equation evolution of rho_0 over the given time grid.

    vec(rho) is carried across each gap between consecutive times by the
    action of exp(L * gap) on it (scipy.sparse.linalg.expm_multiply;
    Al-Mohy & Higham, SISC 33, 488 (2011)), applied to the sparse generator.
    No dense propagator is formed. Each gap takes ceil(gap * ||L||_1 / 30)
    sub-steps; raises NumericalError, before the first, when the whole grid
    needs more than MAX_MASTER_SUBSTEPS (a stiff generator).
    """
    from scipy.sparse.linalg import expm_multiply

    gen = lv.build_liouvillian(params, cutoff).csr
    # column sums of |L| from the CSR arrays, without a copy of the generator
    column_sums = np.bincount(gen.indices, weights=np.abs(gen.data), minlength=gen.shape[1])
    norm_1 = float(column_sums.max())
    gaps = np.diff(np.asarray(times, dtype=float), prepend=0.0)
    if np.any(gaps < 0):
        raise ValueError("times must be ascending")
    with np.errstate(over="ignore"):  # an overflowing count is over the limit
        n_sub = np.where(gaps > 0, np.maximum(1.0, np.ceil(gaps * norm_1 / _EXPM_STEP_NORM)), 0.0)
        total = n_sub.sum()
    if total > MAX_MASTER_SUBSTEPS:
        raise NumericalError(
            f"the master equation needs {total:.0f} expm_multiply sub-steps "
            f"(||L||_1 = {norm_1:.3e}), more than the limit of {MAX_MASTER_SUBSTEPS}"
        )
    out = np.zeros((len(gaps),) + rho_0.shape, dtype=complex)
    vec_rho = lv.vec(rho_0)
    for i, (gap, count) in enumerate(zip(gaps, n_sub)):
        if count:
            step = gen * (gap / count)
            for _ in range(int(count)):
                vec_rho = expm_multiply(step, vec_rho)
        out[i] = lv.unvec(vec_rho)
    return out


@dataclass
class UnravelingReport:
    """Trajectory-average vs exact master-equation evolution.

    The ensemble carries the sample times, averages and seed (its config);
    rho_master is the exact evolution at those times and trace_distances
    the distance of rho_avg from it at each.
    """

    ensemble: TrajectoryEnsemble
    rho_master: np.ndarray
    trace_distances: np.ndarray


def ensemble_vs_master(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
) -> UnravelingReport:
    """Trace-distance time series between the unraveling and the master equation.

    The master equation is propagated first: it needs only the sample times,
    so a generator over its sub-step limit is refused before any trajectory
    is stepped.
    """
    cut = FockCutoff.of(config.cutoff)
    psi0 = _check_initial(initial, cut)
    rho_0 = np.outer(psi0, psi0.conj())
    rho_exact = master_propagate(params, cut, rho_0, config.sample_times)
    ensemble = run_ensemble(params, config, psi0)
    distances = np.array([trace_distance(a, b) for a, b in zip(ensemble.rho_avg, rho_exact)])
    return UnravelingReport(ensemble=ensemble, rho_master=rho_exact, trace_distances=distances)
