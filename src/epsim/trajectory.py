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

dt is the grid of jump times and samples, not an accuracy parameter: the
no-jump propagator is exact at any dt, and a smaller dt only places jump
times more finely. Each trajectory reads its uniforms in the order r, then
per jump the channel uniform and the next r.

The engine never steps dt by dt between jumps. ||phi||^2 never increases
under no-jump evolution (H is Hermitian, so d||phi||^2/dt = -sum_i
<C_i^dag C_i> <= 0), so the first step with ||phi||^2 < r is found by
binary lifting: with U_k = U^(2^k) precomputed for 2^k up to the longest
sample interval, each pending trajectory advances by descending powers of
two as long as the advanced state stays at or above its threshold, and the
next single step is its jump. A batch of trajectories is propagated as the
columns of one matrix, so a sample interval costs (its largest number of
jumps + 1) rounds of at most K + 1 batched products. The engine keeps each
column normalized and folds the norm^2 it removes into that column's
threshold and survival.

Randomness comes from one counter-based Philox stream per trajectory, keyed
by (seed, trajectory index), so results are reproducible and independent of
batching. Each stream is read in blocks of uniforms: consecutive draws
continue the same stream, so the numbers do not depend on the block length.
Trajectories are independent; partial sums are merged in chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from . import liouvillian as lv
from . import model as md
from . import spectral as sp
from .errors import NumericalError, TruncationGuardError
from .fockspace import FockCutoff

TOP_LEVEL_GUARD = 1e-6
CHUNK_SIZE = 1024
_DRAW_BLOCK = 16  # uniforms read from one trajectory's stream at a time
_NORM2_FLOOR = np.finfo(float).tiny  # smallest norm^2 a skip may renormalize by


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
    def sample_steps(self) -> list[int]:
        steps = list(range(0, self.n_steps, self.sample_every))
        if steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return steps

    @property
    def sample_times(self) -> np.ndarray:
        return np.array([s * self.dt for s in self.sample_steps])


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
    """Independent counter-based stream for trajectory `index`."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def no_jump_propagator(
    params: md.SystemParams, cutoff: FockCutoff | int, dt: float
) -> np.ndarray:
    """exp(-i H_nh dt); contractive on states when the drive vanishes."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return sp.mat_exp(-1j * dt * md.build_h_nh(params, cutoff))


def _top_level_masks(params: md.SystemParams, cut: FockCutoff) -> np.ndarray:
    """(channel, basis state): 1.0 on the top-level states a creation channel guards.

    Channel order matches build_collapse_ops: thermal gain channels (the
    creation-type jumps) sit at indices 1 and 3; loss channels guard nothing.
    """
    n_a = np.arange(cut.dim) // cut.d
    n_b = np.arange(cut.dim) % cut.d
    none = np.zeros(cut.dim, dtype=bool)
    if params.n_th == 0.0:
        return np.array([none, none], dtype=float)
    return np.array([none, n_a == cut.d - 1, none, n_b == cut.d - 1], dtype=float)


def _populations(states: np.ndarray) -> np.ndarray:
    return np.square(states.real) + np.square(states.imag)


class _Draws:
    """Each trajectory's uniforms, read from its Philox stream _DRAW_BLOCK at a time."""

    def __init__(self, seed: int, indices: range):
        self.streams = [philox_stream(seed, traj) for traj in indices]
        self.block = _DRAW_BLOCK
        self.buffer = np.empty((len(indices), self.block))
        self.used = np.full(len(indices), self.block)

    def next(self, cols: np.ndarray) -> np.ndarray:
        """The next uniform of each trajectory at chunk positions cols."""
        for col in cols[self.used[cols] == self.block]:
            self.buffer[col] = self.streams[col].random(self.block)
            self.used[col] = 0
        values = self.buffer[cols, self.used[cols]]
        self.used[cols] += 1
        return values


class _Engine:
    """Precomputed matrices shared by every trajectory of one configuration."""

    def __init__(self, params: md.SystemParams, config: TrajectoryConfig):
        self.config = config
        self.cut = FockCutoff.of(config.cutoff)
        # powers[k] = exp(-i H_nh dt 2^k) for 2^k up to the longest sample interval
        longest = max(np.diff(config.sample_steps))
        self.powers = [no_jump_propagator(params, self.cut, config.dt)]
        while 2 ** len(self.powers) <= longest:
            self.powers.append(self.powers[-1] @ self.powers[-1])
        self.collapse = md.build_collapse_ops(params, self.cut)
        # C^dag C is diagonal in the Fock basis for every channel here.
        self.ctc_diag = np.stack(
            [np.real(np.diag(fs.dagger(c) @ c)) for c in self.collapse]
        )
        self.top_levels = _top_level_masks(params, self.cut)

    def run_chunk(
        self,
        initial: np.ndarray,
        indices: range,
        record: bool = False,
        allow_jumps: bool = True,
    ) -> dict:
        """Carry the trajectories `indices` from `initial` over the whole grid.

        The batch goes from one sample time to the next in rounds (see
        _advance); jumps are located to the grid step, their channels drawn
        and their collapses applied in batches. Thresholds and channel
        uniforms come from each trajectory's own Philox stream (_Draws).

        Returns the chunk's sums at the sample times and each trajectory's
        jump record and survival (product of the norm^2 decays of its no-jump
        stretches). With record, the normalized states at the sample times
        ("states", (n_samples, dim, batch)) are returned too. Without
        allow_jumps every threshold is 0 and no random numbers are drawn: the
        postselected no-jump record.
        """
        cfg = self.config
        batch = len(indices)
        states = np.tile(initial[:, None], (1, batch)).astype(complex)
        survival = np.ones(batch)
        jump_counts = np.zeros(batch)
        if allow_jumps:
            draws = _Draws(cfg.seed, indices)
            threshold = draws.next(np.arange(batch))
        else:
            draws = None
            threshold = np.zeros(batch)
        events: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        sample_steps = cfg.sample_steps
        n_samples = len(sample_steps)
        dim = self.cut.dim
        rho_sum = np.zeros((n_samples, dim, dim), dtype=complex)
        survival_sum = np.zeros(n_samples)
        jumps_sum = np.zeros(n_samples)
        if record:
            state_log = np.zeros((n_samples, dim, batch), dtype=complex)

        for i, stop in enumerate(sample_steps):
            if i:
                self._advance(
                    states, threshold, survival, jump_counts,
                    sample_steps[i - 1], stop, draws, events,
                )
            rho_sum[i] = states @ states.conj().T
            survival_sum[i] = survival.sum()
            jumps_sum[i] = jump_counts.sum()
            if record:
                state_log[i] = states

        jumps: list[list[tuple[float, int]]] = [[] for _ in range(batch)]
        for cols, steps, channels in events:
            for col, step, channel in zip(cols.tolist(), steps.tolist(), channels.tolist()):
                jumps[col].append((step * cfg.dt, channel))
        out = {
            "rho_sum": rho_sum,
            "survival_sum": survival_sum,
            "jumps_sum": jumps_sum,
            "jumps": jumps,
            "survival": survival,
        }
        if record:
            out["states"] = state_log
        return out

    def _advance(
        self,
        states: np.ndarray,
        threshold: np.ndarray,
        survival: np.ndarray,
        jump_counts: np.ndarray,
        start: int,
        stop: int,
        draws: _Draws | None,
        events: list,
    ) -> None:
        """Carry every column from grid step start to stop, in place.

        Each round lifts the pending columns as far as their thresholds allow
        (_lift); those still short of stop jump at their next step and stay
        pending. A zero threshold (postselection) never jumps: such a column
        is short of stop only because a long skip underflowed, and the next
        round carries it on. Jump events (columns, grid steps, channels) go
        to events. When one step dt alone underflows a column's norm^2, with
        or without jumps, NumericalError asks for a smaller dt.
        """
        cols = np.arange(states.shape[1])
        remaining = np.full(cols.size, stop - start)
        while cols.size:
            psi = states[:, cols]
            thr = threshold[cols]
            surv = survival[cols]
            before = remaining.copy()
            self._lift(psi, thr, surv, remaining)
            carried = remaining > 0
            if np.any(carried & (thr == 0) & (remaining == before)):
                raise self._step_underflow()
            jumping = np.flatnonzero(carried & (thr > 0))
            if jumping.size:
                remaining[jumping] -= 1
                pending = cols[jumping]
                jumped = self.powers[0] @ psi[:, jumping]  # collapsed below
                populations = _populations(jumped)
                norm2 = populations.sum(axis=0)
                if np.any(norm2 < _NORM2_FLOOR):  # _collapse divides by it
                    raise self._step_underflow()
                surv[jumping] *= norm2
                channels = self._collapse(jumped, populations, norm2, draws.next(pending))
                psi[:, jumping] = jumped
                thr[jumping] = draws.next(pending)
                jump_counts[pending] += 1.0
                events.append((pending, stop - remaining[jumping], channels))
            states[:, cols] = psi
            threshold[cols] = thr
            survival[cols] = surv
            cols = cols[carried]
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
        """Advance each column by the most steps, up to remaining, without a jump.

        By descending powers of two, a column takes 2^k more steps while
        it has that many left and its advanced norm^2 stays >= its threshold.
        Because norm^2 is non-increasing this finds the last step before the
        jump. An advanced column is renormalized; its threshold is divided and
        its survival multiplied by the norm^2 it lost. A skip whose norm^2
        underflows below the smallest normal float is not taken, so the
        division stays finite. Works in place.
        """
        for k in reversed(range(len(self.powers))):
            size = 1 << k
            movable = remaining >= size
            if not movable.any():
                continue
            advanced = self.powers[k] @ psi
            norm2 = _populations(advanced).sum(axis=0)
            sel = np.flatnonzero(movable & (norm2 >= threshold) & (norm2 >= _NORM2_FLOOR))
            kept = norm2[sel]
            psi[:, sel] = advanced[:, sel] / np.sqrt(kept)
            threshold[sel] /= kept
            survival[sel] *= kept
            remaining[sel] -= size

    def _collapse(
        self,
        psi: np.ndarray,
        populations: np.ndarray,
        norm2: np.ndarray,
        uniforms: np.ndarray,
    ) -> np.ndarray:
        """Draw a channel per column, check it and collapse psi in place.

        Returns the channels. Raises TruncationGuardError for a creation jump
        on a state with top-level population above guard_threshold, or for a
        jump that annihilates the state.
        """
        weights = self.ctc_diag @ populations  # (n_ch, n)
        cum = np.cumsum(weights, axis=0)
        channels = (cum < uniforms * cum[-1]).sum(axis=0)
        channels = np.minimum(channels, len(self.collapse) - 1)
        top = (self.top_levels @ populations)[channels, np.arange(channels.size)] / norm2
        worst = int(np.argmax(top))
        if top[worst] > self.config.guard_threshold:
            raise TruncationGuardError(
                f"creation jump on channel {channels[worst]} with top-level "
                f"population {top[worst]:.3e} > {self.config.guard_threshold}; "
                f"increase the cutoff"
            )
        for channel, op in enumerate(self.collapse):
            sel = np.flatnonzero(channels == channel)
            if sel.size:
                psi[:, sel] = op @ psi[:, sel]
        norms = np.linalg.norm(psi, axis=0)
        if np.any(norms == 0):
            channel = channels[np.flatnonzero(norms == 0)[0]]
            raise TruncationGuardError(f"jump on channel {channel} annihilated the state")
        psi /= norms
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
    engine = _Engine(params, config)
    psi0 = _check_initial(initial, engine.cut)
    out = engine.run_chunk(
        psi0, range(traj_index, traj_index + 1), record=True, allow_jumps=allow_jumps
    )
    return TrajectoryResult(
        jumps=out["jumps"][0],
        survival=float(out["survival"][0]),
        final_state=out["states"][-1][:, 0],
        sample_times=config.sample_times,
        sampled_states=out["states"][:, :, 0],
    )


def run_trajectory(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
    traj_index: int = 0,
) -> TrajectoryResult:
    """Single stochastic trajectory, identical to ensemble member traj_index."""
    return _single(params, config, initial, traj_index, allow_jumps=True)


def run_ensemble(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
) -> TrajectoryEnsemble:
    """Average n_traj independent trajectories.

    Chunks of fixed size are simulated one after another and their partial
    sums added in chunk order.
    """
    engine = _Engine(params, config)
    psi0 = _check_initial(initial, engine.cut)
    n_samples = len(config.sample_steps)
    dim = engine.cut.dim
    rho_sum = np.zeros((n_samples, dim, dim), dtype=complex)
    survival_sum = np.zeros(n_samples)
    jumps_sum = np.zeros(n_samples)
    jump_records: list[list[tuple[float, int]]] = []
    survivals: list[np.ndarray] = []
    for start in range(0, config.n_traj, CHUNK_SIZE):
        chunk = range(start, min(start + CHUNK_SIZE, config.n_traj))
        out = engine.run_chunk(psi0, chunk)
        rho_sum += out["rho_sum"]
        survival_sum += out["survival_sum"]
        jumps_sum += out["jumps_sum"]
        jump_records.extend(out["jumps"])
        survivals.append(out["survival"])

    n = float(config.n_traj)
    return TrajectoryEnsemble(
        sample_times=config.sample_times,
        rho_avg=rho_sum / n,
        mean_jumps=jumps_sum / n,
        mean_survival=survival_sum / n,
        jump_records=jump_records,
        survivals=np.concatenate(survivals),
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
    No dense propagator is formed.
    """
    from scipy.sparse.linalg import expm_multiply

    gen = lv.build_liouvillian(params, cutoff).csr
    norm_1 = float(abs(gen).sum(axis=0).max())
    out = np.zeros((len(times),) + rho_0.shape, dtype=complex)
    vec_rho = lv.vec(rho_0)
    previous = 0.0
    for i, t in enumerate(times):
        gap = t - previous
        if gap < 0:
            raise ValueError("times must be ascending")
        if gap > 0:
            n_sub = max(1, int(np.ceil(gap * norm_1 / _EXPM_STEP_NORM)))
            step = gen * (gap / n_sub)
            for _ in range(n_sub):
                vec_rho = expm_multiply(step, vec_rho)
        out[i] = lv.unvec(vec_rho)
        previous = t
    return out


@dataclass
class UnravelingReport:
    """Trajectory-average vs exact master-equation evolution."""

    times: np.ndarray
    trace_distances: np.ndarray
    mean_jumps: np.ndarray
    mean_survival: np.ndarray
    rho_trajectories: np.ndarray
    rho_master: np.ndarray
    seed: int


def ensemble_vs_master(
    params: md.SystemParams,
    config: TrajectoryConfig,
    initial: np.ndarray | None = None,
) -> UnravelingReport:
    """Trace-distance time series between the unraveling and the master equation."""
    cut = FockCutoff.of(config.cutoff)
    psi0 = _check_initial(initial, cut)
    ensemble = run_ensemble(params, config, psi0)
    rho_0 = np.outer(psi0, psi0.conj())
    rho_exact = master_propagate(params, cut, rho_0, ensemble.sample_times)
    distances = np.array(
        [
            trace_distance(ensemble.rho_avg[i], rho_exact[i])
            for i in range(len(ensemble.sample_times))
        ]
    )
    return UnravelingReport(
        times=ensemble.sample_times,
        trace_distances=distances,
        mean_jumps=ensemble.mean_jumps,
        mean_survival=ensemble.mean_survival,
        rho_trajectories=ensemble.rho_avg,
        rho_master=rho_exact,
        seed=config.seed,
    )
