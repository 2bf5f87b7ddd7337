"""Monte Carlo wave-function (quantum-jump) unraveling of the master equation.

First-order fixed-step unraveling: per step the jump probability of channel i
is p_i = dt * <psi|C_i^dag C_i|psi>; with probability sum(p_i) one channel is
selected proportionally to p_i and applied, otherwise the state advances with
the no-jump propagator exp(-i H_nh dt). The state is renormalized after every
step in both branches; the per-trajectory survival probability is tracked
separately as the running product of the per-step no-jump probabilities.

A batch of trajectories is stepped as the columns of one matrix. The jump
decisions come from the pre-step states; the columns that jump are copied,
the whole batch is propagated and renormalized with one matrix product, and
the jumped columns are then overwritten with the collapsed copies.

Randomness comes from one counter-based Philox stream per trajectory, keyed
by (seed, trajectory index), so results are bit-for-bit reproducible and
independent of batching. Each stream is read in blocks of steps: consecutive
draws continue the same stream, so the numbers do not depend on the block
length and random-number memory does not grow with the number of steps.
Trajectories are independent; partial sums are merged in chunk order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockspace as fs
from . import liouvillian as lv
from . import model as md
from . import spectral as sp
from .errors import StepSizeError, TruncationGuardError
from .fockspace import FockCutoff

JUMP_PROBABILITY_CAP = 0.05
TOP_LEVEL_GUARD = 1e-6
CHUNK_SIZE = 1024
_DRAW_BLOCK = 256  # steps per block of random draws
_DRAWS_PER_STEP = 2  # one uniform for the jump decision, one for the channel


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
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float, np.integer, np.floating))
                or not np.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        for name in ("n_traj", "sample_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    no_jump_probs: np.ndarray  # per step: 1 - total jump probability


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


def _creation_channel_masks(
    params: md.SystemParams, cut: FockCutoff
) -> list[np.ndarray | None]:
    """Per channel: boolean mask of top-level basis states, None for loss channels.

    Channel order matches build_collapse_ops: thermal gain channels (the
    creation-type jumps) sit at indices 1 and 3.
    """
    if params.n_th == 0.0:
        return [None, None]
    d = cut.d
    n_a = np.arange(cut.dim) // d
    n_b = np.arange(cut.dim) % d
    return [None, n_a == d - 1, None, n_b == d - 1]


class _Engine:
    """Precomputed matrices shared by every trajectory of one configuration."""

    def __init__(self, params: md.SystemParams, config: TrajectoryConfig):
        self.params = params
        self.config = config
        self.cut = FockCutoff.of(config.cutoff)
        self.propagator = no_jump_propagator(params, self.cut, config.dt)
        self.collapse = md.build_collapse_ops(params, self.cut)
        # C^dag C is diagonal in the Fock basis for every channel here.
        self.ctc_diag = np.stack(
            [np.real(np.diag(fs.dagger(c) @ c)) for c in self.collapse]
        )
        self.guard_masks = _creation_channel_masks(params, self.cut)

    def run_chunk(
        self,
        initial: np.ndarray,
        indices: range,
        record: bool = False,
        allow_jumps: bool = True,
    ) -> dict:
        """Step the trajectories `indices` from `initial` over the whole grid.

        Every step propagates and renormalizes the whole batch, then
        overwrites the columns that jumped with their collapsed pre-step
        states. Each trajectory's random numbers are drawn from its own
        Philox stream in blocks of _DRAW_BLOCK steps.

        Returns the chunk's sums at the sample times and each trajectory's
        jump record and survival. With record, the states at the sample times
        ("states", (n_samples, dim, batch)) and the per-step no-jump
        probabilities ("no_jump_probs", (n_steps, batch)) are returned too.
        Without allow_jumps no random numbers are drawn and every step is a
        no-jump step (the postselected record).
        """
        cfg = self.config
        n_steps = cfg.n_steps
        batch = len(indices)
        if allow_jumps:
            streams = [philox_stream(cfg.seed, traj) for traj in indices]
            block = min(_DRAW_BLOCK, n_steps)
            # (step in block, draw, trajectory): each step reads contiguous rows
            draws = np.empty((block, _DRAWS_PER_STEP, batch))
        no_jumps = np.zeros(batch, dtype=bool)

        states = np.tile(initial[:, None], (1, batch)).astype(complex)
        # Work arrays reused every step; allocating them afresh made a step
        # about 15 % slower at batch 1024, d=6.
        advanced = np.empty_like(states)
        weights = np.empty(states.shape)
        survival = np.ones(batch)
        jump_counts = np.zeros(batch)
        jumps: list[list[tuple[float, int]]] = [[] for _ in range(batch)]

        sample_steps = cfg.sample_steps
        n_samples = len(sample_steps)
        dim = self.cut.dim
        rho_sum = np.zeros((n_samples, dim, dim), dtype=complex)
        survival_sum = np.zeros(n_samples)
        jumps_sum = np.zeros(n_samples)
        if record:
            state_log = np.zeros((n_samples, dim, batch), dtype=complex)
            prob_log = np.zeros((n_steps, batch))
        cursor = 0

        def take_sample(at_step: int, cursor: int) -> int:
            while cursor < n_samples and sample_steps[cursor] == at_step:
                rho_sum[cursor] += states @ states.conj().T
                survival_sum[cursor] += survival.sum()
                jumps_sum[cursor] += jump_counts.sum()
                if record:
                    state_log[cursor] = states
                cursor += 1
            return cursor

        cursor = take_sample(0, cursor)
        for step in range(n_steps):
            np.square(np.abs(states, out=weights), out=weights)
            probs = cfg.dt * (self.ctc_diag @ weights)  # (n_ch, batch)
            p_tot = probs.sum(axis=0)
            if np.any(p_tot > JUMP_PROBABILITY_CAP):
                worst = float(p_tot.max())
                raise StepSizeError(
                    f"jump probability {worst:.4f} exceeds {JUMP_PROBABILITY_CAP} "
                    f"at step {step}; reduce dt"
                )
            if record:
                prob_log[step] = 1.0 - p_tot
            if allow_jumps:
                row = step % block
                if row == 0:
                    width = min(block, n_steps - step)
                    for col, stream in enumerate(streams):
                        draws[:width, :, col] = stream.random((width, _DRAWS_PER_STEP))
                jump_mask = draws[row, 0] < p_tot
            else:
                jump_mask = no_jumps

            jump_cols = np.flatnonzero(jump_mask)
            before = states[:, jump_cols]
            np.matmul(self.propagator, states, out=advanced)
            states, advanced = advanced, states
            states *= 1.0 / np.linalg.norm(states, axis=0)
            survival *= np.where(jump_mask, 1.0, 1.0 - p_tot)

            if jump_cols.size:
                cum = np.cumsum(probs[:, jump_cols], axis=0)
                targets = draws[row, 1, jump_cols] * p_tot[jump_cols]
                channels = (cum < targets[None, :]).sum(axis=0)
                channels = np.minimum(channels, len(self.collapse) - 1)
                t_jump = (step + 1) * cfg.dt
                for channel in np.unique(channels):
                    local = np.flatnonzero(channels == channel)
                    mask = self.guard_masks[channel]
                    if mask is not None:
                        top_pop = np.sum(np.abs(before[mask][:, local]) ** 2, axis=0)
                        if np.any(top_pop > cfg.guard_threshold):
                            raise TruncationGuardError(
                                f"creation jump on channel {channel} with top-level "
                                f"population {top_pop.max():.3e} > {cfg.guard_threshold}; "
                                f"increase the cutoff"
                            )
                    jumped = self.collapse[channel] @ before[:, local]
                    norms = np.linalg.norm(jumped, axis=0, keepdims=True)
                    if np.any(norms == 0):
                        raise TruncationGuardError(
                            f"jump on channel {channel} annihilated the state"
                        )
                    sel = jump_cols[local]
                    states[:, sel] = jumped / norms
                    for col in sel:
                        jumps[col].append((t_jump, int(channel)))
                jump_counts[jump_cols] += 1.0

            cursor = take_sample(step + 1, cursor)

        out = {
            "rho_sum": rho_sum,
            "survival_sum": survival_sum,
            "jumps_sum": jumps_sum,
            "jumps": jumps,
            "survival": survival,
        }
        if record:
            out["states"] = state_log
            out["no_jump_probs"] = prob_log
        return out


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
        no_jump_probs=out["no_jump_probs"][:, 0],
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
    initial state; the survival probability is the product of per-step
    no-jump probabilities of the postselected record.
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
