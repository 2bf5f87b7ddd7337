import ctypes
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from conftest import valid_params
from epsim import cli
from epsim import fockspace as fs
from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp
from epsim import trajectory as tj
from epsim.errors import ConfigError, NumericalError, TruncationGuardError


@pytest.fixture
def fast_config():
    return tj.TrajectoryConfig(dt=0.01, t_final=0.5, n_traj=64, seed=17, cutoff=6)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tj.TrajectoryConfig(dt=-0.1, t_final=1.0, n_traj=1, seed=0)
        with pytest.raises(ValueError):
            tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=0, seed=0)
        with pytest.raises(ValueError):
            tj.TrajectoryConfig(dt=0.03, t_final=1.0, n_traj=1, seed=0)
        with pytest.raises(ValueError, match="shorter than one step"):
            tj.TrajectoryConfig(dt=0.01, t_final=1e-12, n_traj=1, seed=0)
        # t_final / dt overflows to inf, which no step count can round to
        with pytest.raises(ValueError, match=r"t_final / dt must be finite.*1e\+300, dt = 1e-300"):
            tj.TrajectoryConfig(dt=1e-300, t_final=1e300, n_traj=1, seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_traj", 10.5),
            ("n_traj", 10.0),
            ("n_traj", True),
            ("sample_every", 2.5),
            ("dt", "0.01"),
            ("dt", float("nan")),
            ("t_final", None),
            ("t_final", float("inf")),
            ("guard_threshold", "1e-6"),
            ("seed", 1.5),
            ("seed", True),
            ("seed", -3),
            ("seed", 2**64),
            ("cutoff", 6.5),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        settings = dict(dt=0.01, t_final=1.0, n_traj=10, seed=0, sample_every=5)
        settings[field] = value
        with pytest.raises(ValueError, match=field):
            tj.TrajectoryConfig(**settings)

    def test_accepts_numpy_scalars(self):
        cfg = tj.TrajectoryConfig(
            dt=np.float64(0.01), t_final=np.float64(1.0), n_traj=np.int64(3), seed=0
        )
        assert cfg.n_steps == 100

    def test_sample_grid_covers_endpoints(self):
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=1, seed=0, sample_every=30)
        assert cfg.sample_steps[0] == 0
        assert cfg.sample_steps[-1] == cfg.n_steps

    def test_power_count_covers_the_longest_sample_interval(self):
        # the smallest count with 2^n_powers above the longest sample interval
        for n_steps in range(1, 300, 7):
            for sample_every in range(1, 70):
                cfg = tj.TrajectoryConfig(
                    dt=1.0, t_final=float(n_steps), n_traj=1, seed=0, sample_every=sample_every
                )
                longest = max(np.diff(cfg.sample_steps))
                assert 2 ** (cfg.n_powers - 1) <= longest < 2**cfg.n_powers


class TestMemoryEstimate:
    @pytest.mark.parametrize(
        "t_final, sample_every", [(0.01, 1), (1.0, 1), (0.05, 20), (1.0, 7), (0.2, 20)]
    )
    def test_counts_the_samples(self, monkeypatch, t_final, sample_every):
        settings = dict(dt=0.01, t_final=t_final, n_traj=1, sample_every=sample_every)
        cfg = tj.TrajectoryConfig(seed=0, cutoff=3, **settings)
        assert cfg.n_samples == len(cfg.sample_steps)
        monkeypatch.setattr(md, "MEMORY_BUDGET", 0)
        with pytest.raises(ConfigError, match=f"with {cfg.n_samples} samples needs"):
            cli.load_config("trajectories", None, {"cutoff": 3, "trajectories": settings})

    def test_grows_with_cutoff_batch_and_samples(self):
        base = dict(dt=0.01, t_final=1.0, n_traj=100, seed=0, cutoff=6, sample_every=20)
        peak = tj.unraveling_peak_bytes(tj.TrajectoryConfig(**base))
        for change in ({"cutoff": 7}, {"n_traj": 200}, {"sample_every": 10}):
            assert tj.unraveling_peak_bytes(tj.TrajectoryConfig(**{**base, **change})) > peak
        # a batch holds at most CHUNK_SIZE trajectories; past it only each
        # trajectory's own bytes grow
        chunk = tj.unraveling_peak_bytes(tj.TrajectoryConfig(**{**base, "n_traj": tj.CHUNK_SIZE}))
        more = tj.TrajectoryConfig(**{**base, "n_traj": 4 * tj.CHUNK_SIZE})
        assert tj.unraveling_peak_bytes(more) - chunk == 3 * tj.CHUNK_SIZE * tj._TRAJECTORY_BYTES


class TestNoJumpPropagator:
    def test_short_step_near_identity(self, std_params):
        dt = 1e-6
        u = tj.no_jump_propagator(std_params, 4, dt)
        h_nh = md.build_h_nh(std_params, 4)
        assert np.max(np.abs(u - np.eye(16))) <= np.linalg.norm(h_nh) * dt

    def test_single_mode_survival_decay(self):
        # one-photon state of a single lossy mode: norm^2 after t is exp(-2*ga*t)
        p = md.SystemParams(g=1e-300, gamma_a=0.8, gamma_b=0.0, eps=0.0)
        psi = fs.basis_state(3, 1, 0)
        for t in (0.3, 1.0):
            u = tj.no_jump_propagator(p, 3, t)
            survival = np.linalg.norm(u @ psi) ** 2
            assert survival == pytest.approx(np.exp(-2 * 0.8 * t), rel=1e-10)

    def test_contractive_without_drive(self):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0)
        u = tj.no_jump_propagator(p, 4, 0.05)
        rng = np.random.default_rng(8)
        for _ in range(50):
            psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            psi /= np.linalg.norm(psi)
            assert np.linalg.norm(u @ psi) <= 1.0 + 1e-12


class TestDeterminism:
    def test_bitwise_reproducible(self, std_params, fast_config):
        a = tj.run_ensemble(std_params, fast_config)
        b = tj.run_ensemble(std_params, fast_config)
        assert np.array_equal(a.rho_avg, b.rho_avg)
        assert a.jump_records == b.jump_records
        assert np.array_equal(a.survivals, b.survivals)

    def test_single_matches_ensemble_member(self, std_params, fast_config):
        # jump records are exactly reproducible; survivals agree up to the
        # ULP-level effect of BLAS blocking across batch shapes
        ensemble = tj.run_ensemble(std_params, fast_config)
        for index in (0, 5, 63):
            single = tj.run_trajectory(std_params, fast_config, traj_index=index)
            assert single.jumps == ensemble.jump_records[index]
            assert single.survival == pytest.approx(
                ensemble.survivals[index], rel=1e-12
            )

    def test_chunk_partition_invariance(self, std_params, fast_config):
        engine = tj._Engine(std_params, fast_config)
        psi0 = fs.basis_state(6, 0, 0)
        whole = run_logged(engine, psi0, range(0, 64))
        left = run_logged(engine, psi0, range(0, 29))
        right = run_logged(engine, psi0, range(29, 64))
        assert whole["jumps"] == left["jumps"] + right["jumps"]
        np.testing.assert_allclose(
            whole["survival"],
            np.concatenate([left["survival"], right["survival"]]),
            rtol=1e-12,
        )

    def test_ensemble_independent_of_chunk_size(self, monkeypatch):
        # chunks of 7 (not a divisor of 64) against one default-size chunk
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=1e-3, t_final=0.5, n_traj=64, seed=11, cutoff=4, guard_threshold=1.0
        )
        default = tj.run_ensemble(p, cfg)
        monkeypatch.setattr(tj, "CHUNK_SIZE", 7)
        chunked = tj.run_ensemble(p, cfg)
        assert sum(map(len, default.jump_records)) > 0
        assert chunked.jump_records == default.jump_records
        assert np.array_equal(chunked.mean_jumps, default.mean_jumps)
        np.testing.assert_allclose(chunked.rho_avg, default.rho_avg, rtol=1e-12)
        np.testing.assert_allclose(chunked.mean_survival, default.mean_survival, rtol=1e-12)
        np.testing.assert_allclose(chunked.survivals, default.survivals, rtol=1e-12)

    @pytest.mark.parametrize("index", [-1, 64])
    def test_trajectory_index_must_be_in_ensemble(self, std_params, fast_config, index):
        with pytest.raises(ValueError, match=r"traj_index .* \[0, 64\)"):
            tj.run_trajectory(std_params, fast_config, traj_index=index)


def numpy_blas_threads():
    """Reader of numpy's OpenBLAS thread count, or None for another BLAS."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
    ):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter
    return None


@pytest.fixture
def blas_threads():
    getter = numpy_blas_threads()
    if getter is None or tj._blas_thread_setter() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with openblas_set_num_threads_local")
    scipy.linalg.expm(np.eye(2))  # scipy's own OpenBLAS is loaded too, as in a run
    return getter


class RecordingSetter:
    """A stand-in for openblas_set_num_threads_local: one count for the process."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def __call__(self, count):
        self.calls.append(count)
        previous, self.count = self.count, count
        return previous


def criterion_8_thermal(cutoff):
    """The thermal ensemble of criterion 8, at this cutoff."""
    params = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
    config = tj.TrajectoryConfig(
        dt=0.001, t_final=1.0, n_traj=10_000, seed=4242, cutoff=cutoff,
        sample_every=200, guard_threshold=1.0,
    )
    return params, config


class TestBlasThreadLimit:
    @pytest.mark.parametrize("cutoff", [6, 8])
    def test_ensemble_equals_the_run_without_a_limit(self, monkeypatch, cutoff):
        params, config = criterion_8_thermal(cutoff)
        limited = tj.run_ensemble(params, config)
        monkeypatch.setattr(tj, "_blas_thread_setter", lambda: None)
        unlimited = tj.run_ensemble(params, config)
        assert sum(map(len, limited.jump_records)) > 0
        assert limited.jump_records == unlimited.jump_records
        assert np.array_equal(limited.survivals, unlimited.survivals)

    def test_single_trajectories_equal_the_runs_without_a_limit(
        self, monkeypatch, std_params, fast_config
    ):
        runs = [
            lambda: tj.run_trajectory(std_params, fast_config, traj_index=6),
            lambda: tj.postselect_no_jump(std_params, fast_config),
        ]
        limited = [run() for run in runs]
        monkeypatch.setattr(tj, "_blas_thread_setter", lambda: None)
        for run, expected in zip(runs, limited):
            result = run()
            assert result.jumps == expected.jumps
            assert result.survival == expected.survival
        assert limited[0].jumps

    def test_one_thread_while_stepping(self, blas_threads):
        params, config = criterion_8_thermal(6)
        config = tj.TrajectoryConfig(**{**vars(config), "n_traj": 256})
        engine = tj._Engine(params, config)
        counts = []
        engine.run_chunk(
            fs.basis_state(6, 0, 0), range(256), lambda *args: counts.append(blas_threads())
        )
        assert counts == [1] * config.n_samples

    def test_count_is_restored_after_a_return_and_a_raise(self, blas_threads):
        setter = tj._blas_thread_setter()
        before = setter(3)
        try:
            params, config = criterion_8_thermal(6)
            tj.run_ensemble(params, tj.TrajectoryConfig(**{**vars(config), "n_traj": 64}))
            assert blas_threads() == 3
            # a gain jump on a state with top-level weight (as in TestGuards)
            p = md.SystemParams(g=1e-300, gamma_a=1.0, gamma_b=0.0, eps=0.0, n_th=5.0)
            cfg = tj.TrajectoryConfig(dt=0.001, t_final=1.0, n_traj=64, seed=3, cutoff=3)
            psi0 = (fs.basis_state(3, 1, 0) + fs.basis_state(3, 2, 0)) / np.sqrt(2)
            with pytest.raises(TruncationGuardError):
                tj.run_ensemble(p, cfg, psi0)
            assert blas_threads() == 3
        finally:
            setter(before)

    @pytest.mark.parametrize("cutoff", [2, tj._ONE_THREAD_MAX_CUTOFF])
    def test_limit_covers_the_small_cutoffs(self, monkeypatch, std_params, cutoff):
        setter = RecordingSetter(5)
        monkeypatch.setattr(tj, "_blas_thread_setter", lambda: setter)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=0.1, n_traj=4, seed=0, cutoff=cutoff)
        tj.run_ensemble(std_params, cfg)
        tj.postselect_no_jump(std_params, cfg)
        assert setter.calls == [1, 5, 1, 5]

    @pytest.mark.parametrize("cutoff", [tj._ONE_THREAD_MAX_CUTOFF + 1, 14])
    def test_count_is_left_alone_above_the_crossover(self, monkeypatch, std_params, cutoff):
        setter = RecordingSetter(5)
        monkeypatch.setattr(tj, "_blas_thread_setter", lambda: setter)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=0.1, n_traj=4, seed=0, cutoff=cutoff)
        tj.run_ensemble(std_params, cfg)
        tj.run_trajectory(std_params, cfg)
        assert setter.calls == []

    def test_overlapping_ensembles_restore_the_count(self, monkeypatch, std_params):
        # the setter sets the count of the whole process, so the last of
        # several overlapping runs must restore what the first one found
        setter = RecordingSetter(5)
        monkeypatch.setattr(tj, "_blas_thread_setter", lambda: setter)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=0.2, n_traj=8, seed=0, cutoff=3)
        errors = []

        def run():
            try:
                for _ in range(5):
                    tj.run_ensemble(std_params, cfg)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert setter.count == 5
        assert setter.calls.count(1) == setter.calls.count(5) >= 1

    def test_overlapping_ensembles_equal_the_runs_in_series(self, monkeypatch):
        # chunks of 64, so the four ensembles' chunks interleave
        monkeypatch.setattr(tj, "CHUNK_SIZE", 64)
        params, config = criterion_8_thermal(6)
        configs = [
            tj.TrajectoryConfig(**{**vars(config), "n_traj": 256, "seed": seed, "cutoff": cutoff})
            for seed, cutoff in ((1, 3), (2, 6), (3, 8), (4, 6))
        ]

        def run(cfg):
            ensemble = tj.run_ensemble(params, cfg)
            return ensemble.jump_records, ensemble.survivals

        in_series = [run(cfg) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                overlapping = list(pool.map(run, configs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(sum(map(len, records)) > 0 for records, _ in in_series)
        for (records, survivals), (expected_records, expected) in zip(overlapping, in_series):
            assert records == expected_records
            assert np.array_equal(survivals, expected)

    def test_overlapping_chunks_step_on_one_thread(self, blas_threads):
        params, config = criterion_8_thermal(6)

        def run(cutoff):
            cfg = tj.TrajectoryConfig(**{**vars(config), "n_traj": 256, "cutoff": cutoff})
            counts = []
            tj._Engine(params, cfg).run_chunk(
                fs.basis_state(cutoff, 0, 0),
                range(256),
                lambda *args: counts.append(blas_threads()),
            )
            return counts

        setter = tj._blas_thread_setter()
        before = setter(3)
        try:
            with ThreadPoolExecutor(4) as pool:
                counts = list(pool.map(run, (3, 6, 8, 6), timeout=120))
            assert counts == [[1] * config.n_samples] * 4
            assert blas_threads() == 3
        finally:
            setter(before)


def run_logged(engine, psi0, indices):
    """run_chunk with a reducer that logs the states (n_samples, dim, batch)."""
    states = []
    jumps, survival = engine.run_chunk(
        psi0, indices, lambda i, batch, *_: states.append(batch.copy())
    )
    return {"jumps": jumps, "survival": survival, "states": np.stack(states)}


def reference_chunk(params, config, psi0, indices):
    """One trajectory at a time, one U_0 step per dt, as the module docstring says.

    Returns each trajectory's jump record, survival and normalized states at
    the sample times.
    """
    propagator = tj.no_jump_propagator(params, config.cutoff, config.dt)
    collapse = md.build_collapse_ops(params, config.cutoff)
    sample_steps = set(config.sample_steps)
    records, survivals, sampled = [], [], []
    for index in indices:
        rng = tj.philox_stream(config.seed, index)
        phi = psi0.astype(complex)
        threshold = rng.random()
        finished = 1.0  # norm^2 decays of the finished no-jump stretches
        record = []
        states = [phi]
        for step in range(1, config.n_steps + 1):
            phi = propagator @ phi
            norm2 = np.vdot(phi, phi).real
            if norm2 < threshold:
                w = np.array([np.vdot(c @ phi, c @ phi).real for c in collapse])
                channel = min(int(np.sum(np.cumsum(w) < rng.random() * w.sum())), len(w) - 1)
                finished *= norm2
                phi = collapse[channel] @ phi
                phi = phi / np.linalg.norm(phi)
                record.append((step * config.dt, channel))
                threshold = rng.random()
            if step in sample_steps:
                states.append(phi / np.linalg.norm(phi))
        records.append(record)
        survivals.append(finished * np.vdot(phi, phi).real)
        sampled.append(np.stack(states))
    return records, np.array(survivals), np.stack(sampled, axis=-1)


class TestEngineAlgorithm:
    def test_matches_reference_stepper(self):
        # d=3 thermal, 200 steps: jumps on all four channels, gain included
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.3, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=0.002, t_final=0.4, n_traj=8, seed=41, cutoff=3,
            sample_every=50, guard_threshold=1.0,
        )
        psi0 = fs.basis_state(3, 1, 0)
        out = run_logged(tj._Engine(p, cfg), psi0, range(8))
        records, survivals, states = reference_chunk(p, cfg, psi0, range(8))
        assert out["jumps"] == records
        assert {c for record in records for _, c in record} == {0, 1, 2, 3}
        np.testing.assert_allclose(out["survival"], survivals, rtol=1e-12)
        np.testing.assert_allclose(out["states"], states, rtol=1e-12, atol=1e-15)

    def test_matches_reference_stepper_when_rows_stop_at_different_levels(self):
        # sample intervals of 200 = 0b11001000 steps: a row that takes 128 and
        # 64 has 8 left and sits out levels 32 and 16, while a row whose jump
        # is nearer (it did not take 128 or 64) is still multiplied there
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=1e-3, t_final=0.6, n_traj=32, seed=23, cutoff=3,
            sample_every=200, guard_threshold=1.0,
        )
        psi0 = fs.basis_state(3, 0, 0)
        out = run_logged(tj._Engine(p, cfg), psi0, range(32))
        records, survivals, states = reference_chunk(p, cfg, psi0, range(32))
        assert out["jumps"] == records
        np.testing.assert_allclose(out["survival"], survivals, rtol=1e-12)
        np.testing.assert_allclose(out["states"], states, rtol=1e-12, atol=1e-15)

    def test_matches_reference_stepper_across_refills(self):
        # d=3 thermal over 2000 steps: every trajectory reads more than two
        # _DRAW_BLOCKs of uniforms (1 + 2 per jump), so the engine refills
        # each stream at least twice after its first block
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=0.005, t_final=10.0, n_traj=4, seed=5, cutoff=3,
            sample_every=500, guard_threshold=1.0,
        )
        psi0 = fs.basis_state(3, 0, 0)
        out = run_logged(tj._Engine(p, cfg), psi0, range(4))
        records, survivals, states = reference_chunk(p, cfg, psi0, range(4))
        assert min(1 + 2 * len(record) for record in records) > 2 * tj._DRAW_BLOCK
        assert out["jumps"] == records
        np.testing.assert_allclose(out["survival"], survivals, rtol=1e-12)
        np.testing.assert_allclose(out["states"], states, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("block", [7, 1000])
    def test_draw_block_does_not_change_results(self, monkeypatch, block):
        # blocks of 32 (the default), of 7 (not a divisor of it) and one
        # block longer than any stream is read here read the same streams
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=1e-3, t_final=0.3, n_traj=16, seed=12, cutoff=4,
            sample_every=50, guard_threshold=1.0,
        )
        psi0 = fs.basis_state(4, 0, 0)
        default = run_logged(tj._Engine(p, cfg), psi0, range(16))
        monkeypatch.setattr(tj, "_DRAW_BLOCK", block)
        blocked = run_logged(tj._Engine(p, cfg), psi0, range(16))
        assert sum(map(len, default["jumps"])) > 0
        assert blocked["jumps"] == default["jumps"]
        assert np.array_equal(blocked["survival"], default["survival"])
        assert np.array_equal(blocked["states"], default["states"])

    def test_random_number_memory_independent_of_steps(self):
        # 256 trajectories x 20000 steps x 2 draws would be 82 MB up front
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.3, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=1e-4, t_final=2.0, n_traj=256, seed=3, cutoff=2,
            sample_every=5000, guard_threshold=1.0,
        )
        assert cfg.n_steps == 20000
        engine = tj._Engine(p, cfg)
        tracemalloc.start()
        try:
            engine.run_chunk(fs.basis_state(2, 0, 0), range(256), lambda *sample: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_average_is_taken_in_place(self):
        # the sums are divided where they are; the average is no second stack
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=1e-3, t_final=2.0, n_traj=8, seed=1, cutoff=4,
            sample_every=1, guard_threshold=1.0,
        )
        assert cfg.n_samples == 2001
        stack = 16.0 * cfg.n_samples * 16**2  # one (n_samples, dim, dim) complex array
        tracemalloc.start()
        try:
            tj.run_ensemble(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * stack


class TestPhiloxUniforms:
    SEEDS = (0, 2**64 - 1)
    INDICES = (0, 2**63, 2**64 - 1)
    FIRST = (0, 1, 2, 3, 5, 17, 1000)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [1, 7, 32])
    def test_equals_generator_random(self, seed, count):
        # one vectorized call over every (index, first word) row, against each
        # stream read by numpy's own generator
        rows = [(index, first) for index in self.INDICES for first in self.FIRST]
        index = np.array([r[0] for r in rows], dtype=np.uint64)
        first = np.array([r[1] for r in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tj._philox_uniforms(seed, index, first, count)
        assert got.shape == (len(rows), count)
        for row, (i, w) in zip(got, rows):
            expected = tj.philox_stream(seed, i).random(w + count)[w:]
            assert np.array_equal(row, expected), (seed, i, w)

    def test_draws_continue_each_stream(self):
        # streams 3 and 5 read past their first block while stream 4 waits
        draws = tj._Draws(9, range(3, 6))
        n = tj._DRAW_BLOCK + 3
        taken = np.array([draws.next(np.array([0, 2])) for _ in range(n)])
        late = draws.next(np.array([1, 2]))
        assert np.array_equal(taken[:, 0], tj.philox_stream(9, 3).random(n))
        assert np.array_equal(taken[:, 1], tj.philox_stream(9, 5).random(n))
        assert late[0] == tj.philox_stream(9, 4).random()
        assert late[1] == tj.philox_stream(9, 5).random(n + 1)[n]


class TestNormBookkeeping:
    def test_survival_matches_reference_stepper(self, std_params, fast_config):
        result = tj.run_trajectory(std_params, fast_config, traj_index=2)
        psi0 = fs.basis_state(6, 0, 0)
        records, survivals, _ = reference_chunk(std_params, fast_config, psi0, [2])
        assert result.jumps == records[0]
        assert result.survival == pytest.approx(survivals[0], rel=1e-10)
        assert 0.0 < result.survival <= 1.0

    def test_postselected_matches_exponential_evolution(self, std_params):
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=1, seed=0, cutoff=6)
        post = tj.postselect_no_jump(std_params, cfg)
        h_nh = md.build_h_nh(std_params, 6)
        reference = sp.mat_exp(-1j * h_nh * 1.0) @ fs.basis_state(6, 0, 0)
        reference /= np.linalg.norm(reference)
        assert np.linalg.norm(post.final_state - reference) < 1e-8

    def test_postselected_survival_is_propagated_norm(self, std_params):
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=1, seed=0, cutoff=6)
        post = tj.postselect_no_jump(std_params, cfg)
        propagated = sp.mat_exp(-1j * md.build_h_nh(std_params, 6) * 1.0) @ fs.basis_state(6, 0, 0)
        assert post.survival == pytest.approx(np.vdot(propagated, propagated).real, rel=1e-10)

    def test_closed_system_postselection_equals_trajectory(self):
        # no channel can fire, so the two paths step the same record
        p = md.SystemParams(g=1.0, gamma_a=0.0, gamma_b=0.0, eps=0.0, n_th=0.0)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=1, seed=5, cutoff=3)
        psi0 = fs.basis_state(3, 1, 0)
        post = tj.postselect_no_jump(p, cfg, psi0)
        single = tj.run_trajectory(p, cfg, psi0)
        assert single.jumps == []
        assert np.array_equal(post.sampled_states, single.sampled_states)
        assert np.array_equal(post.final_state, single.final_state)
        # survival is a product of norm^2 decays, 1 up to rounding here
        assert post.survival == single.survival == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_postselection_survives_norm_underflow(self):
        # over the 16-step skip the norm^2 (e^-1600) underflows; the uniform
        # decay leaves the exchange oscillation cos t |1,0> - i sin t |0,1>
        p = md.SystemParams(g=1.0, gamma_a=50.0, gamma_b=50.0)
        cfg = tj.TrajectoryConfig(
            dt=1.0, t_final=16.0, n_traj=1, seed=1, cutoff=3, sample_every=16
        )
        post = tj.postselect_no_jump(p, cfg, fs.basis_state(3, 1, 0))
        t = cfg.t_final
        expected = np.cos(t) * fs.basis_state(3, 1, 0) - 1j * np.sin(t) * fs.basis_state(3, 0, 1)
        np.testing.assert_allclose(post.final_state, expected, atol=1e-12)
        assert post.survival == 0.0

    def test_postselection_underflow_within_one_step_raises(self):
        p = md.SystemParams(g=1.0, gamma_a=50.0, gamma_b=50.0)
        cfg = tj.TrajectoryConfig(
            dt=8.0, t_final=16.0, n_traj=1, seed=1, cutoff=3, sample_every=2
        )
        with pytest.raises(NumericalError, match="decrease dt"):
            tj.postselect_no_jump(p, cfg, fs.basis_state(3, 1, 0))

    @pytest.mark.filterwarnings("error")
    def test_jump_underflow_within_one_step_raises(self):
        # one step (e^-800) underflows norm^2 before the jump it leads to
        p = md.SystemParams(g=1.0, gamma_a=50.0, gamma_b=50.0)
        cfg = tj.TrajectoryConfig(
            dt=8.0, t_final=16.0, n_traj=1, seed=1, cutoff=6, sample_every=2
        )
        with pytest.raises(NumericalError, match="decrease dt"):
            tj.run_trajectory(p, cfg, fs.basis_state(6, 1, 0))


class TestJumpStatistics:
    def test_closed_system_never_jumps(self):
        p = md.SystemParams(g=1.0, gamma_a=0.0, gamma_b=0.0, eps=0.0)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=16, seed=5, cutoff=3)
        ensemble = tj.run_ensemble(p, cfg, fs.basis_state(3, 1, 0))
        assert all(not jumps for jumps in ensemble.jump_records)
        # unitary evolution under the coupling: exchange oscillation intact
        final = ensemble.rho_avg[-1]
        expected_psi = sp.mat_exp(
            -1j * md.build_hamiltonian(p, 3) * 1.0
        ) @ fs.basis_state(3, 1, 0)
        expected = np.outer(expected_psi, expected_psi.conj())
        assert tj.trace_distance(final, expected) < 1e-10

    def test_single_mode_zero_or_one_jump(self):
        p = md.SystemParams(g=1e-300, gamma_a=1.0, gamma_b=0.0, eps=0.0)
        cfg = tj.TrajectoryConfig(dt=0.005, t_final=3.0, n_traj=2000, seed=31, cutoff=2, sample_every=200)
        ensemble = tj.run_ensemble(p, cfg, fs.basis_state(2, 1, 0))
        counts = {len(j) for j in ensemble.jump_records}
        assert counts <= {0, 1}
        times = np.sort([j[0][0] for j in ensemble.jump_records if j])
        empirical_hi = np.arange(1, len(times) + 1) / cfg.n_traj
        empirical_lo = np.arange(len(times)) / cfg.n_traj
        theory = 1.0 - np.exp(-2.0 * times)
        ks = max(
            np.max(np.abs(empirical_hi - theory)),
            np.max(np.abs(empirical_lo - theory)),
        )
        assert ks <= 0.05  # 2000 trajectories; the acceptance run tightens this

    def test_drive_increases_jump_rate(self):
        # photon emission rate grows with the drive amplitude
        means = []
        for eps in (0.0, 0.5, 1.0):
            p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=eps)
            cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=400, seed=77, cutoff=6, sample_every=100)
            means.append(tj.run_ensemble(p, cfg).mean_jumps[-1])
        assert means[0] < means[1] < means[2]


class TestGuards:
    @pytest.mark.parametrize("run", [tj.run_ensemble, tj.postselect_no_jump])
    def test_coarse_step_runs(self, run):
        # dt * 2 * gamma = 0.06 per step: the waiting-time unraveling has no
        # bound on the jump probability per step
        p = md.SystemParams(g=1e-300, gamma_a=3.0, gamma_b=0.0, eps=0.0)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=0.1, n_traj=4, seed=1, cutoff=3)
        run(p, cfg, fs.basis_state(3, 1, 0))  # completes

    def test_coarse_step_jump_times_are_exponential(self):
        # jump times are the grid times at or after the jump, so their CDF is
        # compared with 1 - exp(-2 gamma t) at the grid times
        p = md.SystemParams(g=1e-300, gamma_a=3.0, gamma_b=0.0, eps=0.0)
        cfg = tj.TrajectoryConfig(
            dt=0.01, t_final=1.5, n_traj=2000, seed=1, cutoff=3, sample_every=150
        )
        ensemble = tj.run_ensemble(p, cfg, fs.basis_state(3, 1, 0))
        assert all(len(j) <= 1 for j in ensemble.jump_records)
        times = np.sort([j[0][0] for j in ensemble.jump_records if j])
        grid = cfg.dt * np.arange(1, cfg.n_steps + 1)
        empirical = np.searchsorted(times, grid + 0.5 * cfg.dt) / cfg.n_traj
        ks = np.max(np.abs(empirical - (1.0 - np.exp(-2.0 * 3.0 * grid))))
        assert ks <= 0.05

    def test_truncation_guard_on_creation_jump(self):
        # a gain jump fired on a state with top-level weight must abort
        p = md.SystemParams(g=1e-300, gamma_a=1.0, gamma_b=0.0, eps=0.0, n_th=5.0)
        cfg = tj.TrajectoryConfig(dt=0.001, t_final=1.0, n_traj=64, seed=3, cutoff=3)
        psi0 = (fs.basis_state(3, 1, 0) + fs.basis_state(3, 2, 0)) / np.sqrt(2)
        with pytest.raises(TruncationGuardError, match="creation jump on channel 1 "):
            tj.run_ensemble(p, cfg, psi0)

    def test_truncation_guard_on_mode_b_creation_jump(self):
        # the same on mode b: its gain channel is channel 3
        p = md.SystemParams(g=1e-300, gamma_a=0.0, gamma_b=1.0, eps=0.0, n_th=5.0)
        cfg = tj.TrajectoryConfig(dt=0.001, t_final=1.0, n_traj=64, seed=3, cutoff=3)
        psi0 = (fs.basis_state(3, 0, 1) + fs.basis_state(3, 0, 2)) / np.sqrt(2)
        with pytest.raises(TruncationGuardError, match="creation jump on channel 3 "):
            tj.run_ensemble(p, cfg, psi0)

    @given(
        params=valid_params(),
        n_th=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
        d=st.integers(2, 8),
    )
    def test_engine_channels_match_their_references(self, params, n_th, d):
        # operators, jump weights and guards against their channel-by-channel forms
        p = params.with_(n_th=n_th)
        cfg = tj.TrajectoryConfig(dt=0.1, t_final=0.1, n_traj=1, seed=0, cutoff=d)
        engine = tj._Engine(p, cfg)
        collapse = md.build_collapse_ops(p, d)
        assert len(engine.collapse) == len(collapse)
        for built, c, weight in zip(engine.collapse, collapse, engine.weights):
            np.testing.assert_array_equal(built, c)
            np.testing.assert_allclose(weight, np.diag(fs.dagger(c) @ c).real, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(engine.guards, reference_top_level_masks(p, d))

    def test_guard_threshold_override(self):
        p = md.SystemParams(g=1e-300, gamma_a=1.0, gamma_b=0.0, eps=0.0, n_th=5.0)
        cfg = tj.TrajectoryConfig(
            dt=0.001, t_final=0.1, n_traj=16, seed=3, cutoff=3, guard_threshold=1.0
        )
        psi0 = (fs.basis_state(3, 1, 0) + fs.basis_state(3, 2, 0)) / np.sqrt(2)
        ensemble = tj.run_ensemble(p, cfg, psi0)  # completes
        assert ensemble.rho_avg.shape[0] == len(cfg.sample_steps)

    def test_initial_state_must_be_normalized(self, std_params, fast_config):
        with pytest.raises(ValueError):
            tj.run_trajectory(std_params, fast_config, 2.0 * fs.basis_state(6, 0, 0))


def reference_top_level_masks(params, d):
    """(channel, basis state): 1.0 on the top level each gain channel (1 and 3) guards."""
    ops = fs.FockCutoff(d).ops
    none = np.zeros(d * d, dtype=bool)
    if params.n_th == 0.0:
        return np.array([none, none], dtype=float)
    return np.array([none, ops.occ_a == d - 1, none, ops.occ_b == d - 1], dtype=float)


class TestEnsembleVsMaster:
    def test_master_propagate_single_mode_decay(self):
        p = md.SystemParams(g=1e-300, gamma_a=0.5, gamma_b=0.0, eps=0.0)
        rho0 = np.outer(fs.basis_state(2, 1, 0), fs.basis_state(2, 1, 0).conj())
        times = np.array([0.0, 0.5, 1.0])
        rhos = tj.master_propagate(p, 2, rho0, times)
        i1 = fs.fock_index(2, 1, 0)
        for t, rho in zip(times, rhos):
            assert rho[i1, i1].real == pytest.approx(np.exp(-2 * 0.5 * t), abs=1e-10)

    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    def test_master_propagate_matches_dense_expm(self, std_params, n_th):
        p = std_params.with_(n_th=n_th)  # driven, eps = 1
        psi = (fs.basis_state(4, 0, 0) + fs.basis_state(4, 1, 2)) / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        times = np.array([0.0, 0.0, 0.2, 0.5, 1.7, 4.0])
        rhos = tj.master_propagate(p, 4, rho0, times)
        gen = lv.build_liouvillian(p, 4).matrix
        for t, rho in zip(times, rhos):
            exact = lv.unvec(scipy.linalg.expm(gen * t) @ lv.vec(rho0))
            np.testing.assert_allclose(rho, exact, rtol=0, atol=1e-12)

    def test_master_propagate_leaves_global_random_state(self, thermal_params):
        # long gaps are split so expm_multiply never falls back to onenormest
        rho0 = np.outer(fs.basis_state(4, 1, 0), fs.basis_state(4, 1, 0))
        np.random.seed(3)
        before = np.random.get_state()[1].copy()
        a = tj.master_propagate(thermal_params, 4, rho0, np.array([0.0, 6.0]))
        np.testing.assert_array_equal(np.random.get_state()[1], before)
        b = tj.master_propagate(thermal_params, 4, rho0, np.array([0.0, 6.0]))
        np.testing.assert_array_equal(a, b)

    def test_substep_limit_counts_the_whole_grid(self, std_params, monkeypatch):
        # five gaps of 0.2 take one sub-step each at cutoff 3
        rho0 = np.outer(fs.basis_state(3, 1, 0), fs.basis_state(3, 1, 0))
        times = np.arange(6) * 0.2
        monkeypatch.setattr(tj, "MAX_MASTER_SUBSTEPS", 5)
        tj.master_propagate(std_params, 3, rho0, times)
        monkeypatch.setattr(tj, "MAX_MASTER_SUBSTEPS", 4)
        with pytest.raises(NumericalError, match=r"needs 5 expm_multiply sub-steps .* limit of 4$"):
            tj.master_propagate(std_params, 3, rho0, times)

    def test_stiff_generator_is_refused_before_any_substep(self, std_params, monkeypatch):
        # gamma_a = 1e8 gives ||L||_1 = 8e8: 26666670 sub-steps of gap * ||L||_1 <= 30
        import scipy.sparse.linalg

        def unreachable(*args):
            raise AssertionError("expm_multiply was called")

        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", unreachable)
        rho0 = np.outer(fs.basis_state(3, 1, 0), fs.basis_state(3, 1, 0))
        with pytest.raises(NumericalError, match=r"needs 26666670 expm_multiply sub-steps"):
            tj.master_propagate(std_params.with_(gamma_a=1e8), 3, rho0, np.arange(6) * 0.2)

    def test_stiff_generator_is_refused_before_the_ensemble(self, std_params, monkeypatch):
        def unreachable(*args):
            raise AssertionError("run_ensemble was called")

        monkeypatch.setattr(tj, "run_ensemble", unreachable)
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=100_000, seed=0, cutoff=6)
        with pytest.raises(NumericalError, match=r"expm_multiply sub-steps"):
            tj.ensemble_vs_master(std_params.with_(gamma_a=1e8), cfg)

    def test_trace_distance_basics(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert tj.trace_distance(rho, rho) == 0.0
        pure0 = np.diag([1.0, 0.0]).astype(complex)
        pure1 = np.diag([0.0, 1.0]).astype(complex)
        assert tj.trace_distance(pure0, pure1) == pytest.approx(1.0)

    def test_small_ensemble_tracks_master(self, std_params):
        cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=500, seed=2024, cutoff=6, sample_every=25)
        report = tj.ensemble_vs_master(std_params, cfg)
        assert report.trace_distances[0] < 1e-12
        assert report.trace_distances.max() < 0.1
        assert report.ensemble.config.seed == 2024
        for rho in report.ensemble.rho_avg:  # averaged states keep unit trace
            assert abs(np.trace(rho) - 1.0) < 1e-8

    def test_convergence_with_ensemble_size(self, std_params):
        # trace distance decreases with trajectory count (allowing noise bands)
        distances = []
        for n_traj in (100, 1000):
            cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=n_traj, seed=6, cutoff=6, sample_every=100)
            distances.append(tj.ensemble_vs_master(std_params, cfg).trace_distances[-1])
        assert distances[1] < distances[0]
