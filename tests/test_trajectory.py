import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from epsim import fockspace as fs
from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp
from epsim import trajectory as tj
from epsim.errors import NumericalError, TruncationGuardError


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
        whole = engine.run_chunk(psi0, range(0, 64))
        left = engine.run_chunk(psi0, range(0, 29))
        right = engine.run_chunk(psi0, range(29, 64))
        assert whole["jumps"] == left["jumps"] + right["jumps"]
        np.testing.assert_allclose(
            whole["survival"],
            np.concatenate([left["survival"], right["survival"]]),
            rtol=1e-12,
        )


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
        out = tj._Engine(p, cfg).run_chunk(psi0, range(8), record=True)
        records, survivals, states = reference_chunk(p, cfg, psi0, range(8))
        assert out["jumps"] == records
        assert {c for record in records for _, c in record} == {0, 1, 2, 3}
        np.testing.assert_allclose(out["survival"], survivals, rtol=1e-12)
        np.testing.assert_allclose(out["states"], states, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("block", [7, 1000])
    def test_draw_block_does_not_change_results(self, monkeypatch, block):
        # blocks of 16 (the default), of 7 (not a divisor of it) and one
        # block longer than any stream is read here read the same streams
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        cfg = tj.TrajectoryConfig(
            dt=1e-3, t_final=0.3, n_traj=16, seed=12, cutoff=4,
            sample_every=50, guard_threshold=1.0,
        )
        psi0 = fs.basis_state(4, 0, 0)
        default = tj._Engine(p, cfg).run_chunk(psi0, range(16))
        monkeypatch.setattr(tj, "_DRAW_BLOCK", block)
        blocked = tj._Engine(p, cfg).run_chunk(psi0, range(16))
        assert sum(map(len, default["jumps"])) > 0
        assert blocked["jumps"] == default["jumps"]
        assert np.array_equal(blocked["survival"], default["survival"])
        assert np.array_equal(blocked["rho_sum"], default["rho_sum"])

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
            engine.run_chunk(fs.basis_state(2, 0, 0), range(256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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
        with pytest.raises(TruncationGuardError):
            tj.run_ensemble(p, cfg, psi0)

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
        assert report.seed == 2024
        for rho in report.rho_trajectories:  # averaged states keep unit trace
            assert abs(np.trace(rho) - 1.0) < 1e-8

    def test_convergence_with_ensemble_size(self, std_params):
        # trace distance decreases with trajectory count (allowing noise bands)
        distances = []
        for n_traj in (100, 1000):
            cfg = tj.TrajectoryConfig(dt=0.01, t_final=1.0, n_traj=n_traj, seed=6, cutoff=6, sample_every=100)
            distances.append(tj.ensemble_vs_master(std_params, cfg).trace_distances[-1])
        assert distances[1] < distances[0]
