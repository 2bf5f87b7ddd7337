import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_multiset_close, valid_params
from epsim import fockspace as fs
from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp
from epsim.errors import InvalidDensityMatrixError, SpectrumWitnessError
from epsim.fockspace import Mode


class TestVectorization:
    def test_column_stacking_roundtrip(self):
        rng = np.random.default_rng(0)
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(lv.unvec(lv.vec(rho)), rho)

    def test_sandwich_identity(self):
        # vec(A rho B) = (B^T kron A) vec(rho) under column stacking
        rng = np.random.default_rng(1)
        a, b, rho = (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(3)
        )
        lhs = lv.vec(a @ rho @ b)
        rhs = np.kron(b.T, a) @ lv.vec(rho)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestGenerator:
    @given(params=valid_params(), seed=st.integers(0, 10**6))
    def test_trace_annihilation(self, params, seed):
        gen = lv.build_liouvillian(params, 3)
        rng = np.random.default_rng(seed)
        rho = lv.interior_density_matrix(3, rng)
        assert abs(np.trace(gen.apply(rho))) < 1e-10
        # zero row-sum condition: the identity functional annihilates L
        assert np.max(np.abs(lv.vec(np.eye(9)) @ gen.matrix)) < 1e-10

    def test_trace_annihilation_many_random_states(self, std_params):
        gen = lv.build_liouvillian(std_params, 4)
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = lv.interior_density_matrix(4, rng, margin=0)
            assert abs(np.trace(gen.apply(rho))) < 1e-10

    def test_single_lossy_mode_vacuum_stationary(self):
        p = md.SystemParams(g=1e-300, gamma_a=1.0, gamma_b=0.0, eps=0.0)
        gen = lv.build_liouvillian(p, 3)
        vacuum = np.zeros((9, 9), dtype=complex)
        vacuum[0, 0] = 1.0
        assert np.max(np.abs(gen.apply(vacuum))) < 1e-14

    @given(params=valid_params())
    def test_two_assemblies_agree(self, params):
        a = lv.build_liouvillian(params, 3).matrix
        b = lv.build_liouvillian_from_hnh(params, 3).matrix
        np.testing.assert_allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))

    @given(params=valid_params(), seed=st.integers(0, 10**6))
    def test_hermiticity_preservation(self, params, seed):
        gen = lv.build_liouvillian(params, 3)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        herm = raw + raw.conj().T
        out = gen.apply(herm)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-11)


def dense_generator(params, d, from_hnh=False):
    """The generator assembled densely with np.kron, term by term."""
    eye = np.eye(d * d, dtype=complex)

    def left(x):
        return np.kron(eye, x)

    def right(x):
        return np.kron(x.T, eye)

    if from_hnh:
        h_nh = md.build_h_nh(params, d)
        gen = -1j * (left(h_nh) - right(fs.dagger(h_nh)))
        for c in md.build_collapse_ops(params, d):
            gen += np.kron(c.conj(), c)
        return gen
    h = md.build_hamiltonian(params, d)
    gen = -1j * (left(h) - right(h))
    for c in md.build_collapse_ops(params, d):
        cdc = fs.dagger(c) @ c
        gen += np.kron(c.conj(), c) - 0.5 * (left(cdc) + right(cdc))
    return gen


class TestSparseAssembly:
    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    @pytest.mark.parametrize("from_hnh", [False, True])
    def test_equals_dense_kron_reference(self, from_hnh, n_th):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=n_th)
        build = lv.build_liouvillian_from_hnh if from_hnh else lv.build_liouvillian
        gen = build(p, 3)
        assert gen.csr.format == "csr"
        assert gen.hilbert_dim == 9
        np.testing.assert_array_equal(gen.matrix, dense_generator(p, 3, from_hnh))

    def test_apply_matches_dense_product(self, thermal_params):
        gen = lv.build_liouvillian(thermal_params, 3)
        rho = lv.interior_density_matrix(3, np.random.default_rng(5), margin=0)
        np.testing.assert_allclose(
            gen.apply(rho), lv.unvec(gen.matrix @ lv.vec(rho)), atol=1e-13
        )


@dataclass
class SectorSpectrum:
    """Eigenpairs of a generator that is block-diagonal in k, sector by sector.

    eigenvalues is the union of the sector spectra in ascending k; sectors[i]
    is the position (in that order) of the sector that eigenvalue i comes
    from. blocks[s] holds that sector's vec(rho) positions and its residual-
    checked spectrum, whose eigenvectors live on those positions only.
    """

    eigenvalues: np.ndarray
    sectors: np.ndarray
    blocks: list[tuple[np.ndarray, sp.Spectrum]]
    norm: float  # Frobenius norm of the whole generator

    def vector(self, i: int) -> np.ndarray:
        """Eigenvector of eigenvalue i, on its own sector's positions."""
        s = int(self.sectors[i])
        first = int(np.searchsorted(self.sectors, s))
        return self.blocks[s][1].eigenvectors[:, i - first]


def sector_spectrum(gen):
    """Dense reference: every sector block diagonalized with sp.eig."""
    labels = lv.sector_labels(math.isqrt(gen.hilbert_dim))
    blocks = []
    for k in np.unique(labels):
        block = lv.sector_block(gen, int(k)).toarray()
        blocks.append((np.flatnonzero(labels == k), sp.eig(block, want_vectors=True)))
    sizes = [len(idx) for idx, _ in blocks]
    return SectorSpectrum(
        eigenvalues=np.concatenate([spec.eigenvalues for _, spec in blocks]),
        sectors=np.repeat(np.arange(len(blocks)), sizes),
        blocks=blocks,
        norm=float(np.linalg.norm(gen.csr.data)),
    )


class TestSectors:
    def test_sector_count_and_sizes(self):
        sizes = sorted(np.unique(lv.sector_labels(6), return_counts=True)[1])
        assert len(sizes) == 21 and sizes[-1] == 146 and sum(sizes) == 36**2

    def test_labels_follow_column_stacking(self):
        labels = lv.unvec(lv.sector_labels(3).astype(complex)).real
        n_op = fs.number_op(3)
        n_total = np.diag(fs.embed(n_op, Mode.A, 3) + fs.embed(n_op, Mode.B, 3)).real
        np.testing.assert_array_equal(labels, n_total[:, None] - n_total[None, :])

    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    def test_off_sector_entries_vanish_only_without_drive(self, n_th):
        labels = lv.sector_labels(4)
        off = labels[:, None] != labels[None, :]
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0, n_th=n_th)
        assert np.all(lv.build_liouvillian(p, 4).matrix[off] == 0.0)
        driven = lv.build_liouvillian(p.with_(eps=0.3), 4).matrix
        assert np.any(driven[off] != 0.0)

    def test_driven_generator_rejected(self, std_params):
        with pytest.raises(SpectrumWitnessError):
            sector_spectrum(lv.build_liouvillian(std_params, 3))

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_sector_block_rejects_entries_between_sectors(self, std_params, k):
        with pytest.raises(SpectrumWitnessError, match=f"sector {k} "):
            lv.sector_block(lv.build_liouvillian(std_params, 3), k)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_sector_block_is_the_generator_restricted(self, thermal_params, k):
        gen = lv.build_liouvillian(thermal_params.with_(eps=0.0), 4)
        idx = np.flatnonzero(lv.sector_labels(4) == k)
        block = lv.sector_block(gen, k)
        assert block.format == "csc"
        np.testing.assert_array_equal(block.toarray(), gen.matrix[np.ix_(idx, idx)])

    def test_vectors_are_eigenvectors_of_the_generator(self, thermal_params):
        gen = lv.build_liouvillian(thermal_params.with_(eps=0.0), 3)
        spectrum = sector_spectrum(gen)
        dense = gen.matrix
        for i in range(0, len(spectrum.eigenvalues), 7):
            idx, _ = spectrum.blocks[spectrum.sectors[i]]
            v = np.zeros(81, dtype=complex)
            v[idx] = spectrum.vector(i)
            residual = dense @ v - spectrum.eigenvalues[i] * v
            assert np.linalg.norm(residual) < 1e-9 * spectrum.norm


class TestMomentCheck:
    def test_vacuum_drive_only(self, std_params):
        vacuum = np.zeros((16, 16), dtype=complex)
        vacuum[0, 0] = 1.0
        chk = lv.moment_rhs_check(std_params, 4, vacuum)
        assert chk.lhs[0] == pytest.approx(-std_params.eps, abs=1e-12)
        assert chk.max_abs_diff < 1e-10

    def test_coherent_like_state(self, std_params):
        # |phi> = sqrt(0.9)|00> + sqrt(0.1)|10> has <a> = 0.3 exactly
        phi = np.sqrt(0.9) * fs.basis_state(4, 0, 0) + np.sqrt(0.1) * fs.basis_state(4, 1, 0)
        rho = np.outer(phi, phi.conj())
        chk = lv.moment_rhs_check(std_params, 4, rho)
        assert np.trace(fs.mode_annihilation(Mode.A, 4) @ rho) == pytest.approx(0.3)
        assert chk.lhs[0] == pytest.approx(
            -std_params.gamma_a * 0.3 - std_params.eps, abs=1e-12
        )

    def test_thermal_first_moments_identical(self, std_params):
        rng = np.random.default_rng(2)
        rho = lv.interior_density_matrix(5, rng)
        cold = lv.moment_rhs_check(std_params, 5, rho)
        hot = lv.moment_rhs_check(std_params.with_(n_th=0.3), 5, rho)
        np.testing.assert_allclose(cold.lhs, hot.lhs, atol=1e-10)

    @given(params=valid_params(), seed=st.integers(0, 10**6))
    def test_closure_for_every_thermal_occupation(self, params, seed):
        rng = np.random.default_rng(seed)
        rho = lv.interior_density_matrix(4, rng)
        assert lv.moment_rhs_check(params, 4, rho).max_abs_diff < 1e-8

    def test_invalid_state_rejected(self, std_params):
        with pytest.raises(InvalidDensityMatrixError):
            lv.moment_rhs_check(std_params, 3, np.eye(9, dtype=complex))


class TestDynamicalMatrix:
    def test_exact_entries(self, std_params):
        np.testing.assert_array_equal(
            lv.dynamical_matrix(std_params), [[-2.5j, 1.0], [1.0, -1.5j]]
        )

    @given(n_th=st.floats(0.0, 2.0, allow_nan=False))
    def test_independent_of_thermal_occupation(self, n_th):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0)
        np.testing.assert_array_equal(
            lv.dynamical_matrix(p),
            lv.dynamical_matrix(p.with_(n_th=n_th)),
        )

    def test_lambda_pm_closed_form(self, std_params):
        lam_p, lam_m = lv.lambda_pm(std_params)
        assert lam_p == pytest.approx(0.8660254037844386 - 2j)
        assert lam_m == pytest.approx(-0.8660254037844386 - 2j)

    @given(params=valid_params(min_g=0.5))
    def test_closed_forms_match_numerics(self, params):
        der = md.derive(params.with_(n_th=0.0))
        if abs(der.omega_p) < 0.05:  # eigenvectors ill-conditioned at the EP
            return
        spec = sp.eig(lv.dynamical_matrix(params))
        lam_p, lam_m = lv.lambda_pm(params)
        v_p, v_m = lv.v_pm(params)
        i_p = int(np.argmin(np.abs(spec.eigenvalues - lam_p)))
        i_m = int(np.argmin(np.abs(spec.eigenvalues - lam_m)))
        assert abs(spec.eigenvalues[i_p] - lam_p) < 1e-12
        assert abs(spec.eigenvalues[i_m] - lam_m) < 1e-12
        assert sp.principal_angle(spec.eigenvectors[:, i_p], v_p) < 1e-8
        assert sp.principal_angle(spec.eigenvectors[:, i_m], v_m) < 1e-8

    @pytest.mark.parametrize("n_th", [0.0, 0.1, 0.2])
    def test_closed_forms_take_the_unscaled_frame(self, n_th):
        # the first moments see the unscaled rates whatever n_th is
        cold = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0)
        p = cold.with_(n_th=n_th)
        gamma, kappa = 2.0, 0.5
        omega = np.sqrt(1.0 - kappa * kappa)
        assert lv.lambda_pm(p) == lv.lambda_pm(cold)
        assert lv.lambda_pm(p) == pytest.approx((omega - 1j * gamma, -omega - 1j * gamma))
        for v, v_cold, sign in zip(lv.v_pm(p), lv.v_pm(cold), (1, -1)):
            np.testing.assert_array_equal(v, v_cold)
            closed = np.array([sign * omega - 1j * kappa, 1.0])
            np.testing.assert_allclose(v, closed / np.linalg.norm(closed), rtol=1e-15)
        targets = lv.liouvillian_spectrum_check(p, 3).targets
        np.testing.assert_array_equal(targets, lv.liouvillian_spectrum_check(cold, 3).targets)
        np.testing.assert_allclose(
            targets, [-gamma + 1j * omega, -gamma - 1j * omega], rtol=1e-15
        )

    def test_coalescence_at_ep(self):
        p = md.SystemParams.from_mean_split(1.0, 2.0, 1.0)
        lam_p, lam_m = lv.lambda_pm(p)
        assert lam_p == lam_m == -2j
        v_p, v_m = lv.v_pm(p)
        assert sp.principal_angle(v_p, v_m) < 1e-12


class TestSpectrumWitness:
    def test_moment_sector_present(self):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0)
        witness = lv.liouvillian_spectrum_check(p, 4)
        np.testing.assert_allclose(
            witness.targets, [-2.0 + 0.8660254037844386j, -2.0 - 0.8660254037844386j]
        )
        assert witness.distances.max() < 1e-6
        assert witness.zero_mode_distance < 1e-10

    def test_degenerate_pair_without_coalescence_not_flagged(self):
        # away from the EP the -gamma +- i*Omega modes are doubly degenerate
        # (ket- and bra-side sectors) with orthogonal eigenmatrices
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0)
        witness = lv.liouvillian_spectrum_check(p, 4)
        assert witness.distances.max() <= 1e-6
        assert not witness.degenerate_pair_flagged

    def test_jordan_pair_flagged_at_ep(self):
        p = md.SystemParams.from_mean_split(1.0, 2.0, 1.0, eps=0.0)
        witness = lv.liouvillian_spectrum_check(p, 4)
        assert witness.distances.max() <= 1e-6
        assert witness.cluster_size >= 2
        assert witness.degenerate_pair_flagged

    def test_drive_leaves_generator_spectrum(self, std_params):
        # the drive enters the moment dynamics only as the affine term
        gen = lv.build_liouvillian(std_params.with_(eps=0.1), 6).matrix
        der = md.derive(std_params)
        vals = np.linalg.eigvals(gen)
        for target in (-der.gamma_p + 1j * der.omega_p, -der.gamma_p - 1j * der.omega_p):
            assert np.min(np.abs(vals - target)) < 1e-10

    def test_cutoff_guard(self, std_params):
        # the first cutoff whose memory estimate exceeds the budget
        over = next(d for d in range(2, 100) if lv.witness_peak_bytes(d) > lv.WITNESS_MEMORY_BUDGET)
        assert over > 16
        with pytest.raises(ValueError, match=f"cutoff d={over} .* MB"):
            lv.liouvillian_spectrum_check(std_params, over)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_peak_estimate_counts_exact_sizes(self, d):
        # the driven thermal generator's entries and the k = 0 block size
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0, n_th=0.2)
        entries = lv.build_liouvillian(p, d).csr.nnz
        block = lv.sector_block(lv.build_liouvillian(p.with_(eps=0.0), d), 0).shape[0]
        assert lv.witness_peak_bytes(d) == pytest.approx(
            20.0 * (lv._GENERATOR_COPIES * entries + block**1.75), rel=1e-12
        )

    def test_thermal_witness_converges_in_the_cutoff(self):
        p = md.SystemParams.from_mean_split(1.0, 2.0, 1.0, eps=0.0, n_th=0.2)
        distances = [
            lv.liouvillian_spectrum_check(p, d).distances.max() for d in (6, 8, 12, 16)
        ]
        assert all(b < a for a, b in zip(distances, distances[1:])), distances
        assert distances[-1] < 1e-4

    def test_thermal_witness_truncation_limited(self):
        # gain channels couple the moment sector to the truncation boundary,
        # so the containment misses the optical bound 1e-6 at small cutoffs
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0, n_th=0.2)
        witness = lv.liouvillian_spectrum_check(p, 4)
        assert 1e-6 < witness.distances.max() < 0.5


def dense_witness(params, d, by_sector=False):
    """The spectrum witness from dense eigensolves of the whole generator.

    With by_sector, the eigenpairs come from sector_spectrum, its vectors
    zero-padded onto every vec(rho) position.
    """
    der = md.derive(params.with_(n_th=0.0))
    gen = lv.build_liouvillian(params.with_(eps=0.0), d)
    if by_sector:
        spectrum = sector_spectrum(gen)
        values, norm = spectrum.eigenvalues, spectrum.norm
        vectors = np.zeros((values.size, values.size), dtype=complex)
        for i in range(values.size):
            vectors[spectrum.blocks[spectrum.sectors[i]][0], i] = spectrum.vector(i)
    else:
        matrix = gen.matrix
        values, vectors = np.linalg.eig(matrix)
        norm = np.linalg.norm(matrix)
    targets = np.array([-der.gamma_p + 1j * der.omega_p, -der.gamma_p - 1j * der.omega_p])
    dists = np.abs(values[None, :] - targets[:, None])
    nearest_idx = np.argmin(dists, axis=1)
    clusters = sp.cluster_eigenvalues(values, sp.CLUSTER_EPS_SCALE * norm)
    near_gamma = min(clusters, key=lambda grp: min(abs(values[i] + der.gamma_p) for i in grp))
    min_angle = None
    if len(near_gamma) >= 2:
        min_angle = min(
            sp.principal_angle(vectors[:, i], vectors[:, j])
            for pos, i in enumerate(near_gamma)
            for j in near_gamma[pos + 1 :]
        )
    return {
        "eigenvalues": values,
        "nearest": values[nearest_idx],
        "distances": dists[np.arange(2), nearest_idx],
        "zero_mode_distance": float(np.min(np.abs(values))),
        "cluster_size": len(near_gamma),
        "degenerate_pair_flagged": min_angle is not None and min_angle < sp.DEFAULT_ANGLE_EPS,
    }


def witness_params(n_th, at_ep):
    if at_ep:
        return md.SystemParams.from_mean_split(1.0, 2.0, 1.0, eps=0.0, n_th=n_th)
    return md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0, n_th=n_th)


def assert_witness_matches(p, d, ref, at_ep):
    witness = lv.liouvillian_spectrum_check(p, d)
    # the moment pair is a second-order EP at g = kappa: ~sqrt(u) there
    atol = 1e-7 if at_ep else 1e-12
    np.testing.assert_allclose(witness.nearest, ref["nearest"], atol=atol)
    np.testing.assert_allclose(witness.distances, ref["distances"], atol=atol)
    assert witness.zero_mode_distance == pytest.approx(ref["zero_mode_distance"], abs=1e-12)
    assert witness.cluster_size == ref["cluster_size"]
    assert witness.degenerate_pair_flagged == ref["degenerate_pair_flagged"]


class TestSectorWitnessAgainstDense:
    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    @pytest.mark.parametrize("at_ep", [False, True])
    def test_matches_dense_eigensolve(self, n_th, at_ep):
        p = witness_params(n_th, at_ep)
        ref = dense_witness(p, 4)
        gen = lv.build_liouvillian(p, 4)
        # At n_th = 0 the EP is of high order in the larger excitation
        # sectors; eigenvalues there are fixed only to ~(u ||L||)^(1/order).
        atol = 5e-2 if (at_ep and n_th == 0.0) else 1e-9
        assert_multiset_close(sector_spectrum(gen).eigenvalues, ref["eigenvalues"], atol)
        assert_witness_matches(p, 4, ref, at_ep)

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    @pytest.mark.parametrize("at_ep", [False, True])
    def test_matches_dense_at_other_cutoffs(self, d, n_th, at_ep):
        # the whole generator densely at d = 2 and 3, sector by sector at d = 6
        p = witness_params(n_th, at_ep)
        assert_witness_matches(p, d, dense_witness(p, d, by_sector=d == 6), at_ep)

    @pytest.mark.parametrize("k", [1, -1])
    def test_solved_pairs_meet_the_residual_bound_at_the_ep(self, k):
        # sigma off the defective eigenvalue -gamma: every returned pair,
        # the Jordan pair included, is an eigenpair to eig's bound
        p = md.SystemParams.from_mean_split(1.0, 2.0, 1.0, eps=0.0)
        gen = lv.build_liouvillian(p, 6)
        block = lv.sector_block(gen, k)
        eps = sp.CLUSTER_EPS_SCALE * np.linalg.norm(gen.csr.data)
        sigma = -2.0 + lv.WITNESS_SHIFT * 3.0  # the witness's shift: gamma + g = 3
        spectrum = sp.eigs_near(block, sigma, [-2.0], 4, eps)
        dense = block.toarray()
        bound = sp.DEFAULT_RESIDUAL_TOL * np.linalg.norm(dense)
        for value, vector in zip(spectrum.eigenvalues, spectrum.eigenvectors.T):
            assert np.linalg.norm(dense @ vector - value * vector) <= bound
        np.testing.assert_allclose(spectrum.eigenvalues[:2], [-2.0, -2.0], atol=1e-7)
