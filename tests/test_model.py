import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_multiset_close, valid_params
from epsim import fockspace as fs
from epsim import model as md
from epsim import spectral as sp
from epsim.fockspace import FockCutoff, Mode


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            md.SystemParams(g=0.0, gamma_a=1.0, gamma_b=1.0)
        with pytest.raises(ValueError):
            md.SystemParams(g=1.0, gamma_a=-0.1, gamma_b=1.0)
        with pytest.raises(ValueError):
            md.SystemParams(g=1.0, gamma_a=1.0, gamma_b=1.0, n_th=-1.0)

    def test_from_mean_split(self):
        p = md.SystemParams.from_mean_split(1.0, 2.0, 0.5)
        assert (p.gamma_a, p.gamma_b) == (2.5, 1.5)


class TestDerive:
    def test_arithmetic_from_definitions(self, std_params):
        der = md.derive(std_params)
        assert der.gamma == 2.0
        assert der.kappa == 0.5
        assert der.xi == 4.75
        assert der.omega == pytest.approx(0.8660254037844386)

    def test_chi_value(self, std_params):
        der = md.derive(std_params)
        assert der.chi == pytest.approx(0.8421052631578947j)
        # completing the square also produces a real part 2 eps^2 g / xi
        assert der.chi_full == pytest.approx(
            0.42105263157894735 + 0.8421052631578947j
        )

    def test_thermal_primes(self, thermal_params):
        der = md.derive(thermal_params)
        assert der.kappa_p == pytest.approx(0.6)
        assert der.omega_p == pytest.approx(0.8)
        assert der.gamma_p == pytest.approx(2.4)
        assert der.chi_p == pytest.approx(1.15j)

    @given(params=valid_params())
    def test_thermal_reduction_exact_at_zero_n(self, params):
        der = md.derive(params.with_(n_th=0.0))
        assert der.gamma_p == der.gamma
        assert der.kappa_p == der.kappa
        assert der.omega_p == der.omega
        assert der.chi_p == der.chi
        assert der.chi_t == 0.0

    @given(params=valid_params())
    def test_omega_branch(self, params):
        der = md.derive(params)
        assert der.omega**2 == pytest.approx(params.g**2 - der.kappa**2)
        assert der.omega.real >= 0.0 and der.omega.imag >= 0.0

    def test_chi_plus_conjugate_structure(self, std_params):
        # imaginary part of the full scalar equals the reported chi
        der = md.derive(std_params)
        assert der.chi == pytest.approx(1j * der.chi_full.imag)


class TestHamiltonian:
    @given(params=valid_params())
    def test_hermitian(self, params):
        h = md.build_hamiltonian(params, 4)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_beam_splitter_block(self):
        p = md.SystemParams(g=0.7, gamma_a=1.0, gamma_b=1.0, eps=0.0)
        h = md.build_hamiltonian(p, 2)
        block = md.excitation_block(h, 1, 2)
        np.testing.assert_allclose(block, [[0, 0.7], [0.7, 0]], atol=1e-15)

    def test_drive_matrix_element(self, std_params):
        # i*eps*(a - a_dag) applied to the vacuum: <10|H|00> = -i*eps, and by
        # Hermiticity <00|H|10> = +i*eps.
        h = md.build_hamiltonian(std_params, 3)
        i00 = fs.fock_index(3, 0, 0)
        i10 = fs.fock_index(3, 1, 0)
        assert h[i10, i00] == pytest.approx(-1j)
        assert h[i00, i10] == pytest.approx(1j)


class TestCollapseOps:
    def test_optical_prefactor(self):
        p = md.SystemParams(g=1.0, gamma_a=2.0, gamma_b=0.5)
        c1, _ = md.build_collapse_ops(p, 3)
        np.testing.assert_allclose(c1, 2.0 * fs.mode_annihilation(Mode.A, 3))

    def test_thermal_prefactor(self):
        p = md.SystemParams(g=1.0, gamma_a=1.0, gamma_b=1.0, n_th=0.5)
        ops = md.build_collapse_ops(p, 3)
        # gain channel sqrt(2 * gamma_a * n) = 1
        np.testing.assert_allclose(ops[1], fs.dagger(fs.mode_annihilation(Mode.A, 3)))

    @given(params=valid_params())
    def test_channel_counts(self, params):
        assert len(md.build_collapse_ops(params.with_(n_th=0.0), 3)) == 2
        assert len(md.build_collapse_ops(params.with_(n_th=0.2), 3)) == 4


class TestHnh:
    @given(params=valid_params())
    def test_optical_matches_direct_construction(self, params):
        # H - (i/2) sum C_dag C against the damping-rate form, elementwise
        p = params.with_(n_th=0.0)
        a = md.build_h_nh(p, 4)
        b = md.build_h_nh_direct(p, 4)
        np.testing.assert_allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))

    @given(params=valid_params())
    def test_thermal_matches_direct_on_interior(self, params):
        cut = FockCutoff(4)
        a = md.build_h_nh(params, cut)
        b = md.build_h_nh_direct(params, cut)
        idx = fs.interior_indices(cut)
        np.testing.assert_allclose(
            a[np.ix_(idx, idx)], b[np.ix_(idx, idx)],
            atol=1e-12 * max(1.0, np.abs(a).max()),
        )

    def test_decoupled_lossy_modes_diagonal(self):
        # eps=0, g->0 limit: diagonal entries -i(ga*n_a + gb*n_b)
        p = md.SystemParams(g=1e-300, gamma_a=0.8, gamma_b=0.3, eps=0.0)
        h = md.build_h_nh(p, 3)
        for n_a in range(3):
            for n_b in range(3):
                i = fs.fock_index(3, n_a, n_b)
                assert h[i, i] == pytest.approx(-1j * (0.8 * n_a + 0.3 * n_b))

    @given(params=valid_params())
    def test_thermal_reduces_to_optical(self, params):
        p0 = params.with_(n_th=0.0)
        np.testing.assert_array_equal(md.build_h_nh(p0, 3), md.build_h_nh(p0, 3))
        assert len(md.build_collapse_ops(p0, 3)) == 2


class TestSplit:
    def test_undriven_balanced_forms(self):
        p = md.SystemParams(g=1.3, gamma_a=2.0, gamma_b=2.0, eps=0.0)
        h_pt, h_0 = md.build_h_pt_split(p, 3)
        a = fs.mode_annihilation(Mode.A, 3)
        b = fs.mode_annihilation(Mode.B, 3)
        np.testing.assert_allclose(
            h_pt, 1.3 * (fs.dagger(a) @ b + fs.dagger(b) @ a), atol=1e-14
        )
        num = fs.dagger(a) @ a + fs.dagger(b) @ b
        np.testing.assert_allclose(h_0, -2j * num, atol=1e-14)

    @given(params=valid_params())
    def test_reconstruction_exact(self, params):
        p = params.with_(n_th=0.0)
        h_pt, h_0 = md.build_h_pt_split(p, 4)
        h_nh = md.build_h_nh(p, 4)
        np.testing.assert_allclose(
            h_pt + h_0, h_nh, atol=1e-12 * max(1.0, np.abs(h_nh).max())
        )

    @given(params=valid_params())
    def test_thermal_reconstruction_matches_direct_form(self, params):
        h_pt, h_0 = md.build_h_pt_split(params, 4, thermal=True)
        direct = md.build_h_nh_direct(params, 4)
        np.testing.assert_allclose(
            h_pt + h_0, direct, atol=1e-12 * max(1.0, np.abs(direct).max())
        )

    @given(params=valid_params())
    def test_commutator_vanishes_on_interior(self, params):
        cut = FockCutoff(5)
        h_pt, h_0 = md.build_h_pt_split(params.with_(n_th=0.0), cut)
        comm = fs.commutator(h_pt, h_0)
        idx = fs.interior_indices(cut)
        bound = 1e-10 * max(np.linalg.norm(h_pt) * np.linalg.norm(h_0), 1e-30)
        assert np.linalg.norm(comm[np.ix_(idx, idx)]) <= bound


class TestAnalyticEigenvalues:
    def test_pt_balanced(self, std_params):
        der = md.derive(std_params)
        assert md.analytic_lambda_pt(3, 3, der) == 0

    def test_pt_value(self, std_params):
        der = md.derive(std_params)
        assert md.analytic_lambda_pt(2, 0, der) == pytest.approx(1.7320508075688772)

    def test_pt_all_zero_at_coalescence(self):
        der = md.derive(md.SystemParams(g=1.0, gamma_a=3.0, gamma_b=1.0))
        for n_e, n_f in md.TRACKED_STATES:
            assert md.analytic_lambda_pt(n_e, n_f, der) == 0

    def test_nh_value(self, std_params):
        der = md.derive(std_params)
        assert md.analytic_lambda_nh(1, 0, der) == pytest.approx(
            0.8660254037844386 - 2.8421052631578947j
        )

    def test_nh_thermal_value(self, thermal_params):
        der = md.derive(thermal_params)
        assert md.analytic_lambda_nh(1, 0, der, thermal=True) == pytest.approx(
            0.8 - 3.55j
        )

    @given(params=valid_params(), n_e=st.integers(0, 3), n_f=st.integers(0, 3))
    def test_thermal_formula_reduces_at_zero_n(self, params, n_e, n_f):
        der = md.derive(params.with_(n_th=0.0))
        assert md.analytic_lambda_nh(n_e, n_f, der, thermal=True) == md.analytic_lambda_nh(
            n_e, n_f, der
        )

    @pytest.mark.parametrize("n_th", [0.1, 0.2])
    def test_thermal_transition_moves_in_asymmetry_sweep(self, n_th):
        # sweeping kappa at fixed g = 1 moves the transition of the
        # thermal-scaled spectrum to kappa = 1/(2n+1)
        boundary = 1.0 / (2.0 * n_th + 1.0)
        for kappa, broken in ((boundary - 0.02, False), (boundary + 0.02, True)):
            p = md.SystemParams.from_mean_split(1.0, 2.0, kappa, eps=1.0, n_th=n_th)
            der = md.derive(p)
            lam = md.analytic_lambda_pt(1, 0, der, thermal=True)
            assert (abs(complex(lam).imag) > 1e-12) == broken
            pair_gap = abs(
                md.analytic_lambda_nh(1, 0, der, thermal=True)
                - md.analytic_lambda_nh(0, 1, der, thermal=True)
            )
            assert pair_gap == pytest.approx(2 * abs(der.omega_p), abs=1e-12)


class TestCouplings:
    def test_optical_equivalence(self):
        assert md.hep_coupling(0.7, 0.0) == md.lep_coupling(0.7) == 0.7

    def test_thermal_shift(self):
        assert md.hep_coupling(1.0, 0.1) == pytest.approx(1.2)
        assert md.hep_coupling(1.0, 0.2) == pytest.approx(1.4)
        assert md.lep_coupling(1.0) == 1.0


class TestSpectralMatch:
    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.9, 1.5])
    @pytest.mark.parametrize("n_total", [1, 2])
    def test_undriven_blocks_match_formulas(self, kappa, n_total):
        p = md.SystemParams.from_mean_split(1.0, 2.0, kappa, eps=0.0)
        der = md.derive(p)
        block = md.excitation_block(md.build_h_nh(p, 6), n_total, 6)
        numeric = np.linalg.eigvals(block)
        analytic = [
            md.analytic_lambda_nh(n_e, n_total - n_e, der)
            for n_e in range(n_total + 1)
        ]
        assert_multiset_close(numeric, analytic, atol=1e-8)

    def test_driven_spectrum_converges_with_cutoff(self, std_params):
        der = md.derive(std_params)
        targets = [
            md.analytic_lambda_nh(n_e, n_f, der, full_chi=True)
            for n_e, n_f in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        ]
        errors = {}
        for d in (6, 8, 10):
            vals = np.linalg.eigvals(md.build_h_nh(std_params, d))
            errors[d] = max(np.min(np.abs(vals - t)) for t in targets)
        assert errors[8] < errors[6] and errors[10] < errors[8]
        assert errors[10] < 1e-5

    def test_labeled_states_are_eigenvectors(self, std_params):
        cut = FockCutoff(14)
        h = md.build_h_nh(std_params, cut)
        der = md.derive(std_params)
        for n_e, n_f in md.TRACKED_STATES:
            psi = fs.supermode_state(std_params, cut, n_e, n_f)
            lam = md.analytic_lambda_nh(n_e, n_f, der, full_chi=True)
            assert np.linalg.norm(h @ psi - lam * psi) < 1e-5


class TestEigenvalueAdditivity:
    def test_undriven_blockwise(self):
        # In each fixed-excitation block the decay part is the scalar
        # -i*gamma*N, so additivity is a multiset eigenvalue comparison;
        # the blocks partition the whole undriven spectrum.
        p = md.SystemParams.from_mean_split(1.0, 2.0, 0.5, eps=0.0)
        der = md.derive(p)
        h_pt, _ = md.build_h_pt_split(p, 6)
        for n_total in range(1, 11):
            nh = np.linalg.eigvals(md.excitation_block(md.build_h_nh(p, 6), n_total, 6))
            pt = (
                np.linalg.eigvals(md.excitation_block(h_pt, n_total, 6))
                - 1j * der.gamma * n_total
            )
            assert_multiset_close(nh, pt, atol=1e-8)

    def test_driven_via_shared_eigenvectors(self, std_params):
        # tracked states are joint eigenvectors of all three matrices; their
        # three eigenvalues satisfy lambda_nh = lambda_pt + lambda_0
        cut = FockCutoff(14)
        h_nh = md.build_h_nh(std_params, cut)
        h_pt, h_0 = md.build_h_pt_split(std_params, cut)
        for n_e, n_f in md.TRACKED_STATES:
            v = fs.supermode_state(std_params, cut, n_e, n_f)
            lam = np.vdot(v, h_nh @ v)
            mu = np.vdot(v, h_pt @ v)
            nu = np.vdot(v, h_0 @ v)
            for mat, val in ((h_nh, lam), (h_pt, mu), (h_0, nu)):
                assert np.linalg.norm(mat @ v - val * v) < 1e-5
            assert abs(lam - mu - nu) < 1e-8


class TestFrameInvariance:
    # The defect of [H_PT, H_decay] is proportional to the drive and sits at
    # the truncation boundary, where the inverse frame factor amplifies it
    # beyond any cutoff's reach at t*gamma ~ 1; the matrix identity is
    # therefore asserted in the undriven case (exact), and the driven-case
    # frame relation is covered by the shared-eigenvector additivity test.
    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    @pytest.mark.parametrize("t_gamma", [0.1, 1.0])
    def test_undriven_frame_invariance(self, n_th, t_gamma):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=0.0, n_th=n_th)
        cut = FockCutoff(8)
        thermal = n_th > 0
        h_pt, h_0 = md.build_h_pt_split(p, cut, thermal=thermal)
        der = md.derive(p)
        t = t_gamma / (der.gamma_p if thermal else der.gamma)
        s = sp.mat_exp(-1j * h_0 * t)
        s_inv = sp.mat_exp(1j * h_0 * t)
        idx = fs.interior_indices(cut)
        delta = (s_inv @ h_pt @ s - h_pt)[np.ix_(idx, idx)]
        assert np.linalg.norm(delta) <= 1e-8 * np.linalg.norm(h_pt)

    def test_frame_inverse_pair(self, std_params):
        _, h_0 = md.build_h_pt_split(std_params, 6)
        t = 0.25
        prod = sp.mat_exp(-1j * h_0 * t) @ sp.mat_exp(1j * h_0 * t)
        np.testing.assert_allclose(prod, np.eye(36), atol=1e-10)


class TestPTSymmetry:
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 0.9])
    def test_matrix_identity_undriven(self, kappa):
        p = md.SystemParams.from_mean_split(1.0, 2.0, kappa, eps=0.0)
        h_pt, _ = md.build_h_pt_split(p, 6)
        parity = fs.parity_pt_operator(6)
        defect = parity @ h_pt.conj() @ parity - h_pt
        assert np.linalg.norm(defect) <= 1e-10 * np.linalg.norm(h_pt)

    @given(params=valid_params())
    def test_substitution_rules_fix_the_tableau(self, params):
        assert md.pt_symmetry_defect(params, 4) < 1e-9

    def test_tableau_coefficients(self, std_params):
        tableau, residual = md.pt_coefficient_tableau(std_params, 5)
        der = md.derive(std_params)
        assert residual < 1e-10
        assert tableau["c+d"] == pytest.approx(std_params.g)
        assert tableau["c+c"] == pytest.approx(-1j * der.kappa)
        assert tableau["d+d"] == pytest.approx(1j * der.kappa)
        assert abs(tableau["I"]) < 1e-10


class TestDriftHamiltonian:
    @given(n_th=st.floats(0.0, 1.0, allow_nan=False))
    def test_independent_of_thermal_occupation(self, n_th):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=1.0)
        base = md.build_drift_h(p, 4)
        shifted = md.build_drift_h(p.with_(n_th=n_th), 4)
        np.testing.assert_array_equal(base, shifted)

    def test_equals_h_nh_at_zero_n(self, std_params):
        np.testing.assert_allclose(
            md.build_drift_h(std_params, 4),
            md.build_h_nh(std_params.with_(n_th=0.0), 4),
            atol=1e-13,
        )

    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    def test_first_block_coalesces_at_g_equals_kappa(self, n_th):
        # rounding splits the defective pair by ~sqrt(machine eps)
        p = md.SystemParams.from_mean_split(1.0, 2.0, 1.0, eps=0.0, n_th=n_th)
        block = md.excitation_block(md.build_drift_h(p, 4), 1, 4)
        vals = np.linalg.eigvals(block)
        assert abs(vals[0] - vals[1]) < 1e-6
        assert md.lep_coupling(1.0) == 1.0


class TestBlocks:
    def test_block_indices(self):
        np.testing.assert_array_equal(md.block_indices(2, 3), [2, 4, 6])

    def test_block_out_of_range(self):
        with pytest.raises(ValueError):
            md.block_indices(9, 3)


class TestClosedFormBlock:
    """h_nh_block against the sliced build excitation_block(build_h_nh(...))."""

    @staticmethod
    def params(n_th):
        return md.SystemParams(g=1.3, gamma_a=3.0, gamma_b=1.0, eps=1.0, n_th=n_th)

    @staticmethod
    def sliced(p, d, n_total):
        return md.excitation_block(md.build_h_nh(p.with_(eps=0.0), d), n_total, d)

    @pytest.mark.parametrize("n_th", [0.0, 0.1, 0.2])
    @pytest.mark.parametrize("n_total", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [6, 8])
    def test_matches_sliced_build(self, d, n_total, n_th):
        p = self.params(n_th)
        reference = self.sliced(p, d, n_total)
        block = md.h_nh_block(p, d, n_total)
        assert block.shape == (n_total + 1, n_total + 1)
        tol = 1e-14 * np.linalg.norm(reference)
        assert np.abs(block - reference).max() <= tol
        # the cutoff only bounds N
        np.testing.assert_array_equal(block, md.h_nh_block(p, 12, n_total))

    @pytest.mark.parametrize("n_th", [0.1, 0.2])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_top_level_block_differs_by_the_dropped_gain_term(self, d, n_th):
        # at N = d - 1 the first (n_b = d - 1) and last (n_a = d - 1) basis
        # states sit on the top level, where the truncated a a_dag is 0, not d
        p = self.params(n_th)
        n_total = d - 1
        diff = md.h_nh_block(p, d, n_total) - self.sliced(p, d, n_total)
        tol = 1e-14 * np.linalg.norm(md.h_nh_block(p, d, n_total))
        off = np.abs(diff) > tol
        expected = np.zeros_like(off)
        expected[0, 0] = expected[-1, -1] = True
        np.testing.assert_array_equal(off, expected)
        assert diff[0, 0] == pytest.approx(-1j * p.gamma_b * n_th * d, rel=1e-12)
        assert diff[-1, -1] == pytest.approx(-1j * p.gamma_a * n_th * d, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_top_level_block_exact_without_thermal_photons(self, d):
        p = self.params(0.0)
        reference = self.sliced(p, d, d - 1)
        block = md.h_nh_block(p, d, d - 1)
        assert np.abs(block - reference).max() <= 1e-14 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n_total", [-1, 6, 7])
    def test_excitation_number_outside_cutoff(self, n_total):
        with pytest.raises(ValueError):
            md.h_nh_block(self.params(0.1), 6, n_total)
