import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import valid_params
from epsim import fockspace as fs
from epsim import liouvillian as lv
from epsim import model as md
from epsim.errors import EPDegenerateError
from epsim.fockspace import FockCutoff


def test_cutoff_validation():
    assert FockCutoff(2).dim == 4
    assert FockCutoff.of(5).d == 5
    for bad in (1, 2.5, True):
        with pytest.raises(ValueError):
            FockCutoff(bad)


class TestLadder:
    def test_two_level_ladder(self):
        np.testing.assert_array_equal(fs.annihilation(2), [[0, 1], [0, 0]])

    def test_standard_matrix_element(self):
        a = fs.annihilation(3)
        assert a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_truncated_commutator_defect_at_top(self):
        # [a, a_dag] = 1 on levels 0..d-2; the defect sits at the top level.
        a = fs.annihilation(4)
        comm = fs.commutator(a, fs.dagger(a))
        expected = np.eye(4)
        expected[3, 3] = -3.0
        np.testing.assert_allclose(comm, expected, atol=1e-14)

    @given(d=st.integers(min_value=2, max_value=9))
    def test_interior_commutator_identity(self, d):
        a = fs.annihilation(d)
        comm = fs.commutator(a, fs.dagger(a))
        np.testing.assert_allclose(comm[: d - 1, : d - 1], np.eye(d - 1), atol=1e-14)


class TestEmbed:
    """The cached mode operators are single-mode operators embedded by kron."""

    def test_embedded_annihilation_action(self):
        out = FockCutoff(2).ops.a @ fs.basis_state(2, 1, 0)
        np.testing.assert_allclose(out, fs.basis_state(2, 0, 0), atol=1e-15)

    def test_modes_commute(self):
        ops = FockCutoff(3).ops
        for x in (ops.a, ops.a_dag, ops.num_a):
            for y in (ops.b, ops.b_dag, ops.num_b):
                np.testing.assert_array_equal(x @ y, y @ x)

    def test_number_operator_diagonal_mode_a_major(self):
        # Kronecker product by hand: mode-A-major ordering.
        diag = np.diag(FockCutoff(3).ops.num_a).real
        np.testing.assert_array_equal(diag, [0, 0, 0, 1, 1, 1, 2, 2, 2])


class TestTwoModeOps:
    def test_occupations_mode_a_major(self):
        ops = FockCutoff(3).ops
        np.testing.assert_array_equal(ops.occ_a, [0, 0, 0, 1, 1, 1, 2, 2, 2])
        np.testing.assert_array_equal(ops.occ_b, [0, 1, 2, 0, 1, 2, 0, 1, 2])

    def test_total_photon_parity(self):
        signs = [1, -1, 1, -1, 1, -1, 1, -1, 1]
        np.testing.assert_array_equal(fs.total_photon_parity(3), np.diag(signs))

    def test_cached_arrays_are_read_only(self):
        for array in FockCutoff(3).ops:
            with pytest.raises(ValueError):
                array[0] = 1

    def test_one_operator_set_per_cutoff(self):
        first, second = FockCutoff(3).ops, FockCutoff.of(3).ops
        assert all(x is y for x, y in zip(first, second))
        assert FockCutoff(4).ops.a.shape == (16, 16)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_combined_terms_match_their_definitions(self, d):
        ops = FockCutoff(d).ops
        np.testing.assert_array_equal(ops.drive_a, ops.a_dag - ops.a)
        np.testing.assert_array_equal(ops.drive_b, ops.b_dag - ops.b)
        np.testing.assert_array_equal(ops.imbalance, ops.num_a - ops.num_b)
        for lower, upper, product, occ in (
            (ops.a, ops.a_dag, ops.aa_dag, ops.occ_a),
            (ops.b, ops.b_dag, ops.bb_dag, ops.occ_b),
        ):
            # exact integers n + 1, and 0 on the top level
            np.testing.assert_array_equal(product, np.diag(np.where(occ < d - 1, occ + 1, 0)))
            np.testing.assert_allclose(product, lower @ upper, rtol=0, atol=4 * d * 2.0**-52)

    @pytest.mark.parametrize("eps, n_th", [(0.0, 0.2), (1.0, 0.0)])
    def test_builders_return_fresh_writeable_arrays(self, eps, n_th):
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5, eps=eps, n_th=n_th)
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0
        outputs = [
            md.build_hamiltonian(p, 3),
            *md.build_collapse_ops(p, 3),
            md.build_h_nh(p, 3),
            md.build_h_nh_direct(p, 3),
            md.build_drift_h(p, 3),
            *md.displaced_ops(p, 3),
            *md.build_h_pt_split(p, 3),
            md.block_indices(1, 3),
            lv.build_liouvillian(p, 3).csr.data,
            lv.build_liouvillian_from_hnh(p, 3).csr.data,
            lv.moment_rhs_check(p, 3, rho).lhs,
            lv.sector_labels(3),
            fs.interior_indices(3),
            fs.parity_pt_operator(3),
        ]
        for out in outputs:
            assert out.flags.writeable
            assert not any(np.shares_memory(out, cached) for cached in FockCutoff(3).ops)


class TestDisplacedOps:
    def test_hand_evaluated_constants(self, std_params):
        alpha, delta = md.displacement_constants(std_params)
        assert md.derive(std_params).xi_p == pytest.approx(4.75)
        assert alpha == pytest.approx(0.3157894736842105 - 0.21052631578947367j)
        assert delta == pytest.approx((2.5 - 1j) / 4.75)
        # the "+" partners shift by beta = -alpha and theta = -delta
        ops = md.displaced_ops(std_params, 2)
        fock = FockCutoff(2).ops
        np.testing.assert_array_equal(ops.c_plus - fock.a_dag, -alpha * np.eye(4))
        np.testing.assert_array_equal(ops.d_plus - fock.b_dag, -delta * np.eye(4))

    def test_zero_drive_reduces_to_bare_operators(self, std_params):
        ops = md.displaced_ops(std_params.with_(eps=0.0), 4)
        np.testing.assert_array_equal(ops.c, FockCutoff(4).ops.a)
        np.testing.assert_array_equal(ops.d_op, FockCutoff(4).ops.b)

    @given(params=valid_params())
    def test_interior_commutation_relations(self, params):
        cut = FockCutoff(4)
        ops = md.displaced_ops(params, cut)
        idx = fs.interior_indices(cut)
        eye = np.eye(cut.dim)
        for lower, upper in ((ops.c, ops.c_plus), (ops.d_op, ops.d_plus)):
            defect = fs.commutator(lower, upper) - eye
            np.testing.assert_allclose(
                defect[np.ix_(idx, idx)], 0, atol=1e-12
            )
        cross = fs.commutator(ops.c, ops.d_plus)
        np.testing.assert_allclose(cross[np.ix_(idx, idx)], 0, atol=1e-12)


class TestSupermodeRotation:
    def test_balanced_limit_is_symmetric_beam_splitter(self):
        p = md.SystemParams(g=1.0, gamma_a=1.0, gamma_b=1.0)
        r = md.supermode_rotation(p)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(r, [[s, s], [-s, s]], atol=1e-15)

    def test_hand_evaluated_entries(self, std_params):
        # sqrt((Omega + i*kappa)/(2*Omega)) at g=1, kappa=0.5, by hand
        r = md.supermode_rotation(std_params)
        assert r[0, 1] == pytest.approx(0.7339449125069353 + 0.19665994659516434j)
        assert r[0, 0] == pytest.approx(0.7339449125069353 - 0.19665994659516434j)

    def test_complex_orthogonal(self, std_params):
        r = md.supermode_rotation(std_params)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-14)

    def test_degenerate_point_rejected(self):
        with pytest.raises(EPDegenerateError):
            md.supermode_rotation(md.SystemParams(g=1.0, gamma_a=3.0, gamma_b=1.0))

    @given(params=valid_params())
    def test_supermode_interior_commutators(self, params):
        der = md.derive(params)
        if abs(der.omega_p) < 1e-3:  # rotation ill-conditioned at the EP
            return
        cut = FockCutoff(4)
        ops = md.supermode_ops(params, cut)
        idx = fs.interior_indices(cut)
        eye = np.eye(cut.dim)
        scale = max(1.0, np.linalg.norm(ops.e) * np.linalg.norm(ops.e_plus))
        for lower, upper in ((ops.e, ops.e_plus), (ops.f, ops.f_plus)):
            defect = fs.commutator(lower, upper) - eye
            assert np.max(np.abs(defect[np.ix_(idx, idx)])) < 1e-10 * scale
        cross = fs.commutator(ops.e, ops.f_plus)
        assert np.max(np.abs(cross[np.ix_(idx, idx)])) < 1e-10 * scale


class TestParity:
    def test_shuffle_is_swap_for_two_levels(self):
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        np.testing.assert_array_equal(fs.shuffle_operator(2), swap)

    def test_involution(self):
        p = fs.parity_pt_operator(3)
        np.testing.assert_allclose(p @ p, np.eye(9), atol=1e-15)

    def test_single_photon_reflection(self):
        # |1, 0> -> -|0, 1>: shuffle then odd total-photon parity
        p = fs.parity_pt_operator(4)
        out = p @ fs.basis_state(4, 1, 0)
        np.testing.assert_allclose(out, -fs.basis_state(4, 0, 1), atol=1e-15)

    def test_commutes_with_conjugation(self):
        # P is real, so P conj(X) = conj(P X) for any X.
        p = fs.parity_pt_operator(3)
        assert np.max(np.abs(p.imag)) == 0.0
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        np.testing.assert_allclose(p @ x.conj(), (p @ x).conj(), atol=1e-14)


class TestStates:
    def test_coherent_state_zero_is_vacuum(self):
        np.testing.assert_array_equal(fs.coherent_state(0.0, 4), [1, 0, 0, 0])

    def test_displaced_vacuum_is_annihilated_by_c_and_d(self, std_params):
        cut = FockCutoff(14)
        ops = md.displaced_ops(std_params, cut)
        vac = md.displaced_vacuum(std_params, cut)
        assert np.linalg.norm(ops.c @ vac) < 1e-8
        assert np.linalg.norm(ops.d_op @ vac) < 1e-8

    def test_supermode_state_normalized(self, std_params):
        psi = md.supermode_state(std_params, 8, 2, 1)
        assert np.linalg.norm(psi) == pytest.approx(1.0)


@pytest.mark.parametrize("value", [6.7, "6", True])
def test_cutoff_of_rejects_non_integers(value):
    with pytest.raises(ValueError):
        FockCutoff.of(value)


def test_cutoff_of_accepts_numpy_integers():
    cut = FockCutoff.of(np.int64(6))
    assert cut.d == 6 and type(cut.d) is int
    assert cut == FockCutoff(6)
