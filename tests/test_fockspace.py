import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import valid_params
from epsim import fockspace as fs
from epsim import model as md
from epsim.errors import EPDegenerateError
from epsim.fockspace import FockCutoff, Mode


def test_cutoff_validation():
    assert FockCutoff(2).dim == 4
    assert FockCutoff.of(5).d == 5
    with pytest.raises(ValueError):
        FockCutoff(1)
    with pytest.raises(ValueError):
        FockCutoff(2.5)


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
    def test_embedded_annihilation_action(self):
        a_full = fs.mode_annihilation(Mode.A, 2)
        out = a_full @ fs.basis_state(2, 1, 0)
        np.testing.assert_allclose(out, fs.basis_state(2, 0, 0), atol=1e-15)

    def test_modes_commute(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        xa = fs.embed(x, Mode.A, 3)
        yb = fs.embed(y, Mode.B, 3)
        np.testing.assert_allclose(xa @ yb, yb @ xa, atol=1e-13)

    def test_number_operator_diagonal_mode_a_major(self):
        # Kronecker product by hand: mode-A-major ordering.
        diag = np.diag(fs.embed(fs.number_op(3), Mode.A, 3)).real
        np.testing.assert_array_equal(diag, [0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_embed_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fs.embed(np.eye(3), Mode.A, 4)

    @given(d=st.integers(min_value=2, max_value=4), seed=st.integers(0, 10**6))
    def test_embed_preserves_spectrum_with_multiplicity(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        base = np.sort_complex(np.linalg.eigvals(x))
        embedded = np.sort_complex(np.linalg.eigvals(fs.embed(x, Mode.B, d)))
        np.testing.assert_allclose(embedded, np.repeat(base, d), atol=1e-10)


class TestDisplacedOps:
    def test_hand_evaluated_constants(self, std_params):
        alpha, delta = md.displacement_constants(std_params)
        assert md.derive(std_params).xi_p == pytest.approx(4.75)
        assert alpha == pytest.approx(0.3157894736842105 - 0.21052631578947367j)
        assert delta == pytest.approx((2.5 - 1j) / 4.75)
        # the "+" partners shift by beta = -alpha and theta = -delta
        ops = md.displaced_ops(std_params, 2)
        a = fs.mode_annihilation(Mode.A, 2)
        b = fs.mode_annihilation(Mode.B, 2)
        np.testing.assert_array_equal(ops.c_plus - fs.dagger(a), -alpha * np.eye(4))
        np.testing.assert_array_equal(ops.d_plus - fs.dagger(b), -delta * np.eye(4))

    def test_zero_drive_reduces_to_bare_operators(self, std_params):
        ops = md.displaced_ops(std_params.with_(eps=0.0), 4)
        np.testing.assert_array_equal(ops.c, fs.mode_annihilation(Mode.A, 4))
        np.testing.assert_array_equal(ops.d_op, fs.mode_annihilation(Mode.B, 4))

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
