import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import assert_multiset_close, random_complex_matrix
from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp
from epsim.errors import EigenConvergenceError, MatrixExpOverflowError, NumericalError


class TestEig:
    def test_diagonal_matrix(self):
        diag = np.diag([1.0 + 2.0j, -3.0, 0.5j])
        spec = sp.eig(diag)
        assert_multiset_close(spec.eigenvalues, np.diag(diag), atol=1e-14)
        assert spec.residuals.max() < 1e-14

    def test_dynamical_matrix_closed_form(self):
        # quadratic formula on the 2x2 moment generator at g=1, kappa=0.5, gamma=2
        p = md.SystemParams(g=1.0, gamma_a=2.5, gamma_b=1.5)
        spec = sp.eig(lv.dynamical_matrix(p))
        assert_multiset_close(
            spec.eigenvalues,
            [0.8660254037844386 - 2j, -0.8660254037844386 - 2j],
            atol=1e-12,
        )

    def test_jordan_block_flags_coalescence(self):
        report = sp.coalescence_report(sp.eig(np.array([[0.0, 1.0], [0.0, 0.0]])), param=0.0)
        assert len(report.clusters) == 1
        assert report.clusters[0].indices == (0, 1)
        assert report.min_angle < 1e-6
        assert report.coalescing

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sp.eig(np.zeros((2, 3)))

    @given(dim=st.sampled_from([3, 17, 64]), seed=st.integers(0, 10**6))
    def test_residual_bound_honored(self, dim, seed):
        rng = np.random.default_rng(seed)
        spec = sp.eig(random_complex_matrix(rng, dim))
        assert spec.residuals.max() <= 1e-9 * spec.norm

    def test_residual_bound_dim_256(self):
        rng = np.random.default_rng(0)
        spec = sp.eig(random_complex_matrix(rng, 256))
        assert spec.residuals.max() <= 1e-9 * spec.norm


class TestEigvalsStack:
    @staticmethod
    def stack_of(seed, count, dim):
        rng = np.random.default_rng(seed)
        return np.stack([random_complex_matrix(rng, dim) for _ in range(count)])

    @pytest.mark.parametrize(
        "cores,count,pieces",
        [({0}, 16, 1), ({0, 1}, 16, 2), ({0, 1}, 7, 1), ({0, 1}, 21, 2), ({0, 1, 2}, 25, 3)],
        ids=["one-core", "two-pieces", "too-short-for-two", "uneven", "three-uneven"],
    )
    def test_bit_identical_to_per_matrix_eigvals(self, monkeypatch, cores, count, pieces):
        # n = 64: a piece is at least 500 // 64 + 1 = 8 matrices deep
        assert sp.piece_depth(64) == 8
        stack = self.stack_of(count, count, 64)
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: cores)
        calls = []
        real_eigvals = np.linalg.eigvals

        def recording_eigvals(a):
            calls.append(len(a))
            return real_eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        values = sp.eigvals_stack(stack)
        monkeypatch.undo()
        assert len(calls) == pieces and sum(calls) == count
        assert min(calls) >= 8 or pieces == 1
        assert values.shape == (count, 64)
        for row, matrix in zip(values, stack):
            assert np.array_equal(row, np.linalg.eigvals(matrix))

    def test_threaded_depth_gives_every_core_a_piece(self, monkeypatch):
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1})
        assert sp.threaded_depth(64) == 16
        assert sp.threaded_depth(1849) == 2  # one matrix a piece at d = 43

    @given(seed=st.integers(0, 10**6))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex_matrix(rng, 8)
        basis, _ = np.linalg.qr(random_complex_matrix(rng, 8))
        scale = np.diag(rng.uniform(0.5, 2.0, 8))
        s = basis @ scale
        similar = np.linalg.solve(s, a @ s)
        values = sp.eigvals_stack(np.stack([similar, a]))
        assert_multiset_close(values[0], values[1], atol=1e-7)

    @given(seed=st.integers(0, 10**6))
    def test_trace_and_determinant_consistency(self, seed):
        import scipy.linalg

        rng = np.random.default_rng(seed)
        a = random_complex_matrix(rng, 12) / 2.0
        vals = sp.eigvals_stack(a[None])[0]
        assert np.sum(vals) == pytest.approx(np.trace(a), rel=1e-8, abs=1e-10)
        schur_t, _ = scipy.linalg.schur(a, output="complex")
        det_schur = np.prod(np.diag(schur_t))
        assert np.prod(vals) == pytest.approx(det_schur, rel=1e-8, abs=1e-12)

    @given(seed=st.integers(0, 10**6))
    def test_hermitian_spectra_real(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex_matrix(rng, 10)
        herm = a + a.conj().T
        vals = sp.eigvals_stack(herm[None])[0]
        assert np.max(np.abs(vals.imag)) < 1e-10

    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_nonfinite_norm_names_its_matrix(self, entry):
        stack = self.stack_of(0, 3, 4)
        stack[1, 2, 3] = entry
        with np.errstate(all="raise"):  # the norm's overflow raises no warning
            with pytest.raises(NumericalError, match=r"^second: Frobenius norm (inf|nan) "):
                sp.eigvals_stack(stack, ["first", "second", "third"])

    def test_failing_piece_names_its_first_failing_matrix(self, monkeypatch):
        stack = self.stack_of(1, 16, 64)
        bad = {11, 13}  # both in the second of two pieces
        for i in bad:
            stack[i, 0, 0] = 7.0
        real_eigvals = np.linalg.eigvals

        def failing_eigvals(a):
            if np.any(np.asarray(a)[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(a)

        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        with pytest.raises(EigenConvergenceError, match=r"eigvals failed for point 11 \(dim=64\)"):
            sp.eigvals_stack(stack, [f"point {i}" for i in range(16)])

    def test_piece_that_fails_only_as_a_stack_is_solved_one_by_one(self, monkeypatch):
        stack = self.stack_of(2, 16, 64)
        real_eigvals = np.linalg.eigvals

        def stack_failing_eigvals(a):
            if np.ndim(a) == 3 and len(a) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", stack_failing_eigvals)
        values = sp.eigvals_stack(stack)
        monkeypatch.undo()
        assert np.array_equal(values, np.linalg.eigvals(stack))

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            sp.eigvals_stack(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="got 1 names for 2 matrices"):
            sp.eigvals_stack(np.zeros((2, 3, 3)), ["only one"])


def sparse_csc(dense):
    import scipy.sparse as sps

    return sps.csc_array(np.asarray(dense, dtype=complex))


def sparse_test_matrix(n, seed):
    """A sparse non-normal matrix: distinct diagonal plus a few couplings."""
    rng = np.random.default_rng(seed)
    diagonal = -np.arange(n) * (1.0 + 0.3j) + rng.standard_normal(n) * 0.1
    couplings = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.05) * 0.5
    return sparse_csc(np.diag(diagonal) + couplings)


class TestEigsNear:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nearest_match_dense_eig(self, seed):
        a = sparse_test_matrix(80, seed)
        dense = np.linalg.eigvals(a.toarray())
        targets = [-3.1 - 0.8j, -5.0 - 1.5j]
        spectrum = sp.eigs_near(a, -4.0 - 1.0j, targets, 3)
        for target in targets:
            got = spectrum.eigenvalues[np.argmin(np.abs(spectrum.eigenvalues - target))]
            want = dense[np.argmin(np.abs(dense - target))]
            assert abs(got - want) < 1e-10
        assert np.all(np.diff(np.abs(spectrum.eigenvalues + 4.0 + 1.0j)) >= 0)
        assert spectrum.residuals.max() <= sp.DEFAULT_RESIDUAL_TOL * spectrum.norm

    def test_asks_for_more_until_the_target_is_settled(self):
        # the target 0 lies 10.3 from sigma: two eigenvalues cannot settle it
        a = sparse_csc(np.diag(np.arange(50.0)))
        spectrum = sp.eigs_near(a, 10.3, [0.0], 2)
        assert len(spectrum.eigenvalues) > 2
        assert np.min(np.abs(spectrum.eigenvalues)) < 1e-12

    def test_cluster_is_returned_whole(self):
        # a chain 0, 1e-3, 2e-3, ... within cluster_eps of its neighbours
        values = np.concatenate([np.arange(8) * 1e-3, 5.0 + np.arange(30.0)])
        a = sparse_csc(np.diag(values))
        spectrum = sp.eigs_near(a, -0.5, [0.0], 2, cluster_eps=1.5e-3)
        assert np.count_nonzero(np.abs(spectrum.eigenvalues) < 0.01) == 8

    def test_small_block_solved_densely(self):
        a = sparse_csc([[1.0, 2.0, 0.0], [0.0, -1.0, 0.5], [0.3, 0.0, 2.0j]])
        spectrum = sp.eigs_near(a, 0.1, [0.0], 2)
        assert_multiset_close(spectrum.eigenvalues, np.linalg.eigvals(a.toarray()), atol=1e-12)
        assert np.all(np.diff(np.abs(spectrum.eigenvalues - 0.1)) >= 0)

    def test_block_whose_norm_overflows_is_refused_before_arpack(self, monkeypatch):
        import scipy.sparse.linalg as spla

        dense = sparse_test_matrix(50, 0).toarray()
        dense[3, 4] = 1e200
        a = sparse_csc(dense)
        calls = []
        monkeypatch.setattr(spla, "eigs", lambda *args, **kwargs: calls.append(args))
        with np.errstate(all="raise"):  # the norm's overflow raises no warning
            with pytest.raises(NumericalError, match=r"^eigs refused dim=50: Frobenius norm inf "):
                sp.eigs_near(a, -4.0, [-3.0], 4)
        assert calls == []

    def test_shift_on_an_eigenvalue_raises(self):
        a = sparse_csc(np.diag(np.arange(10.0)))
        with pytest.raises(EigenConvergenceError, match="eigs failed"):
            sp.eigs_near(a, 3.0, [3.0], 2)


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(sp.mat_exp(np.zeros((3, 3))), np.eye(3))

    def test_exact_on_diagonal(self):
        diag = np.diag([1.0 + 1j, -700.0, 0.25j])
        np.testing.assert_array_equal(sp.mat_exp(diag), np.diag(np.exp(np.diag(diag))))

    def test_involution_identity(self):
        a = np.array([[0.0, 1j * np.pi], [1j * np.pi, 0.0]])
        np.testing.assert_allclose(sp.mat_exp(a), -np.eye(2), atol=1e-12)

    def test_inverse_pair(self, std_params):
        _, h_0 = md.build_h_pt_split(std_params, 5)
        prod = sp.mat_exp(-1j * h_0 * 0.3) @ sp.mat_exp(1j * h_0 * 0.3)
        assert np.max(np.abs(prod - np.eye(25))) < 1e-10

    @pytest.mark.parametrize("entry", [500.0, 1e200])
    def test_overflow_reported(self, entry):
        # at 1e200 the norm in the report overflows too: inf, and no warning
        with pytest.raises(MatrixExpOverflowError):
            sp.mat_exp(np.full((2, 2), entry + 0j))


def cluster_reference(values, eps):
    """Connected components of the all-pairs graph |values[i] - values[j]| <= eps."""
    diff = values[:, None] - values[None, :]
    # np.hypot rounds like the scalar modulus abs(z); np.abs of a complex
    # array may differ from it in the last bit, which matters for the
    # lattice pairs exactly eps apart
    count, labels = connected_components(np.hypot(diff.real, diff.imag) <= eps, directed=False)
    groups = [np.flatnonzero(labels == label).tolist() for label in range(count)]
    return sorted(groups, key=lambda grp: (values[grp[0]].real, grp[0]))


class TestClustering:
    def test_principal_angle_range(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert sp.principal_angle(u, 2j * u) == pytest.approx(0.0, abs=1e-7)
        v = np.zeros(5, dtype=complex)
        v[0] = 1.0
        w = np.zeros(5, dtype=complex)
        w[1] = 1.0
        assert sp.principal_angle(v, w) == pytest.approx(np.pi / 2)

    def test_chain_linking(self):
        # 0 and 2e-7 link only through the intermediate value
        values = np.array([0.0, 1e-7, 2e-7, 1.0, 1.0 + 2e-7, 5.0])
        groups = sp.cluster_eigenvalues(values, 1.5e-7)
        assert sorted(map(sorted, groups)) == [[0, 1, 2], [3], [4], [5]]

    @given(
        points=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=40
        ),
        spacing=st.sampled_from([0.3, 0.5, 0.6, 1.0, 2.0]),
        shift=st.complex_numbers(max_magnitude=3.0, allow_nan=False),
    )
    @example(points=[(0, 0), (0, 0), (1, 0), (0, 0)], spacing=0.6, shift=0j)
    @example(points=[(0, 0), (2, 0), (1, 0), (5, 1), (5, 1)], spacing=0.6, shift=1.5j)
    @example(points=[(2, 1), (0, 0), (1, 0), (2, 0)], spacing=1.0, shift=0j)
    def test_matches_pair_loop(self, points, spacing, shift):
        # lattice spectra: exact repeats, ties in real part, pairs exactly
        # eps apart and chains that link only through a middle value
        eps = 1e-3
        values = shift + spacing * eps * np.array(
            [complex(a, b) for a, b in points], dtype=complex
        )
        assert sp.cluster_eigenvalues(values, eps) == cluster_reference(values, eps)

    def test_cluster_min_angle_is_the_smallest_pair_angle(self):
        vectors = np.array([[1.0, 0.0], [1.0, 1e-4], [0.0, 1.0]], dtype=complex).T

        def cluster(values):
            spectrum = sp.Spectrum(np.array(values, dtype=complex), vectors, np.zeros(3), 1.0)
            return sp.coalescence_report(spectrum, 0.0, cluster_eps=1.0).best

        three = cluster([0.0, 0.0, 0.0])
        assert three.indices == (0, 1, 2) and three.min_angle == pytest.approx(1e-4)
        pair = cluster([0.0, 5.0, 0.0])
        assert pair.indices == (0, 2) and pair.min_angle == np.pi / 2

    def test_best_cluster_has_the_smallest_angle(self):
        # two Jordan blocks; the second is tilted further from coalescence
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 2], a[3, 3], a[2, 3] = 5.0, 5.0 + 1e-9, 1e-3
        report = sp.coalescence_report(sp.eig(a), 0.0, cluster_eps=1e-6)
        assert [c.indices for c in report.clusters] == [(0, 1), (2, 3)]
        assert report.best is report.clusters[0]
        assert report.min_angle == report.best.min_angle < report.clusters[1].min_angle
        singletons = sp.coalescence_report(sp.eig(np.diag([1.0, 2.0])), 0.0)
        assert singletons.best is None and singletons.min_angle == np.inf
        assert not singletons.coalescing

    def test_ep_signature_of_moment_matrix(self):
        # eigenvector angle below angle_eps at g=kappa, above 10x away from it
        at_ep = lv.dynamical_matrix(md.SystemParams.from_mean_split(1.0, 2.0, 1.0))
        report = sp.coalescence_report(sp.eig(at_ep), 1.0)
        assert report.coalescing and report.min_angle < sp.DEFAULT_ANGLE_EPS
        away = lv.dynamical_matrix(md.SystemParams.from_mean_split(1.1, 2.0, 1.0))
        spec = sp.eig(away)
        angle = sp.principal_angle(spec.eigenvectors[:, 0], spec.eigenvectors[:, 1])
        assert angle > 10 * sp.DEFAULT_ANGLE_EPS


class TestScan:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sp.coalescence_scan([], [])
        with pytest.raises(ValueError):
            sp.coalescence_scan([np.eye(2)] * 2, [1.0, 0.5])

    def test_scan_reports_in_grid_order(self):
        grid = [0.5, 1.0, 1.5]
        reports = sp.coalescence_scan([np.diag([x, -x]).astype(complex) for x in grid], grid)
        assert [r.param for r in reports] == grid

    def test_failures_recorded_not_raised(self):
        def builder(x):
            if x == 1.0:
                return np.full((2, 2), np.nan)
            return np.eye(2, dtype=complex)

        grid = [0.0, 1.0, 2.0]
        reports = sp.coalescence_scan([builder(x) for x in grid], grid)
        assert reports[1].error is not None
        assert reports[0].error is None and reports[2].error is None

    def test_moment_matrix_scan_locates_ep(self):
        grid = list(0.8 + 0.01 * np.arange(81))

        def builder(g):
            p = md.SystemParams.from_mean_split(g, 2.0, 1.0)
            return lv.dynamical_matrix(p)

        reports = sp.coalescence_scan([builder(x) for x in grid], grid)
        estimate = sp.estimate_ep(reports)
        assert estimate is not None
        assert abs(estimate.param - 1.0) <= 0.01

    def test_estimate_ignores_clusters_that_do_not_coalesce(self):
        # +-i g cluster under a wide cluster_eps but have orthogonal eigenvectors
        grid = [0.5, 0.51, 0.52]
        matrices = [np.array([[0.0, g], [-g, 0.0]], dtype=complex) for g in grid]
        reports = sp.coalescence_scan(matrices, grid, cluster_eps=10.0)
        assert all(r.best is not None and not r.coalescing for r in reports)
        assert sp.estimate_ep(reports) is None

    def test_loss_asymmetry_scan_locates_ep(self):
        # sweeping the asymmetry at gamma/g = 2 finds the transition at
        # kappa = g for the undriven single-excitation block
        grid = list(0.5 + 0.01 * np.arange(101))

        def builder(kappa):
            p = md.SystemParams.from_mean_split(1.0, 2.0, kappa, eps=0.0)
            return md.h_nh_block(p, 6, 1)

        reports = sp.coalescence_scan([builder(x) for x in grid], grid)
        estimate = sp.estimate_ep(reports)
        assert estimate is not None
        assert abs(estimate.param - 1.0) <= 0.01


def report_key(report):
    """Everything a CoalescenceReport carries, in a form == compares bit for bit."""
    best = next(
        (i for i, cluster in enumerate(report.clusters) if cluster is report.best), None
    )
    return (
        report.param,
        report.error,
        report.coalescing,
        best,
        [
            (c.indices, c.eigenvalues.tobytes(), c.min_angle)
            for c in report.clusters
        ],
    )


def lep_builder(g):
    return lv.dynamical_matrix(md.SystemParams(g=g, gamma_a=3.0, gamma_b=1.0))


def ep_builder(g):
    p = md.SystemParams(g=g, gamma_a=3.0, gamma_b=1.0, eps=1.0, n_th=0.2)
    return md.h_nh_block(p, 6, 1)


class TestBatchedScan:
    """coalescence_scan diagonalizes its grid in one batch."""

    @pytest.mark.parametrize(
        "builder, grid",
        [
            (lep_builder, 0.8 + 0.001 * np.arange(1001)),
            (ep_builder, 1.2 + 0.002 * np.arange(201)),
        ],
        ids=["lep-1001", "ep-201"],
    )
    def test_equals_per_point_reports(self, builder, grid):
        batched = sp.coalescence_scan([builder(x) for x in grid], list(grid))
        single = [sp.coalescence_report(sp.eig(builder(x)), x) for x in grid]
        assert any(r.coalescing for r in single)
        assert [report_key(r) for r in batched] == [report_key(r) for r in single]

    @pytest.mark.parametrize("cluster_eps", [None, 0.05])
    @pytest.mark.parametrize("n_th", [0.0, 0.2])
    @pytest.mark.parametrize("n_total", [1, 2, 3, 4])
    def test_excitation_blocks_equal_per_point_reports(self, n_total, n_th, cluster_eps):
        # the grid passes the block's EP at g = (2 n_th + 1) kappa, kappa = 1
        grid = list(0.8 + 0.002 * np.arange(401))
        base = md.SystemParams(g=1.0, gamma_a=3.0, gamma_b=1.0, n_th=n_th)
        matrices = [md.h_nh_block(base.along("g", g), 6, n_total) for g in grid]
        batched = sp.coalescence_scan(matrices, grid, cluster_eps=cluster_eps)
        single = [
            sp.coalescence_report(sp.eig(m), g, cluster_eps=cluster_eps)
            for m, g in zip(matrices, grid)
        ]
        assert [report_key(r) for r in batched] == [report_key(r) for r in single]
        if cluster_eps is not None:
            assert any(len(c.indices) >= 2 for r in single for c in r.clusters)

    def test_chained_cluster_of_three_equals_per_point_reports(self):
        # 0 - t - 2t link only through the middle eigenvalue for 0.5 < t <= 1
        grid = list(np.linspace(0.1, 1.5, 15))
        matrices = [np.array([[0.0, 1.0, 0.0], [0.0, t, 1.0], [0.0, 0.0, 2 * t]]) for t in grid]
        batched = sp.coalescence_scan(matrices, grid, cluster_eps=1.0)
        single = [
            sp.coalescence_report(sp.eig(m), t, cluster_eps=1.0) for m, t in zip(matrices, grid)
        ]
        assert [report_key(r) for r in batched] == [report_key(r) for r in single]
        chained = [r for r in single if 0.5 < r.param <= 1.0]
        assert chained and all([c.indices for c in r.clusters] == [(0, 1, 2)] for r in chained)
        assert all(len(r.clusters) == 3 for r in single if r.param > 1.0)

    def test_tied_angles_first_cluster_wins(self):
        # two copies of one 2x2 block, 5 apart: both clusters have one angle
        delta = 2.0**-20  # (5 + delta) - 5 == delta exactly
        block = np.array([[0.0, 1.0], [0.0, delta]])
        a = np.zeros((4, 4))
        a[:2, :2] = block
        a[2:, 2:] = block + 5.0 * np.eye(2)
        grid = [0.0, 1.0, 2.0]
        batched = sp.coalescence_scan([a] * 3, grid, cluster_eps=1e-3)
        single = [sp.coalescence_report(sp.eig(a), x, cluster_eps=1e-3) for x in grid]
        assert [report_key(r) for r in batched] == [report_key(r) for r in single]
        for report in batched:
            first, second = report.clusters
            assert first.min_angle == second.min_angle
            assert report.best is first

    @staticmethod
    def recording_eig(monkeypatch, fail_with=None):
        """Patch np.linalg.eig to record the length of each stack it solves.

        A stack longer than one that holds a matrix whose [0, 0] entry is
        fail_with raises LinAlgError; so does that matrix alone.
        """
        calls = []
        real_eig = np.linalg.eig

        def eig(a):
            calls.append(len(a))
            if fail_with is not None and np.any(np.asarray(a)[:, 0, 0] == fail_with):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eig(a)

        monkeypatch.setattr(np.linalg, "eig", eig)
        return calls

    def test_one_solve_per_piece(self, monkeypatch):
        # 2 x 2: a piece is at least 500 // 2 + 1 = 251 matrices deep
        grid = list(0.8 + 0.001 * np.arange(1001))
        matrices = [lep_builder(g) for g in grid]
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1})
        calls = self.recording_eig(monkeypatch)
        reports = sp.coalescence_scan(matrices, grid)
        monkeypatch.undo()
        assert sorted(calls) == [500, 501]
        single = [sp.coalescence_report(sp.eig(m), g) for m, g in zip(matrices, grid)]
        assert any(r.coalescing for r in single)
        assert [report_key(r) for r in reports] == [report_key(r) for r in single]

    def test_only_the_failing_piece_is_solved_again(self, monkeypatch):
        grid = list(0.8 + 0.001 * np.arange(1001))
        good = sp.coalescence_scan([lep_builder(g) for g in grid], grid)
        matrices = [lep_builder(g) for g in grid]
        matrices[700] = np.array([[self.SENTINEL, 1.0], [0.5, 2.0]])  # in the second piece
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: {0, 1})
        calls = self.recording_eig(monkeypatch, fail_with=self.SENTINEL)
        reports = sp.coalescence_scan(matrices, grid)
        # the first piece (501 points) once; the second (500) as a stack, then point by point
        assert sorted(calls) == [1] * 500 + [500, 501]
        assert [i for i, r in enumerate(reports) if r.error is not None] == [700]
        assert reports[700].error.startswith("eig failed for dim=2, norm=")
        for i, (report, reference) in enumerate(zip(reports, good)):
            if i != 700:
                assert report_key(report) == report_key(reference)

    def test_pieces_on_more_threads_than_cores_lose_no_failure(self, monkeypatch):
        # eight pieces on eight threads write their rows and failures at once
        grid = list(0.8 + 0.0005 * np.arange(2100))
        good = sp.coalescence_scan([lep_builder(g) for g in grid], grid)
        bad = {100, 700, 1300, 1900, 2050}  # in five of the eight pieces
        matrices = [lep_builder(g) for g in grid]
        for i in bad:
            matrices[i] = np.array([[self.SENTINEL, 1.0], [0.5, 2.0]])
        monkeypatch.setattr(sp.os, "sched_getaffinity", lambda pid: set(range(8)))
        calls = self.recording_eig(monkeypatch, fail_with=self.SENTINEL)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = sp.coalescence_scan(matrices, grid)
        finally:
            sys.setswitchinterval(interval)
        assert len([c for c in calls if c > 1]) == 8
        assert {i for i, r in enumerate(reports) if r.error is not None} == bad
        for i, (report, reference) in enumerate(zip(reports, good)):
            if i not in bad:
                assert report_key(report) == report_key(reference)

    def test_cluster_tolerance_uses_the_batched_norm(self):
        # eps = CLUSTER_EPS_SCALE * norm sets cluster membership, so eig's norm
        # must equal the norm the scan takes of its stack, bit for bit
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
        batched = np.linalg.norm(stack, axis=(-2, -1))
        assert [sp.eig(a).norm for a in stack] == batched.tolist()

    SENTINEL = 7.0  # eigenvalues of a matrix with this [0, 0] entry are corrupted

    @pytest.mark.parametrize("with_nan", [False, True], ids=["residual", "nan-and-residual"])
    def test_bad_points_are_recorded_on_their_own(self, monkeypatch, with_nan):
        grid = list(0.8 + 0.02 * np.arange(41))
        nan_at, bad_at = grid[10], grid[20]
        real_eig = np.linalg.eig

        def corrupting_eig(a):
            values, vectors = real_eig(a)
            corrupt = np.asarray(a)[..., 0, 0] == self.SENTINEL
            return np.where(corrupt[..., None], values + 1.0, values), vectors

        def mixed(g):
            if with_nan and g == nan_at:
                return np.full((2, 2), np.nan)
            if g == bad_at:
                return np.array([[self.SENTINEL, 1.0], [0.5, 2.0]])
            return lep_builder(g)

        redone = []
        real_sp_eig = sp.eig

        def counting_eig(a):
            redone.append(a[0, 0])
            return real_sp_eig(a)

        good = sp.coalescence_scan([lep_builder(g) for g in grid], grid)
        monkeypatch.setattr(np.linalg, "eig", corrupting_eig)
        monkeypatch.setattr(sp, "eig", counting_eig)
        reports = sp.coalescence_scan([mixed(g) for g in grid], grid)

        errors = {r.param: r.error for r in reports if r.error is not None}
        assert set(errors) == ({nan_at, bad_at} if with_nan else {bad_at})
        assert "residual bound violated" in errors[bad_at]
        # a point that misses its residual bound is not solved again, and a
        # point whose norm is not finite is refused unsolved, not sent to eig
        assert len(redone) == 0
        for report, reference in zip(reports, good):
            if report.param not in errors:
                assert report_key(report) == report_key(reference)
        # point by point, the scan is coalescence_report or its error
        for report, g in zip(reports, grid):
            if report.param in errors:
                with pytest.raises(EigenConvergenceError) as failure:
                    sp.coalescence_report(sp.eig(mixed(g)), g)
                assert str(failure.value) == report.error
            else:
                assert report_key(report) == report_key(sp.coalescence_report(sp.eig(mixed(g)), g))

    def test_failed_batch_is_solved_point_by_point(self, monkeypatch):
        grid = list(0.8 + 0.02 * np.arange(41))
        bad_at = grid[20]
        real_eig = np.linalg.eig

        def stack_failing_eig(a):
            a = np.asarray(a)
            if len(a) > 1 or a[0, 0, 0] == self.SENTINEL:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eig(a)

        def mixed(g):
            return np.array([[self.SENTINEL, 1.0], [0.5, 2.0]]) if g == bad_at else lep_builder(g)

        good = sp.coalescence_scan([lep_builder(g) for g in grid], grid)
        monkeypatch.setattr(np.linalg, "eig", stack_failing_eig)
        reports = sp.coalescence_scan([mixed(g) for g in grid], grid)
        assert [r.param for r in reports if r.error is not None] == [bad_at]
        assert reports[20].error.startswith("eig failed for dim=2, norm=")
        for report, reference in zip(reports, good):
            if report.error is None:
                assert report_key(report) == report_key(reference)

    @pytest.mark.parametrize("entry", [1e154, 1e200, np.inf, np.nan])
    def test_point_whose_norm_overflows_is_never_solved(self, monkeypatch, entry):
        grid = [1.0, 2.0, 3.0]
        matrices = [lep_builder(g) for g in grid]
        matrices[1] = np.array([[entry, entry], [entry, entry]], dtype=complex)
        solved = []
        real_eigenpairs = sp._eigenpairs

        def counting_eigenpairs(stack):
            solved.append(len(stack))
            return real_eigenpairs(stack)

        monkeypatch.setattr(sp, "_eigenpairs", counting_eigenpairs)
        with np.errstate(all="raise"):  # the norm's overflow raises no warning
            reports = sp.coalescence_scan(matrices, grid)
        assert solved == [2]
        norm = "nan" if np.isnan(entry) else "inf"
        assert reports[1].error == f"eig refused dim=2: Frobenius norm {norm} is not finite"
        assert reports[0].error is None and reports[2].error is None
        # eig refuses the matrix with the same message
        with pytest.raises(EigenConvergenceError) as failure:
            sp.eig(matrices[1])
        assert str(failure.value) == reports[1].error

    def test_unequal_shapes_raise(self):
        with pytest.raises(ValueError, match="one shape"):
            sp.coalescence_scan([np.eye(2), np.eye(3)], [0.5, 1.5])

    def test_nonsquare_matrices_raise(self):
        with pytest.raises(ValueError, match="square"):
            sp.coalescence_scan([np.zeros((2, 3))] * 2, [0.5, 1.5])

    def test_matrix_count_must_match_the_grid(self):
        with pytest.raises(ValueError, match="2 matrices for 3 grid points"):
            sp.coalescence_scan([np.eye(2)] * 2, [0.5, 1.0, 1.5])
