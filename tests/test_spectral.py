import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import assert_multiset_close, random_complex_matrix
from epsim import liouvillian as lv
from epsim import model as md
from epsim import spectral as sp
from epsim.errors import EigenConvergenceError, MatrixExpOverflowError


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
        report = sp.coalescence_report(np.array([[0.0, 1.0], [0.0, 0.0]]), param=0.0)
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

    @given(seed=st.integers(0, 10**6))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex_matrix(rng, 8)
        basis, _ = np.linalg.qr(random_complex_matrix(rng, 8))
        scale = np.diag(rng.uniform(0.5, 2.0, 8))
        s = basis @ scale
        similar = np.linalg.solve(s, a @ s)
        assert_multiset_close(
            sp.eig(similar, want_vectors=False).eigenvalues,
            sp.eig(a, want_vectors=False).eigenvalues,
            atol=1e-7,
        )

    @given(seed=st.integers(0, 10**6))
    def test_trace_and_determinant_consistency(self, seed):
        import scipy.linalg

        rng = np.random.default_rng(seed)
        a = random_complex_matrix(rng, 12) / 2.0
        vals = sp.eig(a, want_vectors=False).eigenvalues
        assert np.sum(vals) == pytest.approx(np.trace(a), rel=1e-8, abs=1e-10)
        schur_t, _ = scipy.linalg.schur(a, output="complex")
        det_schur = np.prod(np.diag(schur_t))
        assert np.prod(vals) == pytest.approx(det_schur, rel=1e-8, abs=1e-12)

    @given(seed=st.integers(0, 10**6))
    def test_hermitian_spectra_real(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex_matrix(rng, 10)
        herm = a + a.conj().T
        vals = sp.eig(herm, want_vectors=False).eigenvalues
        assert np.max(np.abs(vals.imag)) < 1e-10


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

    def test_overflow_reported(self):
        big = np.full((2, 2), 500.0)
        with pytest.raises(MatrixExpOverflowError):
            sp.mat_exp(big)


def cluster_reference(values, eps):
    """Union-find over every sorted pair within eps, one pair at a time."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(values.real, kind="stable")
    for pos, i in enumerate(order):
        for j in order[pos + 1 :]:
            if values[j].real - values[i].real > eps:
                break
            if abs(values[i] - values[j]) <= eps:
                parent[find(int(i))] = find(int(j))
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda grp: (values[grp[0]].real, grp[0]))


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
    def test_matches_pair_loop(self, points, spacing, shift):
        # lattice spectra: exact repeats, ties in real part, pairs exactly
        # eps apart and chains that link only through a middle value
        eps = 1e-3
        values = shift + spacing * eps * np.array(
            [complex(a, b) for a, b in points], dtype=complex
        )
        assert sp.cluster_eigenvalues(values, eps) == cluster_reference(values, eps)

    def test_cluster_min_angle_within_and_across_sectors(self):
        vectors = np.array([[1.0, 0.0], [1.0, 1e-4], [0.0, 1.0]], dtype=complex)
        assert sp.cluster_min_angle(vectors, [0, 1, 2]) == pytest.approx(1e-4)
        # index 1 in a sector of its own: only the pi/2 pairs remain
        assert sp.cluster_min_angle(vectors, [0, 1, 2], [0, 1, 0]) == np.pi / 2
        assert sp.cluster_min_angle(vectors, [0, 1, 2], [0, 0, 1]) == pytest.approx(1e-4)

    def test_best_cluster_has_the_smallest_angle(self):
        # two Jordan blocks; the second is tilted further from coalescence
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0
        a[2, 2], a[3, 3], a[2, 3] = 5.0, 5.0 + 1e-9, 1e-3
        report = sp.coalescence_report(a, 0.0, cluster_eps=1e-6)
        assert [c.indices for c in report.clusters] == [(0, 1), (2, 3)]
        assert report.best is report.clusters[0]
        assert report.min_angle == report.best.min_angle < report.clusters[1].min_angle
        singletons = sp.coalescence_report(np.diag([1.0, 2.0]), 0.0)
        assert singletons.best is None and singletons.min_angle == np.inf
        assert not singletons.coalescing

    def test_ep_signature_of_moment_matrix(self):
        # eigenvector angle below angle_eps at g=kappa, above 10x away from it
        at_ep = lv.dynamical_matrix(md.SystemParams.from_mean_split(1.0, 2.0, 1.0))
        report = sp.coalescence_report(at_ep, 1.0)
        assert report.coalescing and report.min_angle < sp.DEFAULT_ANGLE_EPS
        away = lv.dynamical_matrix(md.SystemParams.from_mean_split(1.1, 2.0, 1.0))
        spec = sp.eig(away)
        angle = sp.principal_angle(spec.eigenvectors[:, 0], spec.eigenvectors[:, 1])
        assert angle > 10 * sp.DEFAULT_ANGLE_EPS


class TestScan:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sp.coalescence_scan(lambda x: np.eye(2), [])
        with pytest.raises(ValueError):
            sp.coalescence_scan(lambda x: np.eye(2), [1.0, 0.5])

    def test_scan_reports_in_grid_order(self):
        grid = [0.5, 1.0, 1.5]
        reports = sp.coalescence_scan(
            lambda x: np.diag([x, -x]).astype(complex), grid
        )
        assert [r.param for r in reports] == grid

    def test_failures_recorded_not_raised(self):
        def builder(x):
            if x == 1.0:
                return np.full((2, 2), np.nan)
            return np.eye(2, dtype=complex)

        reports = sp.coalescence_scan(builder, [0.0, 1.0, 2.0])
        assert reports[1].error is not None
        assert reports[0].error is None and reports[2].error is None

    def test_moment_matrix_scan_locates_ep(self):
        grid = list(0.8 + 0.01 * np.arange(81))

        def builder(g):
            p = md.SystemParams.from_mean_split(g, 2.0, 1.0)
            return lv.dynamical_matrix(p)

        reports = sp.coalescence_scan(builder, grid)
        estimate = sp.estimate_ep(reports, 0.01)
        assert estimate is not None
        assert abs(estimate.value - 1.0) <= 0.01

    def test_loss_asymmetry_scan_locates_ep(self):
        # sweeping the asymmetry at gamma/g = 2 finds the transition at
        # kappa = g for the undriven single-excitation block
        grid = list(0.5 + 0.01 * np.arange(101))

        def builder(kappa):
            p = md.SystemParams.from_mean_split(1.0, 2.0, kappa, eps=0.0)
            return md.h_nh_block(p, 6, 1)

        reports = sp.coalescence_scan(builder, grid)
        estimate = sp.estimate_ep(reports, 0.01)
        assert estimate is not None
        assert abs(estimate.value - 1.0) <= 0.01


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
        batched = sp.coalescence_scan(builder, list(grid))
        single = [sp.coalescence_report(builder(x), x) for x in grid]
        assert any(r.coalescing for r in single)
        assert [report_key(r) for r in batched] == [report_key(r) for r in single]

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

        def counting_eig(a, want_vectors=True):
            redone.append(a[0, 0])
            return real_sp_eig(a, want_vectors)

        good = sp.coalescence_scan(lep_builder, grid)
        monkeypatch.setattr(np.linalg, "eig", corrupting_eig)
        monkeypatch.setattr(sp, "eig", counting_eig)
        reports = sp.coalescence_scan(mixed, grid)

        errors = {r.param: r.error for r in reports if r.error is not None}
        assert set(errors) == ({nan_at, bad_at} if with_nan else {bad_at})
        assert "residual bound violated" in errors[bad_at]
        # a failed batch redoes every point, a failed residual only its own
        assert len(redone) == (len(grid) if with_nan else 1)
        for report, reference in zip(reports, good):
            if report.param not in errors:
                assert report_key(report) == report_key(reference)

    def test_unequal_shapes_raise(self):
        with pytest.raises(ValueError, match="one shape"):
            sp.coalescence_scan(lambda x: np.eye(2 if x < 1.0 else 3), [0.5, 1.5])

    def test_nonsquare_matrices_raise(self):
        with pytest.raises(ValueError, match="square"):
            sp.coalescence_scan(lambda x: np.zeros((2, 3)), [0.5, 1.5])
