"""Dense complex eigensolver front end and exceptional-point diagnostics.

The eigensolver contract (Hessenberg reduction followed by shifted-QR
iteration to Schur form, eigenvectors by back-substitution) is fulfilled by
LAPACK's zgeev through numpy; this module adds failure reporting, a
residual guarantee on eigenpairs, eigenvalue clustering and the
eigenvector-coalescence metric used to locate exceptional points on
parameter grids. Eigenvalue-only solves (eig with want_vectors=False, as
the spectrum command runs them) have no vectors and so no residual check.
For sparse matrices too large to diagonalize densely, eigs_near finds the
eigenpairs nearest a few targets by shift-invert ARPACK, under the same
residual bound, and proves that it has not missed a nearer eigenvalue.

Norms are Frobenius throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
import scipy.linalg

from .errors import EigenConvergenceError, MatrixExpOverflowError

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, not at import time
    import scipy.sparse

DEFAULT_RESIDUAL_TOL = 1e-9
DEFAULT_ANGLE_EPS = 1e-3
CLUSTER_EPS_SCALE = 1e-6


@dataclass
class Spectrum:
    """Result of one diagonalization.

    eigenvectors (unit-norm right eigenvectors, one per column) and residuals
    ||A v - lambda v|| align index-wise with eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    norm: float = 0.0


def _eigenpairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of a stack of square matrices, shape (m, n, n).

    Returns the eigenvalues (m, n), the unit-norm right eigenvectors (m, n, n,
    one per column) and the residuals ||A v - lambda v|| (m, n). Raises
    numpy's LinAlgError when the solve fails for any matrix of the stack.
    """
    values, vectors = np.linalg.eig(stack)
    vectors = vectors / np.linalg.norm(vectors, axis=-2, keepdims=True)
    residuals = np.linalg.norm(stack @ vectors - vectors * values[..., None, :], axis=-2)
    return values, vectors, residuals


def _residual_bound(norm):
    return DEFAULT_RESIDUAL_TOL * np.maximum(norm, np.finfo(float).tiny)


def eig(a: np.ndarray, want_vectors: bool = True) -> Spectrum:
    """All eigenvalues (and right eigenvectors) of a dense complex matrix.

    The eigenpairs are residual-checked; eigenvalues alone are not.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # the norm coalescence_scan takes of its stack, bit for bit (the
    # axis-free np.linalg.norm sums in another order)
    norm = float(np.linalg.norm(a, axis=(-2, -1)))
    if not want_vectors:
        try:
            values = np.linalg.eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(
                f"eigvals failed for dim={a.shape[0]}, norm={norm:.3e}: {exc}"
            ) from exc
        return Spectrum(eigenvalues=values, norm=norm)
    try:
        values, vectors, residuals = _eigenpairs(a[None])
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eig failed for dim={a.shape[0]}, norm={norm:.3e}: {exc}"
        ) from exc
    values, vectors, residuals = values[0], vectors[0], residuals[0]
    _check_residuals(residuals, norm, f"dim={a.shape[0]}")
    return Spectrum(values, vectors, residuals, norm)


def _check_residuals(residuals: np.ndarray, norm: float, where: str) -> None:
    bound = _residual_bound(norm)
    if np.any(residuals > bound):
        worst = int(np.argmax(residuals))
        raise EigenConvergenceError(
            f"residual bound violated: pair {worst} has ||Av - lv|| = "
            f"{residuals[worst]:.3e} > {bound:.3e} ({where})"
        )


def eigs_near(
    a: scipy.sparse.sparray,
    sigma: complex,
    targets: Sequence[complex],
    count: int,
    cluster_eps: float = 0.0,
) -> Spectrum:
    """Eigenpairs of a sparse square matrix nearest sigma, enough to settle targets.

    Shift-invert ARPACK (scipy.sparse.linalg.eigs, LU of a - sigma I, tol=0,
    a fixed start vector) returns the count eigenvalues nearest sigma, so
    every eigenvalue it leaves out lies at least R from sigma, R the largest
    distance of a returned one. A target's nearest returned eigenvalue is
    then the matrix's nearest once it lies within R - |target - sigma| of
    the target; and every eigenvalue chained to it within cluster_eps has
    been returned once each member of its chain lies strictly within
    R - cluster_eps of sigma. Until every target passes, count doubles. A
    block too small for ARPACK (dim < count + 2) is diagonalized densely
    with eig. sigma must not be an eigenvalue: ARPACK's vectors of a
    defective eigenvalue at the shift miss the residual bound.

    Returns the eigenpairs in ascending distance from sigma, unit-norm and
    residual-checked against eig's bound DEFAULT_RESIDUAL_TOL * ||a||_F.
    Raises EigenConvergenceError when ARPACK or the LU fails, or a pair
    misses the bound.
    """
    import scipy.sparse
    import scipy.sparse.linalg as spla

    a = scipy.sparse.csc_array(a, dtype=complex)
    dim = a.shape[0]
    norm = float(np.linalg.norm(a.data))
    targets = np.asarray(targets, dtype=complex)
    start = [1.0, 1j] @ np.random.default_rng(0).standard_normal((2, dim))
    while True:
        if dim < count + 2:
            spectrum = eig(a.toarray())
            order = np.argsort(np.abs(spectrum.eigenvalues - sigma), kind="stable")
            return Spectrum(
                spectrum.eigenvalues[order],
                spectrum.eigenvectors[:, order],
                spectrum.residuals[order],
                spectrum.norm,
            )
        try:
            values, vectors = spla.eigs(a, k=count, sigma=sigma, v0=start, tol=0)
        except (spla.ArpackError, RuntimeError) as exc:  # RuntimeError: singular LU
            raise EigenConvergenceError(
                f"eigs failed for dim={dim}, count={count}, sigma={sigma:.6g}: {exc}"
            ) from exc
        order = np.argsort(np.abs(values - sigma), kind="stable")
        values, vectors = values[order], vectors[:, order]
        if _settled(values, sigma, targets, cluster_eps):
            break
        count *= 2
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    _check_residuals(residuals, norm, f"dim={dim}, sigma={sigma:.6g}")
    return Spectrum(values, vectors, residuals, norm)


def _settled(
    values: np.ndarray, sigma: complex, targets: np.ndarray, cluster_eps: float
) -> bool:
    """Whether the eigenvalues nearest sigma settle every target (see eigs_near)."""
    dist = np.abs(values - sigma)
    reach = dist.max()
    groups = cluster_eigenvalues(values, cluster_eps)
    for target in targets:
        gaps = np.abs(values - target)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] > reach - abs(target - sigma):
            return False
        group = next(grp for grp in groups if nearest in grp)
        if np.any(dist[group] + cluster_eps >= reach):
            return False
    return True


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade approximant.

    Exact on (exactly) diagonal matrices. Raises with a norm report when the
    result overflows.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.count_nonzero(a - np.diag(np.diag(a))) == 0:
        return np.diag(np.exp(np.diag(a)))
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(a)
    if not np.all(np.isfinite(result)):
        raise MatrixExpOverflowError(
            f"exp overflowed: ||A||_F = {np.linalg.norm(a):.3e}, "
            f"max Re(diag) = {np.max(a.diagonal().real):.3e}"
        )
    return result


def principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi/2] between the one-dimensional spans of u and v.

    Near-parallel spans are resolved through the projection residual
    (sin of the angle), which stays accurate where arccos of the overlap
    saturates at sqrt(machine eps).
    """
    u = np.asarray(u) / np.linalg.norm(u)
    v = np.asarray(v) / np.linalg.norm(v)
    inner = np.vdot(u, v)
    cos_angle = min(1.0, abs(inner))
    if cos_angle < 0.7:
        return float(np.arccos(cos_angle))
    residual = v - u * inner
    return float(np.arcsin(min(1.0, np.linalg.norm(residual))))


def cluster_min_angle(vectors, group: Sequence[int], sectors=None) -> float:
    """Smallest principal angle between the eigenvectors of one cluster.

    vectors[i] is the eigenvector of eigenvalue i (the transpose of an
    eigenvector matrix qualifies); group holds at least two indices. With
    sectors, eigenvectors of different sectors have disjoint support, so
    their angle is exactly pi/2 and is not computed.
    """
    return min(
        principal_angle(vectors[i], vectors[j])
        if sectors is None or sectors[i] == sectors[j]
        else np.pi / 2
        for pos, i in enumerate(group)
        for j in group[pos + 1 :]
    )


def cluster_eigenvalues(values: np.ndarray, eps: float) -> list[list[int]]:
    """Group indices whose eigenvalues chain-link within distance eps.

    Each group lists its indices in ascending order; groups are ordered by
    the real part of their first index, then by that index.
    """
    n = len(values)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Vectorized over offsets rather than a plain loop over sorted pairs: the
    # n_th = 0 generator spectrum at d = 6 (1296 values, real parts exactly
    # degenerate in large groups) clusters in 7.5 ms here against 95 ms for
    # the pair loop (cluster_reference in the tests); 2-value scan spectra
    # cost about 13 us either way (2-core x86 host, numpy 2.4).
    order = np.argsort(values.real, kind="stable")
    ordered = values[order]
    re = ordered.real
    # Compare sorted positions `offset` apart, for growing offsets. Once no
    # such pair is within eps in real part, no farther pair is either, and a
    # pair within eps in modulus is within eps in real part.
    for offset in range(1, n):
        if not (re[offset:] - re[:-offset] <= eps).any():
            break
        close = np.abs(ordered[offset:] - ordered[:-offset]) <= eps
        for pos in np.flatnonzero(close).tolist():
            parent[find(int(order[pos]))] = find(int(order[pos + offset]))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda grp: (values[grp[0]].real, grp[0]))


@dataclass
class EigenvalueCluster:
    indices: tuple[int, ...]
    eigenvalues: np.ndarray
    min_angle: float | None  # None for singleton clusters


@dataclass
class CoalescenceReport:
    """Cluster/angle diagnostics of one grid point of a parameter scan.

    best is the cluster of size >= 2 with the smallest min_angle (the first
    one on ties), None when every cluster is a singleton.
    """

    param: float
    clusters: list[EigenvalueCluster] = field(default_factory=list)
    best: EigenvalueCluster | None = None
    coalescing: bool = False
    error: str | None = None

    @property
    def min_angle(self) -> float:
        """Smallest eigenvector angle over clusters of size >= 2, inf without one."""
        return np.inf if self.best is None else self.best.min_angle


def _report(
    spectrum: Spectrum, param: float, cluster_eps: float | None, angle_eps: float
) -> CoalescenceReport:
    eps = CLUSTER_EPS_SCALE * spectrum.norm if cluster_eps is None else cluster_eps
    clusters = []
    best = None
    for group in cluster_eigenvalues(spectrum.eigenvalues, eps):
        angle = None
        if len(group) >= 2:
            angle = cluster_min_angle(spectrum.eigenvectors.T, group)
        cluster = EigenvalueCluster(tuple(group), spectrum.eigenvalues[group], angle)
        clusters.append(cluster)
        if angle is not None and (best is None or angle < best.min_angle):
            best = cluster
    return CoalescenceReport(
        param=param,
        clusters=clusters,
        best=best,
        coalescing=bool(best is not None and best.min_angle < angle_eps),
    )


def coalescence_report(
    a: np.ndarray,
    param: float,
    cluster_eps: float | None = None,
    angle_eps: float = DEFAULT_ANGLE_EPS,
) -> CoalescenceReport:
    return _report(eig(a, want_vectors=True), param, cluster_eps, angle_eps)


def coalescence_scan(
    builder: Callable[[float], np.ndarray],
    grid: Sequence[float],
    cluster_eps: float | None = None,
    angle_eps: float = DEFAULT_ANGLE_EPS,
) -> list[CoalescenceReport]:
    """One CoalescenceReport per grid point, in grid order.

    The builder's matrices must be square and of one shape. They are held
    together (len(grid) * n**2 complex numbers) and diagonalized in one
    batched solve, normalized and residual-checked as eig does, so each
    report equals coalescence_report of its matrix. If the batched solve
    fails, every point is redone on its own with coalescence_report, and so
    is each point that fails its residual check. Eigensolver failures at
    individual points are recorded on the report and do not abort the scan.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    matrices = [np.asarray(builder(x), dtype=complex) for x in grid]
    shapes = sorted({m.shape for m in matrices})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError(f"expected square matrices of one shape, got shapes {shapes}")
    stack = np.stack(matrices)
    norms = np.linalg.norm(stack, axis=(-2, -1))
    try:
        values, vectors, residuals = _eigenpairs(stack)
    except np.linalg.LinAlgError:
        solved = np.zeros(len(grid), dtype=bool)
    else:
        solved = np.all(residuals <= _residual_bound(norms)[:, None], axis=1)
    reports = []
    for i, x in enumerate(grid):
        if solved[i]:
            spectrum = Spectrum(values[i], vectors[i], residuals[i], float(norms[i]))
            reports.append(_report(spectrum, x, cluster_eps, angle_eps))
            continue
        try:
            reports.append(coalescence_report(matrices[i], x, cluster_eps, angle_eps))
        except EigenConvergenceError as exc:
            reports.append(CoalescenceReport(param=x, error=str(exc)))
    return reports


@dataclass
class EPEstimate:
    value: float
    uncertainty: float
    min_angle: float


def estimate_ep(
    reports: Sequence[CoalescenceReport], grid_step: float
) -> EPEstimate | None:
    """Grid point minimizing the clustered eigenvector angle, +- one grid step."""
    best = None
    for report in reports:
        if report.best is None:  # failed point, or no cluster of size >= 2
            continue
        if best is None or report.min_angle < best.min_angle:
            best = EPEstimate(
                value=report.param,
                uncertainty=grid_step,
                min_angle=report.min_angle,
            )
    return best
