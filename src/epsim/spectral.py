"""Dense complex eigensolver front end and exceptional-point diagnostics.

The eigensolver contract (Hessenberg reduction followed by shifted-QR
iteration to Schur form, eigenvectors by back-substitution) is fulfilled by
LAPACK's zgeev through numpy; this module adds failure reporting, a
residual guarantee on eigenpairs, eigenvalue clustering and the
eigenvector-coalescence metric used to locate exceptional points on
parameter grids. For sparse matrices too large to diagonalize densely,
eigs_near finds the eigenpairs nearest a few targets by shift-invert
ARPACK, under the same residual bound, and proves that it has not missed a
nearer eigenvalue.

Every dense eigensolve takes one path, _solve: eig is its one-matrix call,
coalescence_scan its stack of eigenpairs and eigvals_stack its stack of
eigenvalues, with no vectors and so no residual check. It refuses unsolved a
matrix whose norm is not finite, as the sparse path does: it bounds no
residual. numpy releases the GIL in a gufunc loop only when its size, the
matrices of the call times their dimension n, is over GIL_LOOP_SIZE (500),
so a stack is solved in one contiguous piece per usable core
(os.sched_getaffinity), each at least piece_depth(n) = 500 // n + 1 matrices
deep (8 at n = 64), on threads that run at once, the calling thread solving
the first; a stack too short for two pieces is one piece. A piece whose
solve fails is solved again one matrix at a time.

The coalescence verdict has one owner, _reports: on a stack of solved
eigenpairs it finds the clusters of every point (chain-linked eigenvalues),
the eigenvector angles within each and whether each coalesces, in batched
array operations. coalescence_report is the one-point stack, read by the
Liouvillian witness. Every matrix is solved and every point reported on its
own, so a report does not depend on its stack. cluster_eigenvalues and
principal_angle are the one-row cases of the same clustering and angles.

Norms are Frobenius throughout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EigenConvergenceError, MatrixExpOverflowError, NumericalError

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, not at import time
    import scipy.sparse

DEFAULT_RESIDUAL_TOL = 1e-9
DEFAULT_ANGLE_EPS = 1e-3
CLUSTER_EPS_SCALE = 1e-6
# numpy runs a gufunc loop without the GIL only when its size (the loop's
# matrices times their dimension, for eig and eigvals) is over this
# (NPY_BEGIN_THREADS_THRESHOLDED in numpy's ndarraytypes.h)
GIL_LOOP_SIZE = 500


@dataclass
class Spectrum:
    """Result of one diagonalization.

    eigenvectors (unit-norm right eigenvectors, one per column) and residuals
    ||A v - lambda v|| align index-wise with eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    norm: float


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


def _residual_misses(residuals: np.ndarray, norms: np.ndarray, where: str) -> dict[int, str]:
    """How rows of eigenpair residuals (m, k) miss DEFAULT_RESIDUAL_TOL * norms (m,), by row."""
    bounds = DEFAULT_RESIDUAL_TOL * np.maximum(norms, np.finfo(float).tiny)
    missed = np.flatnonzero(np.any(residuals > bounds[:, None], axis=1)).tolist()
    return {
        i: f"residual bound violated: pair {np.argmax(residuals[i])} has ||Av - lv|| = "
        f"{residuals[i].max():.3e} > {bounds[i]:.3e} ({where})"
        for i in missed
    }


def _norms(x: np.ndarray, axis=None, what: str | None = None) -> np.ndarray:
    """Frobenius norms as np.linalg.norm(x, axis=axis) takes them, bit for bit, warning of nothing.

    Given what, one that is not finite raises NumericalError naming what.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 in the square of an inf entry
        norms = np.linalg.norm(x, axis=axis)
    if what is not None and not np.all(np.isfinite(norms)):
        raise NumericalError(f"{what}: Frobenius norm {norms} is not finite")
    return norms


def piece_depth(n: int) -> int:
    """The fewest n x n matrices an eigvals call needs to release the GIL."""
    return GIL_LOOP_SIZE // n + 1


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def threaded_depth(n: int) -> int:
    """Matrices a stack needs for eigvals_stack to give every usable core a piece."""
    return _cores() * piece_depth(n)


def _solve(stack: np.ndarray, vectors: bool) -> tuple[np.ndarray, list[np.ndarray], dict]:
    """Eigenvalues, or eigenpairs, of a stack (m, n, n) on the one dense path (module docstring).

    Returns the norms (m,), the rows of every matrix ((eigenvalues,), or with
    vectors _eigenpairs' three) and the failures {index: why}, whose rows hold
    nothing: why is None for a matrix refused unsolved, the LinAlgError of
    one whose solve fails alone, or how its pairs miss their bound.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported where used, as scipy.sparse is

    m, n = stack.shape[:2]
    depth = piece_depth(max(n, 1))  # a 0 x 0 matrix has nothing to solve
    norms = np.empty(m)
    for k in range(0, m, depth):  # so the temporaries stay a piece's size
        norms[k : k + depth] = _norms(stack[k : k + depth], axis=(-2, -1))
    kept = np.flatnonzero(np.isfinite(norms))
    failures = dict.fromkeys(np.flatnonzero(~np.isfinite(norms)).tolist())
    solve = _eigenpairs if vectors else lambda piece: (np.linalg.eigvals(piece),)
    rows = [np.empty((m, n), complex)]
    if vectors:  # a failed matrix's residuals stay 0, so they miss no bound
        rows += [np.empty((m, n, n), complex), np.zeros((m, n))]

    def solve_piece(piece) -> None:  # a slice or an index array of the stack
        try:
            for row, solved in zip(rows, solve(stack[piece])):
                row[piece] = solved
        except np.linalg.LinAlgError as exc:
            index = np.arange(m)[piece].tolist()
            if len(index) == 1:
                failures[index[0]] = exc.with_traceback(None)  # its frames would hold the stack
            else:  # solved again one matrix at a time
                for i in index:
                    solve_piece(slice(i, i + 1))

    pieces = np.array_split(kept, max(1, min(_cores(), len(kept) // depth)))
    if 0 < len(kept) == m:  # none refused: the pieces are views of the stack, not copies
        pieces = [slice(piece[0], piece[-1] + 1) for piece in pieces]
    with ThreadPoolExecutor(max(1, len(pieces) - 1)) as pool:  # starts no thread for one piece
        others = pool.map(solve_piece, pieces[1:])
        solve_piece(pieces[0])  # on the calling thread
        list(others)
    del solve_piece  # it calls itself: the cycle would hold the stack until a collection
    if vectors:
        failures.update(_residual_misses(rows[2], norms, f"dim={n}"))
    return norms, rows, failures


def _failure(n: int, norm: float, why) -> str:
    """eig's message for an n x n matrix of this norm that _solve failed, for why."""
    if why is None:
        return f"eig refused dim={n}: Frobenius norm {norm} is not finite"
    return why if isinstance(why, str) else f"eig failed for dim={n}, norm={norm:.3e}: {why}"


def eig(a: np.ndarray) -> Spectrum:
    """All eigenvalues and right eigenvectors of a dense complex matrix: _solve's one-matrix call.

    The eigenpairs are residual-checked; a matrix whose Frobenius norm is not
    finite (an entry beyond about 1e154, inf or nan) has no bound and is refused.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norms, (values, vectors, residuals), failures = _solve(a[None], vectors=True)
    if failures:
        raise EigenConvergenceError(_failure(a.shape[0], norms[0], failures[0]))
    return Spectrum(values[0], vectors[0], residuals[0], float(norms[0]))


def eigvals_stack(stack: np.ndarray, names: Sequence[str] | None = None) -> np.ndarray:
    """Eigenvalues of every matrix of a stack, shape (m, n, n) -> (m, n), on _solve's path.

    Row i equals np.linalg.eigvals of matrix i bit for bit; names[i] names it
    in errors ("matrix i" by default). Raises the first failure in stack
    order: NumericalError for a matrix whose Frobenius norm is not finite,
    never solved, or EigenConvergenceError for one whose solve fails.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    m, n = stack.shape[:2]
    if names is None:
        names = [f"matrix {i}" for i in range(m)]
    if len(names) != m:
        raise ValueError(f"got {len(names)} names for {m} matrices")
    norms, (values,), failures = _solve(stack, vectors=False)
    if failures:
        i = min(failures)
        if failures[i] is None:
            raise NumericalError(f"{names[i]}: Frobenius norm {norms[i]} is not finite")
        raise EigenConvergenceError(f"eigvals failed for {names[i]} (dim={n}): {failures[i]}")
    return values


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
    Raises NumericalError, unsolved, when ||a||_F is not finite, and
    EigenConvergenceError when ARPACK or the LU fails or a pair misses it.
    """
    import scipy.sparse
    import scipy.sparse.linalg as spla

    a = scipy.sparse.csc_array(a, dtype=complex)
    dim = a.shape[0]
    norm = _norms(a.data, what=f"eigs refused dim={dim}")
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
    if misses := _residual_misses(residuals[None], norm[None], f"dim={dim}, sigma={sigma:.6g}"):
        raise EigenConvergenceError(misses[0])
    return Spectrum(values, vectors, residuals, float(norm))


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

    Raises with a norm report when the result overflows.
    """
    import scipy.linalg  # imported where it is used, as scipy.sparse is

    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(a)
    if not np.all(np.isfinite(result)):
        raise MatrixExpOverflowError(
            f"exp overflowed: ||A||_F = {_norms(a):.3e}, "
            f"max Re(diag) = {np.max(a.diagonal().real):.3e}"
        )
    return result


def _pair_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Angles in [0, pi/2] between the spans of the rows u[k] and v[k], shape (K,).

    Near-parallel spans are resolved through the projection residual
    (sin of the angle), which stays accurate where arccos of the overlap
    saturates at sqrt(machine eps). Each row is computed on its own, so a
    pair's angle does not depend on the other rows.
    """
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    inner = (u.conj()[:, None, :] @ v[:, :, None])[:, 0, 0]
    cos_angle = np.minimum(1.0, np.abs(inner))
    residual = np.linalg.norm(v - u * inner[:, None], axis=-1)
    return np.where(
        cos_angle < 0.7, np.arccos(cos_angle), np.arcsin(np.minimum(1.0, residual))
    )


def principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi/2] between the one-dimensional spans of u and v."""
    return float(_pair_angles(np.atleast_2d(u), np.atleast_2d(v))[0])


def _clusters(values: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The clusters of every row of a stack of eigenvalues, shape (m, n).

    In row p, i and j share a cluster when a chain i = k0, k1, ..., j has
    every step |lambda_k - lambda_k'| <= eps[p]. A cluster's label is its
    smallest index. Returns the indices of each row in report order, the
    clusters one after another by (Re of the label's eigenvalue, label) with
    members ascending, and the label of each of them.
    """
    m, n = values.shape
    close = np.abs(values[:, :, None] - values[:, None, :]) <= eps[:, None, None]
    index = np.broadcast_to(np.arange(n), (m, n))
    labels = index
    while True:  # each pass lets a label travel one link further
        linked = np.where(close, labels[:, None, :], n).min(axis=-1, initial=n)
        if np.array_equal(linked, labels):
            break
        labels = linked
    order = np.lexsort((index, labels, np.take_along_axis(values.real, labels, -1)))
    return order, np.take_along_axis(labels, order, -1)


def _runs(labels: list[int]) -> list[tuple[int, int]]:
    """(start, stop) of every run of equal labels."""
    starts = [k for k in range(len(labels)) if k == 0 or labels[k] != labels[k - 1]]
    return list(zip(starts, starts[1:] + [len(labels)]))


def cluster_eigenvalues(values: np.ndarray, eps: float) -> list[list[int]]:
    """Group indices whose eigenvalues chain-link within distance eps.

    Each group lists its indices in ascending order; groups are ordered by
    the real part of their first index, then by that index.
    """
    values = np.asarray(values, dtype=complex)
    order, labels = _clusters(values[None], np.array([eps], dtype=float))
    members = order[0].tolist()
    return [members[start:stop] for start, stop in _runs(labels[0].tolist())]


@dataclass
class EigenvalueCluster:
    indices: tuple[int, ...]
    eigenvalues: np.ndarray
    min_angle: float | None  # None for singleton clusters
    coalescing: bool  # min_angle < angle_eps


@dataclass
class CoalescenceReport:
    """Cluster/angle diagnostics of one grid point of a parameter scan.

    best is the cluster of size >= 2 with the smallest min_angle (the first
    one on ties), None when every cluster is a singleton; it decides coalescing.
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


def _reports(
    params: Sequence[float],
    values: np.ndarray,
    vectors: np.ndarray,
    norms: np.ndarray,
    cluster_eps: float | None,
    angle_eps: float,
) -> list[CoalescenceReport]:
    """The CoalescenceReport of every point of an eigen-solved stack.

    values (m, n) and vectors (m, dim, n, unit-norm columns) are the
    eigenpairs of the m matrices at params, norms (m,) their Frobenius norms.
    The clusters of every point and the eigenvector angles of every pair
    within one are computed in batched array operations, each point on its
    own, so a point's report does not depend on the rest of the stack.
    """
    m, n = values.shape
    eps = CLUSTER_EPS_SCALE * norms if cluster_eps is None else np.full(m, float(cluster_eps))
    order, labels = _clusters(values, eps)
    # every pair of one cluster, as (point, first, second) in report order
    point, first, second = np.nonzero(
        (labels[:, :, None] == labels[:, None, :]) & np.triu(np.ones((n, n), dtype=bool), 1)
    )
    angles = np.full((m, n), np.inf)  # [point, label]: the cluster's smallest angle
    np.minimum.at(
        angles,
        (point, labels[point, first]),
        _pair_angles(
            vectors[point, :, order[point, first]], vectors[point, :, order[point, second]]
        ),
    )
    grouped = np.take_along_axis(values, order, -1)
    reports = []
    for param, row, row_order, row_labels, row_angles in zip(
        params, grouped, order, labels, angles
    ):
        # lists row by row: lists of the whole stack would outweigh its arrays
        members = row_order.tolist()
        row_labels = row_labels.tolist()
        row_angles = row_angles.tolist()
        clusters = []
        best = None
        for start, stop in _runs(row_labels):
            angle = row_angles[row_labels[start]] if stop - start >= 2 else None
            coalescing = bool(angle is not None and angle < angle_eps)
            cluster = EigenvalueCluster(
                tuple(members[start:stop]), row[start:stop], angle, coalescing
            )
            clusters.append(cluster)
            if angle is not None and (best is None or angle < best.min_angle):
                best = cluster
        coalescing = best is not None and best.coalescing
        reports.append(CoalescenceReport(param, clusters, best, coalescing))
    return reports


def coalescence_report(
    spectrum: Spectrum,
    param: float,
    cluster_eps: float | None = None,
    angle_eps: float = DEFAULT_ANGLE_EPS,
) -> CoalescenceReport:
    """The CoalescenceReport of one solved spectrum, the one-point stack of coalescence_scan.

    The spectrum may hold only a few of its matrix's eigenpairs, as eigs_near's does.
    """
    return _reports(
        [param],
        spectrum.eigenvalues[None],
        spectrum.eigenvectors[None],
        np.array([spectrum.norm]),
        cluster_eps,
        angle_eps,
    )[0]


def coalescence_scan(
    matrices: Sequence[np.ndarray],
    grid: Sequence[float],
    cluster_eps: float | None = None,
    angle_eps: float = DEFAULT_ANGLE_EPS,
) -> list[CoalescenceReport]:
    """One CoalescenceReport per grid point, in grid order.

    matrices[i] is the matrix at grid[i]; they must be square and of one
    shape. They are held together (len(grid) * n**2 complex numbers), solved
    on eig's path as one stack (see the module docstring) and reported as
    one stack, so each report equals coalescence_report of eig of its matrix,
    or records the error eig raises: a point whose norm is not finite is
    never solved, a residual miss is not solved again, and only the points
    of a piece whose solve fails are solved again, one at a time. Failures
    at points do not abort the scan.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    matrices = [np.asarray(m, dtype=complex) for m in matrices]
    if len(matrices) != len(grid):
        raise ValueError(f"got {len(matrices)} matrices for {len(grid)} grid points")
    shapes = sorted({m.shape for m in matrices})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError(f"expected square matrices of one shape, got shapes {shapes}")
    norms, (values, vectors, _), failures = _solve(np.stack(matrices), vectors=True)
    solved = [i for i in range(len(grid)) if i not in failures]
    batch = [grid[i] for i in solved], values[solved], vectors[solved], norms[solved]
    reports = dict(zip(solved, _reports(*batch, cluster_eps, angle_eps)))
    for i, why in failures.items():
        reports[i] = CoalescenceReport(grid[i], error=_failure(len(matrices[0]), norms[i], why))
    return [reports[i] for i in range(len(grid))]


def estimate_ep(reports: Sequence[CoalescenceReport]) -> CoalescenceReport | None:
    """The coalescing report with the smallest eigenvector angle, the first on ties.

    A report that does not coalesce (a failed point included) never wins, so
    a scan in which no point coalesces gives None.
    """
    candidates = [report for report in reports if report.coalescing]
    return min(candidates, key=lambda report: report.min_angle, default=None)
