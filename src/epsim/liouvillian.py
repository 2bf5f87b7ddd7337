"""Liouvillian superoperator assembly and first-moment dynamics.

Vectorization is column-stacking throughout: vec(rho) stacks columns
(Fortran-order ravel), so vec(A rho B) = (B^T kron A) vec(rho).

Generators are assembled sparse: every term is a Kronecker product of
Hilbert-space operators (_kron, stored entry for entry as scipy.sparse.kron
stores it), summed in CSR form (about 1 % of the entries are nonzero at
d = 6). Superoperator.matrix gives the dense form on request.

With the drive removed, every term of the generator conserves
k = N_ket - N_bra, the total photon number on the ket side of rho minus that
on the bra side, for every thermal occupation (a U(1) symmetry of the
superoperator). The drive-free generator is therefore block-diagonal in k.
The spectrum witness reads two sectors: k = +1 (the first moments, with the
pair -gamma +- i*Omega, judged by the scans' spectral.coalescence_report)
and k = 0 (the steady state), solved by shift-invert sparse eigensolves near
the targets (spectral.eigs_near), 140-146 positions each at d = 6 and about
2 d^3 / 3 in general. Each drive-free sector is its own conjugate:
S = diag((-1)^(n_a,ket + n_a,bra)) on vec(rho), the map rho -> P rho P for
the parity P = (-1)^n_a, keeps every sector, and the drive-free generator has
S L S = conj(L) exactly (the coupling changes sign under P, the dissipators
do not). So the spectrum of each sector is closed under conjugation, and
k = +1 holds both targets. No dense eigensolve of a sector is left, and the
cutoff is limited only by a memory estimate (witness_peak_bytes against
model.MEMORY_BUDGET, d <= 27).

The first-moment dynamical matrix M = [[-i*ga, g], [g, -i*gb]] generates
d/dt [<a>, <b>] = -i M v - eps; its degeneracy at g = kappa defines
the coalescence of the full dissipative dynamics, independently of the
thermal photon number (the n-dependent terms cancel in the first moments).

Trace preservation and this closure are linear in rho: adjoint_defects
checks both on the adjoint generator, for every state at once, and
moment_rhs_check is the closure's per-state form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import fockspace as fs
from . import model as md
from . import spectral as sp
from .errors import InvalidDensityMatrixError, SpectrumWitnessError
from .fockspace import FockCutoff

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, not at import time
    import scipy.sparse

WITNESS_SHIFT = 0.1  # shift-invert offset right of -gamma and of 0, in units of gamma + g
_GENERATOR_COPIES = 4  # generator sizes a liouvillian-check run holds at once (witness_peak_bytes)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).ravel(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape((dim, dim), order="F")


@dataclass
class Superoperator:
    """Sparse (CSR) matrix form of a superoperator acting on vec(rho)."""

    csr: scipy.sparse.csr_array
    hilbert_dim: int

    @property
    def matrix(self) -> np.ndarray:
        """Dense form of the superoperator, built on each access."""
        return self.csr.toarray()

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.csr @ vec(rho))


def _packed(z: np.ndarray, index_dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of a dense square matrix packed left, row by row.

    Returns the values, columns and occupied-slot mask on a (rows, largest
    row count) grid, column order kept within each row, and the row counts.
    """
    rows, cols = np.nonzero(z)
    count = np.bincount(rows, minlength=len(z))
    slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    values = np.zeros((len(z), count.max(initial=0)), dtype=z.dtype)
    columns = np.zeros(values.shape, dtype=index_dtype)
    filled = np.zeros(values.shape, dtype=bool)
    values[rows, slot] = z[rows, cols]
    columns[rows, slot] = cols
    filled[rows, slot] = True
    return values, columns, filled, count


def _kron(x: np.ndarray, y: np.ndarray) -> scipy.sparse.csr_array:
    """x kron y in CSR form, stored as scipy.sparse.kron(csr_array(x), csr_array(y)).

    Row i * m + j (m = len(y)) holds x[i, k] * y[j, l] for the nonzero
    x[i, k] and y[j, l], k then l ascending, products that underflow to 0
    included: the broadcast product of the two packed grids, masked to the
    occupied slots, is that row-major order. Index dtype int32 whenever it
    holds every index, as scipy's.
    """
    import scipy.sparse as sps

    m = len(y)
    shape = (x.shape[0] * m, x.shape[1] * y.shape[1])
    size = max(np.count_nonzero(x) * np.count_nonzero(y), *shape)
    index_dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    x_values, x_cols, x_filled, x_count = _packed(x, index_dtype)
    y_values, y_cols, y_filled, y_count = _packed(y, index_dtype)
    filled = x_filled[:, None, :, None] & y_filled[None, :, None, :]
    data = (x_values[:, None, :, None] * y_values[None, :, None, :])[filled]
    indices = (x_cols[:, None, :, None] * m + y_cols[None, :, None, :])[filled]
    indptr = np.zeros(shape[0] + 1, dtype=index_dtype)
    np.cumsum(np.multiply.outer(x_count, y_count), out=indptr[1:])
    return sps.csr_array((data, indices, indptr), shape=shape)


def _trimmed(gen: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """gen with its data and indices in buffers of exactly nnz entries.

    scipy's csr + csr allocates nnz(a) + nnz(b) entries and keeps views into
    them unless more than half go unused; a copy frees the slack.
    """
    gen.data = gen.data.copy()
    gen.indices = gen.indices.copy()
    return gen


def build_liouvillian(params: md.SystemParams, cutoff: FockCutoff | int) -> Superoperator:
    """Lindblad generator: -i[H, .] plus the dissipators of the collapse set.

    x rho is (1 kron x) vec(rho) and rho x is (x^T kron 1) vec(rho).
    """
    cut = FockCutoff.of(cutoff)
    eye = cut.ops.eye
    h = md.build_hamiltonian(params, cut)
    gen = -1j * (_kron(eye, h) - _kron(h.T, eye))
    for c in md.build_collapse_ops(params, cut):
        cdc = fs.dagger(c) @ c
        gen += _kron(c.conj(), c) - 0.5 * (_kron(eye, cdc) + _kron(cdc.T, eye))
    return Superoperator(_trimmed(gen), cut.dim)


def build_liouvillian_from_hnh(
    params: md.SystemParams, cutoff: FockCutoff | int
) -> Superoperator:
    """Equivalent assembly from the non-Hermitian Hamiltonian plus jump terms.

    Implements rho_dot = -i (H_nh rho - rho H_nh^dag) + sum C rho C^dag; must
    agree elementwise with build_liouvillian.
    """
    cut = FockCutoff.of(cutoff)
    eye = cut.ops.eye
    h_nh = md.build_h_nh(params, cut)
    gen = -1j * (_kron(eye, h_nh) - _kron(fs.dagger(h_nh).T, eye))
    for c in md.build_collapse_ops(params, cut):
        gen += _kron(c.conj(), c)
    return Superoperator(_trimmed(gen), cut.dim)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    tol = 1e-8
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDensityMatrixError(f"not square: shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > tol:
        raise InvalidDensityMatrixError(f"trace {np.trace(rho):.6g} != 1")
    if np.linalg.norm(rho - rho.conj().T) > tol * max(1.0, np.linalg.norm(rho)):
        raise InvalidDensityMatrixError("not Hermitian")
    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < -tol:
        raise InvalidDensityMatrixError(f"negative eigenvalue {lowest:.3e}")
    return rho


def interior_density_matrix(
    cutoff: FockCutoff | int, rng: np.random.Generator, margin: int = 1
) -> np.ndarray:
    """Random full-rank density matrix supported on the interior levels.

    Interior support keeps first-moment identities free of truncation
    defects, which live at the top Fock level.
    """
    cut = FockCutoff.of(cutoff)
    idx = fs.interior_indices(cut, margin)
    k = len(idx)
    raw = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    block = raw @ raw.conj().T
    block /= np.trace(block).real
    rho = np.zeros((cut.dim, cut.dim), dtype=complex)
    rho[np.ix_(idx, idx)] = block
    return rho


@dataclass
class MomentCheck:
    """First-moment derivatives from the full generator vs the closed form."""

    lhs: np.ndarray  # (d<a>/dt, d<b>/dt) via tr(op L[rho])
    rhs: np.ndarray  # closed-form -i M v - eps
    diff: np.ndarray

    @property
    def max_abs_diff(self) -> float:
        return float(np.max(np.abs(self.diff)))


def moment_rhs_check(
    params: md.SystemParams,
    cutoff: FockCutoff | int,
    rho: np.ndarray,
    liouvillian: Superoperator | None = None,
) -> MomentCheck:
    """Compare tr(a L[rho]) against -ga <a> - i g <b> - eps (and the b analog).

    The closed form holds for every thermal photon number; the n-dependent
    dissipator terms cancel in the first moments.
    """
    cut = FockCutoff.of(cutoff)
    rho = validate_density_matrix(rho)
    gen = liouvillian if liouvillian is not None else build_liouvillian(params, cut)
    a, b = cut.ops.a, cut.ops.b
    rho_dot = gen.apply(rho)
    lhs = np.array([np.trace(a @ rho_dot), np.trace(b @ rho_dot)])
    mean_a = np.trace(a @ rho)
    mean_b = np.trace(b @ rho)
    rhs = -1j * dynamical_matrix(params) @ np.array([mean_a, mean_b]) - params.eps
    return MomentCheck(lhs=lhs, rhs=rhs, diff=lhs - rhs)


def adjoint_defects(params: md.SystemParams, gen: Superoperator) -> tuple[float, float]:
    """How far the adjoint generator is from trace preservation and the moment closure.

    The adjoint L^dagger(x) = unvec(L^T vec(x^T))^T has tr(x L[rho]) =
    tr(L^dagger(x) rho) for every rho. Returns two spectral norms, each
    bounding its per-state reading for every density matrix on its support
    (|tr(F rho)| <= ||F||_2 ||rho||_1 = ||F||_2):
    - trace: ||L^dagger(I)||_2 over the whole space, bounding |tr(L[rho])|;
      zero for any truncated H and collapse set;
    - moment: the larger of ||L^dagger(a) + i (M_00 a + M_01 b) + eps I||_2
      and its b analog on the interior levels (fs.interior_indices, margin
      1), bounding moment_rhs_check's max_abs_diff there. The truncation
      boundary breaks the closure by O(1) outside them.
    The cutoff d is read from the generator (hilbert_dim = d^2).
    """
    cut = FockCutoff.of(math.isqrt(gen.hilbert_dim))
    ops = cut.ops

    def heisenberg(x: np.ndarray) -> np.ndarray:
        return unvec(gen.csr.T @ vec(x.T)).T

    trace = float(np.linalg.norm(heisenberg(ops.eye), 2))
    interior = np.ix_(*2 * (fs.interior_indices(cut),))
    rates = -1j * dynamical_matrix(params)
    defects = [
        heisenberg(x) - rate[0] * ops.a - rate[1] * ops.b + params.eps * ops.eye
        for x, rate in zip((ops.a, ops.b), rates)
    ]
    moment = max(float(np.linalg.norm(defect[interior], 2)) for defect in defects)
    return trace, moment


def dynamical_matrix(params: md.SystemParams) -> np.ndarray:
    """M of the first-moment vector v = [<a>, <b>]: v_dot = -i M v - eps."""
    return np.array(
        [[-1j * params.gamma_a, params.g], [params.g, -1j * params.gamma_b]],
        dtype=complex,
    )


def _full_dynamics(params: md.SystemParams) -> md.DerivedParams:
    """The unscaled rates of the first moments, whatever n_th."""
    return md.derive(params.with_(n_th=0.0))


def lambda_pm(params: md.SystemParams) -> tuple[complex, complex]:
    """Closed-form eigenvalues of the dynamical matrix: +-Omega - i*gamma."""
    der = _full_dynamics(params)
    return der.omega_p - 1j * der.gamma_p, -der.omega_p - 1j * der.gamma_p


def v_pm(params: md.SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvectors [+-Omega - i*kappa, g], normalized."""
    der = _full_dynamics(params)
    plus = np.array([der.omega_p - 1j * der.kappa_p, params.g], dtype=complex)
    minus = np.array([-der.omega_p - 1j * der.kappa_p, params.g], dtype=complex)
    return plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)


@dataclass
class SpectrumWitness:
    """Full-generator spectral check against the first-moment sector.

    targets are -gamma +- i*Omega; nearest/distances report the closest
    eigenvalues of sector k = +1. The cluster fields describe its eigenvalue
    group nearest to -gamma (degenerate with coalescing eigenvectors at
    g = kappa).
    """

    targets: np.ndarray
    nearest: np.ndarray
    distances: np.ndarray
    zero_mode_distance: float
    cluster_size: int
    cluster_min_angle: float | None
    degenerate_pair_flagged: bool


def sector_labels(cutoff: FockCutoff | int) -> np.ndarray:
    """k = N_ket - N_bra of every vec(rho) position.

    Position i + dim * j holds rho[i, j]; N is the total photon number
    n_a + n_b of a two-mode basis state.
    """
    ops = FockCutoff.of(cutoff).ops
    n_total = ops.occ_a + ops.occ_b
    return np.subtract.outer(n_total, n_total).ravel(order="F")


def sector_block(gen: Superoperator, k: int) -> scipy.sparse.csc_array:
    """The block of a generator on the vec(rho) positions of sector k, in CSC form.

    The cutoff d is read from the generator (hilbert_dim = d^2). Raises
    SpectrumWitnessError when the generator has an entry between sector k
    and another sector, where the block's eigenpairs would not be the
    generator's.
    """
    labels = sector_labels(math.isqrt(gen.hilbert_dim))
    idx = np.flatnonzero(labels == k)
    rows = gen.csr[idx]
    cols = gen.csr[:, idx].tocsc()
    crossing = sum(
        int(np.count_nonzero(labels[part.indices[part.data != 0]] != k))
        for part in (rows, cols)
    )
    if crossing:
        raise SpectrumWitnessError(
            f"generator has {crossing} entries between sector {k} of N_ket - N_bra "
            f"and other sectors"
        )
    return rows[:, idx].tocsc()


def generator_entries(cutoff: FockCutoff | int) -> int:
    """Entries the driven generator with gain channels stores: d^2 (17 d^2 - 24 d + 8).

    Exact for d >= 2; drive-free and n_th = 0 generators store fewer. Each
    takes 20 bytes in CSR (a complex value and an int32 column index).
    """
    d = FockCutoff.of(cutoff).d
    return d * d * (17 * d * d - 24 * d + 8)


def witness_peak_bytes(cutoff: FockCutoff | int) -> float:
    """Closed-form estimate of the peak memory (bytes) a liouvillian-check run needs.

    It counts what grows with d, not the interpreter and its libraries. It
    counts _GENERATOR_COPIES of the driven generator (generator_entries, 20
    bytes each): a liouvillian-check run peaks while it assembles the second
    driven generator, holding the first, the partial sum and the sum being
    formed.
    The largest solved block is k = 0, with n = d (2 d^2 + 1) / 3 positions;
    its sparse LU held at most n^1.75 entries, 20 bytes each, at every d
    measured (4 to 24). The run releases the driven pair before the LU, so
    adding both is an upper bound. Against the peak resident growth over a
    d = 3 run (n_th = 0.2; d = 16, 20, 24: 85, 202, 398 MiB) it is 15, 27
    and 44 % high.
    """
    d = FockCutoff.of(cutoff).d
    generator = generator_entries(d)
    block = d * (2 * d * d + 1) / 3
    return 20.0 * (_GENERATOR_COPIES * generator + block**1.75)


def liouvillian_spectrum_check(
    params: md.SystemParams, cutoff: FockCutoff | int
) -> SpectrumWitness:
    """Measure how closely the generator spectrum contains the first-moment pair.

    Runs with the drive removed: the drive enters the moment dynamics only
    as the affine term, so the generator spectrum is drive-independent (the
    test suite verifies this numerically at small drive). Without the drive
    the generator is block-diagonal in k = N_ket - N_bra, and each sector's
    spectrum is closed under conjugation (module docstring). Two blocks are
    solved (sector_block, sp.eigs_near): k = +1, which holds both targets
    -gamma +- i*Omega and the eigenvalue group nearest -gamma, and k = 0,
    which holds the zero mode. The shifts sit WITNESS_SHIFT * (gamma + g)
    to the right of -gamma and of 0, never on a target: at the n_th = 0 EP,
    -gamma is itself a defective eigenvalue, and 0 is always an eigenvalue.
    The group nearest -gamma is judged by sp.coalescence_report, as a scan
    point is, with cluster tolerance sp.CLUSTER_EPS_SCALE * ||L||_F of L.

    At n_th = 0 the first-moment sector is exactly closed in the truncated
    space, so the containment holds to rounding at any cutoff. For n_th > 0
    the gain channels couple the sector to the truncation boundary and the
    containment is only truncation-limited (converging with the cutoff);
    the n-independence of the full-dynamics coalescence is carried by the
    dynamical matrix, for which this check is a consistency witness only.

    The witness measures and does not judge: callers compare distances with
    their own bound. Raises ValueError for a cutoff whose witness_peak_bytes exceeds
    md.MEMORY_BUDGET, and NumericalError, before any solve, when the
    generator's Frobenius norm (it sets the cluster tolerance) is not finite.
    """
    cut = FockCutoff.of(cutoff)
    md.check_memory(witness_peak_bytes(cut), f"Liouvillian witness at cutoff d={cut.d}")
    der = _full_dynamics(params)
    gen = build_liouvillian(params.with_(eps=0.0), cut)
    anchor = -der.gamma_p + 0j
    targets = np.array([anchor + 1j * der.omega_p, anchor - 1j * der.omega_p])
    shift = WITNESS_SHIFT * (der.gamma_p + params.g)
    norm = sp._norms(gen.csr.data, what=f"Liouvillian generator at cutoff d={cut.d}")
    eps_cluster = sp.CLUSTER_EPS_SCALE * float(norm)
    plus = sp.eigs_near(sector_block(gen, 1), anchor + shift, [*targets, anchor], 4, eps_cluster)
    steady = sp.eigs_near(sector_block(gen, 0), shift, [0.0], 2)

    values = plus.eigenvalues
    dists = np.abs(values[None, :] - targets[:, None])
    nearest_idx = np.argmin(dists, axis=1)
    clusters = sp.coalescence_report(plus, params.g, eps_cluster).clusters
    near_gamma = min(clusters, key=lambda c: min(abs(value - anchor) for value in c.eigenvalues))
    return SpectrumWitness(
        targets=targets,
        nearest=values[nearest_idx],
        distances=dists[np.arange(2), nearest_idx],
        zero_mode_distance=float(np.min(np.abs(steady.eigenvalues))),
        cluster_size=len(near_gamma.indices),
        cluster_min_angle=near_gamma.min_angle,
        degenerate_pair_flagged=near_gamma.coalescing,
    )
