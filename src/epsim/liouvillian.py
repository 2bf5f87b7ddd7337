"""Liouvillian superoperator assembly and first-moment dynamics.

Vectorization is column-stacking throughout: vec(rho) stacks columns
(Fortran-order ravel), so vec(A rho B) = (B^T kron A) vec(rho).

Generators are assembled sparse: every term is a scipy.sparse.kron of
Hilbert-space operators, summed in CSR form (about 1 % of the entries are
nonzero at d = 6). Superoperator.matrix gives the dense form on request.

With the drive removed, every term of the generator conserves
k = N_ket - N_bra, the total photon number on the ket side of rho minus that
on the bra side, for every thermal occupation (a U(1) symmetry of the
superoperator). The drive-free generator is therefore block-diagonal in k.
The spectrum check solves only the three sectors that hold what it
measures: k = +1 and k = -1 (the first moments <a>, <b> and their
conjugates, with the pair -gamma +- i*Omega) and k = 0 (the steady state),
by shift-invert sparse eigensolves near the targets (spectral.eigs_near),
140-146 positions each at d = 6 and about 2 d^3 / 3 in general. No dense
eigensolve of a sector is left, and the cutoff is limited only by a memory
estimate (witness_peak_bytes against WITNESS_MEMORY_BUDGET, d <= 26).

The first-moment dynamical matrix M = [[-i*ga, g], [g, -i*gb]] generates
d/dt [<a>, <b>] = -i M v - eps; its degeneracy at g = kappa defines
the coalescence of the full dissipative dynamics, independently of the
thermal photon number (the n-dependent terms cancel in the first moments).
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
from .fockspace import FockCutoff, Mode

if TYPE_CHECKING:  # scipy.sparse is imported where it is used, not at import time
    import scipy.sparse

WITNESS_MEMORY_BUDGET = 2**30  # bytes a spectrum check may need (witness_peak_bytes)
WITNESS_SHIFT = 0.1  # shift-invert offset right of -gamma and of 0, in units of gamma + g
_GENERATOR_COPIES = 5  # generators a liouvillian-check run holds at once (witness_peak_bytes)


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


def _kron(x: np.ndarray, y: np.ndarray) -> scipy.sparse.csr_array:
    """x kron y in CSR form."""
    import scipy.sparse as sps

    return sps.kron(sps.csr_array(x), sps.csr_array(y), format="csr")


def build_liouvillian(params: md.SystemParams, cutoff: FockCutoff | int) -> Superoperator:
    """Lindblad generator: -i[H, .] plus the dissipators of the collapse set.

    x rho is (1 kron x) vec(rho) and rho x is (x^T kron 1) vec(rho).
    """
    cut = FockCutoff.of(cutoff)
    eye = np.eye(cut.dim, dtype=complex)
    h = md.build_hamiltonian(params, cut)
    gen = -1j * (_kron(eye, h) - _kron(h.T, eye))
    for c in md.build_collapse_ops(params, cut):
        cdc = fs.dagger(c) @ c
        gen += _kron(c.conj(), c) - 0.5 * (_kron(eye, cdc) + _kron(cdc.T, eye))
    return Superoperator(gen, cut.dim)


def build_liouvillian_from_hnh(
    params: md.SystemParams, cutoff: FockCutoff | int
) -> Superoperator:
    """Equivalent assembly from the non-Hermitian Hamiltonian plus jump terms.

    Implements rho_dot = -i (H_nh rho - rho H_nh^dag) + sum C rho C^dag; must
    agree elementwise with build_liouvillian.
    """
    cut = FockCutoff.of(cutoff)
    eye = np.eye(cut.dim, dtype=complex)
    h_nh = md.build_h_nh(params, cut)
    gen = -1j * (_kron(eye, h_nh) - _kron(fs.dagger(h_nh).T, eye))
    for c in md.build_collapse_ops(params, cut):
        gen += _kron(c.conj(), c)
    return Superoperator(gen, cut.dim)


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
    a = fs.mode_annihilation(Mode.A, cut)
    b = fs.mode_annihilation(Mode.B, cut)
    rho_dot = gen.apply(rho)
    lhs = np.array([np.trace(a @ rho_dot), np.trace(b @ rho_dot)])
    mean_a = np.trace(a @ rho)
    mean_b = np.trace(b @ rho)
    rhs = -1j * dynamical_matrix(params) @ np.array([mean_a, mean_b]) - params.eps
    return MomentCheck(lhs=lhs, rhs=rhs, diff=lhs - rhs)


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
    generator eigenvalues. The cluster fields describe the eigenvalue group
    nearest to -gamma (degenerate with coalescing eigenvectors at g = kappa).
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
    d = FockCutoff.of(cutoff).d
    n_total = np.add.outer(np.arange(d), np.arange(d)).ravel()
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


def witness_peak_bytes(cutoff: FockCutoff | int) -> float:
    """Closed-form estimate of the peak memory (bytes) a spectrum check needs.

    It counts what grows with d, not the interpreter and its libraries. The
    driven generator with gain channels stores d^2 (17 d^2 - 24 d + 8)
    entries (exact for d >= 2; drive-free and n_th = 0 generators store
    fewer), 20 bytes each in CSR, and a liouvillian-check run holds up to
    _GENERATOR_COPIES of them at once: two driven assemblies, the drive-free
    generator and the temporaries of its assembly. The largest solved block
    is k = 0, with n = d (2 d^2 + 1) / 3 positions; its sparse LU held at
    most n^1.75 entries, 20 bytes each, at every d measured (4 to 24). Against
    the peak resident growth of liouvillian-check runs at n_th = 0.2 (d = 16,
    20, 24: 95, 219 and 476 MB) the estimate is 30-50 % high.
    """
    d = FockCutoff.of(cutoff).d
    generator = d * d * (17 * d * d - 24 * d + 8)
    block = d * (2 * d * d + 1) / 3
    return 20.0 * (_GENERATOR_COPIES * generator + block**1.75)


def check_witness_cutoff(cutoff: FockCutoff | int) -> None:
    """Raise ValueError when witness_peak_bytes exceeds WITNESS_MEMORY_BUDGET."""
    d = FockCutoff.of(cutoff).d
    need = witness_peak_bytes(d)
    if need > WITNESS_MEMORY_BUDGET:
        raise ValueError(
            f"spectrum check at cutoff d={d} needs an estimated {need / 1e6:.0f} MB, "
            f"over the {WITNESS_MEMORY_BUDGET / 1e6:.0f} MB budget"
        )


def liouvillian_spectrum_check(
    params: md.SystemParams, cutoff: FockCutoff | int
) -> SpectrumWitness:
    """Measure how closely the generator spectrum contains the first-moment pair.

    Runs with the drive removed: the drive enters the moment dynamics only
    as the affine term, so the generator spectrum is drive-independent (the
    test suite verifies this numerically at small drive). Without the drive
    the generator is block-diagonal in k = N_ket - N_bra. The targets
    -gamma +- i*Omega and the eigenvalue group nearest -gamma live in the
    sectors k = +1 and k = -1, the zero mode in k = 0; only those three
    blocks are solved (sector_block, sp.eigs_near), each settling the
    eigenvalues nearest its targets. The shifts sit WITNESS_SHIFT *
    (gamma + g) to the right of -gamma and of 0, never on a target: at the
    n_th = 0 EP, -gamma is itself a defective eigenvalue, and 0 is always
    an eigenvalue. Eigenvectors of different sectors are orthogonal, so
    cluster angles are computed within a sector only; the cluster tolerance
    is sp.CLUSTER_EPS_SCALE * ||L||_F of the whole generator.

    At n_th = 0 the first-moment sector is exactly closed in the truncated
    space, so the containment holds to rounding at any cutoff. For n_th > 0
    the gain channels couple the sector to the truncation boundary and the
    containment is only truncation-limited (converging with the cutoff);
    the n-independence of the full-dynamics coalescence is carried by the
    dynamical matrix, for which this check is a consistency witness only.

    The witness measures and does not judge: callers compare distances with
    their own bound. A coalescing pair is flagged below sp.DEFAULT_ANGLE_EPS.
    Raises ValueError for a cutoff over the memory budget
    (check_witness_cutoff).
    """
    cut = FockCutoff.of(cutoff)
    check_witness_cutoff(cut)
    der = _full_dynamics(params)
    gen = build_liouvillian(params.with_(eps=0.0), cut)
    anchor = -der.gamma_p + 0j
    targets = np.array([anchor + 1j * der.omega_p, anchor - 1j * der.omega_p])
    shift = WITNESS_SHIFT * (der.gamma_p + params.g)
    eps_cluster = sp.CLUSTER_EPS_SCALE * float(np.linalg.norm(gen.csr.data))
    moments = [
        sp.eigs_near(sector_block(gen, k), anchor + shift, [*targets, anchor], 4, eps_cluster)
        for k in (1, -1)
    ]
    steady = sp.eigs_near(sector_block(gen, 0), shift, [0.0], 2)

    values = np.concatenate([spectrum.eigenvalues for spectrum in moments])
    sectors = np.repeat([1, -1], [len(spectrum.eigenvalues) for spectrum in moments])
    dists = np.abs(values[None, :] - targets[:, None])
    nearest_idx = np.argmin(dists, axis=1)
    nearest = values[nearest_idx]
    distances = dists[np.arange(2), nearest_idx]
    zero_dist = float(np.min(np.abs(steady.eigenvalues)))

    clusters = sp.cluster_eigenvalues(values, eps_cluster)
    near_gamma = min(clusters, key=lambda grp: min(abs(values[i] - anchor) for i in grp))
    min_angle = None
    if len(near_gamma) >= 2:
        vectors = [v for spectrum in moments for v in spectrum.eigenvectors.T]
        min_angle = sp.cluster_min_angle(vectors, near_gamma, sectors)
    return SpectrumWitness(
        targets=targets,
        nearest=nearest,
        distances=distances,
        zero_mode_distance=zero_dist,
        cluster_size=len(near_gamma),
        cluster_min_angle=min_angle,
        degenerate_pair_flagged=min_angle is not None and min_angle < sp.DEFAULT_ANGLE_EPS,
    )
