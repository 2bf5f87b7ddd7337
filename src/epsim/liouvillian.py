"""Liouvillian superoperator assembly and first-moment dynamics.

Vectorization is column-stacking throughout: vec(rho) stacks columns
(Fortran-order ravel), so vec(A rho B) = (B^T kron A) vec(rho).

Generators are assembled sparse: every term is a scipy.sparse.kron of
Hilbert-space operators, summed in CSR form (about 1 % of the entries are
nonzero at d = 6). Superoperator.matrix gives the dense form on request.

With the drive removed, every term of the generator conserves
k = N_ket - N_bra, the total photon number on the ket side of rho minus that
on the bra side, for every thermal occupation (a U(1) symmetry of the
superoperator). The drive-free generator is therefore block-diagonal in k,
and the spectrum check diagonalizes it one sector at a time: 21 sectors, the
largest 146 x 146, instead of one dense 1296 x 1296 problem at d = 6.

The first-moment dynamical matrix M = [[-i*ga, g], [g, -i*gb]] generates
d/dt [<a>, <b>] = -i M v - [eps, eps]; its degeneracy at g = kappa defines
the coalescence of the full dissipative dynamics, independently of the
thermal photon number (the n-dependent terms cancel in the first moments).
"""

from __future__ import annotations

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


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
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
    rhs: np.ndarray  # closed-form -i M v - v0
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
    dyn = dynamical_matrix(params)
    rhs = -1j * dyn.matrix @ np.array([mean_a, mean_b]) - dyn.drive
    return MomentCheck(lhs=lhs, rhs=rhs, diff=lhs - rhs)


@dataclass
class DynamicalMatrix:
    """Generator of the first-moment vector [<a>, <b>]: v_dot = -i M v - drive."""

    matrix: np.ndarray
    drive: np.ndarray


def dynamical_matrix(params: md.SystemParams) -> DynamicalMatrix:
    m = np.array(
        [[-1j * params.gamma_a, params.g], [params.g, -1j * params.gamma_b]],
        dtype=complex,
    )
    return DynamicalMatrix(matrix=m, drive=np.array([params.eps, params.eps]))


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


def sector_spectrum(gen: Superoperator, cutoff: FockCutoff | int) -> SectorSpectrum:
    """Diagonalize a generator that conserves k = N_ket - N_bra, one block per k.

    Raises SpectrumWitnessError when the generator has an entry between
    different sectors, where the union of the block spectra would not be
    its spectrum. Each block's eigenpairs carry the residual bound
    tol * ||block|| <= tol * ||L|| of spectral.eig.
    """
    labels = sector_labels(cutoff)
    if gen.csr.shape != (labels.size, labels.size):
        raise ValueError(f"generator shape {gen.csr.shape} does not match cutoff {cutoff}")
    rows, cols = gen.csr.nonzero()
    crossing = int(np.count_nonzero(labels[rows] != labels[cols]))
    if crossing:
        raise SpectrumWitnessError(
            f"generator has {crossing} entries between sectors of N_ket - N_bra"
        )
    blocks = []
    for k in np.unique(labels):
        idx = np.flatnonzero(labels == k)
        block = gen.csr[idx][:, idx].toarray()
        blocks.append((idx, sp.eig(block, want_vectors=True)))
    sizes = [len(idx) for idx, _ in blocks]
    return SectorSpectrum(
        eigenvalues=np.concatenate([spec.eigenvalues for _, spec in blocks]),
        sectors=np.repeat(np.arange(len(blocks)), sizes),
        blocks=blocks,
        norm=float(np.linalg.norm(gen.csr.data)),
    )


def liouvillian_spectrum_check(
    params: md.SystemParams,
    cutoff: FockCutoff | int,
    tol: float = 1e-6,
    angle_eps: float = sp.DEFAULT_ANGLE_EPS,
) -> SpectrumWitness:
    """Check the generator spectrum contains the first-moment eigenvalues.

    Runs with the drive removed: the drive enters the moment dynamics only
    as the affine term, so the generator spectrum is drive-independent (the
    test suite verifies this numerically at small drive). Without the drive
    the generator is block-diagonal in k = N_ket - N_bra; its spectrum is
    the union of the sector spectra (sector_spectrum), and eigenvectors of
    different sectors are orthogonal, so cluster angles are computed within
    a sector only.

    At n_th = 0 the first-moment sector is exactly closed in the truncated
    space, so the containment holds to rounding at any cutoff. For n_th > 0
    the gain channels couple the sector to the truncation boundary and the
    containment is only truncation-limited (converging with the cutoff);
    the n-independence of the full-dynamics coalescence is carried by the
    dynamical matrix, for which this check is a consistency witness only.
    """
    cut = FockCutoff.of(cutoff)
    if cut.d > 8:
        raise ValueError(f"spectrum check limited to d <= 8, got d={cut.d}")
    der = _full_dynamics(params)
    spectrum = sector_spectrum(build_liouvillian(params.with_(eps=0.0), cut), cut)
    values = spectrum.eigenvalues
    targets = np.array([-der.gamma_p + 1j * der.omega_p, -der.gamma_p - 1j * der.omega_p])
    dists = np.abs(values[None, :] - targets[:, None])
    nearest_idx = np.argmin(dists, axis=1)
    nearest = values[nearest_idx]
    distances = dists[np.arange(2), nearest_idx]
    zero_dist = float(np.min(np.abs(values)))

    eps_cluster = sp.CLUSTER_EPS_SCALE * spectrum.norm
    clusters = sp.cluster_eigenvalues(values, eps_cluster)
    anchor = -der.gamma_p + 0j
    near_gamma = min(clusters, key=lambda grp: min(abs(values[i] - anchor) for i in grp))
    min_angle = None
    if len(near_gamma) >= 2:
        vectors = {i: spectrum.vector(i) for i in near_gamma}
        min_angle = sp.cluster_min_angle(vectors, near_gamma, spectrum.sectors)
    flagged = min_angle is not None and min_angle < angle_eps
    if distances.max() > tol:
        raise SpectrumWitnessError(
            f"generator spectrum misses first-moment eigenvalues: "
            f"distances {distances} exceed tol {tol}"
        )
    return SpectrumWitness(
        targets=targets,
        nearest=nearest,
        distances=distances,
        zero_mode_distance=zero_dist,
        cluster_size=len(near_gamma),
        cluster_min_angle=min_angle,
        degenerate_pair_flagged=flagged,
    )
