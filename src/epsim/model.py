"""Parameter bookkeeping, the thermal frame, and Hamiltonian builders for two
coupled lossy modes.

The physical model: two bosonic modes with exchange coupling g, coherent
drive eps on both modes, field damping rates gamma_a, gamma_b, and a common
mean thermal photon number n_th in both baths. All rates share one unit.

The non-Hermitian Hamiltonian governing no-jump conditional evolution is
H - (i/2) sum_i C_i^dag C_i. In displaced operators it splits into a
PT-symmetric part g(c+ d + d+ c) - i*kappa*(c+ c - d+ d) and a commuting
uniform-decay part -i*gamma*(c+ c + d+ d) - chi*I. The scalar chi produced
by completing the square is 2*eps^2*(g + i*gamma)/xi; its imaginary part is
the physically relevant uniform decay shift, while the real part is an
overall phase that must be kept for exact matrix reconstruction.

derive is the one place that decides the frame: every rate of DerivedParams
is scaled by 2 n_th + 1 (exactly 1 at n_th = 0), and the full-dynamics frame
is params.with_(n_th=0.0). The builders of the displaced operators
(c, c+, d, d+) and the supermodes (e, e+, f, f+) read derive. Their "+"
partners are *not* dagger pairs: they are built from the same linear
transformation as their lowercase halves, never by conjugate transposition.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fockspace as fs
from .errors import ChiPoleError, EPDegenerateError
from .fockspace import FockCutoff, Mode

# Supermode excitation labels (N_e, N_f) of the four tracked eigenstates.
TRACKED_STATES: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (2, 0), (0, 2))


def is_finite_number(value) -> bool:
    """A finite real number: int or float, numpy scalars included, bool not."""
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max  # finite, also for an int
    )


@dataclass(frozen=True)
class SystemParams:
    """Physical parameter set of one model instance (all rates in one unit)."""

    g: float
    gamma_a: float
    gamma_b: float
    eps: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        for name in ("g", "gamma_a", "gamma_b", "eps", "n_th"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            if not isinstance(value, float):
                # a Python int would stay exact and overflow later in g * g
                object.__setattr__(self, name, float(value))
        if self.g <= 0:
            raise ValueError(f"coupling g must be > 0, got {self.g}")
        for name in ("gamma_a", "gamma_b", "eps", "n_th"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def from_mean_split(
        cls,
        g: float,
        gamma: float,
        kappa: float,
        eps: float = 0.0,
        n_th: float = 0.0,
    ) -> "SystemParams":
        """Build from the mean damping gamma and the asymmetry kappa."""
        return cls(
            g=g, gamma_a=gamma + kappa, gamma_b=gamma - kappa, eps=eps, n_th=n_th
        )

    def with_(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form quantities of one parameter set, in the frame of its n_th.

    Every rate is scaled by 2 n + 1, exactly 1 at n = 0; the full-dynamics
    frame is derive(params.with_(n_th=0.0)). chi_t is the thermal reordering
    shift; chi_p keeps only the imaginary (decay) part of the drive-induced
    scalar while chi_p_full carries the whole complex scalar needed for exact
    matrix identities.
    """

    gamma_a_p: float
    gamma_b_p: float
    gamma_p: float
    kappa_p: float
    xi_p: float
    omega_p: complex
    chi_t: complex
    chi_p: complex
    chi_p_full: complex


def _branch_sqrt(disc: float) -> complex:
    """sqrt(disc) for disc >= 0, +i*sqrt(-disc) past the coalescence point."""
    if disc >= 0:
        return complex(math.sqrt(disc))
    return 1j * math.sqrt(-disc)


def derive(params: SystemParams) -> DerivedParams:
    g = params.g
    scale = 2.0 * params.n_th + 1.0
    gamma_a_p = params.gamma_a * scale
    gamma_b_p = params.gamma_b * scale
    gamma_p = 0.5 * (params.gamma_a + params.gamma_b) * scale
    kappa_p = 0.5 * (params.gamma_a - params.gamma_b) * scale
    xi_p = g * g + gamma_a_p * gamma_b_p
    if xi_p == 0.0:
        raise ChiPoleError("pole of chi: g^2 + gamma^2 - kappa^2 = 0")
    eps2 = params.eps * params.eps
    chi_t = 1j * (params.n_th * (params.gamma_a + params.gamma_b))
    return DerivedParams(
        gamma_a_p=gamma_a_p,
        gamma_b_p=gamma_b_p,
        gamma_p=gamma_p,
        kappa_p=kappa_p,
        xi_p=xi_p,
        omega_p=_branch_sqrt(g * g - kappa_p * kappa_p),
        chi_t=chi_t,
        chi_p=chi_t + 1j * (2.0 * eps2 * gamma_p / xi_p),
        chi_p_full=chi_t + 2.0 * eps2 * (g + 1j * gamma_p) / xi_p,
    )


class DisplacedOps(NamedTuple):
    c: np.ndarray
    c_plus: np.ndarray
    d_op: np.ndarray
    d_plus: np.ndarray


class SupermodeOps(NamedTuple):
    e: np.ndarray
    e_plus: np.ndarray
    f: np.ndarray
    f_plus: np.ndarray


def displacement_constants(params: SystemParams) -> tuple[complex, complex]:
    """Shifts (alpha, delta) that absorb the coherent drive into c and d.

    alpha = (gb' - i g) / xi' and delta = (ga' - i g) / xi'; the "+" partners
    shift by -alpha and -delta.
    """
    der = derive(params)
    alpha = (der.gamma_b_p - 1j * params.g) / der.xi_p
    delta = (der.gamma_a_p - 1j * params.g) / der.xi_p
    return alpha, delta


def displaced_ops(params: SystemParams, cutoff: FockCutoff | int) -> DisplacedOps:
    """Drive-displaced two-mode operators c, c+, d, d+.

    c = a + eps*alpha, c+ = a_dag - eps*alpha, d = b + eps*delta,
    d+ = b_dag - eps*delta. Note c+ is not the conjugate transpose of c.
    """
    cut = FockCutoff.of(cutoff)
    alpha, delta = displacement_constants(params)
    eps = params.eps
    eye = fs.two_mode_identity(cut)
    a = fs.mode_annihilation(Mode.A, cut)
    b = fs.mode_annihilation(Mode.B, cut)
    return DisplacedOps(
        c=a + eps * alpha * eye,
        c_plus=fs.dagger(a) + eps * (-alpha) * eye,
        d_op=b + eps * delta * eye,
        d_plus=fs.dagger(b) + eps * (-delta) * eye,
    )


def displaced_vacuum(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Joint kernel of c and d: the product coherent state |-eps*alpha, -eps*delta>."""
    alpha, delta = displacement_constants(params)
    eps = params.eps
    return np.kron(
        fs.coherent_state(-eps * alpha, cutoff), fs.coherent_state(-eps * delta, cutoff)
    )


def supermode_rotation(params: SystemParams) -> np.ndarray:
    """2x2 rotation mixing (c, d) into the normal modes (e, f).

    Rows follow [[cos(a/2), sin(a/2)], [-sin(a/2), cos(a/2)]] with
    sin(a/2) = sqrt((Omega' + i*kappa') / (2*Omega')). The sine branch is
    tied to the cosine one through sin*cos = g / (2*Omega'), which keeps the
    rotation complex-orthogonal (R^T R = 1) and diagonalizing on both sides
    of the coalescence point.
    """
    der = derive(params)
    g, kappa = params.g, der.kappa_p
    omega = np.complex128(der.omega_p)
    if omega == 0:
        raise EPDegenerateError(
            f"supermodes undefined at the coalescence point (g = kappa = {g})"
        )
    cos_half = np.sqrt((omega - 1j * kappa) / (2.0 * omega))
    sin_half = g / (2.0 * omega * cos_half)
    return np.array([[cos_half, sin_half], [-sin_half, cos_half]], dtype=complex)


def supermode_ops(params: SystemParams, cutoff: FockCutoff | int) -> SupermodeOps:
    """Normal-mode operators [e, f]^T = R [c, d]^T and [e+, f+]^T = R [c+, d+]^T."""
    rot = supermode_rotation(params)
    ops = displaced_ops(params, cutoff)
    e = rot[0, 0] * ops.c + rot[0, 1] * ops.d_op
    f = rot[1, 0] * ops.c + rot[1, 1] * ops.d_op
    e_plus = rot[0, 0] * ops.c_plus + rot[0, 1] * ops.d_plus
    f_plus = rot[1, 0] * ops.c_plus + rot[1, 1] * ops.d_plus
    return SupermodeOps(e, e_plus, f, f_plus)


def supermode_state(
    params: SystemParams, cutoff: FockCutoff | int, n_e: int, n_f: int
) -> np.ndarray:
    """Normalized (e+)^n_e (f+)^n_f acting on the displaced vacuum.

    These are right eigenvectors of the non-Hermitian Hamiltonian away from
    the coalescence point; they are not mutually orthogonal.
    """
    if n_e < 0 or n_f < 0:
        raise ValueError("excitation numbers must be nonnegative")
    ops = supermode_ops(params, cutoff)
    psi = displaced_vacuum(params, cutoff)
    for _ in range(n_e):
        psi = ops.e_plus @ psi
    for _ in range(n_f):
        psi = ops.f_plus @ psi
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("state annihilated by truncation; increase the cutoff")
    return psi / norm


def build_hamiltonian(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Hermitian part: g(a_dag b + b_dag a) + i*eps*(a - a_dag) + i*eps*(b - b_dag)."""
    cut = FockCutoff.of(cutoff)
    a = fs.mode_annihilation(Mode.A, cut)
    b = fs.mode_annihilation(Mode.B, cut)
    ad, bd = fs.dagger(a), fs.dagger(b)
    return (
        params.g * (ad @ b + bd @ a)
        + 1j * params.eps * (a - ad)
        + 1j * params.eps * (b - bd)
    )


def build_collapse_ops(
    params: SystemParams, cutoff: FockCutoff | int
) -> list[np.ndarray]:
    """Collapse operators: two loss channels, plus two gain channels if n_th > 0."""
    cut = FockCutoff.of(cutoff)
    a = fs.mode_annihilation(Mode.A, cut)
    b = fs.mode_annihilation(Mode.B, cut)
    ga, gb, n = params.gamma_a, params.gamma_b, params.n_th
    if n == 0.0:
        return [math.sqrt(2.0 * ga) * a, math.sqrt(2.0 * gb) * b]
    return [
        math.sqrt(2.0 * ga * (n + 1.0)) * a,
        math.sqrt(2.0 * ga * n) * fs.dagger(a),
        math.sqrt(2.0 * gb * (n + 1.0)) * b,
        math.sqrt(2.0 * gb * n) * fs.dagger(b),
    ]


def build_h_nh(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Non-Hermitian Hamiltonian H - (i/2) sum C_dag C from the collapse set."""
    h = build_hamiltonian(params, cutoff)
    for c in build_collapse_ops(params, cutoff):
        h = h - 0.5j * (fs.dagger(c) @ c)
    return h


def build_h_nh_direct(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Normal-ordered form: H - i*ga'*a_dag a - i*gb'*b_dag b - chi_t*I.

    Equals build_h_nh everywhere for n_th = 0 and on the interior projector
    for n_th > 0 (truncation leaves an a a_dag ordering defect at the top
    level only).
    """
    cut = FockCutoff.of(cutoff)
    der = derive(params)
    num_a = fs.embed(fs.number_op(cut), Mode.A, cut)
    num_b = fs.embed(fs.number_op(cut), Mode.B, cut)
    return (
        build_hamiltonian(params, cut)
        - 1j * der.gamma_a_p * num_a
        - 1j * der.gamma_b_p * num_b
        - der.chi_t * fs.two_mode_identity(cut)
    )


def build_drift_h(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Drift-only non-Hermitian Hamiltonian H - i*ga*a_dag a - i*gb*b_dag b.

    The full-dynamics frame: build_h_nh_direct at n_th = 0, so independent
    of n_th by construction and identical to build_h_nh at n_th = 0.
    """
    return build_h_nh_direct(params.with_(n_th=0.0), cutoff)


def build_h_pt_split(
    params: SystemParams, cutoff: FockCutoff | int
) -> tuple[np.ndarray, np.ndarray]:
    """Split into a PT-symmetric part and a commuting uniform-decay part.

    Returns (h_pt, h_decay) with
      h_pt    = g (c+ d + d+ c) - i*kappa' (c+ c - d+ d)
      h_decay = -i*gamma' (c+ c + d+ d) - chi'_full * I
    in the rates of the params' frame (scaled by 2 n + 1). The sum
    reconstructs the normal-ordered non-Hermitian Hamiltonian exactly (full
    complex chi), and the two parts commute on the interior projector.
    """
    cut = FockCutoff.of(cutoff)
    der = derive(params)
    ops = displaced_ops(params, cut)
    cpc = ops.c_plus @ ops.c
    dpd = ops.d_plus @ ops.d_op
    h_pt = (
        params.g * (ops.c_plus @ ops.d_op + ops.d_plus @ ops.c)
        - 1j * der.kappa_p * cpc
        + 1j * der.kappa_p * dpd
    )
    eye = fs.two_mode_identity(cut)
    h_decay = -1j * der.gamma_p * (cpc + dpd) - der.chi_p_full * eye
    return h_pt, h_decay


def analytic_lambda_pt(n_e: int, n_f: int, derived: DerivedParams) -> complex:
    """Balanced-frame eigenvalue Omega' * (N_e - N_f)."""
    return derived.omega_p * (n_e - n_f)


def analytic_lambda_nh(
    n_e: int, n_f: int, derived: DerivedParams, full_chi: bool = False
) -> complex:
    """Eigenvalue Omega' (N_e - N_f) - i*gamma' (N_e + N_f) - chi'.

    Uses the rates scaled by (2 n + 1) of the derived params. By default chi'
    keeps only its imaginary part (the convention used for the reported
    spectra); full_chi=True adds back the real part so the value matches a
    direct numeric diagonalization of the built matrix.
    """
    chi = derived.chi_p_full if full_chi else derived.chi_p
    return derived.omega_p * (n_e - n_f) - 1j * derived.gamma_p * (n_e + n_f) - chi


def hep_coupling(kappa: float, n_th: float = 0.0) -> float:
    """Coupling at which the conditional (no-jump) spectrum coalesces."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return (2.0 * n_th + 1.0) * kappa


def lep_coupling(kappa: float) -> float:
    """Coupling at which the first-moment dynamics coalesces (n-independent)."""
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    return kappa


def block_indices(n_total: int, cutoff: FockCutoff | int) -> np.ndarray:
    """Two-mode basis indices with n_a + n_b = n_total."""
    d = FockCutoff.of(cutoff).d
    idx = [
        n_a * d + (n_total - n_a)
        for n_a in range(d)
        if 0 <= n_total - n_a < d
    ]
    if not idx:
        raise ValueError(f"excitation number {n_total} empty at cutoff d={d}")
    return np.array(idx, dtype=int)


def excitation_block(
    matrix: np.ndarray, n_total: int, cutoff: FockCutoff | int
) -> np.ndarray:
    """Submatrix on the fixed-total-excitation subspace.

    An invariant subspace of the undriven builders; with a drive the block is
    not invariant and the restriction is only a projection.
    """
    idx = block_indices(n_total, cutoff)
    return matrix[np.ix_(idx, idx)]


def h_nh_block(
    params: SystemParams, cutoff: FockCutoff | int, n_total: int
) -> np.ndarray:
    """Fixed-excitation block of the undriven non-Hermitian Hamiltonian.

    Built in closed form in the basis |n_a, N - n_a>, n_a = 0 .. N, with
    s = 2 n_th + 1:
      diagonal      -i [gamma_a (s n_a + n_th) + gamma_b (s (N - n_a) + n_th)]
      off-diagonal  g sqrt((n_a + 1)(N - n_a))
    The drive is dropped (it only adds a uniform complex shift to every
    eigenvalue, leaving coalescence positions untouched), so the block is an
    exact invariant subspace. The gain terms use a a_dag = a_dag a + 1 at
    every level, so the block is the untruncated one: the cutoff only bounds
    N <= d - 1. It equals excitation_block(build_h_nh(...)) up to rounding
    for N <= d - 2, and for N = d - 1 at n_th = 0; at N = d - 1 with
    n_th > 0 the truncated build drops the gain term of the top level.
    """
    d = FockCutoff.of(cutoff).d
    if not 0 <= n_total < d:
        raise ValueError(
            f"excitation number {n_total} outside 0 .. {d - 1} at cutoff d={d}"
        )
    s = 2.0 * params.n_th + 1.0
    block = np.zeros((n_total + 1, n_total + 1), dtype=complex)
    for n_a in range(n_total + 1):
        n_b = n_total - n_a
        block[n_a, n_a] = -1j * (
            params.gamma_a * (s * n_a + params.n_th)
            + params.gamma_b * (s * n_b + params.n_th)
        )
        if n_b:
            hop = params.g * math.sqrt((n_a + 1) * n_b)
            block[n_a, n_a + 1] = block[n_a + 1, n_a] = hop
    return block


_PT_MONOMIAL_MAP = {"c+c": "d+d", "d+d": "c+c", "c+d": "d+c", "d+c": "c+d", "I": "I"}


def pt_coefficient_tableau(
    params: SystemParams, cutoff: FockCutoff | int
) -> tuple[dict[str, complex], float]:
    """Fit the PT part onto the displaced-operator monomial basis.

    Returns the coefficient tableau over {c+c, d+d, c+d, d+c, I} and the
    least-squares fit residual (which should be at rounding level).
    """
    cut = FockCutoff.of(cutoff)
    ops = displaced_ops(params, cut)
    basis = {
        "c+c": ops.c_plus @ ops.c,
        "d+d": ops.d_plus @ ops.d_op,
        "c+d": ops.c_plus @ ops.d_op,
        "d+c": ops.d_plus @ ops.c,
        "I": fs.two_mode_identity(cut),
    }
    h_pt, _ = build_h_pt_split(params, cut)
    names = list(basis)
    mat = np.stack([basis[name].ravel() for name in names], axis=1)
    coeffs, *_ = np.linalg.lstsq(mat, h_pt.ravel(), rcond=None)
    residual = float(np.linalg.norm(mat @ coeffs - h_pt.ravel()))
    return dict(zip(names, coeffs)), residual


def pt_symmetry_defect(params: SystemParams, cutoff: FockCutoff | int) -> float:
    """Max deviation of the PT-part tableau under the PT substitution rules.

    PT maps c -> -d, d -> -c (and likewise the "+" partners) and conjugates
    scalars; the quadratic monomials therefore swap as c+c <-> d+d and
    c+d <-> d+c with conjugated coefficients. Zero defect means the
    substitution rules map the PT part onto itself.
    """
    tableau, residual = pt_coefficient_tableau(params, cutoff)
    defect = max(
        abs(tableau[name] - np.conj(tableau[image]))
        for name, image in _PT_MONOMIAL_MAP.items()
    )
    return max(defect, residual)
