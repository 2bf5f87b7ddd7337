"""Parameter bookkeeping and Hamiltonian builders for two coupled lossy modes.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fockspace as fs
from .errors import ChiPoleError
from .fockspace import FockCutoff, Mode

# Supermode excitation labels (N_e, N_f) of the four tracked eigenstates.
TRACKED_STATES: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (2, 0), (0, 2))


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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    """Closed-form quantities derived from one parameter set.

    The *_p fields are the thermal-scaled counterparts (rates multiplied by
    2 n + 1); chi_t is the thermal reordering shift; chi and chi_p keep only
    the imaginary (decay) part while chi_full and chi_p_full carry the whole
    complex scalar needed for exact matrix identities.
    """

    gamma: float
    kappa: float
    xi: float
    omega: complex
    chi: complex
    chi_full: complex
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
    gamma = 0.5 * (params.gamma_a + params.gamma_b)
    kappa = 0.5 * (params.gamma_a - params.gamma_b)
    xi = g * g + params.gamma_a * params.gamma_b
    if xi == 0.0:
        raise ChiPoleError("pole of chi: g^2 + gamma^2 - kappa^2 = 0")
    eps2 = params.eps * params.eps
    chi_full = 2.0 * eps2 * (g + 1j * gamma) / xi
    chi = 1j * (2.0 * eps2 * gamma / xi)

    scale = 2.0 * params.n_th + 1.0
    gamma_p = gamma * scale
    kappa_p = kappa * scale
    xi_p = g * g + (params.gamma_a * scale) * (params.gamma_b * scale)
    if xi_p == 0.0:
        raise ChiPoleError("pole of thermal chi: g^2 + (gamma'^2 - kappa'^2) = 0")
    chi_t = 1j * (params.n_th * (params.gamma_a + params.gamma_b))
    chi_p = chi_t + 1j * (2.0 * eps2 * gamma_p / xi_p)
    chi_p_full = chi_t + 2.0 * eps2 * (g + 1j * gamma_p) / xi_p
    return DerivedParams(
        gamma=gamma,
        kappa=kappa,
        xi=xi,
        omega=_branch_sqrt(g * g - kappa * kappa),
        chi=chi,
        chi_full=chi_full,
        gamma_p=gamma_p,
        kappa_p=kappa_p,
        xi_p=xi_p,
        omega_p=_branch_sqrt(g * g - kappa_p * kappa_p),
        chi_t=chi_t,
        chi_p=chi_p,
        chi_p_full=chi_p_full,
    )


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
    scale = 2.0 * params.n_th + 1.0
    num_a = fs.embed(fs.number_op(cut), Mode.A, cut)
    num_b = fs.embed(fs.number_op(cut), Mode.B, cut)
    chi_t = 1j * (params.n_th * (params.gamma_a + params.gamma_b))
    return (
        build_hamiltonian(params, cut)
        - 1j * (params.gamma_a * scale) * num_a
        - 1j * (params.gamma_b * scale) * num_b
        - chi_t * fs.two_mode_identity(cut)
    )


def build_drift_h(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Drift-only non-Hermitian Hamiltonian H - i*ga*a_dag a - i*gb*b_dag b.

    Independent of n_th by construction; identical to build_h_nh at n_th = 0.
    """
    cut = FockCutoff.of(cutoff)
    num_a = fs.embed(fs.number_op(cut), Mode.A, cut)
    num_b = fs.embed(fs.number_op(cut), Mode.B, cut)
    return (
        build_hamiltonian(params, cut)
        - 1j * params.gamma_a * num_a
        - 1j * params.gamma_b * num_b
    )


def build_h_pt_split(
    params: SystemParams, cutoff: FockCutoff | int, thermal: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Split into a PT-symmetric part and a commuting uniform-decay part.

    Returns (h_pt, h_decay) with
      h_pt    = g (c+ d + d+ c) - i*kappa (c+ c - d+ d)
      h_decay = -i*gamma (c+ c + d+ d) - chi_full * I
    using thermal-scaled rates when thermal=True. The sum reconstructs the
    normal-ordered non-Hermitian Hamiltonian exactly (full complex chi),
    and the two parts commute on the interior projector.
    """
    cut = FockCutoff.of(cutoff)
    der = derive(params)
    kappa = der.kappa_p if thermal else der.kappa
    gamma = der.gamma_p if thermal else der.gamma
    chi_full = der.chi_p_full if thermal else der.chi_full
    ops = fs.displaced_ops(params, cut, thermal)
    cpc = ops.c_plus @ ops.c
    dpd = ops.d_plus @ ops.d_op
    h_pt = (
        params.g * (ops.c_plus @ ops.d_op + ops.d_plus @ ops.c)
        - 1j * kappa * cpc
        + 1j * kappa * dpd
    )
    h_decay = -1j * gamma * (cpc + dpd) - chi_full * fs.two_mode_identity(cut)
    return h_pt, h_decay


def analytic_lambda_pt(
    n_e: int, n_f: int, derived: DerivedParams, thermal: bool = False
) -> complex:
    """Balanced-frame eigenvalue Omega * (N_e - N_f)."""
    omega = derived.omega_p if thermal else derived.omega
    return omega * (n_e - n_f)


def analytic_lambda_nh(
    n_e: int,
    n_f: int,
    derived: DerivedParams,
    thermal: bool = False,
    full_chi: bool = False,
) -> complex:
    """Eigenvalue Omega (N_e - N_f) - i*gamma (N_e + N_f) - chi.

    By default chi keeps only its imaginary part (the convention used for
    the reported spectra); full_chi=True adds back the real part so the
    value matches a direct numeric diagonalization of the built matrix.
    """
    if thermal:
        omega, gamma = derived.omega_p, derived.gamma_p
        chi = derived.chi_p_full if full_chi else derived.chi_p
    else:
        omega, gamma = derived.omega, derived.gamma
        chi = derived.chi_full if full_chi else derived.chi
    return omega * (n_e - n_f) - 1j * gamma * (n_e + n_f) - chi


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
    params: SystemParams, cutoff: FockCutoff | int, thermal: bool = False
) -> tuple[dict[str, complex], float]:
    """Fit the PT part onto the displaced-operator monomial basis.

    Returns the coefficient tableau over {c+c, d+d, c+d, d+c, I} and the
    least-squares fit residual (which should be at rounding level).
    """
    cut = FockCutoff.of(cutoff)
    ops = fs.displaced_ops(params, cut, thermal)
    basis = {
        "c+c": ops.c_plus @ ops.c,
        "d+d": ops.d_plus @ ops.d_op,
        "c+d": ops.c_plus @ ops.d_op,
        "d+c": ops.d_plus @ ops.c,
        "I": fs.two_mode_identity(cut),
    }
    h_pt, _ = build_h_pt_split(params, cut, thermal)
    names = list(basis)
    mat = np.stack([basis[name].ravel() for name in names], axis=1)
    coeffs, *_ = np.linalg.lstsq(mat, h_pt.ravel(), rcond=None)
    residual = float(np.linalg.norm(mat @ coeffs - h_pt.ravel()))
    return dict(zip(names, coeffs)), residual


def pt_symmetry_defect(
    params: SystemParams, cutoff: FockCutoff | int, thermal: bool = False
) -> float:
    """Max deviation of the PT-part tableau under the PT substitution rules.

    PT maps c -> -d, d -> -c (and likewise the "+" partners) and conjugates
    scalars; the quadratic monomials therefore swap as c+c <-> d+d and
    c+d <-> d+c with conjugated coefficients. Zero defect means the
    substitution rules map the PT part onto itself.
    """
    tableau, residual = pt_coefficient_tableau(params, cutoff, thermal)
    defect = max(
        abs(tableau[name] - np.conj(tableau[image]))
        for name, image in _PT_MONOMIAL_MAP.items()
    )
    return max(defect, residual)
