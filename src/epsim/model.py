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

Every dense Hamiltonian builder is a short coefficient list over the
cutoff's cached operators (FockCutoff.of(d).ops: hop, the drive terms
a_dag - a and b_dag - b, num_a, num_b, a a_dag, b b_dag, num_a - num_b and
the identity), summed term by term with no matrix product. The
displaced-operator products of build_h_pt_split are expanded into the same
terms; displaced_ops and pt_coefficient_tableau keep the products as the
definitions. Every operator is a dense d^2 x d^2 array, so the memory of a
spectrum sweep grows as d^4 (spectrum_peak_bytes, which the CLI holds to
MEMORY_BUDGET with check_memory, and which spectrum_chunk_points reads to
size the chunks of sweep points the spectrum command solves at once).

collapse_channels states the collapse set once, as (rate, jump, product)
rows over the same cached operators: loss a, gain a, loss b, gain b, the
gain rows only for n_th > 0. build_collapse_ops, the damping of build_h_nh
and the trajectory engine's jump weights and truncation guards read it.
liouvillian.build_liouvillian multiplies out its own C_dag C, so that its
agreement with build_liouvillian_from_hnh compares two independent sums.

derive is the one place that decides the frame: every rate of DerivedParams
is scaled by 2 n_th + 1 (exactly 1 at n_th = 0), and the full-dynamics frame
is params.with_(n_th=0.0). The builders of the displaced operators
(c, c+, d, d+) and the supermodes (e, e+, f, f+) read derive. Their "+"
partners are *not* dagger pairs: they are built from the same linear
transformation as their lowercase halves, never by conjugate transposition.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fockspace as fs
from . import spectral as sp
from .errors import ChiPoleError, EPDegenerateError
from .fockspace import FockCutoff

# Supermode excitation labels (N_e, N_f) of the four tracked eigenstates.
TRACKED_STATES: tuple[tuple[int, int], ...] = ((1, 0), (0, 1), (2, 0), (0, 2))

# Parameters a sweep can move (SystemParams.along).
SWEEP_AXES = ("kappa", "g", "gamma_a", "gamma_b", "eps", "n_th")

MEMORY_BUDGET = 2**30  # bytes a command's cutoff-dependent arrays may need (check_memory)
# dense d^2 x d^2 arrays a spectrum chunk holds besides the cached terms: per
# sweep point its h_pt and h_nh in the stack and at most one zgeev copy of each
# while the stack is solved; per chunk the sum a builder returns and the term
# it adds, which the allocator may keep while the stack is solved (peak
# resident growth 18.6 of the estimate's 19 arrays at d = 28 on 2 cores)
_SPECTRUM_POINT_ARRAYS = 4
_SPECTRUM_CHUNK_ARRAYS = 2
# bytes each piece of spectral.eigvals_stack (one solving thread) adds
# whatever the cutoff, beyond its matrix copy: 16 matrices at d = 24 solved in
# 2, 8 and 16 pieces grew the peak (ru_maxrss) by 0.76 to 1.05 MiB per piece
# more than in one
_SPECTRUM_PIECE_BYTES = 1_200_000


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

    def along(self, axis: str, value: float) -> "SystemParams":
        """This parameter set moved to value on one of SWEEP_AXES.

        kappa moves at fixed mean damping (gamma_a + gamma_b) / 2; every
        other axis replaces its own field. Raises ValueError for an unknown
        axis or a point that breaks an invariant.
        """
        if axis == "kappa":
            gamma = 0.5 * (self.gamma_a + self.gamma_b)
            return self.from_mean_split(self.g, gamma, value, eps=self.eps, n_th=self.n_th)
        if axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
        return self.with_(**{axis: value})


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
    # (2 eps) eps, the closed forms' order: 2 (eps eps) differs where eps^2 is subnormal
    two_eps2 = 2.0 * params.eps * params.eps
    chi_t = 1j * (params.n_th * (params.gamma_a + params.gamma_b))
    return DerivedParams(
        gamma_a_p=gamma_a_p,
        gamma_b_p=gamma_b_p,
        gamma_p=gamma_p,
        kappa_p=kappa_p,
        xi_p=xi_p,
        omega_p=_branch_sqrt(g * g - kappa_p * kappa_p),
        chi_t=chi_t,
        chi_p=chi_t + 1j * (two_eps2 * gamma_p / xi_p),
        chi_p_full=chi_t + two_eps2 * (g + 1j * gamma_p) / xi_p,
    )


def check_derived(params: SystemParams) -> None:
    """Raise ValueError naming the first field of derive(params) that is not finite.

    Finite parameters can still overflow in products such as g * g; such a
    point has no meaningful closed forms or operators. A pole of chi
    (ChiPoleError) is left to the command that meets it.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # numpy scalars warn
            der = derive(params)
    except ChiPoleError:
        return
    for name, value in vars(der).items():
        if not cmath.isfinite(value):
            raise ValueError(f"derived {name} = {value} is not finite")


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
    fock = FockCutoff.of(cutoff).ops
    alpha, delta = displacement_constants(params)
    eps = params.eps
    return DisplacedOps(
        c=fock.a + eps * alpha * fock.eye,
        c_plus=fock.a_dag + eps * (-alpha) * fock.eye,
        d_op=fock.b + eps * delta * fock.eye,
        d_plus=fock.b_dag + eps * (-delta) * fock.eye,
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


def _combine(cutoff: FockCutoff | int, **coeffs: complex) -> np.ndarray:
    """Sum of coefficient * FockCutoff.of(cutoff).ops.<name> over the keyword terms.

    Terms are added in keyword order; a zero coefficient adds nothing.
    """
    ops = FockCutoff.of(cutoff).ops
    total = None
    for name, coeff in coeffs.items():
        if coeff:
            term = coeff * getattr(ops, name)
            if total is None:
                total = term
            else:
                total += term
    return np.zeros_like(ops.eye) if total is None else total


def _h_terms(params: SystemParams) -> dict[str, complex]:
    """The coefficient list of H (build_hamiltonian), shared by every builder."""
    drive = -1j * params.eps
    return {"hop": params.g, "drive_a": drive, "drive_b": drive}


def build_hamiltonian(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Hermitian part: g(a_dag b + b_dag a) + i*eps*(a - a_dag) + i*eps*(b - b_dag)."""
    return _combine(cutoff, **_h_terms(params))


def collapse_channels(params: SystemParams) -> list[tuple[float, str, str]]:
    """The collapse set: one (rate, jump, product) row per channel, in jump-record order.

    Channel C = sqrt(rate) * jump has C_dag C = rate * product; jump and
    product name operators of FockCutoff.of(d).ops. The loss channels
    sqrt(2 gamma (n + 1)) a and b are joined, for n_th > 0, by the gain
    channels sqrt(2 gamma n) a_dag and b_dag: loss a, gain a, loss b, gain b.
    """
    ga, gb, n = params.gamma_a, params.gamma_b, params.n_th
    loss_a = (2.0 * ga * (n + 1.0), "a", "num_a")
    loss_b = (2.0 * gb * (n + 1.0), "b", "num_b")
    if n == 0.0:
        return [loss_a, loss_b]
    return [loss_a, (2.0 * ga * n, "a_dag", "aa_dag"), loss_b, (2.0 * gb * n, "b_dag", "bb_dag")]


def build_collapse_ops(params: SystemParams, cutoff: FockCutoff | int) -> list[np.ndarray]:
    """Collapse operators sqrt(rate) * jump over collapse_channels."""
    ops = FockCutoff.of(cutoff).ops
    return [math.sqrt(rate) * getattr(ops, jump) for rate, jump, _ in collapse_channels(params)]


def build_h_nh(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Non-Hermitian Hamiltonian H - (i/2) sum C_dag C over collapse_channels."""
    damping = {product: -0.5j * rate for rate, _, product in collapse_channels(params)}
    return _combine(cutoff, **_h_terms(params), **damping)


def build_h_nh_direct(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Normal-ordered form: H - i*ga'*a_dag a - i*gb'*b_dag b - chi_t*I.

    Equals build_h_nh everywhere for n_th = 0 and on the interior projector
    for n_th > 0 (truncation leaves an a a_dag ordering defect at the top
    level only).
    """
    der = derive(params)
    return _combine(
        cutoff,
        **_h_terms(params),
        num_a=-1j * der.gamma_a_p,
        num_b=-1j * der.gamma_b_p,
        eye=-der.chi_t,
    )


def build_drift_h(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """Drift-only non-Hermitian Hamiltonian H - i*ga*a_dag a - i*gb*b_dag b.

    The full-dynamics frame: build_h_nh_direct at n_th = 0, so independent
    of n_th by construction and identical to build_h_nh at n_th = 0.
    """
    return build_h_nh_direct(params.with_(n_th=0.0), cutoff)


def _drive_shifts(params: SystemParams) -> tuple[DerivedParams, complex, complex]:
    """derive(params) and the shifts u = eps*alpha, v = eps*delta of c and d."""
    alpha, delta = displacement_constants(params)
    return derive(params), params.eps * alpha, params.eps * delta


def build_h_pt(params: SystemParams, cutoff: FockCutoff | int) -> np.ndarray:
    """The PT-symmetric part g (c+ d + d+ c) - i*kappa' (c+ c - d+ d) of build_h_pt_split."""
    der, u, v = _drive_shifts(params)
    g, kappa = params.g, der.kappa_p
    return _combine(
        cutoff,
        hop=g,
        drive_a=g * v - 1j * kappa * u,
        drive_b=g * u + 1j * kappa * v,
        imbalance=-1j * kappa,
        eye=-2.0 * g * u * v + 1j * kappa * (u * u - v * v),
    )


def build_h_pt_split(
    params: SystemParams, cutoff: FockCutoff | int
) -> tuple[np.ndarray, np.ndarray]:
    """Split into a PT-symmetric part and a commuting uniform-decay part.

    Returns (h_pt, h_decay) with
      h_pt    = g (c+ d + d+ c) - i*kappa' (c+ c - d+ d)    (build_h_pt)
      h_decay = -i*gamma' (c+ c + d+ d) - chi'_full * I
    in the rates of the params' frame (scaled by 2 n + 1). The sum
    reconstructs the normal-ordered non-Hermitian Hamiltonian exactly (full
    complex chi), and the two parts commute on the interior projector.

    The displaced products (displaced_ops) are expanded into coefficient
    lists over the cutoff's fixed operators, with u = eps*alpha, v = eps*delta:
      c+ d + d+ c = hop + v (a_dag - a) + u (b_dag - b) - 2 u v I
      c+ c        = num_a + u (a_dag - a) - u^2 I
      d+ d        = num_b + v (b_dag - b) - v^2 I
    """
    der, u, v = _drive_shifts(params)
    gamma = der.gamma_p
    h_decay = _combine(
        cutoff,
        num_a=-1j * gamma,
        num_b=-1j * gamma,
        drive_a=-1j * gamma * u,
        drive_b=-1j * gamma * v,
        eye=1j * gamma * (u * u + v * v) - der.chi_p_full,
    )
    return build_h_pt(params, cutoff), h_decay


def check_memory(need: float, what: str) -> None:
    """Raise ValueError when need bytes exceed MEMORY_BUDGET; what names the job."""
    if need > MEMORY_BUDGET:
        raise ValueError(
            f"{what} needs an estimated {need / 1e6:.0f} MB, "
            f"over the {MEMORY_BUDGET / 1e6:.0f} MB budget"
        )


def spectrum_peak_bytes(cutoff: FockCutoff | int, points: int = 1) -> float:
    """Estimate of the dense memory (bytes) a spectrum sweep needs at this cutoff.

    Every operator is a dense d^2 x d^2 complex array, 16 d^4 bytes: the
    cutoff's cached terms (FockCutoff.ops, the occupation vectors aside) and
    the arrays of a chunk of this many sweep points while it is built and
    diagonalized (_SPECTRUM_POINT_ARRAYS each, _SPECTRUM_CHUNK_ARRAYS more).
    Each piece the chunk is solved in adds _SPECTRUM_PIECE_BYTES, counted for
    one piece per usable core, the most spectral.eigvals_stack splits into.
    """
    d = FockCutoff.of(cutoff).d
    cached = len(fs.TwoModeOps._fields) - 2  # occ_a and occ_b are vectors
    dense = 16.0 * d**4 * (cached + _SPECTRUM_CHUNK_ARRAYS + _SPECTRUM_POINT_ARRAYS * points)
    return dense + _SPECTRUM_PIECE_BYTES * sp._cores()


def spectrum_chunk_points(cutoff: FockCutoff | int, wanted: int) -> int:
    """Sweep points a spectrum chunk holds at this cutoff.

    At most wanted, and as many as keep spectrum_peak_bytes within
    MEMORY_BUDGET, but at least one.
    """
    fixed = spectrum_peak_bytes(cutoff, 0)
    per_point = spectrum_peak_bytes(cutoff, 1) - fixed
    return max(1, min(wanted, int((MEMORY_BUDGET - fixed) // per_point)))


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
    cut = FockCutoff.of(cutoff)
    idx = np.flatnonzero(cut.ops.occ_a + cut.ops.occ_b == n_total)
    if not idx.size:
        raise ValueError(f"excitation number {n_total} empty at cutoff d={cut.d}")
    return idx


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
        "I": cut.ops.eye,
    }
    h_pt = build_h_pt(params, cut)
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
