"""Truncated two-mode Fock-space operator algebra.

Every operator is a dense ``numpy`` array of complex128. The two-mode basis
index is ``n_a * d + n_b`` (mode-A major), which fixes the Kronecker
convention package-wide: mode-A operators embed as ``kron(op, eye(d))`` and
mode-B operators as ``kron(eye(d), op)``.

Truncation necessarily breaks the ladder algebra at the top level, so
commutation identities are asserted on the interior levels (every mode
occupation <= d - 2, see interior_indices); the defect is confined to the
boundary level.

The displaced operators (c, c+, d, d+) and supermodes (e, e+, f, f+) built
here are *not* dagger pairs: the "+" partners are constructed explicitly from
the same linear transformation as their lowercase halves, never by conjugate
transposition. They are built in the frame of their params, with damping
rates scaled by (2 n_th + 1); the full-dynamics frame is
params.with_(n_th=0.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import EPDegenerateError, SingularTransformError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .model import SystemParams

DEFAULT_DIM = 8


@dataclass(frozen=True)
class FockCutoff:
    """Number of Fock levels retained per mode (levels 0 .. d-1)."""

    d: int = DEFAULT_DIM

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool):
            raise ValueError(f"cutoff must be an integer, got {self.d!r}")
        if self.d < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.d}")
        object.__setattr__(self, "d", int(self.d))

    @classmethod
    def of(cls, value: "FockCutoff | int") -> "FockCutoff":
        if isinstance(value, FockCutoff):
            return value
        return cls(value)

    @property
    def dim(self) -> int:
        """Two-mode Hilbert-space dimension d**2."""
        return self.d * self.d


class Mode(Enum):
    A = 0
    B = 1


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


def annihilation(cutoff: FockCutoff | int) -> np.ndarray:
    """Single-mode ladder operator: entry (k, k+1) = sqrt(k+1)."""
    d = FockCutoff.of(cutoff).d
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)


def number_op(cutoff: FockCutoff | int) -> np.ndarray:
    d = FockCutoff.of(cutoff).d
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose. Not used to build any "+" superscript operator."""
    return op.conj().T


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def embed(op: np.ndarray, mode: Mode, cutoff: FockCutoff | int) -> np.ndarray:
    """Embed a single-mode operator into the two-mode space."""
    d = FockCutoff.of(cutoff).d
    op = np.asarray(op, dtype=complex)
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match cutoff d={d}")
    eye = np.eye(d, dtype=complex)
    if mode is Mode.A:
        return np.kron(op, eye)
    return np.kron(eye, op)


def mode_annihilation(mode: Mode, cutoff: FockCutoff | int) -> np.ndarray:
    return embed(annihilation(cutoff), mode, cutoff)


def two_mode_identity(cutoff: FockCutoff | int) -> np.ndarray:
    return np.eye(FockCutoff.of(cutoff).dim, dtype=complex)


def fock_index(cutoff: FockCutoff | int, n_a: int, n_b: int) -> int:
    d = FockCutoff.of(cutoff).d
    if not (0 <= n_a < d and 0 <= n_b < d):
        raise ValueError(f"occupation ({n_a}, {n_b}) outside cutoff d={d}")
    return n_a * d + n_b


def basis_state(cutoff: FockCutoff | int, n_a: int, n_b: int) -> np.ndarray:
    cut = FockCutoff.of(cutoff)
    psi = np.zeros(cut.dim, dtype=complex)
    psi[fock_index(cut, n_a, n_b)] = 1.0
    return psi


def interior_indices(cutoff: FockCutoff | int, margin: int = 1) -> np.ndarray:
    """Basis indices with both occupations <= d - 1 - margin."""
    d = FockCutoff.of(cutoff).d
    keep = np.arange(d - margin)
    return (keep[:, None] * d + keep[None, :]).ravel()


class DisplacementConstants(NamedTuple):
    alpha: complex
    beta: complex
    delta: complex
    theta: complex
    xi: float


def displacement_constants(params: "SystemParams") -> DisplacementConstants:
    """Scalar shifts that absorb the coherent drive into new bosonic operators.

    The damping rates are scaled by (2 n + 1), the scaling under which the
    thermal Hamiltonian takes the optical form (exactly 1 at n = 0).
    """
    scale = 2.0 * params.n_th + 1.0
    ga = params.gamma_a * scale
    gb = params.gamma_b * scale
    g = params.g
    xi = g * g + ga * gb
    if xi == 0.0:
        raise SingularTransformError("xi = g^2 + gamma_a*gamma_b vanishes")
    alpha = (gb - 1j * g) / xi
    delta = (ga - 1j * g) / xi
    return DisplacementConstants(alpha, -alpha, delta, -delta, xi)


def displaced_ops(params: "SystemParams", cutoff: FockCutoff | int) -> DisplacedOps:
    """Drive-displaced two-mode operators c, c+, d, d+.

    c = a + eps*alpha, c+ = a_dag + eps*beta, d = b + eps*delta,
    d+ = b_dag + eps*theta. Note c+ is not the conjugate transpose of c.
    """
    cut = FockCutoff.of(cutoff)
    k = displacement_constants(params)
    eps = params.eps
    eye = two_mode_identity(cut)
    a = mode_annihilation(Mode.A, cut)
    b = mode_annihilation(Mode.B, cut)
    return DisplacedOps(
        c=a + eps * k.alpha * eye,
        c_plus=dagger(a) + eps * k.beta * eye,
        d_op=b + eps * k.delta * eye,
        d_plus=dagger(b) + eps * k.theta * eye,
    )


def supermode_rotation(params: "SystemParams") -> np.ndarray:
    """2x2 rotation mixing (c, d) into the normal modes (e, f).

    Rows follow [[cos(a/2), sin(a/2)], [-sin(a/2), cos(a/2)]] with
    sin(a/2) = sqrt((Omega + i*kappa) / (2*Omega)) and kappa scaled by
    (2 n + 1). The sine branch is tied to the cosine one through
    sin*cos = g / (2*Omega), which keeps the rotation complex-orthogonal
    (R^T R = 1) and diagonalizing on both sides of the coalescence point.
    """
    scale = 2.0 * params.n_th + 1.0
    kappa = 0.5 * (params.gamma_a - params.gamma_b) * scale
    g = params.g
    omega = np.sqrt(complex(g * g - kappa * kappa))
    if omega == 0:
        raise EPDegenerateError(
            f"supermodes undefined at the coalescence point (g = kappa = {g})"
        )
    cos_half = np.sqrt((omega - 1j * kappa) / (2.0 * omega))
    sin_half = g / (2.0 * omega * cos_half)
    return np.array([[cos_half, sin_half], [-sin_half, cos_half]], dtype=complex)


def supermode_ops(params: "SystemParams", cutoff: FockCutoff | int) -> SupermodeOps:
    """Normal-mode operators [e, f]^T = R [c, d]^T and [e+, f+]^T = R [c+, d+]^T."""
    rot = supermode_rotation(params)
    ops = displaced_ops(params, cutoff)
    e = rot[0, 0] * ops.c + rot[0, 1] * ops.d_op
    f = rot[1, 0] * ops.c + rot[1, 1] * ops.d_op
    e_plus = rot[0, 0] * ops.c_plus + rot[0, 1] * ops.d_plus
    f_plus = rot[1, 0] * ops.c_plus + rot[1, 1] * ops.d_plus
    return SupermodeOps(e, e_plus, f, f_plus)


def shuffle_operator(cutoff: FockCutoff | int) -> np.ndarray:
    """Perfect-shuffle permutation exchanging the two tensor factors."""
    cut = FockCutoff.of(cutoff)
    d = cut.d
    shuffle = np.zeros((cut.dim, cut.dim), dtype=complex)
    for n_a in range(d):
        for n_b in range(d):
            shuffle[n_b * d + n_a, n_a * d + n_b] = 1.0
    return shuffle


def total_photon_parity(cutoff: FockCutoff | int) -> np.ndarray:
    """Diagonal phase exp(i*pi*(n_a + n_b)), exact +-1 entries."""
    d = FockCutoff.of(cutoff).d
    n_tot = np.arange(d)[:, None] + np.arange(d)[None, :]
    return np.diag(np.where(n_tot.ravel() % 2 == 0, 1.0, -1.0)).astype(complex)


def parity_pt_operator(cutoff: FockCutoff | int) -> np.ndarray:
    """Spatial-reflection operator: mode exchange times total photon parity.

    Evaluated in the undriven regime where the displaced operators reduce to
    the bare mode operators; the result is real, so it commutes with
    elementwise complex conjugation, and it is its own inverse.
    """
    return shuffle_operator(cutoff) @ total_photon_parity(cutoff)


def coherent_state(z: complex, cutoff: FockCutoff | int) -> np.ndarray:
    """Truncated coherent state, renormalized after truncation."""
    d = FockCutoff.of(cutoff).d
    amps = np.array(
        [z**k / math.sqrt(math.factorial(k)) for k in range(d)], dtype=complex
    )
    return amps / np.linalg.norm(amps)


def displaced_vacuum(params: "SystemParams", cutoff: FockCutoff | int) -> np.ndarray:
    """Joint kernel of c and d: the product coherent state |-eps*alpha, -eps*delta>."""
    k = displacement_constants(params)
    eps = params.eps
    return np.kron(
        coherent_state(-eps * k.alpha, cutoff), coherent_state(-eps * k.delta, cutoff)
    )


def supermode_state(
    params: "SystemParams", cutoff: FockCutoff | int, n_e: int, n_f: int
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
