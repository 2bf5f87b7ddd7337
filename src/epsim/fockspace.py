"""Truncated two-mode Fock-space operator algebra.

Every operator is a dense ``numpy`` array of complex128. The two-mode basis
index is ``n_a * d + n_b`` (mode-A major), which fixes the Kronecker
convention package-wide: mode-A operators embed as ``kron(op, eye(d))`` and
mode-B operators as ``kron(eye(d), op)``.

Truncation necessarily breaks the ladder algebra at the top level, so
commutation identities are asserted on the interior levels (every mode
occupation <= d - 2, see interior_indices); the defect is confined to the
boundary level.

Everything here depends on the cutoff only. The operators that depend on the
physical parameters (displaced operators, supermodes) are built in model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
