"""Truncated two-mode Fock-space operator algebra.

Every operator is a dense ``numpy`` array of complex128. This module owns the
two-mode basis index ``n_a * d + n_b`` (mode-A major): mode-A operators are
``kron(op, eye(d))`` and mode-B operators ``kron(eye(d), op)``. Other modules
read the basis occupations and the fixed operators from
``FockCutoff.of(d).ops``, built once per d and read-only (TwoModeOps).

Truncation necessarily breaks the ladder algebra at the top level, so
commutation identities are asserted on the interior levels (every mode
occupation <= d - 2, see interior_indices); the defect is confined to the
boundary level.

Everything here depends on the cutoff only. The operators that depend on the
physical parameters (displaced operators, supermodes) are built in model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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

    @property
    def ops(self) -> "TwoModeOps":
        """The fixed two-mode operators of this cutoff, shared and read-only."""
        return _two_mode_ops(self.d)


class TwoModeOps(NamedTuple):
    """Operators and basis occupations that depend on the cutoff only.

    Built once per d and shared by every caller, so every array is read-only;
    occ_a[i] and occ_b[i] are the mode occupations of basis index i.
    """

    a: np.ndarray
    b: np.ndarray
    a_dag: np.ndarray
    b_dag: np.ndarray
    num_a: np.ndarray  # a_dag a
    num_b: np.ndarray  # b_dag b
    aa_dag: np.ndarray  # a a_dag: num_a + 1 below the top level, 0 on it
    bb_dag: np.ndarray  # b b_dag
    hop: np.ndarray  # a_dag b + b_dag a
    drive_a: np.ndarray  # a_dag - a
    drive_b: np.ndarray  # b_dag - b
    imbalance: np.ndarray  # num_a - num_b
    eye: np.ndarray
    occ_a: np.ndarray
    occ_b: np.ndarray


@functools.cache
def _two_mode_ops(d: int) -> TwoModeOps:
    eye_d = np.eye(d, dtype=complex)
    single = annihilation(d)
    number = np.diag(np.arange(d, dtype=float)).astype(complex)
    raised = np.diag(np.append(np.arange(1.0, d), 0.0)).astype(complex)  # a a_dag, exact
    a = np.kron(single, eye_d)
    b = np.kron(eye_d, single)
    a_dag, b_dag = dagger(a), dagger(b)
    num_a, num_b = np.kron(number, eye_d), np.kron(eye_d, number)
    occ_a, occ_b = np.divmod(np.arange(d * d), d)
    ops = TwoModeOps(
        a=a,
        b=b,
        a_dag=a_dag,
        b_dag=b_dag,
        num_a=num_a,
        num_b=num_b,
        aa_dag=np.kron(raised, eye_d),
        bb_dag=np.kron(eye_d, raised),
        hop=a_dag @ b + b_dag @ a,
        drive_a=a_dag - a,
        drive_b=b_dag - b,
        imbalance=num_a - num_b,
        eye=np.eye(d * d, dtype=complex),
        occ_a=occ_a,
        occ_b=occ_b,
    )
    for array in ops:
        array.flags.writeable = False
    return ops


def annihilation(cutoff: FockCutoff | int) -> np.ndarray:
    """Single-mode ladder operator: entry (k, k+1) = sqrt(k+1)."""
    d = FockCutoff.of(cutoff).d
    return np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose. Not used to build any "+" superscript operator."""
    return op.conj().T


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


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
    cut = FockCutoff.of(cutoff)
    return np.flatnonzero(np.maximum(cut.ops.occ_a, cut.ops.occ_b) < cut.d - margin)


def shuffle_operator(cutoff: FockCutoff | int) -> np.ndarray:
    """Perfect-shuffle permutation exchanging the two tensor factors."""
    cut = FockCutoff.of(cutoff)
    return cut.ops.eye[cut.ops.occ_b * cut.d + cut.ops.occ_a]


def total_photon_parity(cutoff: FockCutoff | int) -> np.ndarray:
    """Diagonal phase exp(i*pi*(n_a + n_b)), exact +-1 entries."""
    ops = FockCutoff.of(cutoff).ops
    return np.diag((-1.0) ** (ops.occ_a + ops.occ_b)).astype(complex)


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
