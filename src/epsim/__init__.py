"""Numerical workbench for exceptional points of two coupled lossy driven modes.

Subpackages:
  fockspace   truncated two-mode operator algebra (cutoff only)
  model       parameters and their thermal frame, displaced and supermode
              operators, Hamiltonians, analytic eigenvalues, EP positions
  spectral    dense eigensolver front end and coalescence diagnostics
  liouvillian master-equation superoperator and first-moment dynamics
  trajectory  quantum-jump unraveling
  cli         parameter-sweep command-line front end
"""

from .fockspace import FockCutoff
from .model import DerivedParams, SystemParams, derive, hep_coupling, lep_coupling

__version__ = "0.1.0"

__all__ = [
    "FockCutoff",
    "SystemParams",
    "DerivedParams",
    "derive",
    "hep_coupling",
    "lep_coupling",
    "__version__",
]
