"""Exception hierarchy shared across the package."""


class EpsimError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(EpsimError):
    """Invalid user configuration (bad JSON, bad field, bad sweep grid)."""


class NumericalError(EpsimError):
    """Base class for runtime numerical failures."""


class EPDegenerateError(NumericalError):
    """Supermode rotation requested exactly at the coalescence point."""


class ChiPoleError(NumericalError):
    """Drive-induced scalar shift evaluated at its pole."""


class EigenConvergenceError(NumericalError):
    """Dense eigensolver failed to converge, missed its residual bound or had none."""


class MatrixExpOverflowError(NumericalError):
    """Matrix exponential produced non-finite entries."""


class TruncationGuardError(NumericalError):
    """A creation-type jump hit the top Fock level with visible population."""


class InvalidDensityMatrixError(NumericalError):
    """Operator passed as a state is not a valid density matrix."""


class SpectrumWitnessError(NumericalError):
    """Generator has entries between the sectors its spectrum check splits it into."""
