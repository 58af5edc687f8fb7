"""Exception types shared across the package.

Domain errors (unphysical inputs) and numerical failures are kept distinct
so the command-line layer can map them to different exit codes.
"""

__all__ = ["BracketError", "ConvergenceError", "NumericalError", "UnphysicalStateError"]


class UnphysicalStateError(ValueError):
    """Input parameters do not describe a valid quantum state."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""


class BracketError(NumericalError):
    """A root search found no sign change on the admissible interval."""
