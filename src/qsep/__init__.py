"""Separability analysis of Bell-diagonal two-qubit states.

Classifies states via Tsallis conditional-entropy criteria, cross-checks
against the exact Peres partial-transpose test, locates critical surfaces,
and computes the entanglement order parameter eta = 1/(1 + q_I).
"""

from .errors import *
from .linalg import *
from .states import *
from .entropy import *
from .separability import *
from .criticality import *
from . import criticality, entropy, errors, linalg, separability, states

__version__ = "0.1.0"

__all__ = [*errors.__all__, *linalg.__all__, *states.__all__, *entropy.__all__,
           *separability.__all__, *criticality.__all__, "__version__"]
