"""Separability analysis of Bell-diagonal two-qubit states.

Classifies states via Tsallis conditional-entropy criteria, cross-checks
against the exact Peres partial-transpose test, locates critical surfaces,
and computes the entanglement order parameter eta = 1/(1 + q_I).
"""

from .errors import (
    BracketError,
    ConvergenceError,
    NumericalError,
    UnphysicalStateError,
)
from .linalg import (
    Spectrum,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor_product,
)
from .states import (
    BellDiagonalState,
    PhysicalityCheck,
    TwoQubitState,
    bell_diagonal_density,
    bell_projectors,
    bell_spectrum,
    bell_weights,
    is_physical,
    werner,
)
from .entropy import (
    EPS_SUPPORT,
    ConditionalEntropyValue,
    chain_rule_check,
    conditional_entropy,
    conditional_entropy_bell,
    pseudoadditive_combine,
    rescaled_power_sum,
    trace_power,
    tsallis_entropy,
)
from .separability import (
    Classification,
    GridCell,
    RegionGrid,
    ar_classify_asymptotic,
    ar_classify_scan,
    ar_residual,
    classify_state,
    default_q_grid,
    ppt_classify,
    region_scan,
    threshold_x,
)
from .criticality import (
    CriticalityReport,
    eta_field,
    inflexion_point,
    order_parameter,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConvergenceError",
    "NumericalError",
    "UnphysicalStateError",
    "Spectrum",
    "hermitian_eigenvalues",
    "partial_trace",
    "partial_transpose",
    "tensor_product",
    "BellDiagonalState",
    "PhysicalityCheck",
    "TwoQubitState",
    "bell_diagonal_density",
    "bell_projectors",
    "bell_spectrum",
    "bell_weights",
    "is_physical",
    "werner",
    "EPS_SUPPORT",
    "ConditionalEntropyValue",
    "chain_rule_check",
    "conditional_entropy",
    "conditional_entropy_bell",
    "pseudoadditive_combine",
    "rescaled_power_sum",
    "trace_power",
    "tsallis_entropy",
    "Classification",
    "GridCell",
    "RegionGrid",
    "ar_classify_asymptotic",
    "ar_classify_scan",
    "ar_residual",
    "classify_state",
    "default_q_grid",
    "ppt_classify",
    "region_scan",
    "threshold_x",
    "CriticalityReport",
    "eta_field",
    "inflexion_point",
    "order_parameter",
    "__version__",
]
