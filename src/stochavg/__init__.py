"""Stochastic averaging toolkit for perturbed conservative linear systems.

Simulates stochastically perturbed linear oscillator systems, constructs
their effective, modified effective and averaged-action equations by
non-resonant torus averaging, builds the rotation-matched coupled process,
and measures convergence of action laws in the dual-Lipschitz metric.
"""

__version__ = "0.1.0"

from .averaging import (
    action_diffusion_SK,
    action_drift_F,
    actions_of,
    average_field,
    average_function,
    averaged_diffusion,
    principal_sqrt,
)
from .config import parse_system_text, system_to_text
from .coupling import build_coupled, occupation_time
from .errors import (
    ConfigError,
    NonFiniteError,
    NotPSDError,
    ParseError,
    StepTooLargeError,
    StochavgError,
)
from .expr import parse_field_expr
from .model import (
    Frequencies,
    SystemSpec,
    check_ellipticity,
    check_nonresonance,
    estimate_growth,
    orthogonality_residual,
)
from .poly import Polynomial
from .sde import (
    PathEnsemble,
    ito_action_consistency,
    simulate_action_sde,
    simulate_cutoff_effective,
    simulate_effective,
    simulate_perturbed,
)
from .stats import (
    DistanceReport,
    EmpiricalLaw,
    bl_distance_1d,
    bl_distance_nd,
    convergence_table,
    law_from_ensemble,
    mixing_profile,
)
from .systems import ACCEPTANCE_V0, acceptance_system
