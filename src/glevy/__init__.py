"""Worst-case expectations for jump-diffusion families.

Scenario families (finite-atom jump measure, drift, diffusion) define a
sublinear expectation through a nonlinear parabolic equation; this package
evaluates it with a monotone explicit finite-difference scheme, closed forms
for the one-atom Poisson family, a nested engine for multi-time functionals,
and a few supporting matrix transforms.
"""

from .checks import CheckRow, run_checks
from .core import (
    GridFunction,
    GridSpec,
    Payoff,
    Scenario,
    SchemeConfig,
    UncertaintySet,
    interpolate,
    min_padding,
    sample_payoff,
    uniform_grid,
    validate_uncertainty_set,
)
from .engine import (
    CylinderFunctional,
    conditional_expectation,
    expectation,
    increment_radius,
)
from .errors import (
    ConfigError,
    EngineError,
    GLevyError,
    MatrixError,
    SolverError,
    ValidationError,
)
from .generator import TestFunction, g_operator, small_time_quotient
from .gpoisson import GPoissonSpec, g_lambda, gpoisson_closed_form, series_solution
from .matrices import check_symmetric, gamma_transform, j_matrix
from .solver import SolveResult, apply_generator, evaluate, solve

__version__ = "0.1.0"

__all__ = [
    "CheckRow",
    "ConfigError",
    "CylinderFunctional",
    "EngineError",
    "GLevyError",
    "GPoissonSpec",
    "GridFunction",
    "GridSpec",
    "MatrixError",
    "Payoff",
    "Scenario",
    "SchemeConfig",
    "SolveResult",
    "SolverError",
    "TestFunction",
    "UncertaintySet",
    "ValidationError",
    "apply_generator",
    "check_symmetric",
    "conditional_expectation",
    "evaluate",
    "expectation",
    "g_lambda",
    "g_operator",
    "gamma_transform",
    "gpoisson_closed_form",
    "increment_radius",
    "interpolate",
    "j_matrix",
    "min_padding",
    "run_checks",
    "sample_payoff",
    "series_solution",
    "small_time_quotient",
    "solve",
    "uniform_grid",
    "validate_uncertainty_set",
]
