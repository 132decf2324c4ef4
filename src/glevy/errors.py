"""Error types shared across the package.

Every rejection carries a stable machine-readable ``code`` so callers (and
the CLI) can branch on the failure class without parsing messages.
"""

from __future__ import annotations


class GLevyError(Exception):
    """Base class for all library errors.

    Parameters
    ----------
    code : str
        Stable identifier, e.g. ``"NEGATIVE_RATE"`` or ``"CFL_UNSATISFIABLE"``.
    message : str
        Human-readable description.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ValidationError(GLevyError):
    """Malformed model inputs (scenarios, grids, payoffs, parameters)."""


class SolverError(GLevyError):
    """Solve-time failures: unresolvable atoms, CFL breakdown, missing snapshots."""


class EngineError(GLevyError):
    """Nested-expectation failures (node budget, inconsistent functional)."""


class MatrixError(GLevyError):
    """Matrix-transform failures (asymmetry, near-singular resolvent)."""


class ConfigError(GLevyError):
    """CLI configuration failures; ``code`` is PARSE_ERROR, VALIDATION_ERROR or UNPADDED_GRID."""
