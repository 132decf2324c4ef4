"""Resolvent-style matrix transform and the structured block matrix it scales.

X^gamma = X (I - gamma X)^{-1} maps symmetric matrices below (1/gamma) I to
symmetric matrices, preserving order: X <= Y < (1/gamma) I implies
X <= X^gamma <= Y^gamma, and X^gamma >= -(1/gamma) I always.  j_matrix(n, d)
is the nd x nd block matrix with (n-1) I diagonal and -I off-diagonal blocks;
it satisfies J^2 = n J and J^gamma = J / (1 - n gamma) for gamma < 1/n.
"""

from __future__ import annotations

import numpy as np

from .core import _array, _count, _gamma, _require_finite
from .errors import MatrixError, ValidationError

SYMMETRY_TOL = 1e-12
CONDITION_LIMIT = 1e10


def check_symmetric(x) -> np.ndarray:
    """Validate a dense symmetric matrix (to 1e-12) and return it symmetrized.

    A matrix that is not a nonempty square array of real numbers (a string,
    None, a complex or ragged array included) raises BAD_SHAPE, a non-finite
    entry NON_FINITE.  An entry and its transpose may differ by 1e-12 times
    the largest entry (at least 1), else ASYMMETRIC.  The result holds the
    mean of each pair, taken as a/2 + b/2 so that it does not overflow; an
    equal pair is kept as it is, so a symmetric matrix comes back bit for bit.
    """
    arr = _array("matrix", x, finite=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise ValidationError("BAD_SHAPE", f"expected a nonempty square matrix, got {arr.shape}")
    _require_finite(arr, "matrix")
    scale = max(1.0, float(np.max(np.abs(arr))))
    with np.errstate(over="ignore"):  # a difference that overflows is inf: asymmetric
        if float(np.max(np.abs(arr - arr.T))) > SYMMETRY_TOL * scale:
            raise MatrixError("ASYMMETRIC", "matrix is not symmetric to 1e-12")
    return np.where(arr == arr.T, arr, arr / 2.0 + arr.T / 2.0)


def gamma_transform(x, gamma: float) -> np.ndarray:
    """X (I - gamma X)^{-1}, computed on the eigenbasis and symmetrized.

    Eigenvalues map by t -> t / (1 - gamma t). SINGULAR is raised when the
    resolvent factor's conditioning exceeds 1e10 (an eigenvalue of X too
    close to 1/gamma).  ``x`` is read as :func:`check_symmetric` reads it.
    ``gamma`` must be a real number (BAD_SHAPE) that is finite and positive
    (GAMMA_RANGE).
    """
    xs = check_symmetric(x)
    gamma = _gamma("gamma", gamma)
    eigvals, eigvecs = np.linalg.eigh(xs)
    denom = 1.0 - gamma * eigvals
    small = float(np.min(np.abs(denom)))
    large = float(np.max(np.abs(denom)))
    if small == 0.0 or large / small > CONDITION_LIMIT:
        raise MatrixError(
            "SINGULAR", f"I - gamma X conditioning {large / max(small, 1e-300):.3g} beyond 1e10"
        )
    out = (eigvecs * (eigvals / denom)) @ eigvecs.T
    return (out + out.T) / 2.0


def j_matrix(n: int, d: int) -> np.ndarray:
    """Block matrix with (n-1) I_d diagonal and -I_d off-diagonal blocks.

    ``n`` and ``d`` must be ints >= 1 (a bool is not one), else BAD_SHAPE.
    """
    n, d = _count("n", n), _count("d", d)
    core = n * np.eye(n) - np.ones((n, n))
    return np.kron(core, np.eye(d))
