"""Core model types.

A *scenario* is one jump-diffusion triplet (nu, q, Q): a finite-atom jump
measure nu = sum_k w_k * delta_{z_k}, a drift vector q and a diffusion factor
Q (the matrix entering the dynamics is Q @ Q.T).  An *uncertainty set* is a
finite family of scenarios; every operation in this package evaluates a
worst case over that family.  Payoffs are bounded Lipschitz functions given
by a callable plus explicit bound and Lipschitz constants, and grid data
lives on uniform tensor grids with clamped multilinear interpolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError

EPSILON = 1e-12

# Interpolation queries within this fraction of a cell from a grid plane are
# snapped onto it, so node queries return stored values exactly and jumps that
# are integer multiples of the spacing stay lattice-aligned despite binary
# rounding of the spacing itself.
SNAP_TOL = 1e-9


def _readonly(a, dtype=float, ndmin=0):
    arr = np.array(a, dtype=dtype, copy=True, ndmin=ndmin)
    arr.setflags(write=False)
    return arr


def _require_finite(arr, what: str):
    if not np.isfinite(arr).all():
        raise ValidationError("NON_FINITE", f"{what} contains a non-finite entry")


def _finite_values(arr: np.ndarray, what: str) -> list:
    """The entries of a small array as Python floats, checked finite (NON_FINITE).

    A set or grid has a few entries per axis: a Python loop checks them in a
    fraction of the time of the numpy calls, which cost microseconds each.
    """
    values = arr.ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ValidationError("NON_FINITE", f"{what} contains a non-finite entry")
    return values


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a float vector: ``np.linalg.norm``'s own formula, sqrt(v . v)."""
    return math.sqrt(v.dot(v))


@dataclass(frozen=True, eq=False)
class Scenario:
    """One jump-diffusion triplet (nu, q, Q).

    Parameters
    ----------
    atoms : sequence of (z, w)
        Atoms of the jump measure: jump vector ``z`` (scalar or length-d) with
        rate ``w >= 0``.  A zero jump vector is rejected (it contributes
        nothing and masks input errors), as is a negative rate.
    drift : array_like, shape (d,), d >= 1
    diffusion : array_like, shape (d, d)
        Diffusion *factor* Q; scalars are accepted when d == 1.
    """

    atoms: tuple = ()
    drift: np.ndarray = 0.0
    diffusion: np.ndarray = 0.0

    def __post_init__(self):
        drift = _readonly(self.drift, ndmin=1)
        if drift.ndim != 1:
            raise ValidationError("BAD_SHAPE", "drift must be a vector")
        d = drift.shape[0]
        if d == 0:
            raise ValidationError("BAD_SHAPE", "drift must have at least one component")
        _finite_values(drift, "drift")

        diff = _readonly(self.diffusion)
        if diff.ndim == 0:
            if d != 1:
                raise ValidationError("BAD_SHAPE", "scalar diffusion needs d == 1")
            diff = diff.reshape(1, 1)
        if diff.shape != (d, d):
            raise ValidationError(
                "BAD_SHAPE", f"diffusion must be ({d}, {d}), got {diff.shape}"
            )
        _finite_values(diff, "diffusion")

        norm_atoms = []
        for entry in self.atoms:
            try:
                z, w = entry
            except (TypeError, ValueError):
                raise ValidationError("BAD_SHAPE", f"atom {entry!r} is not a (z, w) pair")
            z = _readonly(z, ndmin=1)
            w = float(w)
            if z.shape != (d,):
                raise ValidationError("BAD_SHAPE", f"atom jump must have shape ({d},)")
            jump = z.tolist()
            if not (all(map(math.isfinite, jump)) and math.isfinite(w)):
                raise ValidationError("NON_FINITE", "atom contains a non-finite entry")
            if w < 0:
                raise ValidationError("NEGATIVE_RATE", f"atom rate {w} is negative")
            if not any(jump):
                raise ValidationError("ZERO_JUMP", "atom jump vector is zero")
            norm_atoms.append((z, w))

        object.__setattr__(self, "atoms", tuple(norm_atoms))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diff)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def diffusive(self) -> bool:
        """Whether the diffusion factor has a nonzero entry."""
        return any(self.diffusion.ravel().tolist())

    @cached_property
    def jump_vectors(self) -> np.ndarray:
        """Atom jumps stacked into shape (k, d); empty (0, d) without atoms."""
        if not self.atoms:
            return _readonly(np.zeros((0, self.dim)))
        return _readonly(np.stack([z for z, _ in self.atoms]))

    @cached_property
    def jump_rates(self) -> np.ndarray:
        return _readonly(np.array([w for _, w in self.atoms]))

    @property
    def total_rate(self) -> float:
        return float(np.sum(self.jump_rates)) if self.atoms else 0.0

    @cached_property
    def diffusion_matrix(self) -> np.ndarray:
        """Q @ Q.T, the matrix entering the generator's second-order term."""
        return _readonly(self.diffusion @ self.diffusion.T)

    def mass(self) -> float:
        """sum_k w_k |z_k| + |q| + tr(Q Q^T), the integrability functional."""
        jumps = float(np.sum(self.jump_rates * np.linalg.norm(self.jump_vectors, axis=1)))
        return jumps + float(np.linalg.norm(self.drift)) + float(np.trace(self.diffusion_matrix))


@dataclass(frozen=True, eq=False)
class UncertaintySet:
    """Finite, non-empty family of scenarios with a common dimension."""

    scenarios: tuple[Scenario, ...]

    def __post_init__(self):
        scen = tuple(self.scenarios)
        if len(scen) == 0:
            raise ValidationError("EMPTY_SET", "uncertainty set has no scenarios")
        dims = {s.dim for s in scen}
        if len(dims) != 1:
            raise ValidationError("BAD_SHAPE", f"scenario dimensions differ: {sorted(dims)}")
        object.__setattr__(self, "scenarios", scen)

    @property
    def dim(self) -> int:
        return self.scenarios[0].dim

    @cached_property
    def mass_bound(self) -> float:
        """Worst-case integrability mass, max_s (sum w|z| + |q| + tr QQ^T)."""
        return max(s.mass() for s in self.scenarios)

    def max_jump_norm(self) -> float:
        return self._reach[0]

    def max_drift_norm(self) -> float:
        return self._reach[1]

    def max_sigma(self) -> float:
        """Largest spectral norm of a diffusion factor across scenarios."""
        return self._reach[2]

    @cached_property
    def _reach(self) -> tuple[float, float, float]:
        # paid once per set: every padding check needs it.  The spectral norm
        # is one SVD, skipped only for a zero factor, whose norm is exactly 0.0;
        # every other factor keeps LAPACK's value, so no box size can move.
        return (
            max((vector_norm(z) for s in self.scenarios for z, _ in s.atoms), default=0.0),
            max(vector_norm(s.drift) for s in self.scenarios),
            max(
                float(np.linalg.norm(s.diffusion, 2)) if s.diffusive else 0.0
                for s in self.scenarios
            ),
        )

    def max_total_rate(self) -> float:
        return max(s.total_rate for s in self.scenarios)


def validate_uncertainty_set(raw: Iterable) -> UncertaintySet:
    """Build an :class:`UncertaintySet` from scenarios or (atoms, drift, diffusion) triples.

    Idempotent: feeding back ``uset.scenarios`` reproduces an equivalent set.
    Raises :class:`ValidationError` with a distinct code per defect
    (EMPTY_SET, NEGATIVE_RATE, ZERO_JUMP, NON_FINITE, BAD_SHAPE).
    """
    scenarios = []
    for entry in raw:
        if isinstance(entry, Scenario):
            scenarios.append(entry)
        else:
            try:
                atoms, drift, diffusion = entry
            except (TypeError, ValueError):
                raise ValidationError(
                    "BAD_SHAPE", f"scenario {entry!r} is not a Scenario or a 3-tuple"
                )
            scenarios.append(Scenario(atoms=tuple(atoms), drift=drift, diffusion=diffusion))
    return UncertaintySet(tuple(scenarios))


@dataclass(frozen=True, eq=False)
class Payoff:
    """Bounded Lipschitz payoff.

    ``eval`` maps a point of shape (d,) to a float; it may also accept an
    (n, d) batch and return (n,), which fast paths use when available.
    ``bound`` is a sup-norm bound, ``lipschitz`` a Lipschitz constant; both
    are trusted inputs, spot-checked where payoffs are sampled onto grids.
    """

    eval: Callable
    bound: float
    lipschitz: float

    def __post_init__(self):
        if not callable(self.eval):
            raise ValidationError("BAD_SHAPE", "payoff eval must be callable")
        b, L = float(self.bound), float(self.lipschitz)
        if not (math.isfinite(b) and b >= 0):
            raise ValidationError("NON_FINITE", f"payoff bound {b!r} invalid")
        if not (math.isfinite(L) and L >= 0):
            raise ValidationError("NON_FINITE", f"payoff lipschitz {L!r} invalid")
        object.__setattr__(self, "bound", b)
        object.__setattr__(self, "lipschitz", L)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform tensor grid: ``points[i]`` nodes from ``lower[i]`` to ``upper[i]``, on d >= 1 axes."""

    lower: np.ndarray
    upper: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        lower = _readonly(self.lower, ndmin=1)
        upper = _readonly(self.upper, ndmin=1)
        points = np.array(self.points, ndmin=1)
        if points.dtype.kind == "f" and all(
            math.isfinite(p) and p == math.floor(p) for p in points.ravel().tolist()
        ):
            points = points.astype(int)
        if points.dtype.kind not in "iu":
            raise ValidationError("BAD_SHAPE", f"grid points {self.points!r} must be integers")
        if not (lower.shape == upper.shape == points.shape) or lower.ndim != 1:
            raise ValidationError("BAD_SHAPE", "lower/upper/points must be equal-length vectors")
        if lower.shape[0] == 0:
            raise ValidationError("BAD_SHAPE", "grid needs at least one axis")
        lo = _finite_values(lower, "grid lower")
        hi = _finite_values(upper, "grid upper")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValidationError("BAD_SHAPE", "grid upper must exceed lower componentwise")
        if min(points.tolist()) < 3:
            raise ValidationError("BAD_SHAPE", "grid needs at least 3 points per axis")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "points", _readonly(points, dtype=int))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def spacing(self) -> np.ndarray:
        return _readonly((self.upper - self.lower) / (self.points - 1))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(n) for n in self.points)

    def axes(self) -> list[np.ndarray]:
        return [
            self.lower[i] + self.spacing[i] * np.arange(self.points[i])
            for i in range(self.dim)
        ]

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape (prod(points), dim), row-major over axes."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def uniform_grid(lower, upper, spacing: float) -> GridSpec:
    """Grid over [lower, upper] with spacing at most ``spacing`` per axis.

    Raises NON_FINITE for a non-finite bound and BAD_SHAPE unless ``spacing``
    is finite and positive, before either reaches the integer cast.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    _require_finite(lower, "grid lower")
    _require_finite(upper, "grid upper")
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValidationError("BAD_SHAPE", f"grid spacing {spacing!r} must be finite and positive")
    points = np.ceil((upper - lower) / spacing - EPSILON).astype(int) + 1
    return GridSpec(lower=lower, upper=upper, points=np.maximum(points, 3))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values sampled on a grid at one time label."""

    spec: GridSpec
    values: np.ndarray
    time_label: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.spec.shape:
            raise ValidationError(
                "BAD_SHAPE", f"values shape {vals.shape} != grid shape {self.spec.shape}"
            )
        _require_finite(vals, "grid values")
        t = float(self.time_label)
        if not (math.isfinite(t) and t >= 0):
            raise ValidationError("NON_FINITE", f"time label {t!r} invalid")
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "time_label", t)


@dataclass(frozen=True)
class SchemeConfig:
    """Explicit-scheme parameters.

    cfl_safety in (0, 1] scales the monotone step bound, one over the largest
    row sum of the merged stencil (:func:`glevy.solver.check_march`);
    final_time is the solve horizon.  Evaluations beyond the box always take
    the nearest boundary value (clamp extension).
    """

    cfl_safety: float = 0.9
    final_time: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValidationError("BAD_SHAPE", f"cfl_safety {self.cfl_safety} not in (0, 1]")
        if not (math.isfinite(self.final_time) and self.final_time >= 0):
            raise ValidationError("BAD_SHAPE", f"final_time {self.final_time} invalid")


def interpolate(g: GridFunction, x) -> float | np.ndarray:
    """Clamped multilinear interpolation of ``g`` at point(s) ``x``.

    ``x`` has shape (d,) or (..., d); points outside the box, infinite
    coordinates included, are clamped to the nearest boundary point axis by
    axis, and a NaN coordinate raises NON_FINITE.  The result is a convex
    combination of stored values, hence monotone in ``g.values`` and exactly
    linear in them, and reproduces linear data exactly inside the box.
    """
    spec = g.spec
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim <= 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != spec.dim:
        raise ValidationError("BAD_SHAPE", f"query points must have {spec.dim} coordinates")
    flat = pts.reshape(-1, spec.dim)
    if np.isnan(flat).any():
        raise ValidationError("NON_FINITE", "query points contain a NaN coordinate")
    u = (flat - spec.lower) / spec.spacing
    u = np.clip(u, 0.0, (spec.points - 1).astype(float))
    base = np.minimum(np.floor(u).astype(int), spec.points - 2)
    frac = u - base
    frac[frac < SNAP_TOL] = 0.0
    frac[frac > 1.0 - SNAP_TOL] = 1.0

    out = np.zeros(flat.shape[0])
    for corner in itertools.product((0, 1), repeat=spec.dim):
        w = np.ones(flat.shape[0])
        idx = []
        for axis, c in enumerate(corner):
            w = w * (frac[:, axis] if c else 1.0 - frac[:, axis])
            idx.append(base[:, axis] + c)
        out += w * g.values[tuple(idx)]
    return float(out[0]) if scalar else out.reshape(pts.shape[:-1])


def sample_payoff(phi: Payoff, spec: GridSpec) -> np.ndarray:
    """Evaluate ``phi`` on all grid nodes, checked as :func:`sample_points`."""
    return sample_points(phi, spec.nodes()).reshape(spec.shape)


def sample_points(phi: Payoff, points: np.ndarray) -> np.ndarray:
    """Evaluate ``phi`` on the rows of ``points``, preferring a batch call.

    A batch call that raises TypeError, ValueError or IndexError, or returns
    the wrong shape, marks a one-point-only payoff, which is then called row
    by row; any other exception propagates.  The samples go through
    :func:`check_samples`.
    """
    try:
        vals = np.asarray(phi.eval(points), dtype=float)
    except (TypeError, ValueError, IndexError):
        vals = None
    if vals is None or vals.shape != (len(points),):
        vals = np.fromiter((float(phi.eval(p)) for p in points), dtype=float, count=len(points))
    return check_samples(vals, phi.bound)


def check_samples(vals: np.ndarray, bound: float) -> np.ndarray:
    """Return samples once checked finite (NON_FINITE) and within ``bound`` (PAYOFF_BOUND)."""
    _require_finite(vals, "payoff samples")
    overshoot = float(np.abs(vals).max()) - bound
    if overshoot > 1e-9 * max(1.0, bound):
        raise ValidationError("PAYOFF_BOUND", f"payoff exceeds its stated bound by {overshoot:.3g}")
    return vals


def pads_origin(grid: GridSpec, pad: float, lo=0.0, hi=0.0) -> bool:
    """Whether ``grid`` reaches ``pad`` beyond the box [lo, hi] on every axis, to 1e-12.

    The box defaults to the origin, which the engine reads; a solve passes
    the corners of its evaluation points.
    """
    return bool(np.all(grid.lower <= lo - pad + 1e-12) and np.all(grid.upper >= hi + pad - 1e-12))


def min_padding(uset: UncertaintySet, horizon: float) -> float:
    """Minimum box padding beyond the region of interest for a solve.

    One jump range plus drift transport plus four diffusion standard
    deviations: max|z_k| + q_max * T + 4 * sigma_max * sqrt(T).
    """
    t = float(horizon)
    return (
        uset.max_jump_norm()
        + uset.max_drift_norm() * t
        + 4.0 * uset.max_sigma() * math.sqrt(max(t, 0.0))
    )
