"""Core model types.

A *scenario* is one jump-diffusion triplet (nu, q, Q): a finite-atom jump
measure nu = sum_k w_k * delta_{z_k}, a drift vector q and a diffusion factor
Q (the matrix entering the dynamics is Q @ Q.T).  An *uncertainty set* is a
finite family of scenarios; every operation in this package evaluates a
worst case over that family.  Payoffs are bounded Lipschitz functions given
by a callable plus explicit bound and Lipschitz constants, and grid data
lives on uniform tensor grids with clamped multilinear interpolation.

Every array the library takes in, from a caller or from a payoff, is read by
one function, :func:`_array`: it refuses a non-numeric or ragged array and a
wrong shape (BAD_SHAPE), then non-finite entries where the site refuses them
(NON_FINITE), and copies the rest into a float64 array the library owns.
The one exception is a grid's point counts, which :class:`GridSpec` reads by
their exact integer rule: a float64 read would round a count beyond 2**53.
Scalars have :func:`_real` and :func:`_integer` for their type.  A real
number is what :func:`_array` reads as one entry: a Python or numpy bool,
int or float, but no array, so an int beyond 64 bits or a ``Fraction`` is
BAD_SHAPE, as it is in an array.  An integer is a Python or numpy int of any
size, a bool excluded.  One reader per range rule sits on top of them:
:func:`_constant`, :func:`_horizon`, :func:`_step`, :func:`_tolerance`,
:func:`_tail`, :func:`_cfl_safety`, :func:`_lambda`, :func:`_gamma`,
:func:`_finite`, :func:`_count` and :func:`_seed`, and one size rule,
:func:`_fits`: an array's bytes must fit an index.  Every site of a rule, in
the library and in the CLI, calls its reader.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError

EPSILON = 1e-12

# Interpolation queries within this fraction of a cell from a grid plane are
# snapped onto it, so node queries return stored values exactly and jumps that
# are integer multiples of the spacing stay lattice-aligned despite binary
# rounding of the spacing itself.
SNAP_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(False)  # write=False: a keyword costs the call twice over
    return arr


def _require_finite(arr, what: str):
    # the ufunc's own reduce skips ndarray.all's Python-level wrapper
    if not np.logical_and.reduce(np.isfinite(arr), None):
        raise ValidationError("NON_FINITE", f"{what} contains a non-finite entry")


def vector_norm(v) -> float:
    """Euclidean norm of a float vector (a sequence or 1-D array): ``np.linalg.norm``'s sqrt(v . v).

    One component is squared on a Python float, the IEEE product numpy's dot
    takes.  Longer vectors keep numpy's dot: a Python sum of squares rounds
    differently (in 15 897 of 200 000 standard normal 2-D vectors, numpy
    2.4.6 on x86-64).  Either form overflows to inf without a warning.
    """
    if len(v) == 1:
        x = float(v[0])
        return math.sqrt(x * x)
    with np.errstate(over="ignore"):
        return math.sqrt(np.dot(v, v))


@dataclass(frozen=True, eq=False, init=False)
class Scenario:
    """One jump-diffusion triplet (nu, q, Q).

    Parameters
    ----------
    atoms : sequence of (z, w)
        Atoms of the jump measure: jump vector ``z`` (scalar or length-d) with
        rate ``w >= 0``.  A zero jump vector is rejected (it contributes
        nothing and masks input errors), as is a negative rate; a rate that
        is not a real number raises BAD_SHAPE.
    drift : array_like, shape (d,), d >= 1
    diffusion : array_like, shape (d, d)
        Diffusion *factor* Q; scalars are accepted when d == 1.

    A drift, diffusion or jump vector that is not an array of real numbers
    (a string, None, a complex or ragged array), or has the wrong shape,
    raises BAD_SHAPE; a non-finite entry NON_FINITE.  ``atoms`` that is not
    a sequence raises BAD_SHAPE.

    Validation checks every entry on Python floats and keeps them: ``q``
    (the drift), ``factor`` (Q's entries, row-major), ``jumps`` and
    ``rates`` (each atom's jump vector and rate), and ``jump_norms`` (each
    |z_k|, by :func:`vector_norm`), and ``total_rate``, numpy's sum of the
    rates.  Every set-up reader (the stencil, the step bound, paddings
    and boxes) takes these floats: a numpy call on a 1-4-element array costs
    microseconds, a float operation tens of nanoseconds, and each float
    formula is the IEEE operation of the numpy one, so no result moves.
    """

    atoms: tuple = ()
    drift: np.ndarray = 0.0
    diffusion: np.ndarray = 0.0

    def __init__(self, atoms=(), drift=0.0, diffusion=0.0):
        drift, q = _array("drift", drift, 1, kept=True)
        d = len(q)
        if d == 0:
            raise ValidationError("BAD_SHAPE", "drift must have at least one component")
        diff, factor = _array("diffusion", diffusion, (d, d), kept=True)

        pairs, jumps, rates, norms = [], [], [], []
        for entry in _sequence("atoms", atoms):
            try:
                z, w = entry
            except (TypeError, ValueError):
                raise ValidationError("BAD_SHAPE", f"atom {entry!r} is not a (z, w) pair")
            w = _real("atom rate", w)
            z, jump = _array("atom jump", z, (d,), kept=True)
            if not math.isfinite(w):
                raise ValidationError("NON_FINITE", "atom contains a non-finite entry")
            if w < 0:
                raise ValidationError("NEGATIVE_RATE", f"atom rate {w} is negative")
            if not any(jump):
                raise ValidationError("ZERO_JUMP", "atom jump vector is zero")
            pairs.append((z, w))
            jumps.append(tuple(jump))
            rates.append(w)
            norms.append(vector_norm(jump))

        # numpy's sum of the rates: in order below 8 terms, as a Python sum
        # from the first rate adds, and pairwise from 8 on; inf, unwarned,
        # where it overflows
        if 0 < len(rates) < 8:
            total = sum(rates[1:], rates[0])
        else:
            with np.errstate(over="ignore"):
                total = float(np.add.reduce(rates))
        # the fields and the floats kept from validation, set once on the frozen instance
        self.__dict__.update(
            atoms=tuple(pairs),
            drift=drift,
            diffusion=diff,
            q=tuple(q),
            factor=tuple(factor),
            jumps=tuple(jumps),
            rates=tuple(rates),
            jump_norms=tuple(norms),
            total_rate=total,
        )

    @property
    def dim(self) -> int:
        return len(self.q)

    @property
    def diffusive(self) -> bool:
        """Whether the diffusion factor has a nonzero entry."""
        return any(self.factor)


def _covariance(s: Scenario) -> list[list[float]]:
    """Q Q^T as rows of Python floats.

    A zero factor takes no product, and a 1 x 1 factor its one product on a
    Python float, the IEEE product numpy's matmul takes; d >= 2 keeps the
    matmul.  An entry that overflows is inf (or nan, from inf - inf), with no
    warning; the step bound refuses it with its own code.
    """
    d = s.dim
    if not s.diffusive:
        return [[0.0] * d for _ in range(d)]
    if d == 1:
        (f,) = s.factor
        return [[f * f]]
    with np.errstate(over="ignore", invalid="ignore"):
        return (s.diffusion @ s.diffusion.T).tolist()


def _spectral_norm(s: Scenario) -> float:
    """Largest singular value of the scenario's diffusion factor."""
    entries = s.factor
    if len(entries) == 1:
        return abs(entries[0])
    return float(np.linalg.norm(s.diffusion, 2)) if any(entries) else 0.0


@dataclass(frozen=True, eq=False, init=False)
class UncertaintySet:
    """Finite, non-empty family of scenarios with a common dimension.

    ``scenarios`` that is not a sequence of :class:`Scenario` raises BAD_SHAPE.
    """

    scenarios: tuple[Scenario, ...]

    def __init__(self, scenarios):
        scen = _sequence("scenarios", scenarios)
        if len(scen) == 0:
            raise ValidationError("EMPTY_SET", "uncertainty set has no scenarios")
        dims = {s.dim if isinstance(s, Scenario) else None for s in scen}
        if None in dims:
            raise ValidationError("BAD_SHAPE", "uncertainty set entries must be Scenarios")
        if len(dims) != 1:
            raise ValidationError("BAD_SHAPE", f"scenario dimensions differ: {sorted(dims)}")
        self.__dict__["scenarios"] = scen

    @property
    def dim(self) -> int:
        return self.scenarios[0].dim

    @property
    def _reach(self) -> tuple[float, float, float]:
        # the largest jump norm, drift norm and diffusion factor's spectral
        # norm across scenarios.  Paid once per set, on first use: every
        # padding check needs it, and kept in the instance dict, where a read
        # takes no lock (Python 3.11's cached_property takes one on every
        # first read).  The jump norms are the scenarios' own.  A zero factor
        # has norm exactly 0.0 and a 1 x 1 factor exactly |Q_11|; only a
        # factor of d >= 2 takes an SVD (LAPACK's value).  LAPACK rescales
        # extreme 1 x 1 inputs and rounds (first seen at 8.4e144 and
        # 1.0e-300), so there the absolute value is the exact norm it
        # approximates.
        if "reach" not in self.__dict__:
            jumps = max([n for s in self.scenarios for n in s.jump_norms], default=0.0)
            drifts = max([vector_norm(s.q) for s in self.scenarios])
            self.__dict__["reach"] = jumps, drifts, max(map(_spectral_norm, self.scenarios))
        return self.__dict__["reach"]

    def max_total_rate(self) -> float:
        return max(s.total_rate for s in self.scenarios)


def validate_uncertainty_set(raw: Iterable) -> UncertaintySet:
    """Build an :class:`UncertaintySet` from scenarios or (atoms, drift, diffusion) triples.

    Idempotent: feeding back ``uset.scenarios`` reproduces an equivalent set.
    Raises :class:`ValidationError` with a distinct code per defect
    (EMPTY_SET, NEGATIVE_RATE, ZERO_JUMP, NON_FINITE, BAD_SHAPE; a ``raw``
    that is not a sequence is BAD_SHAPE).
    """
    scenarios = []
    for entry in _sequence("uncertainty set", raw):
        if isinstance(entry, Scenario):
            scenarios.append(entry)
        else:
            try:
                atoms, drift, diffusion = entry
            except (TypeError, ValueError):
                raise ValidationError(
                    "BAD_SHAPE", f"scenario {entry!r} is not a Scenario or a 3-tuple"
                )
            scenarios.append(Scenario(atoms=atoms, drift=drift, diffusion=diffusion))
    return UncertaintySet(tuple(scenarios))


@dataclass(frozen=True, eq=False)
class Payoff:
    """Bounded Lipschitz payoff.

    ``eval`` maps a point of shape (d,) to a float; it may also accept an
    (n, d) batch and return (n,), which fast paths use when available.
    ``bound`` is a sup-norm bound, ``lipschitz`` a Lipschitz constant: real
    numbers (else BAD_SHAPE), finite and nonnegative (else NON_FINITE).
    Every sample is checked against the bound (:func:`check_samples`), and
    samples on a grid against the Lipschitz constant along each axis
    (:func:`sample_payoff`); the engine's blocks check only the bound.
    """

    eval: Callable
    bound: float
    lipschitz: float

    def __post_init__(self):
        if not callable(self.eval):
            raise ValidationError("BAD_SHAPE", "payoff eval must be callable")
        # both types before either range
        b, L = _real("payoff bound", self.bound), _real("payoff lipschitz", self.lipschitz)
        object.__setattr__(self, "bound", _constant("payoff bound", b))
        object.__setattr__(self, "lipschitz", _constant("payoff lipschitz", L))


@dataclass(frozen=True, eq=False, init=False)
class GridSpec:
    """Uniform tensor grid: ``points[i]`` nodes from ``lower[i]`` to ``upper[i]``, on d >= 1 axes.

    Validation checks the bounds on Python floats and keeps them, as tuples
    with one entry per axis: ``lo`` and ``hi`` (the bounds), ``shape`` (the
    node counts, Python ints) and ``h`` (the spacing (hi - lo) / (n - 1)).
    Set-up readers (stencils, strides, origin corners, padding checks) take
    these floats instead of microsecond numpy calls on tiny arrays.

    ``points`` is read first: a vector of integers, integral floats such as
    5.0 included (else BAD_SHAPE; a bool, a ragged or nested sequence and an
    int beyond 64 bits included); ``lower`` and ``upper`` must then be arrays of
    real numbers of its shape (else BAD_SHAPE; a string, None, a complex or
    ragged array included) with finite entries (NON_FINITE).  BAD_SHAPE is
    also raised, before any array is built, for a grid whose
    :meth:`nodes` array, prod(points) * d floats, has more bytes than numpy
    can index (:func:`_fits`; an integral float count is read as an exact
    int, one beyond int64 included), and for a spacing that is not finite and
    positive: one that underflows to zero, or a span that overflows.  A grid
    that fits an index but not the memory still raises MemoryError when its
    arrays are built.
    """

    lower: np.ndarray
    upper: np.ndarray
    points: np.ndarray

    def __init__(self, lower, upper, points):
        given = points
        try:
            points = np.array(given, ndmin=1)
        except ValueError:
            raise ValidationError("BAD_SHAPE", "grid points is a ragged sequence") from None
        counts = (points if points.ndim == 1 else points.ravel()).tolist()
        if points.dtype.kind == "f" and all(math.isfinite(p) and p == math.floor(p) for p in counts):
            # exact Python ints, a count beyond int64 included: _fits refuses it below
            counts = list(map(int, counts))
        elif points.dtype.kind not in "iu":
            raise ValidationError("BAD_SHAPE", f"grid points {given!r} must be integers")
        if points.ndim != 1:
            raise ValidationError("BAD_SHAPE", "grid points must be a vector")
        lower, lo = _array("grid lower", lower, points.shape, kept=True)
        upper, hi = _array("grid upper", upper, points.shape, kept=True)
        if not lo:
            raise ValidationError("BAD_SHAPE", "grid needs at least one axis")
        if not all(map(operator.lt, lo, hi)):
            raise ValidationError("BAD_SHAPE", "grid upper must exceed lower componentwise")
        shape = tuple(counts)
        if min(shape) < 3:
            raise ValidationError("BAD_SHAPE", "grid needs at least 3 points per axis")
        nodes = math.prod(shape)
        _fits(nodes * len(shape), "grid of {} nodes", nodes)
        # finite bounds: 0 where the spacing underflows, inf where the span overflows
        h = tuple([(b - a) / (n - 1) for a, b, n in zip(lo, hi, shape)])
        if not all(h) or math.inf in h:
            raise ValidationError("BAD_SHAPE", "grid spacing must be finite and positive")
        # the fields and the floats kept from validation, set once on the frozen instance
        self.__dict__.update(
            lower=lower,
            upper=upper,
            points=_readonly(points.astype(int, copy=False)),
            lo=tuple(lo),
            hi=tuple(hi),
            shape=shape,
            h=h,
        )

    @property
    def dim(self) -> int:
        return len(self.lo)

    def axes(self, strides=None) -> list[np.ndarray]:
        """Each axis' nodes, or every ``strides[i]``-th node of axis i from its first."""
        axes = zip(self.lo, self.h, self.shape, strides or (1,) * len(self.lo))
        # a float range holds the same integers as an int one and skips the
        # int-to-float step of the product
        return [lo + h * np.arange(0.0, n, s) for lo, h, n, s in axes]

    def nodes(self) -> np.ndarray:
        """All grid nodes, shape (prod(points), dim), row-major over axes."""
        # each axis broadcast straight into its column: a meshgrid and a stack
        # cost 14 times as long on a 201 x 201 grid
        out = np.empty(self.shape + (self.dim,))
        for i, axis in enumerate(self.axes()):
            out[..., i] = axis.reshape((-1,) + (1,) * (self.dim - 1 - i))
        return out.reshape(-1, self.dim)


def uniform_grid(lower, upper, spacing: float) -> GridSpec:
    """Grid over [lower, upper] with spacing at most ``spacing`` per axis.

    Raises NON_FINITE for a non-finite bound, BAD_SHAPE for a bound that is
    not an array of real numbers (a string, None, a complex or ragged array)
    or whose shapes differ, and BAD_SHAPE unless ``spacing`` is a finite
    positive real number.  Each axis counts ceil((upper - lower)
    / spacing - EPSILON) + 1 points, at least 3, on Python floats; a count
    that is not finite or exceeds an index is BAD_SHAPE too, and so is a grid
    whose nodes fit no array (:class:`GridSpec`).  Bounds in the wrong order,
    whatever their size, get 3 points on that axis and so :class:`GridSpec`'s
    BAD_SHAPE for them.
    """
    lower, lo = _array("grid lower", lower, 1, kept=True)
    upper, hi = _array("grid upper", upper, lower.shape, kept=True)
    spacing = _step("grid spacing", spacing)
    points = []
    for a, b in zip(lo, hi):
        # bounds in the wrong order count no cells, even where b - a overflows to -inf
        cells = max((b - a) / spacing - EPSILON, 0.0)
        # inf fails the comparison too
        if not cells < sys.maxsize:
            raise ValidationError(
                "BAD_SHAPE", f"[{a:.6g}, {b:.6g}] at spacing {spacing:.6g} has too many points"
            )
        points.append(max(math.ceil(cells) + 1, 3))
    return GridSpec(lower=lower, upper=upper, points=points)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values sampled on a grid at one time label.

    ``values`` must be an array of real numbers of the grid's shape (else
    BAD_SHAPE; a string, None, a complex or ragged array included) with
    finite entries (NON_FINITE); they are kept as a frozen copy.  The time
    label is a finite nonnegative real number: BAD_SHAPE for a non-number,
    NON_FINITE otherwise.
    """

    spec: GridSpec
    values: np.ndarray
    time_label: float = 0.0

    def __post_init__(self):
        vals = _array("grid values", self.values, self.spec.shape)
        object.__setattr__(self, "values", _readonly(vals))
        object.__setattr__(self, "time_label", _constant("time label", self.time_label))

    @classmethod
    def _owned(cls, spec: GridSpec, values: np.ndarray, time_label: float) -> GridFunction:
        """A grid function of float64 ``values`` of the grid's shape that no caller holds.

        The values are checked finite (NON_FINITE) and frozen in place, not
        copied; ``time_label`` is a float some reader has already checked.
        """
        _require_finite(values, "grid values")
        g = object.__new__(cls)
        g.__dict__.update(spec=spec, values=_readonly(values), time_label=time_label)
        return g


def _real(what: str, value) -> float:
    """``value`` as a Python float, read as :func:`_array` reads one entry of shape ().

    A Python float is returned as it is.  Anything else must be a bool, an
    int or a float of numpy's types, Python's included, and gets
    ``np.array(value, dtype=float)``'s bits.  An array, a string, None, a
    complex number, a ``Fraction`` and an int beyond 64 bits raise BAD_SHAPE
    (``float`` would take the ``Fraction``, and raise OverflowError on an int
    beyond the float range).
    """
    if type(value) is float:
        return value
    if isinstance(value, np.ndarray):
        raise ValidationError("BAD_SHAPE", f"{what} {value!r} is not a real number")
    return float(_array(what, value, (), finite=False))


def _integer(what: str, value) -> int:
    """``value`` as a Python int; a bool, a float, a string, None or an array raises BAD_SHAPE."""
    # a Python int first: the ABC check costs about a microsecond
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise ValidationError("BAD_SHAPE", f"{what} {value!r} is not an integer")
    return int(value)


def _ranged(code: str, rule: str, holds: Callable[[float], bool]):
    """The reader ``read(what, value)`` of one scalar range rule.

    It returns :func:`_real`'s float of ``value`` if ``holds`` it, and raises
    ``code`` with ``<what> <value> <rule>`` otherwise.  nan fails every
    comparison, so each rule below refuses it.
    """

    def read(what: str, value) -> float:
        # a Python float is _real's own value: no call for it
        x = value if type(value) is float else _real(what, value)
        if not holds(x):
            raise ValidationError(code, f"{what} {x!r} {rule}")
        return x

    return read


# a payoff bound or Lipschitz constant, and a time label
_constant = _ranged("NON_FINITE", "must be finite and nonnegative", lambda x: 0.0 <= x < math.inf)
# a time span: a horizon, an increment's length, a solve's final time
_horizon = _ranged("BAD_SHAPE", "must be finite and nonnegative", lambda x: 0.0 <= x < math.inf)
# a grid spacing or a time step
_step = _ranged("BAD_SHAPE", "must be finite and positive", lambda x: 0.0 < x < math.inf)
# a series' error tolerance
_tolerance = _ranged("BAD_TOLERANCE", "must be positive", lambda x: x > 0.0)
# a Poisson tail mass
_tail = _ranged("BAD_TOLERANCE", "not in (0, 1)", lambda x: 0.0 < x < 1.0)
# a scheme's CFL safety factor
_cfl_safety = _ranged("BAD_SHAPE", "not in (0, 1]", lambda x: 0.0 < x <= 1.0)
# the low end of an intensity band
_lambda = _ranged("LAMBDA_RANGE", "not in [0, 1]", lambda x: 0.0 <= x <= 1.0)
# a resolvent's gamma
_gamma = _ranged("GAMMA_RANGE", "must be positive", lambda x: 0.0 < x < math.inf)
# a value with no range but finiteness
_finite = _ranged("NON_FINITE", "is not finite", math.isfinite)


def _count(what: str, value, least: int = 1) -> int:
    """``value`` as a Python int >= ``least``: a count of nodes, axes or blocks; else BAD_SHAPE."""
    n = _integer(what, value)
    if n < least:
        raise ValidationError("BAD_SHAPE", f"{what} {n!r} is not an int >= {least}")
    return n


# a random generator's seed: an int >= 0, a numpy int included
_seed = partial(_count, least=0)


def _fits(entries: int, what: str, *args) -> None:
    """BAD_SHAPE ``<what> fits no array`` if ``entries`` floats have more bytes than an index holds.

    ``what`` is a ``str.format`` template of ``args``, filled only when the rule fails.
    """
    if entries * 8 > sys.maxsize:
        raise ValidationError("BAD_SHAPE", what.format(*args) + " fits no array")


def _array(what: str, value, shape=None, finite: bool = True, kept: bool = False):
    """``value`` as a float64 copy: the one reader of every array the library takes in.

    Numbers, bools, ints, floats of any width and numpy scalars or arrays of
    them give ``np.array(value, dtype=float)``'s bits (a long double beyond
    float64's range is inf, without numpy's overflow warning); anything else
    (None, str, bytes, complex, object, ragged) is BAD_SHAPE, as is a shape other
    than ``shape`` (None for any, n for any n axes, or the axis lengths, which
    a 0-d value fills when they hold one entry).  Then, with ``finite``, a
    non-finite entry is NON_FINITE.  A ``kept`` array, the few entries of a
    set or grid, is returned frozen with its flat Python floats, checked
    finite on those at a fraction of a numpy call's cost.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValidationError("BAD_SHAPE", f"{what} is a ragged sequence") from None
    if arr.dtype.char != "d" or arr is value or arr.base is not None:
        if arr.dtype.kind not in "biuf":
            raise ValidationError("BAD_SHAPE", f"{what} must hold real numbers, got {arr.dtype}")
        if arr.dtype.char == "g":
            # a long double beyond float64's range casts to inf, unwarned: NON_FINITE below
            with np.errstate(over="ignore"):
                arr = arr.astype(float)
        else:
            arr = arr.astype(float)
    if shape is not None and (arr.ndim != shape if type(shape) is int else arr.shape != shape):
        one = (1,) * shape if type(shape) is int else shape
        if arr.ndim or math.prod(one) != 1:
            want = f"{shape} axes" if one is not shape else f"shape {shape}"
            raise ValidationError("BAD_SHAPE", f"{what} has shape {arr.shape}, not {want}")
        arr = arr.reshape(one)
    if kept:
        entries = (arr if arr.ndim == 1 else arr.ravel()).tolist()
        if not all(map(math.isfinite, entries)):
            raise ValidationError("NON_FINITE", f"{what} contains a non-finite entry")
        arr.setflags(False)
        return arr, entries
    if finite:
        _require_finite(arr, what)
    return arr


def _sequence(what: str, value) -> tuple:
    """The entries of ``value`` as a tuple; a value that is not iterable raises BAD_SHAPE."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError("BAD_SHAPE", f"{what} {value!r} is not a sequence") from None


@dataclass(frozen=True, init=False)
class SchemeConfig:
    """Explicit-scheme parameters.

    cfl_safety in (0, 1] scales the monotone step bound, one over the largest
    row sum of the merged stencil (:func:`glevy.solver.check_march`);
    final_time is the solve horizon.  Both are kept as Python floats, and a
    value that is not a real number (a string, None, an array) raises
    BAD_SHAPE.  Evaluations beyond the box always take the nearest boundary
    value (clamp extension).
    """

    cfl_safety: float = 0.9
    final_time: float = 1.0

    def __init__(self, cfl_safety=0.9, final_time=1.0):
        # both types before either range
        cfl, final = _real("cfl_safety", cfl_safety), _real("final_time", final_time)
        self.__dict__.update(
            cfl_safety=_cfl_safety("cfl_safety", cfl), final_time=_horizon("final_time", final)
        )


def interpolate(g: GridFunction, x) -> float | np.ndarray:
    """Clamped multilinear interpolation of ``g`` at point(s) ``x``.

    ``x`` has shape (d,) or (..., d), else BAD_SHAPE, as is an ``x`` that is
    not an array of real numbers (a string, None, a complex or ragged array).
    Points outside the box, infinite coordinates included, are clamped to the
    nearest boundary point axis by axis, and a NaN coordinate raises
    NON_FINITE.  The result is a convex
    combination of stored values, hence monotone in ``g.values`` and exactly
    linear in them, and reproduces linear data exactly inside the box.
    """
    spec = g.spec
    pts = _array("query points", x, finite=False)
    scalar = pts.ndim <= 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != spec.dim:
        raise ValidationError("BAD_SHAPE", f"query points must have {spec.dim} coordinates")
    flat = pts.reshape(-1, spec.dim)
    if np.isnan(flat).any():
        raise ValidationError("NON_FINITE", "query points contain a NaN coordinate")
    u = (flat - spec.lower) / spec.h
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
    """Evaluate ``phi`` on all grid nodes, checked as :func:`sample_points` and for slope.

    Neighbouring nodes on an axis of spacing h may differ by at most
    L * h * (1 + 1e-9), L = ``phi.lipschitz``, plus four ulps of the bound
    and of L times the axis' largest coordinate: the rounding of the samples
    and of the node coordinates.  A steeper step raises PAYOFF_LIPSCHITZ.
    """
    vals = sample_points(phi, spec.nodes()).reshape(spec.shape)
    L = phi.lipschitz
    for axis, (h, lo, hi) in enumerate(zip(spec.h, spec.lo, spec.hi)):
        before = (slice(None),) * axis
        steps = vals[before + (slice(1, None),)] - vals[before + (slice(None, -1),)]
        steep = float(np.abs(steps, out=steps).max())
        rounding = 4.0 * sys.float_info.epsilon * (phi.bound + L * max(abs(lo), abs(hi)))
        if steep > L * h * (1.0 + 1e-9) + rounding:
            raise ValidationError(
                "PAYOFF_LIPSCHITZ",
                f"payoff changes by {steep / h:.6g} per unit on axis {axis}, "
                f"above its stated Lipschitz constant {L:.6g}",
            )
    return vals


def sample_points(phi: Payoff, points: np.ndarray) -> np.ndarray:
    """Evaluate ``phi`` on the rows of ``points``, preferring a batch call.

    A batch call that raises TypeError, ValueError or IndexError, or returns
    anything but (n,) real numbers, marks a one-point-only payoff, which is
    then called row by row; any other exception propagates.  Row outputs that
    are not n real numbers (a string, None, an array per row) raise
    BAD_SHAPE.  The samples are a copy, so a payoff's own array is never
    written, and go through :func:`check_samples`.
    """
    n = len(points)
    try:
        vals = phi.eval(points)
    except (TypeError, ValueError, IndexError):
        vals = None
    try:
        vals = _array("payoff samples", vals, (n,), finite=False)
    except ValidationError:
        vals = _array("payoff samples", [phi.eval(p) for p in points], (n,), finite=False)
    return check_samples(vals, phi.bound)


def check_samples(vals: np.ndarray, bound: float) -> np.ndarray:
    """Return 1-D samples once checked finite (NON_FINITE) and within ``bound`` (PAYOFF_BOUND)."""
    # NaN or inf exactly when a sample is not finite; the ufunc's own reduce
    # along the one axis skips ndarray.max's Python-level wrapper
    peak = float(np.maximum.reduce(np.abs(vals)))
    if not math.isfinite(peak):
        raise ValidationError("NON_FINITE", "payoff samples contains a non-finite entry")
    overshoot = peak - bound
    if overshoot > 1e-9 * max(1.0, bound):
        raise ValidationError("PAYOFF_BOUND", f"payoff exceeds its stated bound by {overshoot:.3g}")
    return vals


def pads_origin(grid: GridSpec, pad: float, lo=None, hi=None) -> bool:
    """Whether ``grid`` reaches ``pad`` beyond the box [lo, hi] on every axis, to 1e-12.

    ``lo`` and ``hi`` hold one float per axis.  The box defaults to the
    origin, which the engine reads; a solve passes the corners of its
    evaluation points.
    """
    if lo is None and hi is None:
        # at the origin 0.0 - pad + 1e-12 is 1e-12 - pad, and 0.0 + pad - 1e-12
        # is pad - 1e-12, bit for bit: one comparison per side
        return max(grid.lo) <= 1e-12 - pad and min(grid.hi) >= pad - 1e-12
    origin = (0.0,) * grid.dim
    return all(
        g <= a - pad + 1e-12 for g, a in zip(grid.lo, origin if lo is None else lo)
    ) and all(g >= b + pad - 1e-12 for g, b in zip(grid.hi, origin if hi is None else hi))


def min_padding(uset: UncertaintySet, horizon: float) -> float:
    """Minimum box padding beyond the region of interest for a solve.

    One jump range plus drift transport plus four diffusion standard
    deviations: max|z_k| + q_max * T + 4 * sigma_max * sqrt(T).  A horizon
    that is not a finite nonnegative real number raises BAD_SHAPE.
    """
    t = _horizon("horizon", horizon)
    jump, drift, sigma = uset._reach
    return jump + drift * t + 4.0 * sigma * math.sqrt(t)
