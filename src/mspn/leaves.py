"""Univariate leaf distributions.

Two nonparametric families, subclasses of :class:`Leaf`, cover all kinds:

* :class:`HistogramLeaf` -- adaptive irregular-bin histograms for
  continuous columns, integer-aligned unit bins for discrete columns,
  per-category masses for categorical columns, all Laplace-smoothed.
* :class:`PiecewiseLinearLeaf` -- unimodal piecewise-linear densities
  obtained by isotonic regression on the smoothed histogram, for
  continuous and discrete columns.

Each family's rules run as one vectorized pass over a group of leaves
that share an edge or knot count (``check_group``, which the model loader
and ``validate`` use); a leaf's own ``check`` is that pass on a group of
one. Leaves are immutable after fitting; evaluation and sampling never
mutate them. Tables derived from a leaf's fields are built on first use
and kept on the leaf: ``inverse_cdf``, which sampling reads, and
``knot_table``, the one density rule of each family, which every query,
``leaf_support`` and MPE's grid for a 1-d mixture (``mixture_candidates``) read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, DISCRETE, StatType
from .errors import DomainError, EmptyInputError, QueryError
from .numerics import adaptive_bin_edges, fit_monotone, is_integer, trapezoid

# integer ranges wider than this fall back to the adaptive binning search
# rather than materializing one unit bin per integer
MAX_UNIT_BINS = 2048
# the most integers a query's grid enumerates (``integer_support``): 128 MB
# of doubles; a wider support is a query error, not an allocation failure
MAX_GRID_INTEGERS = 2**24


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


# the rules that the fitters turn into messages naming the variable at fault
_UNORDERED = "{} must be finite and strictly increasing"
_DENSITY_OVERFLOW = "bin densities overflow a double"
_SLOPE_OVERFLOW = "knot slopes overflow a double"


def _first_failures(m: int, rules) -> list:
    """Each of ``m`` rows' message from the first of ``rules`` it fails, or None.

    ``rules`` yields ``(ok, message)`` in order. ``ok`` is a list of one
    bool per row or an (m, ...) mask whose row passes when all its entries
    are true; ``message`` is the text or formats it from the row. A row
    that fails an early rule can hold values that make a later one
    overflow or compute inf - inf, so the rules run without warnings.
    """
    out = [None] * m
    with np.errstate(all="ignore"):
        for ok, message in rules:
            if isinstance(ok, list):
                if all(ok):
                    continue
                failing = [i for i, good in enumerate(ok) if not good]
            elif ok.all():
                continue
            else:
                failing = np.flatnonzero(~ok.reshape(m, -1).all(axis=1)).tolist()
            for i in failing:
                if out[i] is None:
                    out[i] = message if isinstance(message, str) else message(i)
    return out


def _knot_rules(x: np.ndarray, what: str, domain: list):
    """Yield the rules on both families' (m, k) knot or edge rows; return the widths."""
    ends = x[:, :: x.shape[1] - 1].tolist()
    finite = [math.isfinite(lo) and math.isfinite(hi) for lo, hi in ends]
    widths = x[:, 1:] - x[:, :-1]
    # a difference of doubles has the sign of their comparison
    yield finite, _UNORDERED.format(what)
    yield widths > 0, _UNORDERED.format(what)
    # halved, not subtracted: hi - lo overflows exactly when its half rounds to 2**1023
    yield ([hi / 2 - lo / 2 < 2.0 ** 1023 for lo, hi in ends],
           lambda i: "{} span [{:g}, {:g}] is wider than a double holds".format(what, *ends[i]))
    # a discrete leaf puts its mass on the integers of [lo, hi]; with none
    # there it would sample outside its support or have nothing to sample
    yield ([not (d == DISCRETE and ok) or math.ceil(lo) <= math.floor(hi)
            for d, ok, (lo, hi) in zip(domain, finite, ends)],
           lambda i: "discrete leaf support [{:g}, {:g}] holds no integer".format(*ends[i]))
    return widths


def _histogram_rules(domain, edges, masses, smoothing, unseen_mass):
    yield ([d in (CONTINUOUS, DISCRETE, CATEGORICAL) for d in domain],
           lambda i: f"unknown leaf domain {domain[i]!r}")
    if edges.ndim != 2 or masses.ndim != 2:
        yield [False] * len(domain), "edges and masses must be 1-d"
        return
    if edges.shape[1] != masses.shape[1] + 1 or masses.shape[1] < 1:
        yield [False] * len(domain), "need B+1 edges for B >= 1 masses"
        return
    widths = yield from _knot_rules(edges, "bin edges", domain)
    if CATEGORICAL in domain:
        codes = list(range(edges.shape[1]))
        yield ([d != CATEGORICAL or row == codes for d, row in zip(domain, edges.tolist())],
               "categorical bin edges must be the codes 0, 1, ..., arity")
    yield masses >= 0, "masses must be a probability vector"
    yield ([abs(total - 1.0) <= 1e-12 for total in masses.sum(axis=1).tolist()],
           "masses must be a probability vector")
    # the densities ``knot_table`` divides out; a discrete bin spreads its
    # mass over at least one integer, so only the others can overflow
    yield ([d == DISCRETE or top < math.inf
            for d, top in zip(domain, (masses / widths).max(axis=1).tolist())],
           _DENSITY_OVERFLOW)
    yield ([0 <= s < math.inf and 0 <= u < math.inf for s, u in zip(smoothing, unseen_mass)],
           "smoothing and unseen mass must be finite and nonnegative")


def _piecewise_linear_rules(domain, knots_x, knots_y, mode_index):
    x, y = knots_x, knots_y
    yield ([d in (CONTINUOUS, DISCRETE) for d in domain],
           "piecewise-linear leaves are continuous or discrete only")
    if not (x.ndim == 2 and x.shape == y.shape and x.shape[1] >= 2):
        yield [False] * len(domain), "need matching 1-d knot vectors with >= 2 knots"
        return
    widths = yield from _knot_rules(x, "knots_x", domain)
    yield y >= 0, "knot densities must be nonnegative"
    k = x.shape[1]
    in_range = [is_integer(j) and 0 <= j < k for j in mode_index]
    yield in_range, "mode_index out of range"
    # segment c rises (weakly) before the mode and falls (weakly) from it;
    # compared, not subtracted, since inf >= inf holds
    y0, y1 = y[:, :-1], y[:, 1:]
    rising = np.arange(k - 1) < np.array([j if good else 0
                                          for j, good in zip(mode_index, in_range)])[:, None]
    yield np.where(rising, y1 >= y0, y1 <= y0), "knot densities must be unimodal around mode_index"
    # a slope or an integral that overflows is inf and fails its test. The
    # slopes grow like 1 / (rows * width**2), so at tiny scales (values near
    # 1e-300) they overflow, and evaluation would give inf or nan
    yield np.isfinite((y1 - y0) / widths), _SLOPE_OVERFLOW
    # a row's ``np.sum`` in an (m, k) matrix has the bits of its sum alone
    yield ([abs(area - 1.0) <= 1e-9 for area in (0.5 * (y1 + y0) * widths).sum(axis=1).tolist()],
           "piecewise-linear density must integrate to 1")


@dataclass(frozen=True)
class Leaf:
    """A density or mass function over one variable; a family adds its two
    arrays (stored read-only), its other fields and its ``_RULES`` entry."""

    variable: int
    domain: str

    def __post_init__(self):
        for name in _FIELDS[type(self)][2:4]:
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        self.check()

    def check(self) -> None:
        """Raise :class:`DomainError` unless this is a normalized leaf; NaN fails every rule.

        The rules are ``check_group``'s, on a group of this leaf alone.
        """
        message, = leaf_problems([self])
        if message is not None:
            raise DomainError(message)

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.variable,)


@dataclass(frozen=True)
class HistogramLeaf(Leaf):
    """Binned density/mass function over one variable.

    For ``domain == "categorical"`` the bins are unit intervals over the
    codes ``0..arity``, ``masses[c]`` is the smoothed probability of code
    ``c``, and ``unseen_mass`` is returned for any out-of-vocabulary code
    (``c >= arity``). That is a convention, not part of the pmf: the
    masses of the vocabulary alone sum to 1, and the unseen mass is scored
    on top of them, not taken from them.
    """

    edges: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    smoothing: float = 0.0
    unseen_mass: float = 0.0

    @property
    def n_bins(self) -> int:
        return self.masses.size

    @cached_property
    def inverse_cdf(self) -> tuple[list, list]:
        """``leaf_sample``'s table, built on first use: cumulative masses and edges.

        Over integers, each bin's first and last integer as the knot table
        reads them (an interior edge's integer is the next bin's) in place of
        edges, and no mass on a bin that owns none: no draw lands at density 0.
        """
        if self.domain == CONTINUOUS:
            return np.cumsum(self.masses).tolist(), self.edges.tolist()
        first = [math.ceil(e) for e in self.edges[:-1].tolist()]
        last = [k - 1 for k in first[1:]] + [math.floor(self.knot_table.last)]
        if first[0] < -2**63 or last[-1] >= 2**63:
            raise QueryError(f"the integers of [{first[0]:.17g}, {last[-1]:.17g}] pass 64 bits")
        cum = np.cumsum(np.where([a <= b for a, b in zip(first, last)], self.masses, 0.0))
        if not cum[-1] > 0:
            raise QueryError("no integer of the discrete leaf's support has mass")
        return cum.tolist(), list(zip(first, last))

    @cached_property
    def knot_table(self) -> KnotTable:
        """The density as knots, built on first use: edges, bin densities, slopes 0.

        A discrete bin spreads its mass over ``max(rint(width), 1)``
        integers; the last edge repeats the top bin's density. A categorical
        leaf's support ends at code ``arity - 1``; other codes score its
        unseen mass.
        """
        widths = np.diff(self.edges)
        if self.domain == DISCRETE:
            widths = np.maximum(np.rint(widths), 1.0)
        density = self.masses / widths
        last, outside = ((self.edges[-1] - 1.0, self.unseen_mass)
                         if self.domain == CATEGORICAL else (self.edges[-1], 0.0))
        return KnotTable(self.edges, np.append(density, density[-1]), np.zeros(self.edges.size),
                         last, outside)


@dataclass(frozen=True)
class PiecewiseLinearLeaf(Leaf):
    """Unimodal piecewise-linear density over one variable.

    ``knots_y`` rises (weakly) up to ``mode_index`` and falls after it;
    the trapezoid integral over the knot range is 1. For a discrete
    variable the interior knots sit on the integers of the observed
    range and interpolated values act as (approximately normalized)
    point masses.
    """

    knots_x: np.ndarray = field(repr=False)
    knots_y: np.ndarray = field(repr=False)
    mode_index: int = 0

    @cached_property
    def inverse_cdf(self) -> tuple[list, ...]:
        """``leaf_sample``'s table, built on first use.

        Discrete: the cumulative masses on the integer support, read from
        the knot table, and that support. Continuous: the cumulative segment
        areas, knots and knot densities.
        """
        if self.domain == DISCRETE:
            support = integer_support(*leaf_support(self))
            return np.cumsum(leaf_density_batch(self, support)).tolist(), support.tolist()
        x, y = self.knots_x, self.knots_y
        return np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x)).tolist(), x.tolist(), y.tolist()

    @cached_property
    def knot_table(self) -> KnotTable:
        """The density as knots, built on first use: slopes as ``np.interp`` computes them."""
        x, y = self.knots_x, self.knots_y
        return KnotTable(x, y, np.append(np.diff(y) / np.diff(x), 0.0), x[-1], 0.0)


_RULES = {HistogramLeaf: _histogram_rules, PiecewiseLinearLeaf: _piecewise_linear_rules}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _RULES}


def check_group(cls, rows: list) -> tuple[list, list]:
    """Check leaves of one family whose arrays share their lengths, in one pass.

    ``rows`` hold each leaf's fields in order: variable, domain, the two
    arrays, then the rest. Returns the fields as columns, each array as one
    read-only (m, k) matrix from one ``np.array`` call, and each row's
    message from the first rule it fails, or None: what the leaf's own
    ``check`` raises. An array column that does not convert raises numpy's
    TypeError, ValueError or OverflowError.
    """
    columns = [list(c) for c in zip(*rows)]
    columns[2], columns[3] = _readonly(columns[2]), _readonly(columns[3])
    return columns, _first_failures(len(rows), _RULES[cls](*columns[1:]))


def leaf_problems(leaves: list) -> list:
    """Each leaf's message from the first rule of its family it fails, or None.

    One ``check_group`` per family and pair of array shapes.
    """
    groups: dict = {}
    for i, leaf in enumerate(leaves):
        row = tuple(getattr(leaf, name) for name in _FIELDS[type(leaf)])
        groups.setdefault((type(leaf), np.shape(row[2]), np.shape(row[3])), []).append((i, row))
    out = [None] * len(leaves)
    for (cls, _, _), members in groups.items():
        for (i, _), message in zip(members, check_group(cls, [row for _, row in members])[1]):
            out[i] = message
    return out


def _unchecked(cls, columns: list, row: int) -> Leaf:
    """Row ``row`` of a group that passed ``check_group``, built without a
    second check; its arrays are views of the group's matrices. Only the
    model loader builds leaves this way."""
    leaf = object.__new__(cls)
    leaf.__dict__.update(zip(_FIELDS[cls], [column[row] for column in columns]))
    return leaf


class KnotTable(NamedTuple):
    """A leaf's density as every query reads it (each leaf's ``knot_table``).

    On ``x[0] .. last`` the density at ``v`` is read at the last knot
    ``x[j] <= v``: ``y[j]`` on it, ``slope[j] * (v - x[j]) + y[j]`` past
    it; the last knot's slope is 0. Elsewhere it is ``outside``.
    """

    x: np.ndarray
    y: np.ndarray
    slope: np.ndarray
    last: float
    outside: float


def _continuous_edges(values: np.ndarray, smoothing: float) -> np.ndarray:
    uniq = np.unique(values)
    if uniq.size == 1:
        # at least one float step, which 0.5 is not from 2**53 on
        half = max(0.5, float(np.spacing(abs(uniq[0]))))
        edges = np.array([uniq[0] - half, uniq[0] + half])
    else:
        edges = adaptive_bin_edges(values)
    if smoothing > 0:
        # widen the outermost bins so nearby unseen values keep mass
        half_mean = 0.5 * (edges[-1] - edges[0]) / (edges.size - 1)
        edges = edges.copy()
        edges[0] -= half_mean
        edges[-1] += half_mean
    return edges


def _discrete_edges(values: np.ndarray, smoothing: float) -> np.ndarray:
    lo = int(values.min())
    hi = int(values.max())
    if smoothing > 0:
        # cover one extra integer on each side for unseen neighbours
        lo -= 1
        hi += 1
    if hi - lo + 1 > MAX_UNIT_BINS:
        return _continuous_edges(values, smoothing)
    # one width-1 bin centred on every integer in [lo, hi]
    return np.arange(lo, hi + 2, dtype=np.float64) - 0.5


def fit_histogram(column, stat_type: StatType, smoothing: float = 1.0,
                  variable: int = 0) -> HistogramLeaf:
    """Fit a Laplace-smoothed histogram to one column.

    Continuous columns get irregular edges from the penalized-likelihood
    binning search; discrete columns get unit bins centred on each integer
    of the observed range; categorical columns get one bin per category.
    ``smoothing`` pseudo-counts are added per bin before normalizing, and
    (when positive) the support is extended so values just outside the
    observed range keep nonzero mass.
    """
    col = np.asarray(column, dtype=np.float64).ravel()
    if col.size == 0:
        raise EmptyInputError("cannot fit a leaf to an empty column")
    if smoothing < 0:
        raise DomainError("smoothing must be nonnegative")
    m = col.size

    if stat_type.is_categorical:
        arity = stat_type.arity
        if arity is None:
            raise DomainError("categorical column has no frozen vocabulary")
        codes = np.rint(col).astype(np.int64)
        if np.any(codes < 0) or np.any(codes >= arity):
            raise DomainError("categorical codes outside the vocabulary")
        counts = np.bincount(codes, minlength=arity).astype(np.float64)
        masses = (counts + smoothing) / (m + smoothing * arity)
        unseen = smoothing / (m + smoothing * (arity + 1)) if smoothing > 0 else 0.0
        return HistogramLeaf(variable, CATEGORICAL, np.arange(arity + 1, dtype=np.float64),
                             masses, smoothing, unseen)

    if stat_type.is_discrete:
        if np.any(col != np.rint(col)):
            raise DomainError("discrete column must be integer valued")
        edges = _discrete_edges(col, smoothing)
    else:
        edges = _continuous_edges(col, smoothing)

    counts, _ = np.histogram(col, bins=edges)
    n_bins = edges.size - 1
    masses = (counts.astype(np.float64) + smoothing) / (m + smoothing * n_bins)
    try:
        return HistogramLeaf(variable, stat_type.kind, edges, masses, smoothing)
    except DomainError as exc:
        if str(exc) != _DENSITY_OVERFLOW:
            raise
    raise DomainError(
        f"variable {variable}: values in [{edges[0]:g}, {edges[-1]:g}] are too closely "
        "spaced for a histogram leaf, whose bin densities overflow a double"
    )


def fit_isotonic_pwl(column, stat_type: StatType, smoothing: float = 1.0,
                     variable: int = 0) -> PiecewiseLinearLeaf:
    """Fit a unimodal piecewise-linear density to one column.

    Fits the smoothed histogram first, takes the highest-density bin
    center as the mode, pools the bin densities into a nondecreasing fit
    left of the mode and a nonincreasing fit right of it (weighted by bin
    widths), then interpolates through the bin centers with zero-density
    endpoints at the support edges and renormalizes.
    """
    if stat_type.is_categorical:
        raise DomainError("categorical columns use histogram leaves")
    hist = fit_histogram(column, stat_type, smoothing, variable)
    edges, masses = hist.edges, hist.masses
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = masses / widths

    mode_bin = int(np.argmax(density))
    left = fit_monotone(density[: mode_bin + 1], widths[: mode_bin + 1], "increasing")
    right = fit_monotone(density[mode_bin:], widths[mode_bin:], "decreasing")
    fitted = np.concatenate([left, right[1:]])

    knots_x = np.concatenate(([edges[0]], centers, [edges[-1]]))
    knots_y = np.concatenate(([0.0], fitted, [0.0]))
    knots_y = knots_y / trapezoid(knots_y, knots_x)
    try:
        return PiecewiseLinearLeaf(variable, stat_type.kind, knots_x, knots_y, mode_bin + 1)
    except DomainError as exc:
        # bin centres one float step apart fall onto each other; close ones
        # give slopes past a double
        if str(exc) not in (_UNORDERED.format("knots_x"), _SLOPE_OVERFLOW):
            raise
    raise DomainError(
        f"variable {variable}: values in [{edges[0]:g}, {edges[-1]:g}] are too "
        "closely spaced for a piecewise-linear leaf, whose slopes overflow; "
        "use histogram leaves (--leaf histogram)"
    )


def leaf_density_batch(leaf: Leaf, values: np.ndarray) -> np.ndarray:
    """Vectorized density (mass for discrete/categorical) at ``values``.

    Reads ``leaf.knot_table``: ``np.interp`` for piecewise-linear leaves, a
    step lookup and a range mask for histograms, whose codes are integers.
    """
    v = np.asarray(values, dtype=np.float64)
    t = leaf.knot_table
    if isinstance(leaf, PiecewiseLinearLeaf):
        return np.interp(v, t.x, t.y, left=t.outside, right=t.outside)
    # a value below the first knot reads y[-1], which the range mask replaces
    y = t.y[np.searchsorted(t.x, v, side="right") - 1]
    return np.where((v >= t.x[0]) & (v <= t.last), y, t.outside)


def leaf_support(leaf: Leaf) -> tuple[float, float]:
    """The range ``x[0] .. last`` of the leaf's knot table."""
    t = leaf.knot_table
    return float(t.x[0]), float(t.last)


def integer_support(lo: float, hi: float) -> np.ndarray:
    """The integers of ``[lo, hi]``: a discrete or categorical variable's grid.

    MPE's candidates, MI's grid and a discrete piecewise-linear leaf's
    sampling table all enumerate one. A support of more than
    ``MAX_GRID_INTEGERS`` integers raises :class:`QueryError` before
    anything is allocated.
    """
    first, last = math.ceil(lo), math.floor(hi)
    if last - first >= MAX_GRID_INTEGERS:
        raise QueryError(f"the integers of [{lo:.17g}, {hi:.17g}] are too many to enumerate "
                         f"(more than {MAX_GRID_INTEGERS})")
    return np.arange(first, last + 1, dtype=np.float64)


def mixture_candidates(leaves: list) -> np.ndarray:
    """Points that cover every possible maximum of a 1-d mixture of ``leaves``: MPE's grid.

    A sum of piecewise-linear densities is piecewise linear between the
    union of the knots, so its maximum sits on a knot; a sum of histogram
    densities is piecewise constant between the union of the edges, so
    evaluating the midpoints of that union partition is exact. Discrete
    and categorical variables enumerate the integers of their leaves'
    united supports.
    """
    if leaves[0].domain != CONTINUOUS:
        lo, hi = zip(*map(leaf_support, leaves))
        return integer_support(min(lo), max(hi))
    parts = [leaf.knots_x for leaf in leaves if isinstance(leaf, PiecewiseLinearLeaf)]
    edges = [leaf.edges for leaf in leaves if isinstance(leaf, HistogramLeaf)]
    if edges:
        merged = np.unique(np.concatenate(edges))
        parts += [merged, 0.5 * (merged[1:] + merged[:-1])]
    return np.unique(np.concatenate(parts))


def leaf_sample(leaf: Leaf, rng: np.random.Generator) -> float:
    """One inverse-CDF draw from the leaf, read from the leaf's ``inverse_cdf`` table."""
    if isinstance(leaf, HistogramLeaf):
        cum, edges = leaf.inverse_cdf
        b = min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)
        if leaf.domain == CONTINUOUS:
            return edges[b] + rng.random() * (edges[b + 1] - edges[b])
        lo, hi = edges[b]
        return float(lo) if hi <= lo else float(rng.integers(lo, hi + 1))

    if leaf.domain == DISCRETE:
        cum, support = leaf.inverse_cdf
        return support[min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)]

    cum, x, y = leaf.inverse_cdf
    u = rng.random() * cum[-1]
    seg = min(bisect_right(cum, u), len(cum) - 1)
    rem = u - (cum[seg - 1] if seg > 0 else 0.0)
    width = x[seg + 1] - x[seg]
    slope = (y[seg + 1] - y[seg]) / width
    y0 = y[seg]
    if abs(slope) < 1e-300:
        t = rem / y0 if y0 > 0 else 0.0
    else:
        disc = max(y0 * y0 + 2.0 * slope * rem, 0.0)
        t = (math.sqrt(disc) - y0) / slope
    t = min(max(t, 0.0), width)
    return x[seg] + t
