"""Univariate leaf distributions.

Two nonparametric families cover all column kinds:

* :class:`HistogramLeaf` -- adaptive irregular-bin histograms for
  continuous columns, integer-aligned unit bins for discrete columns,
  per-category masses for categorical columns, all Laplace-smoothed.
* :class:`PiecewiseLinearLeaf` -- unimodal piecewise-linear densities
  obtained by isotonic regression on the smoothed histogram, for
  continuous and discrete columns.

Leaves are immutable after fitting; evaluation and sampling never
mutate them. Tables derived from a leaf's fields are built on first use
and kept on the leaf: ``inverse_cdf``, which sampling reads, and
``knot_table``, the one density rule of each family, which every query
and ``leaf_support`` read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, DISCRETE, StatType
from .errors import DomainError, EmptyInputError, QueryError
from .numerics import adaptive_bin_edges, fit_monotone, trapezoid

# integer ranges wider than this fall back to the adaptive binning search
# rather than materializing one unit bin per integer
MAX_UNIT_BINS = 2048
# the most integers a query's grid enumerates (``integer_support``): 128 MB
# of doubles; a wider support is a query error, not an allocation failure
MAX_GRID_INTEGERS = 2**24


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64).copy()
    out.setflags(write=False)
    return out


def _check_knots(x: np.ndarray, what: str, domain: str) -> None:
    # compared, not subtracted, so that neither inf - inf nor a span too wide
    # warns: x[-1] - x[0] overflows exactly when its half rounds to 2**1023
    lo, hi = float(x[0]), float(x[-1])
    if not (math.isfinite(lo) and math.isfinite(hi) and (x[1:] > x[:-1]).all()):
        raise DomainError(f"{what} must be finite and strictly increasing")
    if not hi / 2 - lo / 2 < 2.0 ** 1023:
        raise DomainError(f"{what} span [{lo:g}, {hi:g}] is wider than a double holds")
    # a discrete leaf puts its mass on the integers of [lo, hi]; with none
    # there it would sample outside its support or have nothing to sample
    if domain == DISCRETE and math.ceil(lo) > math.floor(hi):
        raise DomainError(f"discrete leaf support [{lo:g}, {hi:g}] holds no integer")
    if domain == CATEGORICAL and x.tolist() != list(range(x.size)):
        raise DomainError("categorical bin edges must be the codes 0, 1, ..., arity")


def _slopes_finite(x: np.ndarray, y: np.ndarray) -> bool:
    # the slopes a piecewise-linear leaf's knot table holds; they grow like
    # 1 / (rows * width**2), so at tiny scales (values near 1e-300) they
    # overflow, and evaluation would give inf or nan. Callers silence the
    # overflow this tests for
    return bool(np.isfinite((y[1:] - y[:-1]) / (x[1:] - x[:-1])).all())


@dataclass(frozen=True)
class HistogramLeaf:
    """Binned density/mass function over one variable.

    For ``domain == "categorical"`` the bins are unit intervals over the
    codes ``0..arity``, ``masses[c]`` is the smoothed probability of code
    ``c``, and ``unseen_mass`` is returned for any out-of-vocabulary code
    (``c >= arity``). That is a convention, not part of the pmf: the
    masses of the vocabulary alone sum to 1, and the unseen mass is scored
    on top of them, not taken from them.
    """

    variable: int
    domain: str
    edges: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    smoothing: float = 0.0
    unseen_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "edges", _readonly(self.edges))
        object.__setattr__(self, "masses", _readonly(self.masses))
        self.check()

    def check(self) -> None:
        """Raise :class:`DomainError` unless this is a normalized leaf; NaN fails every test."""
        if self.domain not in (CONTINUOUS, DISCRETE, CATEGORICAL):
            raise DomainError(f"unknown leaf domain {self.domain!r}")
        if self.edges.ndim != 1 or self.masses.ndim != 1:
            raise DomainError("edges and masses must be 1-d")
        if self.edges.size != self.masses.size + 1 or self.masses.size < 1:
            raise DomainError("need B+1 edges for B >= 1 masses")
        _check_knots(self.edges, "bin edges", self.domain)
        if not (self.masses.min() >= 0 and abs(float(self.masses.sum()) - 1.0) <= 1e-12):
            raise DomainError("masses must be a probability vector")
        if not (0 <= self.smoothing < math.inf and 0 <= self.unseen_mass < math.inf):
            raise DomainError("smoothing and unseen mass must be finite and nonnegative")

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.variable,)

    @property
    def n_bins(self) -> int:
        return self.masses.size

    @cached_property
    def inverse_cdf(self) -> tuple[list, list]:
        """``leaf_sample``'s table, built on first use: cumulative masses and edges."""
        return np.cumsum(self.masses).tolist(), self.edges.tolist()

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
class PiecewiseLinearLeaf:
    """Unimodal piecewise-linear density over one variable.

    ``knots_y`` rises (weakly) up to ``mode_index`` and falls after it;
    the trapezoid integral over the knot range is 1. For a discrete
    variable the interior knots sit on the integers of the observed
    range and interpolated values act as (approximately normalized)
    point masses.
    """

    variable: int
    domain: str
    knots_x: np.ndarray = field(repr=False)
    knots_y: np.ndarray = field(repr=False)
    mode_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "knots_x", _readonly(self.knots_x))
        object.__setattr__(self, "knots_y", _readonly(self.knots_y))
        self.check()

    def check(self) -> None:
        """Raise :class:`DomainError` unless this is a normalized leaf; NaN fails every test."""
        if self.domain not in (CONTINUOUS, DISCRETE):
            raise DomainError("piecewise-linear leaves are continuous or discrete only")
        x, y = self.knots_x, self.knots_y
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise DomainError("need matching 1-d knot vectors with >= 2 knots")
        _check_knots(x, "knots_x", self.domain)
        if not y.min() >= 0:
            raise DomainError("knot densities must be nonnegative")
        m = self.mode_index
        if not 0 <= m < x.size:
            raise DomainError("mode_index out of range")
        if (y[1 : m + 1] < y[:m]).any() or (y[m + 1 :] > y[m:-1]).any():
            raise DomainError("knot densities must be unimodal around mode_index")
        # a slope or an integral that overflows is inf and fails its test
        with np.errstate(over="ignore", invalid="ignore"):
            slopes_finite, area = _slopes_finite(x, y), trapezoid(y, x)
        if not slopes_finite:
            raise DomainError("knot slopes overflow a double")
        if not abs(area - 1.0) <= 1e-9:
            raise DomainError("piecewise-linear density must integrate to 1")

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.variable,)

    @cached_property
    def inverse_cdf(self) -> tuple[list, ...]:
        """``leaf_sample``'s table, built on first use.

        Discrete: the cumulative masses on the integer support and that
        support. Continuous: the cumulative segment areas, knots and knot
        densities.
        """
        x, y = self.knots_x, self.knots_y
        if self.domain == DISCRETE:
            support = integer_support(*leaf_support(self))
            return np.cumsum(np.interp(support, x, y)).tolist(), support.tolist()
        return np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x)).tolist(), x.tolist(), y.tolist()

    @cached_property
    def knot_table(self) -> KnotTable:
        """The density as knots, built on first use: slopes as ``np.interp`` computes them."""
        x, y = self.knots_x, self.knots_y
        return KnotTable(x, y, np.append(np.diff(y) / np.diff(x), 0.0), x[-1], 0.0)


Leaf = HistogramLeaf | PiecewiseLinearLeaf


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


def _unit_bin_edges(lo: int, hi: int) -> np.ndarray:
    # one width-1 bin centred on every integer in [lo, hi]
    return np.arange(lo, hi + 2, dtype=np.float64) - 0.5


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
    return _unit_bin_edges(lo, hi)


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
    return HistogramLeaf(variable, stat_type.kind, edges, masses, smoothing)


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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slopes_finite = _slopes_finite(knots_x, knots_y)
    if not slopes_finite:
        raise DomainError(
            f"variable {variable}: values in [{edges[0]:g}, {edges[-1]:g}] are too "
            "closely spaced for a piecewise-linear leaf, whose slopes overflow; "
            "use histogram leaves (--leaf histogram)"
        )
    return PiecewiseLinearLeaf(variable, stat_type.kind, knots_x, knots_y, mode_bin + 1)


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


def leaf_cdf(leaf: Leaf, value: float) -> float:
    """P(X <= value); within-bin/segment mass is interpolated."""
    v = float(value)
    if isinstance(leaf, PiecewiseLinearLeaf):
        x, y = leaf.knots_x, leaf.knots_y
        if v <= x[0]:
            return 0.0
        if v >= x[-1]:
            return 1.0
        seg = int(np.searchsorted(x, v, side="right")) - 1
        areas = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
        acc = float(areas[:seg].sum())
        t = v - x[seg]
        slope = (y[seg + 1] - y[seg]) / (x[seg + 1] - x[seg])
        return acc + y[seg] * t + 0.5 * slope * t * t
    if leaf.domain == CATEGORICAL:
        c = int(math.floor(v))
        if c < 0:
            return 0.0
        return float(leaf.masses[: c + 1].sum())
    edges, masses = leaf.edges, leaf.masses
    if v <= edges[0]:
        return 0.0
    if v >= edges[-1]:
        return 1.0
    b = int(np.searchsorted(edges, v, side="right")) - 1
    acc = float(masses[:b].sum())
    frac = (v - edges[b]) / (edges[b + 1] - edges[b])
    return acc + float(masses[b]) * frac


def leaf_sample(leaf: Leaf, rng: np.random.Generator) -> float:
    """One inverse-CDF draw from the leaf, read from the leaf's ``inverse_cdf`` table."""
    if isinstance(leaf, HistogramLeaf):
        cum, edges = leaf.inverse_cdf
        b = min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)
        if leaf.domain == CATEGORICAL:
            return float(b)
        if leaf.domain == DISCRETE:
            lo, hi = math.ceil(edges[b]), math.floor(edges[b + 1])
            return float(lo) if hi <= lo else float(rng.integers(lo, hi + 1))
        return edges[b] + rng.random() * (edges[b + 1] - edges[b])

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
