"""Shared numeric machinery.

Seeded RNG streams, random sine feature maps, canonical correlation,
k-means, the adaptive histogram binning search, and a few small helpers
used across the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._kernels import dp_fill, lloyd, pava_nondecreasing
from .errors import DomainError, EmptyInputError

MAX_CANDIDATE_CUTS = 100
# binned values must lie within +-MAX_BIN_MAGNITUDE: beyond it a
# piecewise-linear leaf's slopes, about 1 / (rows * width**2), underflow to
# zero, and near 1e308 midpoints, widths and cluster means overflow
MAX_BIN_MAGNITUDE = 1e100
CCA_RIDGE = 1e-6


class SeedScope:
    """Deterministic per-node randomness derived from one integer seed.

    A scope is the pair (seed, path), where the path records child indices
    down the tree being built. ``rng(*tags)`` opens an independent stream
    keyed by the scope plus integer tags, so every (node, purpose, variable)
    combination draws from its own reproducible stream regardless of call
    order. The path length is folded in so that distinct scopes can never
    alias through tag values.
    """

    __slots__ = ("seed", "path")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)

    def child(self, index: int) -> "SeedScope":
        return SeedScope(self.seed, self.path + (int(index),))

    def rng(self, *tags: int) -> np.random.Generator:
        entropy = (self.seed, len(self.path)) + self.path + tuple(int(t) for t in tags)
        return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class SineProjection:
    """Random feature map ``x -> sin(W x + b)``.

    Weight and offset entries are drawn iid from a zero-mean normal with
    variance ``scale``, giving smooth nonlinear features whose inner
    products approximate a shift-invariant kernel on rank-transformed
    inputs.
    """

    weights: np.ndarray  # (n_features, n_inputs)
    offsets: np.ndarray  # (n_features,)

    @classmethod
    def draw(cls, rng: np.random.Generator, n_inputs: int, n_features: int = 20,
             scale: float = 1.0 / 6.0) -> "SineProjection":
        if n_inputs < 1 or n_features < 1:
            raise DomainError("projection needs at least one input and one feature")
        std = math.sqrt(scale)
        weights = rng.normal(0.0, std, size=(n_features, n_inputs))
        offsets = rng.normal(0.0, std, size=n_features)
        return cls(weights, offsets)

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def transform(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data[:, None]
        if data.shape[1] != self.weights.shape[1]:
            raise DomainError(
                f"projection expects {self.weights.shape[1]} inputs, got {data.shape[1]}"
            )
        return np.sin(data @ self.weights.T + self.offsets)


def cca_max_correlation(a: np.ndarray | _Whitened, b: np.ndarray | _Whitened,
                        ridge: float = CCA_RIDGE) -> float:
    """Largest canonical correlation between feature blocks ``a`` and ``b``.

    Solves the generalized eigenproblem on ridge-regularized covariance
    blocks via a symmetric whitening, so the result is clamped to [0, 1]
    and degenerate (constant) blocks yield 0 rather than an error. Either
    block may also come already whitened by :func:`_whiten` with the same
    ``ridge``, so a caller scoring many pairs prepares each block once.
    """
    a, b = (_whitened(x, ridge) for x in (a, b))
    if b.shape[0] != a.shape[0]:
        raise DomainError("feature blocks must have the same number of rows")
    return _pair_correlation(a, b)


@dataclass(frozen=True)
class _Whitened:
    """One feature block prepared for canonical correlation with any other.

    The block is ``table[ids]``, or ``table`` itself when ``ids`` is None,
    so a block of few distinct rows is held once per distinct row. Its
    standardization is elementwise, so each gathered row has the bits it
    would have had standardized per row; the product with another block
    runs on the gathered rows (``rows``), in row order, as on the block
    itself.
    """

    table: np.ndarray  # standardized columns of each distinct row, (k, d)
    cov: np.ndarray  # ridge-regularized covariance of the block, (d, d)
    inv_sqrt: np.ndarray  # cov ** -1/2, (d, d)
    ridge: float
    ids: np.ndarray | None = None  # row -> table row

    @property
    def shape(self) -> tuple[int, int]:
        if self.ids is None:
            return self.table.shape
        return self.ids.shape[0], self.table.shape[1]

    def rows(self, out: np.ndarray | None = None) -> np.ndarray:
        """The block itself, (rows, d), gathered into ``out`` when given."""
        if self.ids is None:
            return self.table
        # mode "raise" would gather into a temporary copy of ``out``
        return np.take(self.table, self.ids, axis=0, out=out, mode="clip")

    def gathered(self, out: np.ndarray | None = None) -> "_Whitened":
        """The same block held once per row, gathered into ``out`` when given."""
        return replace(self, table=self.rows(out), ids=None)


def _whitened(x: np.ndarray | _Whitened, ridge: float) -> _Whitened:
    if not isinstance(x, _Whitened):
        return _whiten(x, ridge)
    if x.ridge != ridge:
        raise DomainError("feature block was whitened with another ridge")
    return x


def _whiten(a: np.ndarray, ridge: float = CCA_RIDGE,
            ids: np.ndarray | None = None) -> _Whitened:
    """Standardize the block ``a[ids]`` (or ``a``) and whiten its covariance.

    Everything here depends on one block only, so a caller scoring many
    pairs prepares each block once. With ``ids`` the work stays on the
    distinct rows ``a``, and the result is bit for bit that of
    ``_whiten(a[ids])``: centering and scaling are elementwise, so each
    table row gets the bits of every block row it stands for, and the
    three steps that run in row order (the column mean, the sum of squares
    and ``block.T @ block``) each run on the gathered block itself.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m = a.shape[0] if ids is None else ids.shape[0]
    if m < 2:
        raise DomainError("canonical correlation needs at least two rows")

    def rows(table):
        return table if ids is None else table[ids]

    a = a - rows(a).mean(axis=0)
    # standardize columns (constant columns stay zero) so the ridge acts on
    # a correlation matrix: the result is then invariant under positive
    # per-column affine maps of either block, and every eigenvalue of the
    # regularized blocks is at least ``ridge``
    sa = np.sqrt(rows(a * a).sum(axis=0) / (m - 1))
    a = a / np.where(sa > 0.0, sa, 1.0)
    block = rows(a)
    cov = block.T @ block / (m - 1) + ridge * np.eye(a.shape[1])
    evals, evecs = np.linalg.eigh(cov)
    inv_sqrt = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    return _Whitened(a, cov, inv_sqrt, ridge, ids)


def _pair_correlation(a: _Whitened, b: _Whitened) -> float:
    # largest eigenvalue of Saa^-1/2 Sab Sbb^-1 Sba Saa^-1/2, symmetrized
    sab = a.rows().T @ b.rows() / (a.shape[0] - 1)
    mid = a.inv_sqrt @ sab @ np.linalg.solve(b.cov, sab.T) @ a.inv_sqrt
    mid = 0.5 * (mid + mid.T)
    lam = np.linalg.eigvalsh(mid)
    return float(np.sqrt(np.clip(lam[-1], 0.0, 1.0)))


def kmeans(points: np.ndarray, n_clusters: int, rng: np.random.Generator,
           max_iter: int = 100, tol: float = 1e-4,
           inverse: np.ndarray | None = None) -> np.ndarray:
    """Cluster the rows ``points[inverse]`` by Lloyd iteration with ++-style seeding.

    ``points`` holds each distinct row once and ``inverse`` maps every row
    to its point; by default every row is its own point. Seeding draws
    rows, distances and assignments are computed once per point, and each
    centroid is the mean of its member rows, so the labels, one per row,
    are those of clustering ``points[inverse]`` itself. Returns integer
    labels in [0, k). Requesting more clusters than rows caps k at the row
    count; clusters can come back empty, in which case their label simply
    never appears.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim == 1:
        pts = pts[:, None]
    rows = np.arange(pts.shape[0]) if inverse is None else np.asarray(inverse, dtype=np.intp)
    m = rows.shape[0]
    if m == 0:
        raise EmptyInputError("cannot cluster zero rows")
    if n_clusters < 1:
        raise DomainError("need at least one cluster")
    k = min(n_clusters, m)

    cent = np.empty((k, pts.shape[1]))
    first = int(rng.integers(m))
    cent[0] = pts[rows[first]]
    d2 = ((pts - cent[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        # the draw weighs every row, so the sums run over rows, not points
        row_d2 = d2[rows]
        total = float(row_d2.sum())
        if total > 0.0:
            u = rng.random() * total
            j = int(np.searchsorted(np.cumsum(row_d2), u, side="right"))
            j = min(j, m - 1)
        else:
            j = int(rng.integers(m))
        cent[c] = pts[rows[j]]
        d2 = np.minimum(d2, ((pts - cent[c]) ** 2).sum(axis=1))

    return lloyd(pts, cent, max_iter, tol, rows)


def fit_monotone(
    values: np.ndarray,
    weights: np.ndarray,
    direction: str = "increasing",
) -> np.ndarray:
    """Weighted least-squares monotone fit of ``values`` (pool adjacent violators).

    ``direction`` is ``"increasing"`` (nondecreasing output) or
    ``"decreasing"``; the decreasing fit is the negated increasing fit of
    the negated input, which is exact in floating point because negation
    never rounds.
    """
    if direction not in ("increasing", "decreasing"):
        raise DomainError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    v = np.ascontiguousarray(values, dtype=np.float64)
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise DomainError("values and weights must be 1-d and the same length")
    if v.size == 0:
        raise EmptyInputError("nothing to fit")
    if np.any(w <= 0):
        raise DomainError("weights must be positive")
    if direction == "increasing":
        return pava_nondecreasing(v, w)
    return -pava_nondecreasing(-v, w)


def _candidate_boundaries(sorted_unique: np.ndarray) -> np.ndarray:
    lo = sorted_unique[0]
    hi = sorted_unique[-1]
    mids = 0.5 * (sorted_unique[:-1] + sorted_unique[1:])
    if mids.shape[0] > MAX_CANDIDATE_CUTS:
        idx = np.unique(
            np.round(np.linspace(0, mids.shape[0] - 1, MAX_CANDIDATE_CUTS)).astype(np.int64)
        )
        mids = mids[idx]
    return np.concatenate(([lo], mids, [hi]))


def _segment_loglik(sorted_vals: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """seg[q, p-1] = max log-likelihood of one bin from boundary q to p.

    A bin spanning (bounds[q], bounds[p]] holding n of m points at width w
    contributes n * log(n / (m * w)); empty bins contribute zero.
    """
    m = sorted_vals.shape[0]
    prefix = np.searchsorted(sorted_vals, bounds, side="right")
    prefix[0] = 0  # the first boundary equals the minimum; count it inside
    n = (prefix[None, 1:] - prefix[:-1, None]).astype(np.float64)
    w = bounds[None, 1:] - bounds[:-1, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = n * (np.log(n) - math.log(m) - np.log(w))
    seg[n <= 0] = 0.0
    seg[w <= 0] = -np.inf
    return seg


def check_binnable(lo: float, hi: float, what: str = "values") -> None:
    """Raise :class:`DomainError` unless [lo, hi] lies within ``MAX_BIN_MAGNITUDE``."""
    if not (-MAX_BIN_MAGNITUDE <= lo and hi <= MAX_BIN_MAGNITUDE):
        raise DomainError(
            f"{what} range [{lo:g}, {hi:g}] is too wide to bin: values must lie "
            f"within [-{MAX_BIN_MAGNITUDE:g}, {MAX_BIN_MAGNITUDE:g}]"
        )


@lru_cache(maxsize=MAX_CANDIDATE_CUTS)
def _partition_penalties(n_cuts: int) -> np.ndarray:
    # pen[j-1] is the model cost of j bins: choosing j-1 interior cuts out of
    # n_cuts candidates, plus a superlinear term that keeps bin counts modest
    pen = np.array([
        math.lgamma(n_cuts + 1) - math.lgamma(j) - math.lgamma(n_cuts - j + 2)
        + (j - 1) + math.log(j) ** 2.5
        for j in range(1, n_cuts + 2)
    ])
    pen.setflags(write=False)
    return pen


def adaptive_bin_edges(values: np.ndarray) -> np.ndarray:
    """Penalized maximum-likelihood histogram edges for a 1-d sample.

    Candidate edges are the midpoints between consecutive distinct values
    (subsampled evenly by index down to ``MAX_CANDIDATE_CUTS`` when there
    are more), plus the sample extremes. A dynamic program scores every
    (cut subset, bin count) pair by the histogram log-likelihood minus a
    complexity penalty and returns the winning edge vector; ties go to the
    fewest bins. Values beyond ``MAX_BIN_MAGNITUDE`` raise
    :class:`DomainError`.

    The DP fills only the bin counts that can still win. Refining a
    histogram never lowers its maximum log-likelihood (the log-sum
    inequality), so no j-bin score exceeds U, the log-likelihood of the
    finest partition, and j bins can beat one bin only if
    ``U - pen[j-1] + margin >= seg[0, -1] - pen[0]``; the DP stops at the
    largest j that passes. The margin covers rounding: each of the m
    points enters one bin term n (log n - log m - log width), whose logs
    sum in magnitude to less than L = 2 log m + max|log width| + 3, so a
    term is off by a few ulp of n L and a sum of at most 101 terms (the
    DP's f, and U) by at most 110 u m L, with u = 2**-53. With the
    subtraction of the penalty and the test's own rounding, a capped
    count's score falls short of the one-bin score once the margin
    exceeds 250 u (m L + max pen); ``1e-12 (m L + max pen)`` is over
    thirty times that. So a capped count scores strictly below one bin,
    could never have been chosen, and the edges keep their bits. When U
    is not finite (two candidate bounds coincide) the bound says nothing
    and every count is filled.
    """
    vals = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if vals.size == 0:
        raise EmptyInputError("cannot bin an empty sample")
    uniq = np.unique(vals)
    if uniq.size < 2:
        raise DomainError("need at least two distinct values to place cuts")
    check_binnable(uniq[0], uniq[-1])

    bounds = _candidate_boundaries(uniq)
    seg = _segment_loglik(vals, bounds)
    n_segments = bounds.shape[0] - 1
    pen = _partition_penalties(n_segments - 1)
    finest = float(seg.diagonal().sum())
    n_bins = n_segments
    if math.isfinite(finest):
        m = vals.shape[0]
        # widths run from the narrowest finest bin to the whole range
        log_width = max(abs(math.log(np.diff(bounds).min())),
                        abs(math.log(bounds[-1] - bounds[0])))
        margin = 1e-12 * (m * (2 * math.log(m) + log_width + 3) + pen.max())
        n_bins = 1 + int(np.flatnonzero(finest - pen + margin >= seg[0, -1] - pen[0])[-1])
    f, back = dp_fill(seg, n_bins)
    best_j = 1 + int(np.argmax(f[n_segments, 1 : n_bins + 1] - pen[:n_bins]))

    cut_idx = [n_segments]
    p, j = n_segments, best_j
    while j > 0:
        p = int(back[p, j])
        j -= 1
        cut_idx.append(p)
    cut_idx.reverse()
    return bounds[np.asarray(cut_idx, dtype=np.intp)]


def weighted_logsumexp(log_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log(sum_c w_c * exp(log_values[c])) along axis 0, safely.

    ``log_values`` has shape (C, ...) and ``weights`` shape (C,), or one
    weight per child and column, (C, ...); the result has the trailing
    shape. Columns where every term is -inf come back as -inf instead of
    nan. Every step is elementwise and the weighted terms are added one
    child at a time, in child order, so a column's result depends on that
    column alone: whatever else shares the call, it gets the same bits.
    """
    lv = np.asarray(log_values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    top = lv.max(axis=0)
    dead = top == -np.inf
    shifted = np.exp(lv - np.where(dead, 0.0, top))
    total = w[0] * shifted[0]
    for c in range(1, w.shape[0]):
        total += w[c] * shifted[c]
    # a dead column has total 0; log(0 + 1) keeps its -inf top without a warning
    return top + np.log(total + dead)


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid-rule integral of samples ``y`` at nodes ``x``."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * (x[1:] - x[:-1])))


def is_integer(x) -> bool:
    """True for a Python or numpy integer; False for a bool or a float like 20.0."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)
