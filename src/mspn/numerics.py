"""Shared numeric machinery.

Seeded RNG streams, random sine feature maps, canonical correlation
(each feature block whitened once, at the fixed ridge ``CCA_RIDGE``, then
scored against any other, or bounded from the counts of its distinct-row
pairs), k-means, the adaptive histogram binning search, and a few small
helpers used across the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._kernels import _CHUNK, _sq_dists, dp_fill, lloyd, pava_nondecreasing
from .errors import DomainError, EmptyInputError

MAX_CANDIDATE_CUTS = 100
# binned values must lie within +-MAX_BIN_MAGNITUDE: beyond it a
# piecewise-linear leaf's slopes, about 1 / (rows * width**2), underflow to
# zero, and near 1e308 midpoints, widths and cluster means overflow
MAX_BIN_MAGNITUDE = 1e100
CCA_RIDGE = 1e-6
# weighted_logsumexp's shift for a column with no finite value
_FLOOR = np.finfo(np.float64).min


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


def _whiten(a: np.ndarray, ids: np.ndarray | None = None) -> _Whitened:
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
    # regularized blocks is at least ``CCA_RIDGE``
    sa = np.sqrt(rows(a * a).sum(axis=0) / (m - 1))
    a = a / np.where(sa > 0.0, sa, 1.0)
    block = rows(a)
    cov = block.T @ block / (m - 1) + CCA_RIDGE * np.eye(a.shape[1])
    evals, evecs = np.linalg.eigh(cov)
    inv_sqrt = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    return _Whitened(a, cov, inv_sqrt, ids)


def cca_max_correlation(a: _Whitened, b: _Whitened) -> float:
    """Largest canonical correlation between the whitened blocks ``a`` and ``b``.

    Solves the generalized eigenproblem on the ridge-regularized covariance
    blocks through ``a``'s symmetric whitening, so the result is clamped to
    [0, 1] and degenerate (constant) blocks yield 0 rather than an error.
    """
    if b.shape[0] != a.shape[0]:
        raise DomainError("feature blocks must have the same number of rows")
    # largest eigenvalue of Saa^-1/2 Sab Sbb^-1 Sba Saa^-1/2, symmetrized
    sab = a.rows().T @ b.rows() / (a.shape[0] - 1)
    mid = a.inv_sqrt @ sab @ np.linalg.solve(b.cov, sab.T) @ a.inv_sqrt
    mid = 0.5 * (mid + mid.T)
    lam = np.linalg.eigvalsh(mid)
    return float(np.sqrt(np.clip(lam[-1], 0.0, 1.0)))


def _gamma(n: int) -> float:
    # Higham's gamma_n = n u / (1 - n u), u = 2**-53
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


# The count bound. Write u = 2^-53, g_n = _gamma(n) (Higham 2002, ch. 3), m
# for the rows, d for the wider block's columns, P = a.inv_sqrt, C = b.cov
# and Q^1/2 = C^-1/2 in exact arithmetic. cca_max_correlation returns the
# root of the top eigenvalue of fl(P S_e solve(C, S_e^T) P), S_e =
# fl(rows_a^T rows_b) / (m - 1): in exact arithmetic on its S_e that root
# is F(S_e) = |P S_e Q^1/2|_2. The count path forms S_c = fl(A^T fl(N B)) /
# (m - 1), with A, B the tables and N the table-row pair counts (exact
# integers), and T = |fl(P S_c V)|_F^2 with V = b.inv_sqrt; the trace of
# the CCA matrix, G(S_c)^2 = |P S_c Q^1/2|_F^2, is at least F(S_c)^2, as
# the trace of a PSD matrix is at least its top eigenvalue. Assumed, with
# p(d) = d: eigh and eigvalsh are backward stable, |dC| <= d u |C|, and
# the LU solve's backward error is |dC_j| <= g_3d d |C| in each column.
# Both covariances have norm at most d + 1 (a correlation matrix plus the
# ridge), and their eigenvalues, as computed or exact, exceed r = CCA_RIDGE
# - h, h = d g_(2m+8) + (d^2 + d + 2) u (the Gram's rounding, then eigh's),
# so |P|_2 and |Q^1/2|_2 are at most r^-1/2. Write k = ((d + 1) / r)^1.5.
# (a) S_e and S_c sum the same m products a_ri b_rj in different orders
#   (S_c groups them by table-row pair): each is within g_(m+1) sum_r
#   |a_ri b_rj| / (m - 1) of the exact sum in any order, with or without
#   FMA, and by Cauchy-Schwarz on standardized columns that sum is at most
#   (m - 1)(1 + g_(m+6)). So |S_e - S_c|_F <= 2 d g_(2m+8), and F is
#   1/r-Lipschitz in S (|P dS Q^1/2|_2 <= |P|_2 |dS|_F |Q^1/2|_2): F(S_e)
#   <= F(S_c) + E_a <= G(S_c) + E_a with E_a = 2 d g_(2m+8) / r, 1.8e-4
#   at m = 20 000 and d = 20.
# (b) With W = P S Q^1/2 and s = |W|_2, S = P^-1 W Q^-1/2 has norm at most
#   (d + 1) s, so every rounding in the small products is relative to s^2:
#   each of the three products adds at most g_d d (d + 1) s^2 / r to the
#   exact path's matrix, and a column's solve error Q dC_j x_j, weighed
#   by W Q^1/2 on the left and P on the right, adds at most g_3d d^1.5 k
#   s^2 in all. On the count side V is within d u k r^1/2 / 2 of Q^1/2
#   (the inverse root's derivative is at most r^-3/2 / 2), which moves
#   G by at most d u k G / 2, and the two products by g_d d (d + 1) G / r.
# (c) eigvalsh adds at most p(d) u |mid|_2 = d u s^2 (1 + O(k u)).
# So the exact score is at most F(S_e)(1 + rho_e), rho_e half the
# relative top-eigenvalue error in (b) and (c), and G(S_c) is at most
# sqrt(T)(1 + rho_c); rho = (g_3d d^1.5 + d u) k + 6 g_d d (d + 1) / r is
# more than 2 (rho_e + rho_c), which also covers their product and the
# bound's own few roundings. At d = 20 rho is 0.058, nearly all of it the
# solve's worst case, while (c) is d u = 2.2e-15: the margin is over ten
# orders of magnitude above eigvalsh's error.
def cca_score_bound(a: _Whitened, b: _Whitened) -> float:
    """An upper bound on ``cca_max_correlation(a, b)`` from counts of table-row pairs.

    Rows only enter the score through the cross-covariance of the two
    blocks, which equals ``A.T @ N @ B / (m - 1)`` for the blocks' tables
    ``A``, ``B`` and the counts ``N`` of each pair of table rows, so one
    ``bincount`` over the row ids stands in for the product over the rows.
    The square root of the CCA matrix's trace then bounds the top
    canonical correlation, and the margin derived above covers every
    rounding difference from the exact path, so the bound is never below
    the score ``cca_max_correlation`` computes. Counting is used only when
    the contingency table has at most a quarter as many cells as there are
    rows; otherwise (a block held per row, wide tables) the bound is inf.
    """
    m = a.shape[0]
    ka, kb = a.table.shape[0], b.table.shape[0]
    d = max(a.table.shape[1], b.table.shape[1])
    h = d * _gamma(2 * m + 8) + (d * d + d + 2) * 2.0**-53
    if 4 * ka * kb > m or 2 * h > CCA_RIDGE:
        return math.inf
    r = CCA_RIDGE - h
    k = ((d + 1) / r) ** 1.5
    rho = (_gamma(3 * d) * d**1.5 + d * 2.0**-53) * k + 6 * _gamma(d) * d * (d + 1) / r
    e_a = 2 * d * _gamma(2 * m + 8) / r
    return (_count_trace_root(a, b) + e_a) * (1.0 + rho)


def _count_trace_root(a: _Whitened, b: _Whitened) -> float:
    """sqrt(T) above: the root of the CCA matrix's trace from the table-row
    pair counts, without the margin."""
    ka, kb = a.table.shape[0], b.table.shape[0]
    counts = np.bincount(a.ids * kb + b.ids, minlength=ka * kb).reshape(ka, kb)
    sab = a.table.T @ (counts.astype(np.float64) @ b.table) / (a.shape[0] - 1)
    w = a.inv_sqrt @ sab @ b.inv_sqrt
    return math.sqrt(float(np.sum(w * w)))


def kmeans(points: np.ndarray, n_clusters: int, rng: np.random.Generator,
           max_iter: int = 100, tol: float = 1e-4,
           inverse: np.ndarray | None = None) -> np.ndarray:
    """Cluster the rows ``points[inverse]`` by Lloyd iteration with ++-style seeding.

    ``points`` holds each distinct row once and ``inverse`` maps every row
    to its point; by default every row is its own point. Seeding draws
    rows, assignments are computed once per point, and each centroid is
    the mean of its member rows, so the labels, one per row, are those of
    clustering ``points[inverse]`` itself. With two clusters, each Lloyd
    iteration labels the points from one matrix-vector product and
    measures exact distances only for the points its rounding-error bound
    cannot decide, so every label is the one exact distances give. Returns integer
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
    diff = np.empty((min(_CHUNK, pts.shape[0]), pts.shape[1]))
    first = int(rng.integers(m))
    cent[0] = pts[rows[first]]
    d2 = np.full(pts.shape[0], np.inf)
    for c in range(1, k):
        # distances to the nearest centroid drawn so far; the last one drawn needs none
        d2 = np.minimum(d2, _sq_dists(pts, cent[c - 1 : c], diff)[:, 0])
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
    shape. Each column is shifted by its largest value, floored at the
    most negative double: a column where every term is -inf then has terms
    ``exp(-inf) = 0`` and comes back as ``floor + log(0) = -inf``, without a
    warning, instead of nan. Every step is elementwise and the weighted
    terms are added one child at a time, in child order, so a column's
    result depends on that column alone: whatever else shares the call, it
    gets the same bits.
    """
    lv = np.asarray(log_values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    top = lv.max(axis=0, initial=_FLOOR)
    terms = np.exp(lv - top)
    # reversed axes line (C,) weights up with the child axis, as (C, ...) ones already are
    np.multiply(terms.T, w.T, out=terms.T)
    total = terms[0]
    for c in range(1, terms.shape[0]):
        total += terms[c]
    with np.errstate(divide="ignore"):
        return top + np.log(total)


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid-rule integral of samples ``y`` at nodes ``x``."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * (x[1:] - x[:-1])))


def is_integer(x) -> bool:
    """True for a Python or numpy integer; False for a bool or a float like 20.0."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)
