"""Shared numeric machinery.

Seeded RNG streams, canonical correlation (each feature block whitened
once, at the fixed ridge ``CCA_RIDGE``, then scored against any other, or
scored with a proven margin from the counts of its distinct-row pairs),
two-means, the adaptive histogram binning search, and a few small helpers
used across the package.
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


@dataclass(frozen=True)
class _Counted:
    """One feature block prepared for scoring from counts of its distinct rows.

    The block is ``table[ids]``, as in :class:`_Whitened`, but its mean,
    scale and covariance are sums over the k distinct rows weighted by
    their counts, not sums over the rows, so it costs one ``bincount`` and
    O(k d^2). Its bits differ from ``_whiten``'s; the margin of
    :func:`cca_count_score` covers the difference.
    """

    table: np.ndarray  # standardized columns of each distinct row, (k, d)
    inv_sqrt: np.ndarray  # ridge-regularized covariance ** -1/2, (d, d)
    ids: np.ndarray  # row -> table row
    shift: float  # |c|^2 in (a) below; inf when a column's scale has no positive lower bound


def _count_block(a: np.ndarray, ids: np.ndarray) -> _Counted:
    """Standardize and whiten the block ``a[ids]`` from the counts of ``ids``."""
    m = ids.shape[0]
    w = np.bincount(ids, minlength=a.shape[0]).astype(np.float64)
    g = _gamma(2 * m + 8)
    # (a): either path's column mean is off by at most ``off``
    off = g * np.abs(a).max(axis=0)
    a = a - w @ a / m
    var = w @ (a * a) / (m - 1)
    scale = np.sqrt(var)
    a = a / np.where(scale > 0.0, scale, 1.0)
    low = var / (1.0 + g) - 2.0 * off * off
    shift = float(np.sum(off * off / low)) if np.all(low > 0.0) else math.inf
    cov = a.T @ (w[:, None] * a) / (m - 1) + CCA_RIDGE * np.eye(a.shape[1])
    evals, evecs = np.linalg.eigh(cov)
    inv_sqrt = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    return _Counted(a, inv_sqrt, ids, shift)


# The count score's margin. Write u = 2^-53, g_n = _gamma(n) (Higham 2002,
# ch. 3), m for the rows, d for the wider block's columns, r = CCA_RIDGE
# and G = g_(2m+8). Both paths start from one table F of distinct feature
# rows and the row ids: the exact path (_whiten, cca_max_correlation) sums
# over the m rows in row order, the count path (_count_block,
# cca_count_score) over the distinct rows weighted by their counts, exact
# integers. Each is compared with s*, the top canonical correlation, in
# exact arithmetic, of the exactly centred and scaled blocks X and Y:
# s* = max u'Sv / (u'C_a u v'C_b v)^1/2 over u, v, with S = X'Y / (m - 1)
# and C = X'X / (m - 1) + r I, so that u'Cu >= r |u|^2. Assumed, with p(d)
# = d: eigh and eigvalsh are backward stable (|dC|_F <= d u |C|_2, computed
# eigenvectors orthonormal to within d u) and the LU solve's backward error
# is |dC_j| <= g_3d d |C| in each column. Every sum below is bounded for
# any order of its terms, with or without FMA.
# (a) Centring and scaling. Either path's mean of column i is off by at
#   most off_i = G max_t |F_ti| (a sum of m terms), c_i = off_i / s_i in
#   units of the column's exact scale s_i. A computed variance is (s_i^2 +
#   m dmu_i^2 / (m - 1))(1 +- G) (positive terms), so s_i^2 >= var_i / (1
#   + G) - 2 off_i^2 for the count path's var_i; _count_block stores |c|^2
#   from that bound, inf when it is not positive, so a near-constant column
#   leaves its pairs undecided. Either path's standardized block is Z D,
#   with Z = (X + 1c') o (1 + e), |e| <= g_2 elementwise, and D = diag(s /
#   computed scale), |D^-2 - I| <= G + 3 |c|^2.
# (b) Centring, scaling and covariance, as a Loewner bound. A CCA score is
#   unchanged by D applied to both S and C, with the ridge becoming r D^-2,
#   so read each path's stored S and C in Z's frame. With t = d + 2 |c|^2,
#   tr(Z'Z) <= (1 + 3 g_2)(m - 1) t, and Cauchy-Schwarz over the rows gives
#   |u'Eu| <= 2 G t |u|^2 for E all roundings of a Gram (e, the sums, the
#   division and the ridge); the offset adds m cc' / (m - 1) and the scale
#   r (D^-2 - I). So the stored C lies within 1 +- dl of C in Loewner
#   order, dl = G + 3 |c|^2 + (2 |c|^2 + 2 G t) / r, a relative term of
#   about d g_m / r. The stored S is off by at most e_S |u||v|, e_S = 2
#   |c_a||c_b| + 2 G (t_a t_b)^1/2, that is by E_p = e_S / r relative to
#   (u'C_a u v'C_b v)^1/2. With delta = dl_a + dl_b, the top canonical
#   correlation of either path's stored matrices lies in [(s* - E_p)(1 -
#   delta), (s* + E_p) / (1 - delta)].
# (c) Roundings after that, relative. The stored C have norm at most N =
#   (1 + delta)(d + 1) and eigenvalues, computed or exact, of at least R =
#   (1 - delta) r - d u N; write k = (N / R)^1.5. A computed inverse root
#   is C^-1/2 (I + F) with |F| <= d u k / 2 (the divided differences of
#   x^-1/2 are at most R^-3/2 / 2, and |C^1/2| <= N^1/2) plus terms far
#   below that. With W = C_a^-1/2 S C_b^-1/2 and s = |W|_2, S has norm at
#   most N s, so each rounded (d, d) product adds at most g_d d N s / R
#   to W, or g_d d N s^2 / R to W W'.
#   - Exact path: mid is W W' but for P's two factors F, three products,
#     the solve (C_b^-1 dC_j x_j, weighed by W C_b^1/2 on the left and P
#     on the right: at most g_3d d^1.5 k s^2) and symmetrizing and
#     eigvalsh (2 (d + 1) u s^2). So its top eigenvalue is s^2 (1 +- x), x
#     = (g_3d d^1.5 + 2 d u) k + 3 g_d d N / R + 2 (d + 1) u, and its root
#     s (1 +- rho_e), rho_e = x (1 + x) / 2 (as (1 - x)^1/2 >= 1 - x / 2 -
#     x^2 / 2). Clipping to [0, 1] keeps both sides: it only lowers a
#     score, and a count join implies threshold < s* < 1 (by (d), as E >=
#     2 E_p), which a score clipped to 1 exceeds.
#   - Count path: W_c = fl(P_a S V_b) carries two factors F and two
#     products; the root of its squares' sum is at least |W_c|_2 (1 -
#     g_(d^2+2)), and the root of eigvalsh's top eigenvalue of W_c W_c' is
#     within g_d d + (d + 1) u of it, relative. So either score is s (1 +-
#     rho_c), rho_c = 2 (d u k + 2 g_d d N / R + 3 g_(d^2+d+2)), the first
#     on the upper side only.
# (d) Eliminating s* between the paths' intervals, the exact score s_e
#   lies in [s_c lo - E, s_c hi + E], hi = (1 + rho_e) / ((1 - delta)^2 (1
#   - rho_c)), lo = (1 - delta)^2 (1 - rho_e) / (1 + rho_c) and E = 2 E_p
#   (1 + rho_e) / (1 - delta), so rho = max(hi - 1, 1 - lo). Both add 1e-12
#   for the margin's own roundings, each below 1e-14. At m = 20 000 and d
#   = 20 (every |c| small) rho is 0.031, nearly all of it the solve's worst
#   case, and E 3.7e-4; eigvalsh's own share is d u = 2.2e-15, the margin
#   over ten orders of magnitude above it.
def _count_margin(a: _Counted, b: _Counted) -> tuple[float, float]:
    """(rho, E) above: the exact score of the pair lies within sigma_c (1 +- rho) +- E."""
    u = 2.0**-53
    m = a.ids.shape[0]
    d = max(a.table.shape[1], b.table.shape[1])
    g = _gamma(2 * m + 8)
    t = [d + 2.0 * c.shift for c in (a, b)]
    delta = sum(g + 3.0 * c.shift + (2.0 * c.shift + 2.0 * g * tc) / CCA_RIDGE
                for c, tc in zip((a, b), t))
    if not delta < 0.25:
        return math.inf, math.inf
    big = (1.0 + delta) * (d + 1)
    small = (1.0 - delta) * CCA_RIDGE - d * u * big
    k = (big / small) ** 1.5
    x = (_gamma(3 * d) * d**1.5 + 2 * d * u) * k + 3 * _gamma(d) * d * big / small + 2 * (d + 1) * u
    rho_e = x * (1.0 + x) / 2.0
    rho_c = 2.0 * (d * u * k + 2 * _gamma(d) * d * big / small + 3 * _gamma(d * d + d + 2))
    if not max(rho_e, rho_c) < 0.25:
        return math.inf, math.inf
    hi = (1.0 + rho_e) / ((1.0 - delta) ** 2 * (1.0 - rho_c))
    lo = (1.0 - delta) ** 2 * (1.0 - rho_e) / (1.0 + rho_c)
    e_p = (2.0 * math.sqrt(a.shift * b.shift) + 2.0 * g * math.sqrt(t[0] * t[1])) / CCA_RIDGE
    return max(hi - 1.0, 1.0 - lo) + 1e-12, 2.0 * e_p * (1.0 + rho_e) / (1.0 - delta) + 1e-12


def cca_count_score(a: _Counted, b: _Counted, threshold: float) -> float | None:
    """The pair's count score when it decides the pair at ``threshold``, else None.

    Rows only enter the score through the cross-covariance of the two
    blocks, which equals ``A.T @ N @ B / (m - 1)`` for the blocks' tables
    ``A``, ``B`` and the counts ``N`` of each pair of table rows, so one
    ``bincount`` stands in for the product over the rows. The count score
    sigma_c is the top singular value of ``P_c S_c Q_c^1/2``, and the
    exact score ``cca_max_correlation`` gives the pair (from ``_whiten``'s
    blocks) lies within ``sigma_c (1 +- rho) +- E`` (derived above). So a
    returned score above ``threshold`` means the exact one is too, and one
    below it means the exact one is at most ``threshold``; a pair whose
    interval holds ``threshold`` gets None. The root of the squared
    entries' sum, which bounds sigma_c from above, rejects first.
    """
    rho, err = _count_margin(a, b)
    if not math.isfinite(rho):
        return None
    ka, kb = a.table.shape[0], b.table.shape[0]
    counts = np.bincount(a.ids * kb + b.ids, minlength=ka * kb).reshape(ka, kb)
    sab = a.table.T @ (counts.astype(np.float64) @ b.table) / (a.ids.shape[0] - 1)
    w = a.inv_sqrt @ sab @ b.inv_sqrt
    root = math.sqrt(float(np.sum(w * w)))
    if root * (1.0 + rho) + err < threshold:
        return root
    score = math.sqrt(max(float(np.linalg.eigvalsh(w @ w.T)[-1]), 0.0))
    if score * (1.0 + rho) + err < threshold or score * (1.0 - rho) - err > threshold:
        return score
    return None


def kmeans(points: np.ndarray, rng: np.random.Generator, max_iter: int = 100,
           tol: float = 1e-4, inverse: np.ndarray | None = None) -> np.ndarray:
    """Two-means on the rows ``points[inverse]``: ++-style seeding, then Lloyd iteration.

    ``points`` holds each distinct row once and ``inverse`` maps every row
    to its point; by default every row is its own point. The first
    centroid is a row drawn uniformly, the second a row drawn with
    probability proportional to its squared distance from the first (again
    uniformly when every row lies on the first), which takes one distance
    pass over the points. Assignments are computed once per point, and each
    centroid is the mean of its member rows, so the labels, one per row,
    are those of clustering ``points[inverse]`` itself. Each Lloyd
    iteration labels the points from one matrix-vector product and
    measures exact distances only for the points its rounding-error bound
    cannot decide, so every label is the one exact distances give. Returns
    labels 0 and 1; a cluster can come back empty (identical rows all get
    one label).
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim == 1:
        pts = pts[:, None]
    rows = np.arange(pts.shape[0]) if inverse is None else np.asarray(inverse, dtype=np.intp)
    m = rows.shape[0]
    if m == 0:
        raise EmptyInputError("cannot cluster zero rows")

    cent = np.empty((2, pts.shape[1]))
    cent[0] = pts[rows[int(rng.integers(m))]]
    diff = np.empty((min(_CHUNK, pts.shape[0]), pts.shape[1]))
    # the draw weighs every row, so the sums run over rows, not points
    row_d2 = _sq_dists(pts, cent[:1], diff)[rows, 0]
    total = float(row_d2.sum())
    if total > 0.0:
        u = rng.random() * total
        j = min(int(np.searchsorted(np.cumsum(row_d2), u, side="right")), m - 1)
    else:
        j = int(rng.integers(m))
    cent[1] = pts[rows[j]]
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
