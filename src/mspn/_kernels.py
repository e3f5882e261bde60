"""Hot numeric kernels, in plain numpy.

The binning DP is loop-free numpy within each bin count (one masked
argmax fills a whole DP column) and fills only the bin counts its caller
asks for: the binning search passes the last count that can still beat
one bin. PAVA is a short Python loop. K-means clusters rows that are
given as distinct points plus a row-to-point inverse: labels are found
once per point, centroid sums run over the member rows in row order, so
the labels are those of clustering the rows themselves. With two
centroids a point's label is the sign of the margin d1 - d0, which one
matrix-vector product gives for every point; where the computed margin
clears a proven bound on its own rounding error and on that of the exact
distances, its sign is the label the exact distances give (see the
comment before ``_filter_scale``). Only the undecided points, and every
point for any other k, get exact distances, one centroid at a time.
Beyond the points and a
few vectors over them, its memory is bounded by ``_CHUNK`` rows of D
values: exact distances run over at most ``_CHUNK`` gathered points at a
time in reused buffers, and a centroid sum gathers its member rows at
most ``_CHUNK`` at a time, carrying the running sum from chunk to chunk,
which gives the bits of one sum over every member row (see
``_row_sum``). Lloyd stops as soon as an iteration's labels equal the
previous ones: equal labels give bit-equal centroids, so every later
pass would give those labels again. The tests check ``dp_fill`` bit for
bit against a triple-loop oracle and ``lloyd`` against a loop and a
broadcast implementation.
"""

from __future__ import annotations

import math

import numpy as np

# read by the benchmark's environment record; there is no JIT path
NUMBA_ENABLED = False

# rows per chunk: points per distance pass, member rows per centroid-sum gather
_CHUNK = 512


def pava_nondecreasing(values, weights):
    # pool-adjacent-violators for a weighted least-squares nondecreasing fit;
    # merged blocks take the weighted mean of their members
    n = values.shape[0]
    level = np.empty(n)
    weight = np.empty(n)
    size = np.empty(n, dtype=np.int64)
    nb = 0
    for i in range(n):
        level[nb] = values[i]
        weight[nb] = weights[i]
        size[nb] = 1
        nb += 1
        while nb > 1 and level[nb - 2] > level[nb - 1]:
            tot = weight[nb - 2] + weight[nb - 1]
            level[nb - 2] = (
                weight[nb - 2] * level[nb - 2] + weight[nb - 1] * level[nb - 1]
            ) / tot
            weight[nb - 2] = tot
            size[nb - 2] += size[nb - 1]
            nb -= 1
    out = np.empty(n)
    pos = 0
    for b in range(nb):
        for _ in range(size[b]):
            out[pos] = level[b]
            pos += 1
    return out


def dp_fill(seg_ll, n_bins=None):
    """Fill the binning DP's score and back-pointer tables.

    ``seg_ll[q, p-1]`` holds the log-likelihood of one bin spanning
    boundary q to boundary p; ``f[p, j]`` is the best score splitting
    boundaries 0..p into j bins and ``back[p, j]`` the start boundary of
    its last bin. Column j is one argmax over the table
    ``cand[q, p] = f[q, j-1] + seg_ll[q, p-1]`` for q >= j-1, p >= j,
    with the cells q >= p masked out; argmax keeps the first maximum, so
    ties go to the earliest start boundary. Column j reads only column
    j-1, so filling columns 1..n_bins (all by default) gives them the bits
    of the full table; later columns stay -inf and 0. The binning search
    passes the last bin count that can still beat one bin.
    """
    n_bounds = seg_ll.shape[0]
    f = np.full((n_bounds + 1, n_bounds + 1), -np.inf)
    back = np.zeros((n_bounds + 1, n_bounds + 1), dtype=np.int64)
    f[0, 0] = 0.0
    below = np.tri(n_bounds, n_bounds, -1, dtype=bool)
    cols = np.arange(n_bounds)
    for j in range(1, (n_bounds if n_bins is None else n_bins) + 1):
        m = n_bounds - j + 1
        cand = f[j - 1 : n_bounds, j - 1, None] + seg_ll[j - 1 :, j - 1 :]
        np.copyto(cand, -np.inf, where=below[:m, :m])
        arg = cand.argmax(axis=0)
        f[j:, j] = cand[arg, cols[:m]]
        back[j:, j] = arg + (j - 1)
    return f, back


def lloyd(points, centroids, max_iter, tol, inverse=None):
    # the rows are points[inverse], or the points themselves; each centroid
    # sums its member rows in row order, as clustering the rows would
    rows = np.arange(points.shape[0]) if inverse is None else inverse
    cent = centroids.copy()
    diff = np.empty((min(_CHUNK, points.shape[0]), points.shape[1]))
    chunk = np.empty((_CHUNK + 1, points.shape[1]))
    reach = _reach(points)
    labels = _labels(points, cent, reach, diff, chunk)
    for _ in range(max_iter):
        row_labels = labels[rows]
        new_cent = cent.copy()
        shift = 0.0
        for c in range(cent.shape[0]):
            member = rows[row_labels == c]
            if member.size:
                new_cent[c] = _row_sum(points, member, chunk) / member.size
                shift = max(shift, float(((new_cent[c] - cent[c]) ** 2).sum()))
        cent = new_cent
        previous = labels
        labels = _labels(points, cent, reach, diff, chunk)
        # equal labels give bit-equal centroids, so no later pass could
        # move a label again
        if np.sqrt(shift) < tol or np.array_equal(labels, previous):
            break
    return labels[rows]


# The two-centroid filter. Write d_j for the exact squared distance
# |x - c_j|^2 and fl(d_j) for the one _sq_dists computes; the label is 0
# if and only if fl(d0) <= fl(d1) (argmin keeps the first minimum). The
# margin d1 - d0 is (|c1|^2 - |c0|^2) + x.w with w = 2(c0 - c1), so it
# costs one matrix-vector product. With r = |x|, s = |c0| + |c1|, D the
# point width, u = 2^-53 and g_n = n u / (1 - n u) (Higham 2002, ch. 3):
# - the product x.fl(w) is off by at most g_D sum |x_t fl(w)_t| <=
#   2 g_D (1 + u) r s in any summation order, with or without FMA, and
#   fl(w) = 2 fl(c0 - c1) is off from w by at most 2u |c0 - c1| <= 2u s:
#   together 2 g_(D+1) r s;
# - the norms n_j = fl(|c_j|^2) are off by at most g_D |c_j|^2, in sum
#   g_D s^2, and the two closing roundings by about 2u (r s + s^2);
# - fl(d_j) is off from d_j by at most g_(D+2) d_j (a subtraction, a square
#   and D - 1 additions of non-negative terms), and d0 + d1 <= 2r^2 + 2rs
#   + s^2.
# So a computed margin m with |m| > 2 g_(D+4) (r + s)^2 has the sign of
# fl(d1) - fl(d0). The bound is taken as ((R + S)^2 + tau) with R, S from
# computed norms scaled by sqrt(G), G = 4 g_(D+16): the factor 2 over
# 2 g_(D+4) covers the norms' own error (a factor 1 - g_D) and the dozen
# roundings in forming R, S and the bound. Underflow adds at most
# eta = 2^-1075 per rounded product, about 6 D eta over the margin, the
# norms and both distances; the norms carry 2 (D + 1) eta under their
# square roots (so R and S never underflow) and the bound 32 (D + 1) eta.
# Points whose margin does not clear the bound (ties, NaN, inf, overflow)
# take the exact distances.
def _filter_scale(dim):
    # sqrt(G), and the absolute terms under the norms' roots and in the bound
    n = (dim + 16) * 2.0**-53
    return math.sqrt(4.0 * n / (1.0 - n)), (dim + 1) * 2.0**-1074, (dim + 1) * 2.0**-1070


def _reach(points):
    # R = sqrt(G (|x|^2 + tau_r)) per point, once per lloyd call
    scale, tau_r, _ = _filter_scale(points.shape[1])
    reach = np.einsum("ij,ij->i", points, points)
    reach += tau_r
    np.sqrt(reach, out=reach)
    reach *= scale
    return reach


def _labels(points, cent, reach, diff, buf):
    # each point's exact label: from the margin's sign where it clears the
    # bound above, else from _sq_dists over the undecided points, gathered
    # _CHUNK at a time into ``buf``; a gathered row sums the same contiguous
    # D values, so it keeps its bits. Any k but 2 leaves every point undecided.
    labels = np.empty(points.shape[0], dtype=np.intp)
    if cent.shape[0] == 2:
        scale, tau_r, tau = _filter_scale(points.shape[1])
        # an overflow or inf - inf here only leaves its points undecided
        with np.errstate(over="ignore", invalid="ignore"):
            n0 = float(cent[0] @ cent[0])
            n1 = float(cent[1] @ cent[1])
            margin = points @ (2.0 * (cent[0] - cent[1]))
            margin += n1 - n0
        bound = reach + (math.sqrt(n0 + tau_r) + math.sqrt(n1 + tau_r)) * scale
        bound *= bound
        bound += tau
        np.less(margin, 0.0, out=labels)
        np.abs(margin, out=margin)
        undecided = np.flatnonzero(~(margin > bound))
    else:
        undecided = np.arange(points.shape[0])
    for start in range(0, undecided.shape[0], _CHUNK):
        part = undecided[start : start + _CHUNK]
        gathered = buf[: part.shape[0]]
        np.take(points, part, axis=0, out=gathered, mode="clip")
        labels[part] = np.argmin(_sq_dists(gathered, cent, diff), axis=1)
    return labels


def _row_sum(points, idx, buf):
    # points[idx].sum(axis=0) with at most _CHUNK member rows gathered at a
    # time: each chunk lands in buf[1:] and, after the first, the running sum
    # in buf[0]. Over two or more columns numpy's axis-0 sum adds one row at
    # a time from +0.0, and a sum started from +0.0 is never -0.0, so going
    # on from the carried sum changes no bit. Over one column numpy sums
    # pairwise, so that case gathers every member row.
    if points.shape[1] == 1:
        return points[idx].sum(axis=0)
    for start in range(0, idx.shape[0], _CHUNK):
        part = idx[start : start + _CHUNK]
        end = part.shape[0] + 1
        # mode "raise" would gather into a temporary copy of ``out``
        np.take(points, part, axis=0, out=buf[1:end], mode="clip")
        if start:
            buf[0] = total
        total = buf[0 if start else 1 : end].sum(axis=0)
    return total


def _sq_dists(points, cent, diff):
    # (points, k) squared distances, _CHUNK points and one centroid at a time
    # into ``diff``, of shape (min(_CHUNK, points), D): no (points, k, D) or
    # points-sized temporary, and each row's sum runs over the same
    # contiguous D values as over all points at once
    d2 = np.empty((points.shape[0], cent.shape[0]))
    for start in range(0, points.shape[0], _CHUNK):
        part = points[start : start + _CHUNK]
        buf = diff[: part.shape[0]]
        for c in range(cent.shape[0]):
            np.subtract(part, cent[c], out=buf)
            buf *= buf
            buf.sum(axis=1, out=d2[start : start + part.shape[0], c])
    return d2
