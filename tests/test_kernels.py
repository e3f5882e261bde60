"""Hot-loop kernels against loop oracles and reference solvers.

``dp_fill`` must match the triple-loop dynamic program below bit for
bit on the bin-count columns it is asked to fill, ``lloyd`` must give
the labels of the loop K-means below (and of the broadcast K-means below
for points too wide for loop sums), and ``pava_nondecreasing`` must
agree with scipy's isotonic regression.
"""

import sys
import tracemalloc
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

import mspn
from mspn._kernels import (
    _CHUNK, _labels, _row_sum, _sq_dists, dp_fill, lloyd, pava_nondecreasing,
)
from conftest import make_dataset


def loop_dp_fill(seg_ll):
    # f[p, j] = best score splitting boundaries 0..p into j bins; back[p, j]
    # is the start boundary of the last bin, the first one reaching the best
    n_bounds = seg_ll.shape[0]
    f = np.full((n_bounds + 1, n_bounds + 1), -np.inf)
    back = np.zeros((n_bounds + 1, n_bounds + 1), dtype=np.int64)
    f[0, 0] = 0.0
    for j in range(1, n_bounds + 1):
        for p in range(j, n_bounds + 1):
            best = -np.inf
            arg = j - 1
            for q in range(j - 1, p):
                v = f[q, j - 1] + seg_ll[q, p - 1]
                if v > best:
                    best = v
                    arg = q
            f[p, j] = best
            back[p, j] = arg
    return f, back


def loop_lloyd(points, centroids, max_iter, tol):
    # K-means with every distance, sum and shift accumulated one scalar at a
    # time; an empty cluster keeps its centroid
    m, d = points.shape
    k = centroids.shape[0]
    cent = centroids.copy()

    def assign():
        labels = np.zeros(m, dtype=np.int64)
        for i in range(m):
            best_d = np.inf
            for c in range(k):
                acc = 0.0
                for t in range(d):
                    diff = points[i, t] - cent[c, t]
                    acc += diff * diff
                if acc < best_d:
                    best_d = acc
                    labels[i] = c
        return labels

    for _ in range(max_iter):
        labels = assign()
        new_cent = np.zeros((k, d))
        counts = np.zeros(k)
        for i in range(m):
            counts[labels[i]] += 1.0
            for t in range(d):
                new_cent[labels[i], t] += points[i, t]
        shift = 0.0
        for c in range(k):
            if counts[c] > 0.0:
                acc = 0.0
                for t in range(d):
                    new_cent[c, t] /= counts[c]
                    diff = new_cent[c, t] - cent[c, t]
                    acc += diff * diff
                shift = max(shift, acc)
            else:
                new_cent[c] = cent[c]
        cent = new_cent
        if np.sqrt(shift) < tol:
            break
    return assign()


def broadcast_lloyd(points, centroids, max_iter, tol):
    # K-means with all (rows, k, D) differences formed at once, as lloyd did
    # before it went one centroid at a time; it sums each row's D squares
    # the way numpy does, so it is the oracle for wide points
    cent = centroids.copy()
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_cent = cent.copy()
        shift = 0.0
        for c in range(cent.shape[0]):
            member = labels == c
            if member.any():
                new_cent[c] = points[member].sum(axis=0) / member.sum()
                shift = max(shift, float(((new_cent[c] - cent[c]) ** 2).sum()))
        cent = new_cent
        if np.sqrt(shift) < tol:
            break
    d2 = ((points[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def count_fallback(monkeypatch):
    # the number of points of each exact-distance call lloyd makes
    seen = []
    monkeypatch.setattr(mspn._kernels, "_sq_dists",
                        lambda pts, cent, diff: seen.append(pts.shape[0]) or _sq_dists(pts, cent, diff))
    return seen


def adversarial_sets():
    # (name, points, two starting centroids, max_iter, inverse): point sets
    # whose two-centroid margin cannot be decided for some points. The third
    # centroid of the k = 3 runs is the last row.
    r = np.random.default_rng(20)
    # the first coordinate halfway between the centroids', so fl(d0) == fl(d1)
    # exactly; half the points sit on that bisector
    on_line = np.hstack([np.zeros((100, 1)), r.normal(size=(100, 3))])
    bisector = np.vstack([r.normal(size=(100, 4)), on_line])
    pair = np.array([[-1.0, 0.5, -0.25, 2.0], [1.0, 0.5, -0.25, 2.0]])
    yield "bisector", bisector, pair, 100, None
    # the mirrored clusters around +v and -v: the origin ties
    v = r.normal(size=4)
    noise = r.normal(0.0, 0.8, size=(100, 4))
    yield "mirrored origin", np.vstack([v + noise, -v - noise, np.zeros((1, 4))]), np.vstack([v, -v]), 100, None
    # equidistant duplicates, as repeated rows and as repeated points
    ties = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.5, 0.0]])
    dup = np.vstack([np.repeat(ties, 40, axis=0), r.normal(size=(60, 4))])
    square = np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    yield "duplicate rows", dup, square, 100, None
    inverse = np.concatenate([np.repeat([0, 1], 40), r.integers(0, 62, 220)])
    yield "duplicate points", np.vstack([ties, dup[80:]]), square, 100, inverse
    # within about 1e-3 of the bisector (and of each other) at 1e6 on every
    # coordinate: the margin's rounding error is as large as the margins
    # themselves, and signs alone would flip about a quarter of the labels
    near = 1e6 + 1e-3 * r.normal(size=(2000, 3))
    yield "offset 1e6", near, near[[0, 1]], 100, None
    # squares that underflow entirely, or to the last few subnormals, where
    # only the bound's absolute term keeps the margin from deciding
    yield "scale 1e-165", bisector * 1e-165, pair * 1e-165, 100, None
    tiny = r.normal(size=(400, 3)) * 1e-162
    yield "scale 1e-162", tiny, tiny[[0, 1]], 100, None
    yield "scale 1e100", bisector * 1e100, pair * 1e100, 100, None
    # a NaN row takes its cluster's centroid to NaN; an inf row would take it
    # to inf and the next distances to inf - inf, so it gets one labelling
    with_nan = r.normal(size=(60, 3))
    with_nan[[5, 40], 1] = np.nan
    yield "nan", with_nan, with_nan[[0, 1]].copy(), 100, None
    with_inf = r.normal(size=(60, 3))
    with_inf[7, 0] = np.inf
    with_inf[20, 2] = -np.inf
    yield "inf", with_inf, with_inf[[0, 1]].copy(), 0, None


@st.composite
def lattice_cases(draw):
    # (distinct lattice points, row-to-point inverse, rows to start from)
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    coords = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    points = np.unique(np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float), axis=0)
    m = draw(st.integers(1, 30))
    inverse = np.array(draw(st.lists(st.integers(0, points.shape[0] - 1), min_size=m, max_size=m)))
    picks = np.array(draw(st.lists(st.integers(0, m - 1), min_size=3, max_size=3)))
    return points, inverse, picks


def assert_dp_matches_oracle(seg):
    f, back = dp_fill(seg)
    f_ref, back_ref = loop_dp_fill(seg)
    np.testing.assert_array_equal(f, f_ref)
    np.testing.assert_array_equal(back, back_ref)


class TestPavaKernel:
    def test_two_point_violation_pools_to_mean(self):
        np.testing.assert_array_equal(
            pava_nondecreasing(np.array([3.0, 1.0]), np.ones(2)), [2.0, 2.0]
        )

    def test_sorted_input_unchanged(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(pava_nondecreasing(x, np.ones(3)), x)

    def test_weighted_pool_uses_weighted_mean(self):
        out = pava_nondecreasing(np.array([4.0, 0.0]), np.array([3.0, 1.0]))
        np.testing.assert_allclose(out, [3.0, 3.0])

    def test_matches_reference_solver_on_random_instances(self):
        r = np.random.default_rng(12)
        for _ in range(25):
            n = int(r.integers(1, 60))
            y = r.normal(size=n)
            w = r.uniform(0.5, 3.0, size=n)
            ours = pava_nondecreasing(y, w)
            ref = isotonic_regression(y, weights=w, increasing=True).x
            np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_idempotent(self):
        r = np.random.default_rng(3)
        y = r.normal(size=40)
        w = r.uniform(0.5, 2.0, 40)
        once = pava_nondecreasing(y, w)
        np.testing.assert_array_equal(pava_nondecreasing(once, w), once)


class TestDpFillKernel:
    def test_paths_agree_bit_exactly(self):
        r = np.random.default_rng(21)
        for n in (1, 2, 5, 12, 30, 64, 101):
            assert_dp_matches_oracle(r.normal(size=(n, n)))

    def test_ties_agree_bit_exactly(self):
        # rounded scores make many candidate splits score the same
        r = np.random.default_rng(22)
        for n in (3, 8, 17, 40):
            assert_dp_matches_oracle(np.round(r.normal(size=(n, n))))

    def test_scattered_minus_inf_cells_agree_bit_exactly(self):
        r = np.random.default_rng(23)
        for n in (4, 11, 25, 50):
            seg = r.normal(size=(n, n))
            seg[r.random((n, n)) < 0.1] = -np.inf
            assert_dp_matches_oracle(seg)

    def test_all_minus_inf_column_backs_off_to_first_start(self):
        # no bin may end at boundary 3, so every f[3, j] is -inf and its
        # back pointer stays at the first candidate start j - 1
        r = np.random.default_rng(24)
        seg = r.normal(size=(6, 6))
        seg[:, 2] = -np.inf
        assert_dp_matches_oracle(seg)
        f, back = dp_fill(seg)
        for j in range(1, 4):
            assert f[3, j] == -np.inf
            assert back[3, j] == j - 1

    def test_tie_breaks_to_first_maximum_on_both_paths(self):
        # constant scores make every split equally good: the earliest start
        # boundary of the last bin wins
        seg = np.zeros((4, 4))
        assert_dp_matches_oracle(seg)
        _, back = dp_fill(seg)
        assert back[4, 2] == 1

    def test_single_bin_score_is_segment_value(self):
        seg = np.array([[2.5]])
        f, back = dp_fill(seg)
        assert f[1, 1] == 2.5
        assert back[1, 1] == 0

    def test_capped_fill_matches_the_oracle_up_to_its_cap(self):
        # columns 1..n_bins keep the full table's bits; later ones stay unfilled
        r = np.random.default_rng(25)
        for n in (1, 5, 12, 30, 101):
            seg = r.normal(size=(n, n))
            seg[r.random((n, n)) < 0.1] = -np.inf
            f_ref, back_ref = loop_dp_fill(seg)
            for n_bins in sorted({1, max(1, n // 3), n}):
                f, back = dp_fill(seg, n_bins)
                np.testing.assert_array_equal(f[:, : n_bins + 1], f_ref[:, : n_bins + 1])
                np.testing.assert_array_equal(back[:, : n_bins + 1], back_ref[:, : n_bins + 1])
                assert np.all(f[:, n_bins + 1 :] == -np.inf)
                assert np.all(back[:, n_bins + 1 :] == 0)

    def test_optimal_two_bin_split_found(self):
        # boundaries 0..2; one bin over [0,2) scores 0, splitting at 1 scores 3+4
        seg = np.array([[3.0, 0.0], [-np.inf, 4.0]])
        f, back = dp_fill(seg)
        assert f[2, 2] == 7.0
        assert back[2, 2] == 1


class TestLloydKernel:
    def test_paths_agree_on_separated_blobs(self, monkeypatch):
        fallback = count_fallback(monkeypatch)
        r = np.random.default_rng(5)
        pts = np.vstack([r.normal(0, 0.3, (50, 2)), r.normal(5, 0.3, (60, 2))])
        cent = np.array([[0.1, 0.0], [4.9, 5.1]])
        labels = lloyd(pts, cent, 100, 1e-4)
        # the margin decides every point: no exact distances at all
        assert fallback == []
        np.testing.assert_array_equal(labels, loop_lloyd(pts, cent, 100, 1e-4))
        assert len(np.unique(labels[:50])) == 1
        assert len(np.unique(labels[50:])) == 1
        assert labels[0] != labels[-1]

    def test_selected_path_matches_loop_implementation(self):
        r = np.random.default_rng(9)
        pts = r.normal(size=(80, 3))
        cent = pts[:4].copy()
        np.testing.assert_array_equal(
            lloyd(pts, cent, 50, 1e-4), loop_lloyd(pts, cent, 50, 1e-4)
        )

    def test_wide_points_match_the_broadcast_oracle(self):
        r = np.random.default_rng(12)
        for dim in (20, 280):
            v = r.normal(size=dim)
            noise = r.normal(0.0, 0.8, size=(150, dim))
            # mirrored clusters around +v and -v (and a far third one): the
            # origin, last, is exactly equidistant from the first two
            # starting centroids, so its first assignment is a tie that must
            # go to the first, where it then stays
            mirrored = [v + noise, -v - noise]
            far = [4.0 + noise[:60]]
            for k in (2, 3):
                pts = np.vstack(mirrored + far * (k - 2) + [np.zeros((1, dim))])
                cent = np.vstack([v, -v, np.full(dim, 4.0)])[:k]
                labels = lloyd(pts, cent, 100, 1e-4)
                np.testing.assert_array_equal(labels, broadcast_lloyd(pts, cent, 100, 1e-4))
                assert labels[-1] == 0
                start = pts[r.choice(pts.shape[0], size=k, replace=False)]
                np.testing.assert_array_equal(
                    lloyd(pts, start, 100, 1e-4), broadcast_lloyd(pts, start, 100, 1e-4)
                )
                # labels rarely see a last-bit change; the distances do
                np.testing.assert_array_equal(
                    _sq_dists(pts, start, np.empty((min(_CHUNK, pts.shape[0]), dim))),
                    ((pts[:, None, :] - start[None]) ** 2).sum(axis=2),
                )

    def test_empty_cluster_keeps_its_centroid(self):
        pts = np.array([[0.0], [0.1]])
        cent = np.array([[0.05], [99.0]])
        labels = lloyd(pts, cent, 10, 1e-6)
        np.testing.assert_array_equal(labels, [0, 0])

    def test_chunked_centroid_sum_keeps_the_bits(self):
        # magnitudes spread over many decades make the sum depend on its order
        r = np.random.default_rng(13)
        for dim in (1, 2, 20, 280):
            points = r.normal(size=(40, dim)) * np.exp(r.normal(0.0, 8.0, size=(40, 1)))
            points[3] = -0.0
            buf = np.empty((_CHUNK + 1, dim))
            for count in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7):
                for idx in (r.integers(0, 40, count), np.full(count, 3)):
                    got = _row_sum(points, idx, buf)
                    assert got.tobytes() == points[idx].sum(axis=0).tobytes(), (dim, count)

    def test_early_stop_matches_the_loop_oracle(self):
        r = np.random.default_rng(14)
        pts = np.vstack([r.normal(0.0, 1.0, (60, 3)), r.normal(1.5, 1.0, (60, 3))])
        for k in (2, 3, 5):
            cent = pts[r.choice(pts.shape[0], size=k, replace=False)]
            for max_iter, tol in ((100, 0.0), (100, 1e-4), (1, 0.0), (1, 1e-4), (0, 0.0)):
                np.testing.assert_array_equal(
                    lloyd(pts, cent, max_iter, tol), loop_lloyd(pts, cent, max_iter, tol)
                )

    def test_early_stop_on_distinct_points_matches_the_rows(self):
        # the middle point ties between the outer two, and the rows repeat
        # each point across several chunks of the centroid sum
        r = np.random.default_rng(15)
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        inverse = r.integers(0, 4, 3 * _CHUNK + 7)
        for cent in (points[[0, 2]], points[[1, 3]], points[[0, 1, 2]]):
            for max_iter, tol in ((100, 0.0), (1, 0.0), (100, 1e-4)):
                np.testing.assert_array_equal(
                    lloyd(points, cent, max_iter, tol, inverse),
                    broadcast_lloyd(points[inverse], cent, max_iter, tol),
                )

    def test_stops_once_the_labels_repeat(self, monkeypatch):
        # with tol=0 only repeated labels can end the iteration early; every
        # labelling pass, the one after seeding included, calls _labels once
        calls = []
        monkeypatch.setattr(mspn._kernels, "_labels",
                            lambda *args: calls.append(1) or _labels(*args))
        r = np.random.default_rng(16)
        pts = np.vstack([r.normal(0.0, 0.3, (50, 2)), r.normal(5.0, 0.3, (60, 2))])
        lloyd(pts, pts[[0, 1]], 100, 0.0)
        assert 2 <= len(calls) <= 5

    def test_adversarial_points_take_the_exact_fallback(self, monkeypatch):
        fallback = count_fallback(monkeypatch)
        for name, pts, cent, max_iter, inverse in adversarial_sets():
            rows = pts if inverse is None else pts[inverse]
            for k in (1, 2, 3):
                start = cent[:k] if k < 3 else np.vstack([cent, rows[-1:]])
                fallback.clear()
                labels = lloyd(pts, start, max_iter, 1e-4, inverse)
                np.testing.assert_array_equal(
                    labels, broadcast_lloyd(rows, start, max_iter, 1e-4), err_msg=f"{name}, k={k}")
                # the loop oracle's strict < skips a NaN distance; argmin takes it
                if rows.shape[0] <= 300 and np.isfinite(rows).all():
                    np.testing.assert_array_equal(
                        labels, loop_lloyd(rows, start, max_iter, 1e-4), err_msg=f"{name}, k={k}")
                assert sum(fallback) > 0, (name, k)

    @settings(max_examples=60, deadline=None)
    @given(lattice_cases())
    def test_lattice_points_match_the_broadcast_oracle(self, case):
        # integer lattices tie exactly and often; a large common offset
        # leaves the ties but makes the margin's rounding error large
        points, inverse, picks = case
        for offset in (0.0, 2.0**26 + 0.5):
            pts = points + offset
            for k in (1, 2, 3):
                cent = pts[inverse[picks[:k]]]
                np.testing.assert_array_equal(
                    lloyd(pts, cent, 100, 1e-4, inverse),
                    broadcast_lloyd(pts[inverse], cent, 100, 1e-4))
                np.testing.assert_array_equal(
                    lloyd(pts[inverse], cent, 100, 1e-4),
                    broadcast_lloyd(pts[inverse], cent, 100, 1e-4))

    def test_memory_stays_far_below_the_rows(self):
        # 20 000 rows of 160 dims would take 25.6 MB; only 50 are distinct
        r = np.random.default_rng(17)
        points = r.normal(size=(50, 160))
        inverse = r.integers(0, 50, 20_000)
        tracemalloc.start()
        try:
            lloyd(points, points[[0, 1]], 100, 1e-4, inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def whole_array_kmeans(points, n_clusters, rng, max_iter, tol, inverse=None):
    # kmeans as it was before its seeding shared the chunked distances: ++
    # seeding on distances to all points at once, then the broadcast K-means
    # on every row
    rows = np.arange(points.shape[0]) if inverse is None else inverse
    m = rows.shape[0]
    k = min(n_clusters, m)
    cent = np.empty((k, points.shape[1]))
    first = int(rng.integers(m))
    cent[0] = points[rows[first]]
    d2 = ((points - cent[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        row_d2 = d2[rows]
        total = float(row_d2.sum())
        if total > 0.0:
            u = rng.random() * total
            j = int(np.searchsorted(np.cumsum(row_d2), u, side="right"))
            j = min(j, m - 1)
        else:
            j = int(rng.integers(m))
        cent[c] = points[rows[j]]
        d2 = np.minimum(d2, ((points - cent[c]) ** 2).sum(axis=1))
    return broadcast_lloyd(points[rows], cent, max_iter, tol)


class TestChunkedDistances:
    def test_distances_keep_the_bits_of_the_broadcast_form(self):
        # point counts on either side of the chunk edges; magnitudes spread
        # over many decades make each row's sum depend on its order
        r = np.random.default_rng(18)
        for dim in (1, 7, 160):
            cent = r.normal(size=(3, dim))
            for count in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
                pts = r.normal(size=(count, dim)) * np.exp(r.normal(0.0, 8.0, size=(count, dim)))
                got = _sq_dists(pts, cent, np.empty((min(_CHUNK, count), dim)))
                want = ((pts[:, None, :] - cent[None]) ** 2).sum(axis=2)
                assert got.tobytes() == want.tobytes(), (dim, count)

    def test_kmeans_matches_the_whole_array_seeding(self):
        r = np.random.default_rng(19)
        n = 2 * _CHUNK + 3
        v = r.normal(size=20)
        points = np.vstack([v + r.normal(0.0, 0.8, (n // 2, 20)),
                            -v + r.normal(0.0, 0.8, (n - n // 2, 20))])
        for inverse in (None, r.integers(0, n, 3000)):
            for k in (2, 3):
                for seed in range(4):
                    got = mspn.numerics.kmeans(points, k, np.random.default_rng(seed),
                                               100, 1e-4, inverse)
                    want = whole_array_kmeans(points, k, np.random.default_rng(seed),
                                              100, 1e-4, inverse)
                    np.testing.assert_array_equal(got, want)

    def test_kmeans_memory_stays_far_below_the_points(self):
        # 6000 points of 160 dims take 7.7 MB. Whole-array distances peaked
        # at 1.14 times that; chunked, the peak is 0.31 times, most of it the
        # two fixed chunk buffers (tracemalloc, numpy 2), so 0.6 leaves margin
        # either way
        points = np.random.default_rng(20).normal(size=(6000, 160))

        def run():
            return mspn.numerics.kmeans(points, 2, np.random.default_rng(1), 100, 1e-4)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * points.nbytes


def mixture_model():
    """p(x) = 0.5 * U(x; 0, 1) + 0.5 * U(x; 0, 2)."""
    leaves = tuple(
        mspn.leaves.HistogramLeaf(0, mspn.CONTINUOUS, np.array([0.0, hi]), np.array([1.0]))
        for hi in (1.0, 2.0)
    )
    data = make_dataset([("x", mspn.CONTINUOUS, None)], [[0.5]])
    root = mspn.SumNode((0,), np.array([0.5, 0.5]), leaves)
    return mspn.structure.Mspn(root, data.schema, mspn.LearnConfig())


class TestBenchmarkHooks:
    def test_kernel_names_and_environment_flag_stay_in_place(self):
        # the benchmark's tracer rebinds these three names inside
        # mspn.numerics, and its environment record reads NUMBA_ENABLED
        assert "numba" not in sys.modules
        assert mspn._kernels.NUMBA_ENABLED is False
        for name in ("dp_fill", "lloyd", "pava_nondecreasing"):
            assert callable(getattr(mspn.numerics, name))

    def test_query_hook_targets_stay_bound_in_inference(self, monkeypatch):
        # the tracer rebinds these names inside mspn.inference; batches,
        # sampling and conditionals must still call them through that
        # namespace (the batch and the sampler's one-row pass each combine
        # the root sum once, and so does the conditional's one pass over
        # its given and joint rows)
        calls = Counter()
        for name in ("leaf_density_batch", "weighted_logsumexp", "leaf_sample"):
            original = getattr(mspn.inference, name)
            assert callable(original)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(mspn.inference, name, counted)
        model = mixture_model()
        mspn.log_evaluate_batch(model, np.array([[0.5], [1.5]]), np.array([True]))
        mspn.sample(model, mspn.Evidence.marginalized(1), np.random.default_rng(0))
        assert calls["leaf_density_batch"] == 2
        assert calls["weighted_logsumexp"] == 2
        assert calls["leaf_sample"] == 1
        calls.clear()
        mspn.log_conditional(model, mspn.Evidence(np.array([0.5]), np.array([True])),
                             mspn.Evidence.marginalized(1))
        assert calls["weighted_logsumexp"] == 1

    def test_pair_scores_go_through_the_rdc_namespace(self, monkeypatch):
        # the tracer rebinds cca_max_correlation inside mspn.rdc and reads
        # each call's rows and point dims from the shape of its first block
        rdc = sys.modules["mspn.rdc"]
        original = rdc.cca_max_correlation
        shapes = []

        def counted(*args):
            shapes.append((np.shape(args[0]), np.shape(args[1])))
            return original(*args)

        monkeypatch.setattr(rdc, "cca_max_correlation", counted)
        r = np.random.default_rng(18)
        data = make_dataset(
            [("x", mspn.CONTINUOUS, None), ("c", mspn.CONTINUOUS, None),
             ("g", mspn.CATEGORICAL, ("a", "b", "c")), ("k", mspn.data.DISCRETE, None)],
            np.column_stack([r.normal(size=300), np.full(300, 2.0),
                             r.integers(0, 3, 300), r.integers(0, 5, 300)]),
        )
        cfg = mspn.LearnConfig()
        rdc.split_features(data, 1.0, cfg)
        # three non-constant variables and no score above 1.0 to join any
        # two of them: x's two pairs take the exact path (x has too many
        # distinct values to count), while the counts of (g, k) bound its
        # score below 1.0
        assert shapes == [((300, cfg.proj_features),) * 2] * 2

    def test_loading_a_model_does_not_compile_its_plan(self, monkeypatch, tmp_path):
        # load_ms times load_model alone; the plan is compiled on the first query
        compiled = []
        plan_type = mspn.inference._Plan
        monkeypatch.setattr(mspn.inference, "_Plan",
                            lambda root: compiled.append(root) or plan_type(root))
        path = tmp_path / "model.json"
        mspn.save_model(mixture_model(), path)
        model = mspn.load_model(path)
        assert compiled == []
        for _ in range(2):
            mspn.log_evaluate(model, mspn.Evidence.marginalized(1))
        assert len(compiled) == 1
