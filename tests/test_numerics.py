"""Numeric primitives: seeding, random features, CCA, k-means, monotone
fits, adaptive binning, and log-space mixing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mspn.leaves
import mspn.numerics
from mspn import LearnConfig, learn_mspn
from mspn._kernels import dp_fill
from mspn.errors import DomainError, EmptyInputError
from mspn.numerics import (
    MAX_BIN_MAGNITUDE,
    MAX_CANDIDATE_CUTS,
    SeedScope,
    SineProjection,
    _whiten,
    adaptive_bin_edges,
    cca_max_correlation,
    fit_monotone,
    kmeans,
    trapezoid,
    weighted_logsumexp,
)
from conftest import (
    H14_COLS,
    make_dataset,
    make_hybrid14,
    per_pair_cca_max_correlation,
    reference_logsumexp,
    uncapped_adaptive_bin_edges,
)


class TestSeedScope:
    def test_same_scope_reproduces_stream(self):
        a = SeedScope(7).child(2).child(0).rng(1)
        b = SeedScope(7).child(2).child(0).rng(1)
        np.testing.assert_array_equal(a.random(8), b.random(8))

    def test_different_tags_give_different_streams(self):
        root = SeedScope(7)
        assert root.rng(1).random() != root.rng(2).random()

    def test_different_children_give_different_streams(self):
        root = SeedScope(7)
        assert root.child(0).rng(1).random() != root.child(1).rng(1).random()

    def test_path_depth_disambiguates_from_tags(self):
        # child index 3 at depth 1 must not alias tag 3 at depth 0
        assert SeedScope(7).child(3).rng() .random() != SeedScope(7).rng(3).random()

    def test_seed_changes_stream(self):
        assert SeedScope(1).rng(1).random() != SeedScope(2).rng(1).random()


class TestSineProjection:
    def test_zero_projection_maps_to_zeros(self):
        proj = SineProjection(np.zeros((4, 2)), np.zeros(4))
        out = proj.transform(np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(out, np.zeros((5, 4)))

    def test_quarter_turn_offset_maps_zero_to_one(self):
        proj = SineProjection(np.array([[1.0]]), np.array([math.pi / 2]))
        np.testing.assert_allclose(proj.transform(np.array([[0.0]])), [[1.0]])

    def test_draw_is_reproducible_bit_exactly(self):
        a = SineProjection.draw(np.random.default_rng(42), 1)
        b = SineProjection.draw(np.random.default_rng(42), 1)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        data = np.random.default_rng(0).normal(size=(5, 1))
        np.testing.assert_array_equal(a.transform(data), b.transform(data))

    def test_default_width_and_shape(self):
        proj = SineProjection.draw(np.random.default_rng(1), 3)
        assert proj.weights.shape == (20, 3)
        assert proj.offsets.shape == (20,)
        out = proj.transform(np.zeros((7, 3)))
        assert out.shape == (7, 20)

    def test_scale_parameter_is_a_variance(self):
        # entries ~ N(0, s): with s = 1/6 the sample std over many draws
        # approaches sqrt(1/6) ~ 0.408
        proj = SineProjection.draw(np.random.default_rng(2), 400, n_features=50)
        assert abs(proj.weights.std() - math.sqrt(1 / 6)) < 0.01

    def test_dimension_mismatch_rejected(self):
        proj = SineProjection.draw(np.random.default_rng(3), 2)
        with pytest.raises(DomainError):
            proj.transform(np.zeros((4, 3)))


def _cca(a, b):
    return cca_max_correlation(_whiten(a), _whiten(b))


class TestCcaMaxCorrelation:
    def test_identical_blocks_fully_correlated(self):
        a = np.random.default_rng(0).normal(size=(200, 3))
        assert abs(_cca(a, a) - 1.0) <= 1e-6

    def test_affine_dependence_fully_correlated(self):
        a = np.random.default_rng(1).normal(size=(500, 1))
        assert abs(_cca(a, 2.0 * a + 3.0) - 1.0) <= 1e-6

    def test_independent_samples_near_zero(self):
        r = np.random.default_rng(2)
        rho = _cca(r.normal(size=(5000, 1)), r.normal(size=(5000, 1)))
        assert rho < 0.1

    def test_symmetric_in_arguments(self):
        r = np.random.default_rng(3)
        a, b = r.normal(size=(300, 4)), r.normal(size=(300, 2))
        assert abs(_cca(a, b) - _cca(b, a)) < 1e-9

    def test_invariant_under_positive_affine_column_maps(self):
        r = np.random.default_rng(4)
        a, b = r.normal(size=(400, 3)), r.normal(size=(400, 3))
        base = _cca(a, b)
        scaled = _cca(a * [2.0, 0.5, 7.0] + [1.0, -3.0, 0.25], b)
        assert abs(base - scaled) < 1e-9

    def test_result_clamped_to_unit_interval(self):
        r = np.random.default_rng(5)
        a = r.normal(size=(50, 10))
        rho = _cca(a, a + 1e-12 * r.normal(size=(50, 10)))
        assert 0.0 <= rho <= 1.0

    def test_constant_block_scores_zero(self):
        r = np.random.default_rng(6)
        assert _cca(np.ones((100, 2)), r.normal(size=(100, 2))) == 0.0

    def test_equals_the_per_pair_whitening_bit_for_bit(self):
        r = np.random.default_rng(7)
        x = r.uniform(-1.0, 1.0, size=(400, 1))
        blocks = {}
        for width in (1, 3, 20):
            mix = r.normal(size=(width, width))
            blocks[width] = np.sin((x + 0.3 * r.normal(size=(400, width))) @ mix)
            if width > 1:
                blocks[width][:, 1] = 2.5  # a constant column inside a block
        blocks["constant"] = np.full((400, 3), -1.0)
        for a in blocks.values():
            for b in blocks.values():
                # blocks whitened once score as whitened per pair
                assert _cca(a, b) == per_pair_cca_max_correlation(a, b)
        assert _cca(blocks[3], blocks[20]) > 0.1

    @pytest.mark.parametrize("case", ["ties", "constant column", "one column", "two rows"])
    def test_whitening_distinct_rows_keeps_the_bits(self, case):
        # a block held once per distinct row whitens to the bits of the
        # block itself, and scores the same against any other
        r = np.random.default_rng(9)
        table = np.sin(3.0 * r.normal(size=(7, 1 if case == "one column" else 20)))
        ids = r.integers(0, 7, 3000)
        if case == "constant column":
            table[:, 4] = 0.3
        elif case == "two rows":
            ids = np.array([5, 2])
        b = _whiten(r.normal(size=(ids.size, 3)))
        got, want = _whiten(table, ids=ids), _whiten(table[ids])
        assert got.shape == want.shape == (ids.size, table.shape[1])
        assert got.rows().tobytes() == want.table.tobytes()
        assert got.gathered().table.tobytes() == want.table.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()
        assert got.inv_sqrt.tobytes() == want.inv_sqrt.tobytes()
        assert cca_max_correlation(got, b) == cca_max_correlation(want, b)

    def test_single_row_rejected(self):
        with pytest.raises(DomainError):
            _cca(np.ones((1, 2)), np.ones((1, 2)))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DomainError):
            _cca(np.ones((3, 1)), np.ones((4, 1)))

    def test_whitened_block_keeps_its_row_shape(self):
        r = np.random.default_rng(8)
        assert _whiten(r.normal(size=(50, 2))).shape == (50, 2)
        with pytest.raises(DomainError):
            _whiten(np.ones((1, 2)))


class TestKmeans:
    def test_recovers_optimal_two_partition(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = kmeans(pts, 2, np.random.default_rng(0))
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_single_point_uses_one_cluster(self):
        labels = kmeans(np.array([[3.0]]), 2, np.random.default_rng(1))
        assert labels.shape == (1,)
        assert len(np.unique(labels)) == 1

    def test_identical_points_collapse_to_one_cluster(self):
        labels = kmeans(np.full((20, 2), 4.2), 2, np.random.default_rng(2))
        assert len(np.unique(labels)) == 1

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(3).normal(size=(200, 2))
        a = kmeans(pts, 3, np.random.default_rng(11))
        b = kmeans(pts, 3, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_labels_within_range(self):
        pts = np.random.default_rng(4).normal(size=(50, 2))
        labels = kmeans(pts, 4, np.random.default_rng(5))
        assert labels.min() >= 0 and labels.max() < 4

    @pytest.mark.parametrize("k", [2, 4])
    def test_seeding_skips_the_distances_to_the_last_centroid(self, monkeypatch, k):
        # each draw reads the distances to the centroids before it, so k
        # centroids take k - 1 passes; Lloyd's go through mspn._kernels
        calls = []
        sq_dists = mspn.numerics._sq_dists
        monkeypatch.setattr(mspn.numerics, "_sq_dists",
                            lambda *args: calls.append(1) or sq_dists(*args))
        labels = kmeans(np.random.default_rng(8).normal(size=(60, 2)), k,
                        np.random.default_rng(9))
        assert len(calls) == k - 1
        assert set(labels.tolist()) == set(range(k))

    @pytest.mark.parametrize("case", ["ties", "fewer points than clusters", "one point",
                                      "blobs"])
    def test_distinct_points_cluster_like_their_rows(self, case):
        r = np.random.default_rng(6)
        if case == "ties":
            # the middle point is as far from either outer point, and the
            # rows repeat each point many times
            points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
            inverse = r.integers(0, 3, 400)
        elif case == "fewer points than clusters":
            points = np.array([[0.0], [5.0]])
            inverse = r.integers(0, 2, 30)
        elif case == "one point":
            # every row identical: the seeding's total distance is 0
            points = np.array([[4.2, -1.0]])
            inverse = np.zeros(25, dtype=np.intp)
        else:
            points = np.vstack([r.normal(0, 0.3, (40, 3)), r.normal(2, 0.3, (30, 3))])
            inverse = r.integers(0, 70, 5000)
        for k in (2, 3, 4):
            for seed in range(8):
                got = kmeans(points, k, np.random.default_rng(seed), inverse=inverse)
                want = kmeans(points[inverse], k, np.random.default_rng(seed))
                np.testing.assert_array_equal(got, want)


class TestFitMonotone:
    def test_increasing_violation_pools(self):
        np.testing.assert_array_equal(
            fit_monotone(np.array([3.0, 1.0]), np.ones(2)), [2.0, 2.0]
        )

    def test_increasing_feasible_input_unchanged(self):
        np.testing.assert_array_equal(
            fit_monotone(np.array([1.0, 2.0, 3.0]), np.ones(3)), [1.0, 2.0, 3.0]
        )

    def test_two_point_increasing_feasible(self):
        np.testing.assert_array_equal(
            fit_monotone(np.array([1.0, 3.0]), np.ones(2)), [1.0, 3.0]
        )

    def test_decreasing_direction(self):
        out = fit_monotone(np.array([1.0, 3.0]), np.ones(2), "decreasing")
        np.testing.assert_array_equal(out, [2.0, 2.0])
        out = fit_monotone(np.array([3.0, 2.0, 1.0]), np.ones(3), "decreasing")
        np.testing.assert_array_equal(out, [3.0, 2.0, 1.0])

    def test_preserves_weighted_mean(self):
        r = np.random.default_rng(8)
        y = r.normal(size=30)
        w = r.uniform(0.5, 2.0, 30)
        fit = fit_monotone(y, w)
        assert abs(np.dot(w, fit) - np.dot(w, y)) < 1e-9

    def test_output_monotone_and_idempotent(self):
        r = np.random.default_rng(9)
        y = r.normal(size=50)
        w = np.ones(50)
        fit = fit_monotone(y, w)
        assert np.all(np.diff(fit) >= 0)
        np.testing.assert_array_equal(fit_monotone(fit, w), fit)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            fit_monotone(np.array([]), np.array([]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            fit_monotone(np.array([1.0]), np.array([0.0]))

    def test_unknown_direction_rejected(self):
        with pytest.raises(DomainError):
            fit_monotone(np.array([1.0]), np.array([1.0]), "sideways")


class TestIntegratePiecewiseLinear:
    # the trapezoid rule is exact on piecewise-linear functions: the leaves
    # normalize by it and ``validate`` checks them with it
    def test_unit_box(self):
        assert trapezoid([1.0, 1.0], [0.0, 1.0]) == 1.0

    def test_right_triangle(self):
        assert trapezoid([0.0, 2.0], [0.0, 2.0]) == 2.0

    def test_tent(self):
        assert trapezoid([0.0, 1.0, 0.0], [0.0, 1.0, 2.0]) == 1.0

    def test_knot_insertion_preserves_integral(self):
        x = np.array([0.0, 1.0, 3.0])
        y = np.array([0.5, 2.0, 1.0])
        base = trapezoid(y, x)
        # insert an interpolated knot inside the second segment
        xi = 1.7
        yi = np.interp(xi, x, y)
        split = trapezoid([0.5, 2.0, yi, 1.0], [0.0, 1.0, xi, 3.0])
        assert abs(base - split) <= 1e-12


@st.composite
def binning_samples(draw):
    """Samples at scales 1e-300, 1 and 1e12: few values under heavy ties,
    exactly two values, runs of adjacent doubles (whose candidate bounds
    coincide), and continuous draws with more distinct values than
    candidate cuts."""
    scale = draw(st.sampled_from([1e-300, 1.0, 1e12]))
    kind = draw(st.sampled_from(["ties", "two", "adjacent", "wide"]))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    if kind == "ties":
        pool = np.unique(np.round(r.normal(size=draw(st.integers(2, 8))), 1)) * scale
        if pool.size < 2:
            pool = np.array([0.0, scale])
        return np.concatenate([pool, r.choice(pool, n)])
    if kind == "two":
        a, b = np.sort(r.normal(size=2)) * scale
        return np.where(np.arange(n) < draw(st.integers(1, n - 1)), a, b)
    if kind == "adjacent":
        run = [r.normal() * scale]
        for _ in range(draw(st.integers(1, 5))):
            run.append(np.nextafter(run[-1], np.inf))
        extra = r.normal(size=draw(st.integers(0, 20))) * scale
        return np.concatenate([run, r.choice(run, n), extra])
    spread = draw(st.sampled_from([0.01, 1.0, 100.0]))
    wide = np.concatenate([r.normal(size=n), r.exponential(spread, MAX_CANDIDATE_CUTS + 1)])
    return wide * scale


class TestAdaptiveBinEdges:
    def test_uniform_data_keeps_few_bins(self):
        r = np.random.default_rng(10)
        x = r.uniform(0.0, 1.0, 10000)
        edges = adaptive_bin_edges(x)
        assert edges.size - 1 <= 3
        assert edges[0] == x.min() and edges[-1] == x.max()

    def test_bimodal_data_gets_more_bins_than_uniform(self):
        r = np.random.default_rng(11)
        uni = r.uniform(0.0, 1.0, 4000)
        bim = np.concatenate([r.normal(-3.0, 0.2, 2000), r.normal(3.0, 0.2, 2000)])
        assert adaptive_bin_edges(bim).size > adaptive_bin_edges(uni).size

    def test_edges_strictly_increasing(self):
        r = np.random.default_rng(12)
        edges = adaptive_bin_edges(r.exponential(2.0, 3000))
        assert np.all(np.diff(edges) > 0)

    def test_two_distinct_values_supported(self):
        edges = adaptive_bin_edges(np.array([1.0, 1.0, 2.0]))
        assert edges[0] == 1.0 and edges[-1] == 2.0

    def test_constant_data_rejected(self):
        with pytest.raises(DomainError):
            adaptive_bin_edges(np.full(10, 3.3))

    def test_deterministic(self):
        r = np.random.default_rng(13)
        x = r.normal(size=2000)
        np.testing.assert_array_equal(adaptive_bin_edges(x), adaptive_bin_edges(x))

    @settings(max_examples=400, deadline=None)
    @given(binning_samples())
    def test_edges_equal_the_full_dp_bit_for_bit(self, values):
        assert adaptive_bin_edges(values).tobytes() == uncapped_adaptive_bin_edges(values).tobytes()

    def test_gate_table_leaf_columns_get_the_full_dp_edges(self, monkeypatch):
        binned = []

        def recording(values):
            edges = adaptive_bin_edges(values)
            binned.append((np.array(values), edges))
            return edges

        monkeypatch.setattr(mspn.leaves, "adaptive_bin_edges", recording)
        learn_mspn(make_dataset(H14_COLS, make_hybrid14(2024, 5000)), LearnConfig())
        assert len(binned) > 100
        for values, edges in binned:
            assert edges.tobytes() == uncapped_adaptive_bin_edges(values).tobytes()

    def test_dp_stops_at_the_last_count_that_can_win(self, monkeypatch):
        fills = []

        def recording(seg_ll, n_bins=None):
            fills.append((seg_ll.shape[0], n_bins))
            return dp_fill(seg_ll, n_bins)

        monkeypatch.setattr(mspn.numerics, "dp_fill", recording)
        adaptive_bin_edges(np.random.default_rng(14).uniform(0.0, 1.0, 5000))
        # two candidate bounds coincide between adjacent doubles: the finest
        # partition has an empty-width bin, bounds nothing, and every count runs
        adaptive_bin_edges(np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 2.0]))
        (n_uniform, cap_uniform), (n_adjacent, cap_adjacent) = fills
        assert n_uniform == MAX_CANDIDATE_CUTS + 1 and cap_uniform < n_uniform / 5
        assert cap_adjacent == n_adjacent

    @pytest.mark.parametrize("bad", [-1.5e100, 1e308, np.inf])
    def test_values_beyond_the_limit_rejected_without_warnings(self, bad):
        x = np.array([0.0, 1.0, 2.0, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too wide to bin"):
                adaptive_bin_edges(x)

    def test_values_at_the_limit_are_binned(self):
        x = np.linspace(-MAX_BIN_MAGNITUDE, MAX_BIN_MAGNITUDE, 301)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = adaptive_bin_edges(x)
        assert edges[0] == -MAX_BIN_MAGNITUDE and edges[-1] == MAX_BIN_MAGNITUDE
        assert edges.tobytes() == uncapped_adaptive_bin_edges(x).tobytes()


class TestWeightedLogsumexp:
    def test_matches_direct_computation(self):
        logs = np.log(np.array([[0.2], [0.5]]))
        w = np.array([0.4, 0.6])
        expected = math.log(0.4 * 0.2 + 0.6 * 0.5)
        np.testing.assert_allclose(weighted_logsumexp(logs, w), [expected])

    def test_stable_for_large_magnitudes(self):
        logs = np.array([[1000.0], [999.0]])
        w = np.array([0.5, 0.5])
        expected = 1000.0 + math.log(0.5 + 0.5 * math.exp(-1.0))
        np.testing.assert_allclose(weighted_logsumexp(logs, w), [expected])

    def test_all_minus_inf_stays_minus_inf(self):
        logs = np.full((2, 3), -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = weighted_logsumexp(logs, np.array([0.3, 0.7]))
        assert np.all(out == -np.inf)

    def test_partial_minus_inf_drops_that_component(self):
        logs = np.array([[math.log(0.5)], [-np.inf]])
        out = weighted_logsumexp(logs, np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [math.log(0.25)])

    def test_batched_columns(self):
        r = np.random.default_rng(14)
        logs = np.log(r.uniform(0.1, 1.0, size=(3, 7)))
        w = np.array([0.2, 0.3, 0.5])
        expected = np.log(np.tensordot(w, np.exp(logs), axes=1))
        np.testing.assert_allclose(weighted_logsumexp(logs, w), expected)

    def test_per_column_weights_match_one_column_at_a_time(self):
        r = np.random.default_rng(15)
        logs = np.log(r.uniform(0.1, 1.0, size=(3, 5)))
        w = r.dirichlet(np.ones(3), size=5).T
        out = weighted_logsumexp(logs, w)
        for j in range(5):
            assert out[j] == weighted_logsumexp(logs[:, j], w[:, j])

    def test_equals_the_reference_bit_for_bit(self):
        # the shift floored at the most negative double gives every column
        # the reference's bits: a live one the same maximum, a dead one -inf
        r = np.random.default_rng(17)
        for n_children in (1, 2, 9, 12):
            for shape in ((), (40,), (5, 8)):
                size = (n_children, *shape)
                logs = np.log(r.uniform(0.0, 1.0, size)) * r.choice([1.0, 1e3], size)
                logs[r.random(size) < 0.5] = -np.inf
                if shape:
                    logs[:, 0] = -np.inf  # a dead column
                    logs[1:, 1] = -np.inf  # only the first child lives
                shared = r.dirichlet(np.ones(n_children))
                tiny = shared.copy()
                tiny[::2] = (1e-300, 5e-324, 0.0)[n_children % 3]
                per_column = r.dirichlet(np.ones(n_children), size=shape).reshape(
                    (*shape, n_children)).T.reshape(size).copy()
                per_column[r.random(size) < 0.2] = 1e-310
                for w in (shared, tiny, per_column):
                    with np.errstate(divide="ignore"):
                        want = reference_logsumexp(logs, w)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = weighted_logsumexp(logs, w)
                        # each column alone, as a 1-d block
                        alone = [weighted_logsumexp(logs[:, j], w if w.ndim == 1 else w[:, j])
                                 for j in range(shape[0])] if len(shape) == 1 else []
                    assert np.shape(got) == shape
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (
                        n_children, shape)
                    if alone:
                        assert np.array(alone).tobytes() == want.tobytes(), n_children

    def test_a_column_does_not_depend_on_the_others(self):
        # the same column alone, in a small block and in a wide one gets
        # the same bits, for child counts on both sides of 8
        r = np.random.default_rng(16)
        for n_children in (2, 9, 12):
            logs = np.log(r.uniform(0.0, 1.0, size=(n_children, 3000)))
            logs[r.random(logs.shape) < 0.75] = -np.inf
            w = r.dirichlet(np.ones(n_children))
            wide = weighted_logsumexp(logs, w)
            assert np.any(wide == -np.inf) and np.any(np.isfinite(wide))
            for j in r.choice(3000, size=40, replace=False):
                assert np.array_equal(weighted_logsumexp(logs[:, j:j + 1], w), wide[j:j + 1])
                assert np.array_equal(weighted_logsumexp(logs[:, j:j + 7], w), wide[j:j + 7])
