"""Dependence scoring, feature-group splitting, and row clustering."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspn import CATEGORICAL, CONTINUOUS, LearnConfig, rdc
from mspn.errors import DomainError
from mspn.data import DISCRETE
from mspn.rdc import (
    _CLUSTER_TAG,
    _KMEANS_TAG,
    _SPLIT_TAG,
    _distinct_features,
    _split_block,
    cluster_samples,
    split_features,
)

from mspn.numerics import (
    SeedScope,
    _count_trace_root,
    cca_max_correlation,
    cca_score_bound,
    kmeans,
)
from conftest import HYBRID6_COLS, make_dataset, per_pair_cca_max_correlation


def _cont2(values):
    return make_dataset([("a", CONTINUOUS, None), ("b", CONTINUOUS, None)], values)


def _variable_features(dataset, v, config, seeds, tag) -> np.ndarray:
    """Variable ``v``'s sine features, one row per data row."""
    features, ids = _distinct_features(dataset, v, config, seeds, tag)
    return features[ids]


def _record_scores(monkeypatch) -> tuple[list, list]:
    """Record, in order, the exact score of every pair ``split_features`` scores
    and the count bound of every pair it checks."""
    rdc_module = sys.modules["mspn.rdc"]
    original = rdc_module.cca_max_correlation
    original_bound = rdc_module.cca_score_bound
    scores, bounds = [], []

    def recorded(a, b):
        assert np.shape(a) == np.shape(b) == (np.shape(a)[0], LearnConfig().proj_features)
        scores.append(original(a, b))
        return scores[-1]

    def recorded_bound(a, b):
        bounds.append(original_bound(a, b))
        return bounds[-1]

    monkeypatch.setattr(rdc_module, "cca_max_correlation", recorded)
    monkeypatch.setattr(rdc_module, "cca_score_bound", recorded_bound)
    return scores, bounds


def _all_pair_scores(data, cfg, seeds) -> dict:
    """Every non-constant pair's score, whitened per pair, in scoring order."""
    varying = [v for v in range(data.n_cols) if np.any(data.column(v) != data.column(v)[0])]
    feats = {v: _variable_features(data, v, cfg, seeds, _SPLIT_TAG) for v in varying}
    return {(i, j): per_pair_cca_max_correlation(feats[i], feats[j])
            for i in varying for j in varying if i < j}


def _oracle_split(oracle, threshold, n) -> tuple[list, list]:
    """The pairs left unjoined when every pair of ``oracle`` is scored in
    order, and the edges among them that join two groups."""
    group = list(range(n))
    unjoined, edges = [], []
    for (i, j), score in oracle.items():
        if group[i] == group[j]:
            continue
        unjoined.append((i, j))
        if score > threshold:
            edges.append((i, j, score))
            group = [group[i] if g == group[j] else g for g in group]
    return unjoined, edges


def _assert_filtered(oracle, unjoined, threshold, scores, bounds) -> list:
    """Check the split's calls against all-pairs exact scoring; the pairs scored.

    Every unjoined pair is bounded once, in order, and the bound is never
    below its exact score; a pair its bound leaves is scored with the
    oracle's bits, and a pair it rejects scores at or below the threshold.
    """
    assert len(bounds) == len(unjoined)
    assert all(oracle[pair] <= bound for pair, bound in zip(unjoined, bounds))
    exact = [pair for pair, bound in zip(unjoined, bounds) if not bound < threshold]
    assert scores == [oracle[pair] for pair in exact]
    assert all(oracle[pair] <= threshold for pair in unjoined if pair not in exact)
    return exact


def _union_find_groups(n, edges) -> list:
    """Connected components of ``edges`` over ``n`` variables, by smallest member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(g) for g in groups.values())


class TestRdcScore:
    def test_identical_columns_score_high(self):
        x = np.random.default_rng(0).normal(size=1000)
        ds = _cont2(np.column_stack([x, x]))
        assert rdc(ds, 0, 1, LearnConfig(seed=1)) > 0.95

    def test_independent_uniforms_score_low(self):
        r = np.random.default_rng(1)
        ds = _cont2(np.column_stack([r.uniform(0, 1, 1000), r.uniform(0, 1, 1000)]))
        assert rdc(ds, 0, 1, LearnConfig(seed=1)) < 0.15

    def test_nonmonotone_dependence_detected(self):
        r = np.random.default_rng(2)
        x = r.uniform(-1, 1, 1000)
        ds = _cont2(np.column_stack([x, x * x]))
        assert rdc(ds, 0, 1, LearnConfig(seed=2)) > 0.8

    def test_symmetric_bit_exactly(self):
        r = np.random.default_rng(3)
        x = r.uniform(-1, 1, 500)
        ds = _cont2(np.column_stack([x, np.sin(3 * x) + 0.1 * r.normal(size=500)]))
        cfg = LearnConfig(seed=4)
        assert rdc(ds, 0, 1, cfg) == rdc(ds, 1, 0, cfg)

    def test_invariant_under_strictly_increasing_transform(self):
        r = np.random.default_rng(4)
        x = r.uniform(0.1, 1, 800)
        y = x * x + 0.05 * r.normal(size=800)
        cfg = LearnConfig(seed=5)
        base = rdc(_cont2(np.column_stack([x, y])), 0, 1, cfg)
        warped = rdc(_cont2(np.column_stack([np.exp(x), y])), 0, 1, cfg)
        assert base == warped

    def test_constant_column_scores_zero(self):
        r = np.random.default_rng(5)
        ds = _cont2(np.column_stack([np.full(300, 2.0), r.normal(size=300)]))
        assert rdc(ds, 0, 1, LearnConfig(seed=6)) == 0.0

    def test_dependent_categorical_pair_detected(self, cat_pair_data):
        assert rdc(cat_pair_data, 0, 1, LearnConfig(seed=7)) > 0.5

    def test_independent_categorical_pair_low(self, cat_indep_data):
        assert rdc(cat_indep_data, 0, 1, LearnConfig(seed=8)) < 0.15

    def test_same_variable_rejected(self, cont_indep_data):
        with pytest.raises(DomainError):
            rdc(cont_indep_data, 1, 1, LearnConfig(seed=9))

    def test_out_of_range_variable_rejected(self, cont_indep_data):
        with pytest.raises(DomainError):
            rdc(cont_indep_data, 0, 5, LearnConfig(seed=9))

    def test_deterministic_given_config_seed(self, cont_indep_data):
        cfg = LearnConfig(seed=10)
        assert rdc(cont_indep_data, 0, 1, cfg) == rdc(cont_indep_data, 0, 1, cfg)

    def test_indices_must_be_integers(self, cont_indep_data):
        cfg = LearnConfig(seed=9)
        for i, j in ((0.5, 1), (True, 0), (0, False)):
            with pytest.raises(DomainError):
                rdc(cont_indep_data, i, j, cfg)
        assert rdc(cont_indep_data, np.int64(0), 1, cfg) == rdc(cont_indep_data, 0, 1, cfg)

    def test_equals_the_score_the_split_gives_the_pair(self, monkeypatch):
        r = np.random.default_rng(32)
        m = 900
        x = r.normal(size=m)
        data = make_dataset(
            [("x", CONTINUOUS, None), ("k", DISCRETE, None), ("c", CONTINUOUS, None),
             ("g", CATEGORICAL, tuple("pqr")), ("y", CONTINUOUS, None)],
            np.column_stack([x, r.binomial(8, 0.3, m) + (x > 0), np.full(m, 1.5),
                             (x > 0.5) + r.integers(0, 2, m), np.round(x ** 2, 1)]),
        )
        cfg = LearnConfig(seed=33)
        seeds = SeedScope(cfg.seed, (2, 0))
        pairs = [(i, j) for i in range(data.n_cols) for j in range(i + 1, data.n_cols)]
        scores = {pair: rdc(data, *pair, cfg, seeds) for pair in pairs}
        scored, bounds = _record_scores(monkeypatch)
        # no score exceeds 1.0, so every pair without the constant column is
        # checked, and scored unless its counts bound it below 1.0
        split_features(data, 1.0, cfg, seeds)
        exact = _assert_filtered(scores, [p for p in pairs if 2 not in p], 1.0, scored, bounds)
        # the pairs with the continuous x, and (k, y), have too many distinct
        # values to count; (k, g) and (g, y) are rejected from their counts
        assert exact == [(0, 1), (0, 3), (0, 4), (1, 4)]
        assert dict(zip(exact, scored)) == {pair: scores[pair] for pair in exact}
        assert all(s == 0.0 for (i, j), s in scores.items() if 2 in (i, j))
        assert min(scored) > 0.0 and max(scored) > 0.5


class TestDependencyGraph:
    def test_edges_only_above_threshold(self):
        r = np.random.default_rng(6)
        x = r.uniform(-1, 1, 800)
        ds = make_dataset(
            [("a", CONTINUOUS, None), ("b", CONTINUOUS, None), ("c", CONTINUOUS, None)],
            np.column_stack([x, x + 0.01 * r.normal(size=800), r.uniform(-1, 1, 800)]),
        )
        g = split_features(ds, 0.3, LearnConfig(seed=11))
        pairs = {(i, j) for i, j, _ in g.edges}
        assert (0, 1) in pairs
        assert all(2 not in p for p in pairs)
        assert all(score > 0.3 for _, _, score in g.edges)

    def test_components_via_union_find_oracle(self):
        r = np.random.default_rng(7)
        x = r.uniform(-1, 1, 700)
        y = r.uniform(-1, 1, 700)
        ds = make_dataset(
            [(n, CONTINUOUS, None) for n in "abcd"],
            np.column_stack(
                [x, x + 0.01 * r.normal(size=700), y, y + 0.01 * r.normal(size=700)]
            ),
        )
        g = split_features(ds, 0.3, LearnConfig(seed=12))
        assert list(g.groups) == _union_find_groups(4, [(i, j) for i, j, _ in g.edges])
        assert list(g.groups) == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("table", ["hybrid6_train", "cat_pair_data", "constant_column"])
    def test_every_score_equals_the_per_pair_whitening(self, table, request, monkeypatch):
        if table == "constant_column":
            values = request.getfixturevalue("hybrid6_train").values[:1500].copy()
            values[:, 3] = 4.0
            data = make_dataset(HYBRID6_COLS, values)
        else:
            data = request.getfixturevalue(table)
        cfg = LearnConfig(seed=21)
        seeds = SeedScope(cfg.seed, (0, 1))
        scored, bounds = _record_scores(monkeypatch)
        # no score exceeds 1.0, so nothing is joined and every non-constant
        # pair is checked, and scored unless its counts bound it below 1.0
        graph = split_features(data, 1.0, cfg, seeds)
        oracle = _all_pair_scores(data, cfg, seeds)
        _assert_filtered(oracle, list(oracle), 1.0, scored, bounds)
        assert graph.edges == ()
        assert graph.groups == tuple((v,) for v in range(data.n_cols))
        varying = data.n_cols - (table == "constant_column")
        assert len(oracle) == varying * (varying - 1) // 2

    @pytest.mark.parametrize("table", ["blobs2d_data", "cont_indep_data", "cat_pair_data",
                                       "cat_indep_data", "hybrid6_train", "hybrid_small_data",
                                       "mix2_data", "collider"])
    def test_joined_pairs_are_never_scored(self, table, request, monkeypatch):
        if table == "collider":
            # a and b are independent and each joins c: c, already joined to
            # a, joins b's group, so both groups must merge
            r = np.random.default_rng(8)
            a, b = r.uniform(-1, 1, 600), r.uniform(-1, 1, 600)
            data = make_dataset([(n, CONTINUOUS, None) for n in "abc"],
                                np.column_stack([a, b, a + b]))
        else:
            data = request.getfixturevalue(table)
        cfg = LearnConfig(seed=22)
        seeds = SeedScope(cfg.seed, (0,))
        oracle = _all_pair_scores(data, cfg, seeds)
        scored, bounds = _record_scores(monkeypatch)
        for threshold in (0.0, 0.05, 0.3):
            del scored[:], bounds[:]
            graph = split_features(data, threshold, cfg, seeds)
            # scoring in pair order, a pair is skipped once its ends are
            # joined, and left unscored if its counts bound it below the
            # threshold
            unjoined, want_edges = _oracle_split(oracle, threshold, data.n_cols)
            _assert_filtered(oracle, unjoined, threshold, scored, bounds)
            assert list(graph.edges) == want_edges, (table, threshold)
            assert list(graph.groups) == _union_find_groups(
                data.n_cols, [(i, j) for (i, j), s in oracle.items() if s > threshold]
            ), (table, threshold)
            if threshold == 0.0 and len(oracle) > 1:
                # every score is positive: all join, one pair per variable
                assert len(scored) == data.n_cols - 1

    def test_memory_stays_below_three_row_blocks(self):
        # 14 low-arity columns of 20 000 rows: each variable is whitened on
        # its few distinct values, and only the pair being scored is held
        # per row, where one block per variable would take 14 blocks
        r = np.random.default_rng(30)
        m = 20_000
        arities = (2, 3, 4, 5, 2, 3, 4, 5)
        segment = r.integers(0, 4, m)
        data = make_dataset(
            [(f"g{j}", CATEGORICAL, tuple("abcde"[:a])) for j, a in enumerate(arities)]
            + [(f"k{j}", DISCRETE, None) for j in range(6)],
            np.column_stack([(segment + r.integers(0, 2, m)) % a for a in arities]
                            + [r.binomial(6, 0.15 + 0.2 * segment) for _ in range(6)]),
        )
        cfg = LearnConfig(seed=31)
        tracemalloc.start()
        try:
            graph = split_features(data, 0.3, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edges
        assert peak < 3 * m * cfg.proj_features * 8


@st.composite
def small_discrete_tables(draw):
    """2-4 categorical or discrete columns of arity 2-4 over 30-300 rows,
    each following a shared latent value on a drawn share of its rows."""
    n_cols = draw(st.integers(2, 4))
    m = draw(st.integers(30, 300))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    latent = r.integers(0, 4, m)
    cols, values = [], []
    for v in range(n_cols):
        arity = draw(st.integers(2, 4))
        tied = draw(st.sampled_from((0.0, 0.3, 0.6, 0.9)))
        values.append(np.where(r.random(m) < tied, latent % arity, r.integers(0, arity, m)))
        if draw(st.booleans()):
            cols.append((f"g{v}", CATEGORICAL, tuple("pqrs"[:arity])))
        else:
            cols.append((f"k{v}", DISCRETE, None))
    return make_dataset(cols, np.column_stack(values))


class TestCountFilter:
    def test_a_pair_whose_count_trace_rounds_below_its_score_still_joins(self):
        # binary x binary: the CCA matrix has rank 1, so its trace is its top
        # eigenvalue, and only rounding parts the count path from the exact
        # one; here the count side rounds below the exact score, and the
        # threshold lies between the two
        r = np.random.default_rng(1)
        m = 200
        x = r.integers(0, 2, m)
        y = np.where(r.random(m) < 0.8, x, 1 - x)
        data = make_dataset([("a", CATEGORICAL, ("p", "q")), ("b", CATEGORICAL, ("p", "q"))],
                            np.column_stack([x, y]))
        cfg = LearnConfig(seed=1)
        a, b = (_split_block(data, v, cfg, SeedScope(cfg.seed)) for v in (0, 1))
        score = cca_max_correlation(a.gathered(), b.gathered())
        threshold = float(np.nextafter(score, -np.inf))
        assert _count_trace_root(a, b) < threshold
        graph = split_features(data, threshold, cfg)
        assert graph.edges == ((0, 1, score),)
        assert graph.groups == ((0, 1),)

    @settings(max_examples=60, deadline=None)
    @given(small_discrete_tables())
    def test_groups_and_edges_equal_all_pairs_scoring_at_every_score(self, data):
        # a threshold at a score, or just below it, is where a bound short
        # of the exact score would reject a pair that joins
        cfg = LearnConfig(seed=36)
        seeds = SeedScope(cfg.seed, (1,))
        oracle = _all_pair_scores(data, cfg, seeds)
        for score in oracle.values():
            for threshold in (score, float(np.nextafter(score, -np.inf))):
                graph = split_features(data, threshold, cfg, seeds)
                assert list(graph.edges) == _oracle_split(oracle, threshold, data.n_cols)[1]
                assert list(graph.groups) == _union_find_groups(
                    data.n_cols, [(i, j) for (i, j), s in oracle.items() if s > threshold])

    def test_most_unjoined_pairs_of_a_categorical_table_skip_the_exact_path(self, monkeypatch):
        # the benchmark's categorical table in small: low-arity categorical
        # and discrete columns, a few tied to a latent segment, the rest
        # independent noise
        r = np.random.default_rng(34)
        m = 4000
        segment = r.integers(0, 4, m)
        arities = (2, 3, 4, 5, 2, 3)
        data = make_dataset(
            [(f"g{j}", CATEGORICAL, tuple("abcde"[:a])) for j, a in enumerate(arities)]
            + [(f"k{j}", DISCRETE, None) for j in range(4)],
            np.column_stack(
                [np.where(r.random(m) < 0.75, (segment + j) % a, r.integers(0, a, m)) if j < 3
                 else r.integers(0, a, m) for j, a in enumerate(arities)]
                + [r.binomial(6, 0.15 + 0.2 * segment), r.integers(0, 5, m),
                   r.integers(0, 7, m), r.integers(0, 9, m)]),
        )
        cfg = LearnConfig(seed=35)
        seeds = SeedScope(cfg.seed)
        oracle = _all_pair_scores(data, cfg, seeds)
        unjoined, edges = _oracle_split(oracle, 0.3, data.n_cols)
        scored, bounds = _record_scores(monkeypatch)
        graph = split_features(data, 0.3, cfg, seeds)
        _assert_filtered(oracle, unjoined, 0.3, scored, bounds)
        assert list(graph.edges) == edges
        assert 2 * len(scored) < len(unjoined)

    def test_a_block_held_per_row_is_not_counted(self, cat_pair_data):
        cfg = LearnConfig(seed=37)
        a, b = (_split_block(cat_pair_data, v, cfg, SeedScope(cfg.seed)) for v in (0, 1))
        assert math.isfinite(cca_score_bound(a, b))
        assert cca_score_bound(a.gathered(), b) == math.inf
        assert cca_score_bound(a, b.gathered()) == math.inf


class TestVariableFeatures:
    def test_equal_rows_give_bit_equal_features(self):
        # k-means on distinct rows relies on it; the blocks are thousands of
        # rows tall, where a matrix product could round by position
        r = np.random.default_rng(23)
        m = 6000
        data = make_dataset(
            [("g4", CATEGORICAL, tuple("pqrs")), ("g5", CATEGORICAL, tuple("vwxyz")),
             ("k", DISCRETE, None), ("x", CONTINUOUS, None)],
            np.column_stack([r.integers(0, 4, m), r.integers(0, 5, m),
                             r.binomial(12, 0.4, m), np.round(r.normal(size=m), 1)]),
        )
        cfg = LearnConfig(seed=24)
        for v in range(data.n_cols):
            for tag in (_SPLIT_TAG, _CLUSTER_TAG):
                feats = _variable_features(data, v, cfg, SeedScope(cfg.seed, (1,)), tag)
                values, first, ids = np.unique(
                    data.column(v), return_index=True, return_inverse=True
                )
                assert feats.shape[0] == m and values.size < m / 10
                assert np.array_equal(feats, feats[first][ids]), (v, tag)


class TestSplitFeatures:
    def test_independent_columns_become_singletons(self, cont_indep_data):
        part = split_features(cont_indep_data, 0.3, LearnConfig(seed=13))
        assert sorted(map(tuple, part.groups)) == [(0,), (1,)]

    def test_duplicate_pair_groups_together(self):
        r = np.random.default_rng(8)
        x = r.uniform(-1, 1, 1000)
        ds = make_dataset(
            [("a", CONTINUOUS, None), ("b", CONTINUOUS, None), ("c", CONTINUOUS, None)],
            np.column_stack([x, x, r.uniform(-1, 1, 1000)]),
        )
        part = split_features(ds, 0.3, LearnConfig(seed=14))
        assert sorted(map(tuple, part.groups)) == [(0, 1), (2,)]

    def test_perfectly_correlated_pair_is_one_group(self):
        x = np.random.default_rng(9).normal(size=500)
        part = split_features(_cont2(np.column_stack([x, x])), 0.3, LearnConfig(seed=15))
        assert list(map(tuple, part.groups)) == [(0, 1)]

    def test_groups_cover_all_variables_disjointly(self, hybrid6_train):
        part = split_features(hybrid6_train, 0.3, LearnConfig(seed=16))
        flat = sorted(v for grp in part.groups for v in grp)
        assert flat == list(range(6))

    def test_single_column_rejected(self, uni1d_data):
        with pytest.raises(DomainError):
            split_features(uni1d_data, 0.3, LearnConfig(seed=17))


class TestClusterSamples:
    def test_separated_blobs_recovered(self):
        r = np.random.default_rng(10)
        half = 250
        pts = np.vstack(
            [r.normal(0.0, 0.4, (half, 2)), r.normal(8.0, 0.4, (half, 2))]
        )
        truth = np.repeat([0, 1], half)
        perm = r.permutation(2 * half)
        ds = _cont2(pts[perm])
        part = cluster_samples(ds, LearnConfig(seed=18))
        assert len(part.clusters) == 2
        labels = np.empty(2 * half, dtype=int)
        for c, rows in enumerate(part.clusters):
            labels[list(rows)] = c
        agree = (labels == truth[perm]).mean()
        assert max(agree, 1 - agree) >= 0.95

    def test_two_distinct_rows_split_evenly(self):
        ds = _cont2(np.array([[0.0, 0.0], [1.0, 1.0]]))
        part = cluster_samples(ds, LearnConfig(seed=19))
        assert len(part.clusters) == 2
        np.testing.assert_allclose(sorted(part.proportions), [0.5, 0.5])

    def test_identical_rows_collapse_to_one_cluster(self):
        ds = _cont2(np.full((30, 2), 1.5))
        part = cluster_samples(ds, LearnConfig(seed=20))
        assert len(part.clusters) == 1
        np.testing.assert_allclose(part.proportions, [1.0])

    def test_every_row_appears_exactly_once(self, blobs2d_data):
        part = cluster_samples(blobs2d_data, LearnConfig(seed=21))
        seen = sorted(v for rows in part.clusters for v in rows)
        assert seen == list(range(blobs2d_data.n_rows))
        assert abs(sum(part.proportions) - 1.0) <= 1e-12

    def test_proportions_match_cluster_sizes(self, hybrid6_train):
        part = cluster_samples(hybrid6_train, LearnConfig(seed=22))
        for rows, w in zip(part.clusters, part.proportions):
            assert w == len(rows) / hybrid6_train.n_rows

    def test_memory_stays_near_the_embedding(self):
        # 6000 rows of 8 five-valued columns hold 5946 distinct rows, whose
        # 160-dim embedding takes 7.6 MB. Stacked from gathered blocks and
        # clustered with whole-array distances, the call peaked at 2.2 times
        # that; filled in place and clustered by chunks, at 1.37 times
        # (tracemalloc, numpy 2), so 1.7 leaves margin either way
        values = np.random.default_rng(27).integers(0, 5, (6000, 8))
        data = make_dataset([(f"d{v}", DISCRETE, None) for v in range(8)], values)
        cfg = LearnConfig(seed=28)
        embedded_bytes = np.unique(values, axis=0).shape[0] * 8 * cfg.proj_features * 8
        cluster_samples(data, cfg)
        tracemalloc.start()
        try:
            cluster_samples(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * embedded_bytes

    @pytest.mark.parametrize("table", ["wide distinct", "hybrid6", "hybrid6 discrete"])
    def test_rows_cluster_as_k_means_on_every_row(self, table, hybrid6_train):
        cfg = LearnConfig(seed=26)
        if table == "wide distinct":
            # rows 2i and 2i + 1 differ in column 0 only; the 13 other columns
            # hold 20 000 distinct values each, and 20 000**13 is a multiple
            # of 2**64, so a mixed-radix key not made dense after each
            # variable would overflow and lose column 0
            r = np.random.default_rng(25)
            m = 40000
            values = np.column_stack([r.permutation(m)] + [
                np.repeat(r.permutation(m // 2), 2) + 0.5 for _ in range(13)
            ])
            data = make_dataset([(f"x{v}", CONTINUOUS, None) for v in range(14)], values)
            cfg = LearnConfig(seed=26, proj_features=4)
        else:
            # the categorical and discrete columns alone repeat most rows
            data = hybrid6_train if table == "hybrid6" else hybrid6_train.select(cols=[2, 3, 5])
        seeds = SeedScope(cfg.seed, (0,))
        embedded = np.hstack([
            _variable_features(data, v, cfg, seeds, _CLUSTER_TAG) for v in range(data.n_cols)
        ])
        labels = kmeans(embedded, 2, seeds.rng(_KMEANS_TAG), cfg.kmeans_max_iter, cfg.kmeans_tol)
        part = cluster_samples(data, cfg, seeds)
        assert len(part.clusters) == 2
        for rows in part.clusters:
            assert np.array_equal(rows, np.flatnonzero(labels == labels[rows[0]]))
