"""Dependence scoring, feature-group splitting, and row clustering."""

import math
import sys
import tracemalloc
from types import SimpleNamespace

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
    _SplitVariable,
    cluster_samples,
    split_features,
)

from mspn.numerics import (
    SeedScope,
    _count_block,
    _count_margin,
    cca_count_score,
    cca_max_correlation,
    kmeans,
)
from conftest import HYBRID6_COLS, make_dataset, per_pair_cca_max_correlation


def _cont2(values):
    return make_dataset([("a", CONTINUOUS, None), ("b", CONTINUOUS, None)], values)


def _variable_features(dataset, v, config, seeds, tag) -> np.ndarray:
    """Variable ``v``'s sine features, one row per data row."""
    features, ids = _distinct_features(dataset, v, config, seeds, tag)
    return features[ids]


def _record_scores(monkeypatch) -> SimpleNamespace:
    """Record, in order, what ``split_features`` computes for its pairs.

    ``exact`` holds the score of every pair scored exactly, ``counted`` one
    (returned score, count score, rho, E) per count score asked for, and
    ``whitened`` the row ids of every block whitened on its rows.
    """
    rdc_module = sys.modules["mspn.rdc"]
    original = rdc_module.cca_max_correlation
    original_count = rdc_module.cca_count_score
    original_whiten = rdc_module._whiten
    calls = SimpleNamespace(exact=[], counted=[], whitened=[])

    def recorded(a, b):
        assert np.shape(a) == np.shape(b) == (np.shape(a)[0], LearnConfig().proj_features)
        calls.exact.append(original(a, b))
        return calls.exact[-1]

    def recorded_count(a, b, threshold):
        out = original_count(a, b, threshold)
        # at -inf any finite margin decides, so this is the count score itself
        calls.counted.append((out, original_count(a, b, -math.inf), *_count_margin(a, b)))
        return out

    def recorded_whiten(a, ids=None):
        calls.whitened.append(ids)
        return original_whiten(a, ids=ids)

    monkeypatch.setattr(rdc_module, "cca_max_correlation", recorded)
    monkeypatch.setattr(rdc_module, "cca_count_score", recorded_count)
    monkeypatch.setattr(rdc_module, "_whiten", recorded_whiten)
    return calls


def _clear(calls) -> None:
    for recorded in vars(calls).values():
        recorded.clear()


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


def _assert_split(oracle, data, threshold, graph, calls) -> list:
    """Check one split against all-pairs exact scoring; the pairs scored exactly.

    Every unjoined pair of few distinct values gets one count score, in
    order, and its exact score lies within the proven margin around it; a
    pair the counts decide gets the exact path's decision, and every other
    unjoined pair is scored exactly with the oracle's bits. The edges join
    the same pairs in the same order: an exactly scored edge carries the
    oracle's bits, a count-joined one its count score and an exact score
    above the threshold. Only the variables of exactly scored pairs are
    whitened on their rows, each once.
    """
    unjoined, want_edges = _oracle_split(oracle, threshold, data.n_cols)
    inverse = [np.unique(data.column(v), return_inverse=True)[1] for v in range(data.n_cols)]
    countable = [(i, j) for i, j in unjoined
                 if 4 * (inverse[i].max() + 1) * (inverse[j].max() + 1) <= data.n_rows]
    assert len(calls.counted) == len(countable)
    decided = {}
    for pair, (out, count, rho, err) in zip(countable, calls.counted):
        if math.isfinite(rho):
            assert count * (1 - rho) - err <= oracle[pair] <= count * (1 + rho) + err, pair
        if out is not None:
            assert (out > threshold) == (oracle[pair] > threshold), pair
            decided[pair] = out
    exact = [pair for pair in unjoined if pair not in decided]
    assert calls.exact == [oracle[pair] for pair in exact]
    assert [edge[:2] for edge in graph.edges] == [edge[:2] for edge in want_edges]
    for i, j, score in graph.edges:
        assert score == decided.get((i, j), oracle[(i, j)]) and oracle[(i, j)] > threshold
    white = sorted({v for pair in exact for v in pair})
    assert len(calls.whitened) == len(white)
    assert all(any(np.array_equal(inverse[v], ids) for ids in calls.whitened) for v in white)
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
        calls = _record_scores(monkeypatch)
        # no score exceeds 1.0, so every pair without the constant column is
        # checked, and scored exactly unless its counts decide it
        graph = split_features(data, 1.0, cfg, seeds)
        exact = _assert_split({p: s for p, s in scores.items() if 2 not in p}, data, 1.0,
                              graph, calls)
        # the pairs with the continuous x, and (k, y), have too many distinct
        # values to count; (k, g) and (g, y) are rejected from their counts
        assert exact == [(0, 1), (0, 3), (0, 4), (1, 4)]
        assert dict(zip(exact, calls.exact)) == {pair: scores[pair] for pair in exact}
        assert all(s == 0.0 for (i, j), s in scores.items() if 2 in (i, j))
        assert min(calls.exact) > 0.0 and max(calls.exact) > 0.5


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
        calls = _record_scores(monkeypatch)
        # no score exceeds 1.0, so nothing is joined and every non-constant
        # pair is checked, and scored exactly unless its counts decide it
        graph = split_features(data, 1.0, cfg, seeds)
        oracle = _all_pair_scores(data, cfg, seeds)
        _assert_split(oracle, data, 1.0, graph, calls)
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
        calls = _record_scores(monkeypatch)
        for threshold in (0.0, 0.05, 0.3):
            _clear(calls)
            graph = split_features(data, threshold, cfg, seeds)
            # scoring in pair order, a pair is skipped once its ends are
            # joined, and scored exactly only if its counts cannot decide it
            _assert_split(oracle, data, threshold, graph, calls)
            assert list(graph.groups) == _union_find_groups(
                data.n_cols, [(i, j) for (i, j), s in oracle.items() if s > threshold]
            ), (table, threshold)
            if threshold == 0.0 and len(oracle) > 1:
                # every score is positive: all join, one pair per variable
                decided = sum(out is not None for out, *_ in calls.counted)
                assert len(calls.exact) + decided == data.n_cols - 1

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

    def test_memory_holds_one_block_per_many_valued_variable(self):
        # 8 continuous columns of 5 000 distinct values: no pair can be
        # counted, so a whitened variable keeps no raw features beside its
        # whitened block; with the two gather buffers and whitening's
        # temporaries that stays under n + 8 row blocks, where keeping both
        # tables of every variable would take about 2n + 4
        r = np.random.default_rng(32)
        m, n = 5_000, 8
        z = r.normal(size=m)
        data = make_dataset([(f"x{j}", CONTINUOUS, None) for j in range(n)],
                            np.column_stack([z * (j % 2) + r.normal(size=m) for j in range(n)]))
        cfg = LearnConfig(seed=33)
        tracemalloc.start()
        try:
            graph = split_features(data, 0.3, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edges
        assert peak < (n + 8) * m * cfg.proj_features * 8


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


def _binary_pair(seed) -> tuple:
    """A dependent binary x binary table, its exact score and its count score.

    The CCA matrix has rank 1, so the count score is its top singular
    value and only rounding parts it from the exact score: a few hundred
    to a few thousand ulps here, through the small ridge.
    """
    r = np.random.default_rng(seed)
    m = 200
    x = r.integers(0, 2, m)
    y = np.where(r.random(m) < 0.8, x, 1 - x)
    data = make_dataset([("a", CATEGORICAL, ("p", "q")), ("b", CATEGORICAL, ("p", "q"))],
                        np.column_stack([x, y]))
    cfg = LearnConfig(seed=1)
    seeds = SeedScope(cfg.seed)
    a, b = (_SplitVariable(data, v, cfg, seeds) for v in (0, 1))
    return data, cfg, cca_max_correlation(a.white.gathered(), b.white.gathered()), cca_count_score(
        a.counted, b.counted, -math.inf)


class TestCountFilter:
    def test_a_pair_whose_count_score_rounds_below_its_score_still_joins(self, monkeypatch):
        # the threshold lies between the count score and the exact one
        data, cfg, score, count = _binary_pair(2)
        threshold = float(np.nextafter(score, -np.inf))
        assert count < threshold
        calls = _record_scores(monkeypatch)
        graph = split_features(data, threshold, cfg)
        assert calls.exact == [score]
        assert graph.edges == ((0, 1, score),)
        assert graph.groups == ((0, 1),)

    def test_a_pair_whose_count_score_rounds_above_its_score_does_not_join(self, monkeypatch):
        # the mirror: the count score is above a threshold at the exact score
        data, cfg, score, count = _binary_pair(1)
        assert count > score
        calls = _record_scores(monkeypatch)
        graph = split_features(data, score, cfg)
        assert calls.exact == [score]
        assert graph.edges == ()
        assert graph.groups == ((0,), (1,))

    @settings(max_examples=60, deadline=None)
    @given(small_discrete_tables())
    def test_groups_and_edges_equal_all_pairs_scoring_at_every_score(self, data):
        # a threshold at a score, or just below it, is where a margin short
        # of the rounding gap would decide a pair the wrong way
        cfg = LearnConfig(seed=36)
        seeds = SeedScope(cfg.seed, (1,))
        oracle = _all_pair_scores(data, cfg, seeds)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _record_scores(monkeypatch)
            for score in oracle.values():
                for threshold in (score, float(np.nextafter(score, -np.inf))):
                    _clear(calls)
                    graph = split_features(data, threshold, cfg, seeds)
                    _assert_split(oracle, data, threshold, graph, calls)
                    assert list(graph.groups) == _union_find_groups(
                        data.n_cols, [(i, j) for (i, j), s in oracle.items() if s > threshold])

    def test_a_near_constant_feature_column_leaves_its_pairs_undecided(self):
        # a column's rounded mean moves it by more, in units of its scale, as
        # the scale shrinks: the margin grows, and a scale within rounding of
        # zero gives no margin at all
        r = np.random.default_rng(38)
        m = 1000
        ids = r.integers(0, 3, m)
        other = _count_block(r.normal(size=(4, 20)), r.integers(0, 4, m))
        table = r.normal(size=(3, 20))
        margins = []
        for spread in (1e-1, 1e-4, 1e-7):
            table[:, 0] = 0.5 + spread * np.arange(3)
            margins.append(_count_margin(_count_block(table, ids), other))
        assert margins == sorted(margins) and len(set(margins)) == 3
        assert all(math.isfinite(rho) and rho < 0.05 for rho, _ in margins)
        table[:, 0] = 0.5 + 1e-14 * np.arange(3)
        flat = _count_block(table, ids)
        assert _count_margin(flat, other) == (math.inf, math.inf)
        assert cca_count_score(flat, other, 0.5) is None
        assert cca_count_score(flat, other, -math.inf) is None

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
        calls = _record_scores(monkeypatch)
        graph = split_features(data, 0.3, cfg, seeds)
        exact = _assert_split(oracle, data, 0.3, graph, calls)
        # most unjoined pairs, and most joined ones, skip the exact path
        assert 2 * len(exact) < len(unjoined)
        assert 2 * sum((i, j) in exact for i, j, _ in graph.edges) < len(edges)


class TestVariableFeatures:
    @pytest.mark.parametrize("kind", [CONTINUOUS, CATEGORICAL])
    def test_features_are_the_sine_map_of_the_ranks(self, kind):
        # from scratch: each distinct value's rank among the rows (per
        # indicator column for categorical codes), then sin(r W' + b) with W
        # and then b drawn from the variable's stream at variance proj_scale
        r = np.random.default_rng(29)
        m, arity = 3000, 50
        if kind == CONTINUOUS:
            column = np.round(r.normal(size=m), 2)
            data = make_dataset([("x", CONTINUOUS, None)], column[:, None])
        else:
            column = r.integers(0, arity, m).astype(float)
            labels = tuple(f"l{i}" for i in range(arity))
            data = make_dataset([("g", CATEGORICAL, labels)], column[:, None])
        cfg = LearnConfig(seed=30, proj_features=400, proj_scale=0.25)
        seeds = SeedScope(cfg.seed, (2,))
        features, ids = _distinct_features(data, 0, cfg, seeds, _CLUSTER_TAG)
        values = np.unique(column)
        assert np.array_equal(values[ids], column)
        inputs = values[:, None] == np.arange(arity) if kind == CATEGORICAL else values[:, None]
        rows = np.sort(inputs[ids], axis=0)
        ranks = np.column_stack([np.searchsorted(rows[:, c], inputs[:, c], side="right") / m
                                 for c in range(inputs.shape[1])])
        rng = seeds.rng(_CLUSTER_TAG, 0)
        w = rng.normal(0.0, 0.5, size=(cfg.proj_features, inputs.shape[1]))
        b = rng.normal(0.0, 0.5, size=cfg.proj_features)
        assert features.tobytes() == np.sin(ranks @ w.T + b).tobytes()
        # proj_scale is the weights' variance, not their spread: sd 0.5 over
        # 400 (continuous) or 20 000 draws
        assert abs(w.std() - 0.5) < (0.05 if kind == CONTINUOUS else 0.01)

    def test_draws_are_reproducible_and_keyed_by_variable_and_tag(self):
        # two equal columns: only the stream key tells their features apart
        x = np.round(np.random.default_rng(31).normal(size=500), 2)
        data = _cont2(np.column_stack([x, x]))
        cfg = LearnConfig(seed=32)

        def features(v, tag):
            return _distinct_features(data, v, cfg, SeedScope(cfg.seed, (1,)), tag)[0]

        assert features(0, _SPLIT_TAG).tobytes() == features(0, _SPLIT_TAG).tobytes()
        assert not np.array_equal(features(0, _SPLIT_TAG), features(1, _SPLIT_TAG))
        assert not np.array_equal(features(0, _SPLIT_TAG), features(0, _CLUSTER_TAG))

    @pytest.mark.parametrize("kind", [CONTINUOUS, CATEGORICAL])
    def test_one_feature_row_per_distinct_value(self, kind):
        r = np.random.default_rng(33)
        if kind == CONTINUOUS:
            column = np.round(r.normal(size=700), 1)
            data = make_dataset([("x", CONTINUOUS, None)], column[:, None])
        else:
            column = r.integers(0, 6, 700).astype(float)
            data = make_dataset([("g", CATEGORICAL, tuple("abcdef"))], column[:, None])
        cfg = LearnConfig(seed=34, proj_features=7)
        features, ids = _distinct_features(data, 0, cfg, SeedScope(cfg.seed), _SPLIT_TAG)
        assert features.shape == (np.unique(column).size, 7)
        assert ids.shape == (700,)
        assert np.all(np.abs(features) <= 1.0)

    def test_an_absent_category_keeps_its_weight_column(self):
        # the draw is shaped by the schema's arity, not by the codes present,
        # so a slice missing a category reads its stream the same way; the
        # absent code's indicator is 0 on every row, which ranks to 1
        r = np.random.default_rng(35)
        column = r.integers(0, 2, 400).astype(float)
        data = make_dataset([("g", CATEGORICAL, tuple("abc"))], column[:, None])
        cfg = LearnConfig(seed=36, proj_features=9)
        seeds = SeedScope(cfg.seed)
        features, _ = _distinct_features(data, 0, cfg, seeds, _CLUSTER_TAG)
        share0 = np.count_nonzero(column == 0) / column.size
        share1 = np.count_nonzero(column == 1) / column.size
        ranks = np.array([[1.0, share0, 1.0], [share1, 1.0, 1.0]])
        rng = seeds.rng(_CLUSTER_TAG, 0)
        w = rng.normal(0.0, math.sqrt(cfg.proj_scale), size=(9, 3))
        b = rng.normal(0.0, math.sqrt(cfg.proj_scale), size=9)
        assert features.tobytes() == np.sin(ranks @ w.T + b).tobytes()

    def test_equal_rows_give_bit_equal_features(self):
        # two-means on distinct rows relies on it; the blocks are thousands of
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
        labels = kmeans(embedded, seeds.rng(_KMEANS_TAG), cfg.kmeans_max_iter, cfg.kmeans_tol)
        part = cluster_samples(data, cfg, seeds)
        assert len(part.clusters) == 2
        for rows in part.clusters:
            assert np.array_equal(rows, np.flatnonzero(labels == labels[rows[0]]))
