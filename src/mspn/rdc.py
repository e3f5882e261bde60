"""Nonparametric dependency machinery.

Dependence between variables of any kind is scored by rank-transforming
each variable, pushing the ranks through random sine feature maps, and
taking the largest canonical correlation of the feature blocks. On top of
that one coefficient sit the two decomposition moves of the structure
learner: splitting variables into independent groups (connected components
of the thresholded dependency graph) and conditioning rows into clusters
(k-means on the concatenated features).

Equal values carry equal features, so the work runs on distinct values:
each variable is ranked, projected and whitened once per distinct value,
and its block is gathered to the rows only for the product of a pair;
:func:`rdc` and :func:`split_features` score a pair from the same
whitened blocks, so they give it the same bits. Before it gathers a
pair, the column split bounds the pair's score from the counts of its
pairs of distinct values (``numerics.cca_score_bound``), and a pair that
bound puts below the threshold gets no score: it could not join. Every
other pair is scored exactly, so the groups and the scored edges are
those that scoring every pair exactly gives. Row clustering embeds
each distinct data row once, with ids taken from the data, never from
the features.

All randomness flows through :class:`~mspn.numerics.SeedScope`, keyed by
(seed, node path, purpose, variable), so results are reproducible
and symmetric in the variable pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, copula_transform, one_hot
from .errors import DomainError
from .numerics import (
    SeedScope,
    SineProjection,
    _whiten,
    _Whitened,
    cca_max_correlation,
    cca_score_bound,
    is_integer,
    kmeans,
)

# purpose tags for seed streams; never reuse values across purposes
_SPLIT_TAG = 1
_CLUSTER_TAG = 2
_KMEANS_TAG = 3


@dataclass(frozen=True)
class DependencyGraph:
    """Thresholded dependence edges and the variable groups they connect.

    Only the edges that joined two groups are kept, so they form a spanning
    forest of the thresholded all-pairs graph, with the same components.
    """

    edges: tuple[tuple[int, int, float], ...]  # (i, j, score) with i < j, in scoring order
    groups: tuple[tuple[int, ...], ...]  # connected components, each ascending


@dataclass(frozen=True)
class SamplePartition:
    """Disjoint row-index clusters covering all rows, with proportions."""

    clusters: tuple[np.ndarray, ...]
    proportions: np.ndarray


def _distinct_features(dataset: Dataset, v: int, config, seeds: SeedScope,
                       tag: int) -> tuple[np.ndarray, np.ndarray]:
    """Sine features of variable ``v``'s distinct values, and each row's value id.

    Each distinct value is ranked once from the counts of the values at or
    below it, and categorical codes are one-hot expanded with each
    indicator column ranked on its own, giving a multivariate block. Row
    ``r``'s features are ``features[ids[r]]``, so equal values share one
    computed feature row.
    """
    st = dataset.schema.stat_type(v)
    values, ids, counts = np.unique(dataset.column(v), return_inverse=True, return_counts=True)
    if st.is_categorical:
        indicators = one_hot(values, st.arity)
        ranks = np.column_stack(
            [copula_transform(indicators[:, c], counts) for c in range(st.arity)]
        )
    else:
        ranks = copula_transform(values, counts)[:, None]
    proj = SineProjection.draw(
        seeds.rng(tag, v), ranks.shape[1], config.proj_features, config.proj_scale
    )
    return proj.transform(ranks), ids


def _split_block(dataset: Dataset, v: int, config, seeds: SeedScope) -> _Whitened | None:
    """Variable ``v``'s split features whitened on its distinct values; None if constant.

    Whitening depends on one variable only, so a caller scoring many pairs
    prepares each variable once.
    """
    col = dataset.column(v)
    if np.all(col == col[0]):
        return None
    features, ids = _distinct_features(dataset, v, config, seeds, _SPLIT_TAG)
    return _whiten(features, ids=ids)


def rdc(dataset: Dataset, i: int, j: int, config, seeds: SeedScope | None = None) -> float:
    """Randomized dependence coefficient between variables ``i`` and ``j``.

    Symmetric and deterministic given the seed scope; invariant under
    strictly increasing transformations of either variable because only
    ranks enter the feature maps. Constant columns score exactly 0. It is
    the score :func:`split_features` gives the pair under the same scope
    whenever the split scores the pair exactly; a pair the count bound
    rejects gets no score there.
    """
    if not all(is_integer(v) and 0 <= v < dataset.n_cols for v in (i, j)):
        raise DomainError("variable indices must be integers in range")
    if i == j:
        raise DomainError("rdc needs two distinct variables")
    if seeds is None:
        seeds = SeedScope(config.seed)
    a, b = (_split_block(dataset, v, config, seeds) for v in sorted((i, j)))
    if a is None or b is None:
        return 0.0
    return cca_max_correlation(a, b)


def split_features(dataset: Dataset, threshold: float, config,
                   seeds: SeedScope | None = None) -> DependencyGraph:
    """Variable groups: the components of the pairs scoring strictly above ``threshold``.

    A single group means no independence split exists at this threshold;
    the caller decides what to do with that. Pairs are scored in order
    (``i`` ascending, then ``j``), skipping a pair whose two variables are
    already joined (union-find): its score could not change the
    components. A pair of few distinct values is first bounded from the
    counts of its value pairs (``cca_score_bound``, no gather), and
    skipped when the bound is below ``threshold``: its exact score could
    not exceed it. Every other pair (kept, undecided, or with too many
    distinct values to count) takes the exact path, so each edge keeps
    its exact score and the groups and edges are those of scoring every
    pair exactly.
    """
    if dataset.n_cols < 2:
        raise DomainError("feature splitting needs at least two variables")
    if seeds is None:
        seeds = SeedScope(config.seed)
    n = dataset.n_cols
    white = [_split_block(dataset, v, config, seeds) for v in range(n)]
    # only the pair being scored is held per row, each block gathered into
    # one of two buffers
    blocks = np.empty((2, dataset.n_rows, config.proj_features))
    edges = []
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(n):
        if white[i] is None:
            continue
        first = None
        for j in range(i + 1, n):
            if white[j] is None or find(i) == find(j):
                continue
            # a pair whose counts bound its exact score below the threshold
            # could not join
            if cca_score_bound(white[i], white[j]) < threshold:
                continue
            if first is None:
                first = white[i].gathered(blocks[0])
            score = cca_max_correlation(first, white[j].gathered(blocks[1]))
            if score > threshold:
                edges.append((i, j, score))
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return DependencyGraph(tuple(edges), tuple(map(tuple, groups.values())))


def cluster_samples(dataset: Dataset, config, seeds: SeedScope | None = None) -> SamplePartition:
    """Split rows into (up to) two clusters in the shared sine-feature space.

    Every variable is rank-transformed and projected with its own feature
    map, the blocks are concatenated, and k-means with k=2 runs on the
    result. The embedding is built once per distinct data row: each row's
    id combines its per-variable value ids, so equal rows share one point.
    Empty clusters are dropped, so degenerate data (for example
    all-identical rows) comes back as a single cluster.
    """
    if seeds is None:
        seeds = SeedScope(config.seed)
    blocks = []
    key = None
    for v in range(dataset.n_cols):
        features, ids = _distinct_features(dataset, v, config, seeds, _CLUSTER_TAG)
        blocks.append((features, ids))
        # mixed radix of the value ids, made dense again after every
        # variable so that it stays below rows**2 and fits in int64
        key = ids if key is None else np.unique(
            key * features.shape[0] + ids, return_inverse=True
        )[1]
    # any row of a key stands for it: its rows share every value id
    row_of = np.empty(int(key.max()) + 1, dtype=np.intp)
    row_of[key] = np.arange(dataset.n_rows)
    # one block at a time into the embedding: no gathered block outlives
    # its copy
    embedded = np.empty((row_of.shape[0], sum(f.shape[1] for f, _ in blocks)))
    start = 0
    for features, ids in blocks:
        stop = start + features.shape[1]
        embedded[:, start:stop] = features[ids[row_of]]
        start = stop
    labels = kmeans(
        embedded, 2, seeds.rng(_KMEANS_TAG), config.kmeans_max_iter, config.kmeans_tol, key
    )
    clusters = []
    for label in range(int(labels.max()) + 1):
        rows = np.flatnonzero(labels == label)
        if rows.size:
            clusters.append(rows)
    sizes = np.array([c.size for c in clusters], dtype=np.float64)
    return SamplePartition(tuple(clusters), sizes / dataset.n_rows)
