"""Nonparametric dependency machinery.

Dependence between variables of any kind is scored by rank-transforming
each variable, pushing the ranks through a random sine feature map
``sin(W r + b)`` (drawn here, per variable, in ``_distinct_features``),
and taking the largest canonical correlation of the feature blocks. On
top of that one coefficient sit the two decomposition moves of the
structure learner: splitting variables into independent groups (connected
components of the thresholded dependency graph) and conditioning rows into
two clusters (two-means on the concatenated features).

Equal values carry equal features, so the work runs on distinct values:
each variable is ranked and projected once per distinct value. The column
split first scores a pair of few distinct values from the counts of its
pairs of distinct values (``numerics.cca_count_score``), on blocks
standardized and whitened from those counts, and that count score decides
the pair whenever its proven margin leaves the threshold on one side.
Only an undecided pair, or one with too many distinct values to count,
takes the exact path: its variables are whitened on their rows on first
use and the pair's blocks gathered to the rows for the product. So the
groups are those that scoring every pair exactly gives. :func:`rdc` is
always exact, and equals the split's score for every pair the split
scores exactly. Row clustering embeds each distinct data row once, with
ids taken from the data, never from the features.

All randomness flows through :class:`~mspn.numerics.SeedScope`, keyed by
(seed, node path, purpose, variable), so results are reproducible
and symmetric in the variable pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, copula_transform
from .errors import DomainError
from .numerics import (
    SeedScope,
    _count_block,
    _Counted,
    _whiten,
    _Whitened,
    cca_count_score,
    cca_max_correlation,
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
    An edge's score is the pair's exact score or, for a pair joined from
    its counts, its count score (the exact score is then proven above the
    threshold).
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
    below it, and categorical codes are expanded to indicators with each
    indicator column ranked on its own, giving a multivariate block. The
    ranks ``r`` map to ``sin(r @ W.T + b)``, where ``W`` (``proj_features``
    by inputs) and then ``b`` are drawn from ``seeds.rng(tag, v)`` with mean
    0 and variance ``proj_scale``, so the features' inner products
    approximate a shift-invariant kernel on the ranks. Row ``r``'s features
    are ``features[ids[r]]``, so equal values share one computed feature
    row.
    """
    st = dataset.schema.stat_type(v)
    values, ids, counts = np.unique(dataset.column(v), return_inverse=True, return_counts=True)
    if st.is_categorical:
        indicators = values[:, None] == np.arange(st.arity)
        ranks = np.column_stack(
            [copula_transform(indicators[:, c], counts) for c in range(st.arity)]
        )
    else:
        ranks = copula_transform(values, counts)[:, None]
    rng = seeds.rng(tag, v)
    std = math.sqrt(config.proj_scale)
    weights = rng.normal(0.0, std, size=(config.proj_features, ranks.shape[1]))
    offsets = rng.normal(0.0, std, size=config.proj_features)
    return np.sin(ranks @ weights.T + offsets), ids


def _countable(ka: int, kb: int, rows: int) -> bool:
    """Whether a pair of ``ka`` and ``kb`` distinct values is scored from its counts."""
    return 4 * ka * kb <= rows


class _SplitVariable:
    """One variable's split features, counted and whitened each on first use.

    Whitening depends on one variable only, so a caller scoring many pairs
    prepares each variable once; ``constant`` marks a column of one value,
    which is never scored.
    """

    def __init__(self, dataset: Dataset, v: int, config, seeds: SeedScope):
        col = dataset.column(v)
        self.constant = bool(np.all(col == col[0]))
        self._source = (dataset, v, config, seeds, _SPLIT_TAG)

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return _distinct_features(*self._source)

    @cached_property
    def arity(self) -> int:
        return self.distinct[0].shape[0]

    @cached_property
    def counted(self) -> _Counted:
        return _count_block(*self.distinct)

    @cached_property
    def white(self) -> _Whitened:
        features, ids = self.distinct
        if not _countable(self.arity, 2, ids.shape[0]):
            # no partner has fewer than two values, so no pair of this
            # variable is counted: its raw features can go
            del self.distinct
        return _whiten(features, ids=ids)


def rdc(dataset: Dataset, i: int, j: int, config, seeds: SeedScope | None = None) -> float:
    """Randomized dependence coefficient between variables ``i`` and ``j``.

    Symmetric and deterministic given the seed scope; invariant under
    strictly increasing transformations of either variable because only
    ranks enter the feature maps. Constant columns score exactly 0. It is
    the score :func:`split_features` gives the pair under the same scope
    whenever the split scores the pair exactly; a pair its counts decide
    gets no exact score there.
    """
    if not all(is_integer(v) and 0 <= v < dataset.n_cols for v in (i, j)):
        raise DomainError("variable indices must be integers in range")
    if i == j:
        raise DomainError("rdc needs two distinct variables")
    if seeds is None:
        seeds = SeedScope(config.seed)
    a, b = (_SplitVariable(dataset, v, config, seeds) for v in sorted((i, j)))
    if a.constant or b.constant:
        return 0.0
    return cca_max_correlation(a.white, b.white)


def split_features(dataset: Dataset, threshold: float, config,
                   seeds: SeedScope | None = None) -> DependencyGraph:
    """Variable groups: the components of the pairs scoring strictly above ``threshold``.

    A single group means no independence split exists at this threshold;
    the caller decides what to do with that. Pairs are scored in order
    (``i`` ascending, then ``j``), skipping a pair whose two variables are
    already joined (union-find): its score could not change the
    components. A pair of few distinct values (``4 ka kb <= rows``) is
    first scored from the counts of its value pairs
    (``cca_count_score``, no gather), which decides it whenever its proven
    margin leaves the threshold on one side. Every other pair takes the
    exact path, and a variable is whitened on its rows only for its first
    such pair. So the groups, and the edges' pairs and order, are those of
    scoring every pair exactly; a count-joined edge carries its count score.
    """
    if dataset.n_cols < 2:
        raise DomainError("feature splitting needs at least two variables")
    if seeds is None:
        seeds = SeedScope(config.seed)
    n, m = dataset.n_cols, dataset.n_rows
    var = [_SplitVariable(dataset, v, config, seeds) for v in range(n)]
    # only the pair being scored exactly is held per row, each block gathered
    # into one of two buffers
    blocks = np.empty((2, m, config.proj_features))
    edges = []
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in range(n):
        if var[i].constant:
            continue
        first = None
        for j in range(i + 1, n):
            if var[j].constant or find(i) == find(j):
                continue
            score = None
            if _countable(var[i].arity, var[j].arity, m):
                score = cca_count_score(var[i].counted, var[j].counted, threshold)
            if score is None:
                if first is None:
                    first = var[i].white.gathered(blocks[0])
                score = cca_max_correlation(first, var[j].white.gathered(blocks[1]))
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
    map, the blocks are concatenated, and two-means runs on the result.
    The embedding is built once per distinct data row: each row's id
    combines its per-variable value ids, so equal rows share one point.
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
    labels = kmeans(embedded, seeds.rng(_KMEANS_TAG), config.kmeans_max_iter,
                    config.kmeans_tol, key)
    clusters = [rows for rows in (np.flatnonzero(labels == c) for c in (0, 1)) if rows.size]
    sizes = np.array([c.size for c in clusters], dtype=np.float64)
    return SamplePartition(tuple(clusters), sizes / dataset.n_rows)
