"""Tree-structured network learning and structural validation.

The learner recursively partitions the data: variables that test as
independent split into a Product node, rows that cluster split into a
Sum node weighted by cluster proportions, and the recursion bottoms out
in univariate leaves. The result is a rooted tree satisfying
completeness (Sum children share their parent's scope) and
decomposability (Product children own disjoint scopes), which is what
makes every later query a linear-time traversal.

All randomness is derived from ``config.seed`` and the recursion path,
so learning is bit-deterministic for a given dataset and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, Schema
from .errors import ConfigError
from .leaves import HistogramLeaf, PiecewiseLinearLeaf, fit_histogram, fit_isotonic_pwl
from .numerics import SeedScope, trapezoid
from .rdc import cluster_samples, split_features

LEAF_KINDS = ("isotonic", "histogram")

# univariate clustering is only worth a Sum node when both clusters keep
# at least this fraction of ``min_instances`` rows
_MIN_CLUSTER_FRACTION = 0.25
_MEAN_DISTINCT_TOL = 1e-9


@dataclass(frozen=True)
class LearnConfig:
    """Hyperparameters of the structure learner.

    ``min_instances`` is the row count below which no further splitting is
    attempted, ``smoothing`` the Laplace pseudo-count for leaf fitting,
    ``dependence_threshold`` the dependency-coefficient cutoff for calling
    two variables independent, and ``leaf_kind`` chooses between unimodal
    piecewise-linear leaves ("isotonic") and plain histogram leaves for
    the non-categorical variables (categorical ones always use
    histograms).
    """

    min_instances: int = 200
    smoothing: float = 1.0
    dependence_threshold: float = 0.3
    leaf_kind: str = "isotonic"
    proj_features: int = 20
    proj_scale: float = 1.0 / 6.0
    kmeans_max_iter: int = 100
    kmeans_tol: float = 1e-4
    seed: int = 7

    def __post_init__(self):
        if int(self.min_instances) != self.min_instances or self.min_instances < 2:
            raise ConfigError("min_instances must be an integer >= 2")
        # written as ranges that NaN fails, since NaN fails every comparison
        if not 0 <= self.smoothing < math.inf:
            raise ConfigError("smoothing must be a finite number >= 0")
        if not 0.0 < self.dependence_threshold < 1.0:
            raise ConfigError("dependence_threshold must lie strictly inside (0, 1)")
        if self.leaf_kind not in LEAF_KINDS:
            raise ConfigError(f"leaf_kind must be one of {LEAF_KINDS}")
        if self.proj_features < 1 or not 0 < self.proj_scale < math.inf:
            raise ConfigError("projection settings must be positive and finite")
        if self.kmeans_max_iter < 1 or not self.kmeans_tol >= 0:
            raise ConfigError("bad kmeans settings")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> "LearnConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj)


@dataclass(frozen=True)
class SumNode:
    """Mixture over children that all cover the same scope."""

    scope: tuple[int, ...]
    weights: np.ndarray = field(repr=False)
    children: tuple = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class ProductNode:
    """Factorization over children with disjoint scopes."""

    scope: tuple[int, ...]
    children: tuple = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Mspn:
    """A learned network: root node plus the schema and config it came from."""

    root: object
    schema: Schema
    config: LearnConfig
    # evaluation plan: compiled by mspn.inference on the first query
    _plan: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def n_vars(self) -> int:
        return len(self.schema)

    @property
    def node_count(self) -> int:
        return sum(1 for _ in iter_nodes(self.root))


def iter_nodes(root, path: str = "root"):
    """Preorder traversal yielding (path string, node) pairs.

    Iterative, so trees deeper than Python's recursion limit walk too.
    """
    stack = [(path, root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, (SumNode, ProductNode)):
            stack.extend((f"{path}.{i}", child)
                         for i, child in reversed(list(enumerate(node.children))))


def postorder(root) -> tuple[list, list[np.ndarray]]:
    """The nodes in postorder, with each node's child indices into that list.

    Children come before their parent, left to right, and the root is
    last. Iterative, so trees deeper than Python's recursion limit walk too.
    """
    nodes: list = []
    children: list[np.ndarray] = []
    index: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        internal = isinstance(node, (SumNode, ProductNode))
        if internal and not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(node.children))
            continue
        kids = [index[id(c)] for c in node.children] if internal else []
        index[id(node)] = len(nodes)
        nodes.append(node)
        children.append(np.array(kids, dtype=np.intp))
    return nodes, children


def _fit_leaf(data: Dataset, variable: int, config: LearnConfig):
    st = data.schema.stat_type(0)
    col = data.column(0)
    if st.is_categorical or config.leaf_kind == "histogram":
        return fit_histogram(col, st, config.smoothing, variable)
    return fit_isotonic_pwl(col, st, config.smoothing, variable)


def _learn_univariate(data: Dataset, variable: int, config: LearnConfig,
                      seeds: SeedScope):
    m = data.n_rows
    if m >= config.min_instances:
        part = cluster_samples(data, config, seeds)
        if len(part.clusters) == 2:
            sizes = [c.size for c in part.clusters]
            col = data.column(0)
            means = [float(col[c].mean()) for c in part.clusters]
            if (min(sizes) >= _MIN_CLUSTER_FRACTION * config.min_instances
                    and abs(means[0] - means[1]) > _MEAN_DISTINCT_TOL):
                children = [
                    _learn(data.select(rows=c), (variable,), config, seeds.child(ci))
                    for ci, c in enumerate(part.clusters)
                ]
                return SumNode((variable,), part.proportions, children)
    return _fit_leaf(data, variable, config)


def _factorize(data: Dataset, scope: tuple[int, ...], config: LearnConfig,
               seeds: SeedScope):
    children = [
        _learn(data.select(cols=[j]), (scope[j],), config, seeds.child(j))
        for j in range(len(scope))
    ]
    return ProductNode(scope, children)


def _learn(data: Dataset, scope: tuple[int, ...], config: LearnConfig,
           seeds: SeedScope):
    if len(scope) == 1:
        return _learn_univariate(data, scope[0], config, seeds)
    if data.n_rows < config.min_instances:
        return _factorize(data, scope, config, seeds)

    part = split_features(data, config.dependence_threshold, config, seeds)
    if len(part.groups) > 1:
        children = []
        for gi, group in enumerate(part.groups):
            sub = data.select(cols=group)
            sub_scope = tuple(scope[g] for g in group)
            children.append(_learn(sub, sub_scope, config, seeds.child(gi)))
        return ProductNode(scope, children)

    clusters = cluster_samples(data, config, seeds)
    if len(clusters.clusters) > 1:
        children = [
            _learn(data.select(rows=c), scope, config, seeds.child(ci))
            for ci, c in enumerate(clusters.clusters)
        ]
        return SumNode(scope, clusters.proportions, children)
    # conditioning failed to separate anything: factorize instead of looping
    return _factorize(data, scope, config, seeds)


def learn_mspn(dataset: Dataset, config: LearnConfig | None = None) -> Mspn:
    """Learn a tree-structured network from a dataset.

    Deterministic given (dataset, config): every random draw is keyed by
    ``config.seed`` and the recursion path, so repeated runs build
    identical models.
    """
    if config is None:
        config = LearnConfig()
    scope = tuple(range(dataset.n_cols))
    root = _learn(dataset, scope, config, SeedScope(config.seed))
    return Mspn(root, dataset.schema, config)


@dataclass
class ValidityReport:
    """Structural check results; ``violations`` is empty for a valid model."""

    violations: list[tuple[str, str]]
    node_count: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"model is valid ({self.node_count} nodes)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {path}: {message}" for path, message in self.violations]
        return "\n".join(lines)


def validate(mspn: Mspn) -> ValidityReport:
    """Check completeness, decomposability, normalization, and tree shape.

    Violations are reported with the preorder path of the offending node;
    nothing raises, so hand-built networks can be inspected too.
    """
    problems: list[tuple[str, str]] = []
    seen_ids: set[int] = set()
    count = 0
    n_vars = len(mspn.schema)

    for path, node in iter_nodes(mspn.root):
        count += 1
        if id(node) in seen_ids:
            problems.append((path, "node is shared; the network must be a tree"))
            continue
        seen_ids.add(id(node))

        if isinstance(node, SumNode):
            if len(node.children) < 1:
                problems.append((path, "sum node has no children"))
                continue
            if node.weights.size != len(node.children):
                problems.append((path, "weight/child count mismatch"))
            else:
                if np.any(node.weights <= 0):
                    problems.append((path, "sum weights must be positive"))
                if abs(float(node.weights.sum()) - 1.0) > 1e-12:
                    problems.append((path, "sum weights do not sum to 1"))
            scope = set(node.scope)
            for i, child in enumerate(node.children):
                if set(child.scope) != scope:
                    problems.append(
                        (f"{path}.{i}", "sum child scope differs from parent scope")
                    )
        elif isinstance(node, ProductNode):
            if len(node.children) < 1:
                problems.append((path, "product node has no children"))
                continue
            union: set[int] = set()
            overlap = False
            for child in node.children:
                child_scope = set(child.scope)
                if union & child_scope:
                    overlap = True
                union |= child_scope
            if overlap:
                problems.append((path, "product children have overlapping scopes"))
            if union != set(node.scope):
                problems.append((path, "product children do not cover the scope"))
        elif isinstance(node, (HistogramLeaf, PiecewiseLinearLeaf)):
            var = node.variable
            if not 0 <= var < n_vars:
                problems.append((path, f"leaf variable {var} outside the schema"))
            else:
                st = mspn.schema.stat_type(var)
                if node.domain != st.kind:
                    problems.append(
                        (path, f"leaf domain {node.domain} != column kind {st.kind}")
                    )
                if (isinstance(node, HistogramLeaf) and st.is_categorical
                        and node.n_bins != st.arity):
                    problems.append((path, "categorical leaf arity mismatch"))
            if isinstance(node, HistogramLeaf):
                if abs(float(node.masses.sum()) - 1.0) > 1e-12:
                    problems.append((path, "histogram masses do not sum to 1"))
            else:
                if abs(trapezoid(node.knots_y, node.knots_x) - 1.0) > 1e-9:
                    problems.append((path, "piecewise-linear leaf does not integrate to 1"))
        else:
            problems.append((path, f"unknown node type {type(node).__name__}"))

    root_scope = set(mspn.root.scope) if hasattr(mspn.root, "scope") else set()
    if root_scope != set(range(n_vars)):
        problems.append(("root", "root scope does not cover all variables"))

    return ValidityReport(problems, count)
