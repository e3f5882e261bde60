"""Tree-structured network learning and structural validation.

The learner partitions the data node by node: variables that test as
independent split into a Product node, rows that cluster split into a
Sum node weighted by cluster proportions, and the partitioning bottoms
out in univariate leaves. The result is a rooted tree satisfying
completeness (Sum children share their parent's scope) and
decomposability (Product children own disjoint scopes), which is what
makes every later query a linear-time traversal.

All randomness is derived from ``config.seed`` and each node's path from
the root, so learning is bit-deterministic for a given dataset and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, Schema
from .errors import ConfigError
from .leaves import Leaf, fit_histogram, fit_isotonic_pwl, leaf_problems
from .numerics import SeedScope, check_binnable, is_integer
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
        if not is_integer(self.min_instances) or self.min_instances < 2:
            raise ConfigError("min_instances must be an integer >= 2")
        # written as ranges that NaN fails, since NaN fails every comparison
        if not 0 <= self.smoothing < math.inf:
            raise ConfigError("smoothing must be a finite number >= 0")
        if not 0.0 < self.dependence_threshold < 1.0:
            raise ConfigError("dependence_threshold must lie strictly inside (0, 1)")
        if self.leaf_kind not in LEAF_KINDS:
            raise ConfigError(f"leaf_kind must be one of {LEAF_KINDS}")
        if not (is_integer(self.proj_features) and self.proj_features >= 1
                and 0 < self.proj_scale < math.inf):
            raise ConfigError("need an integer proj_features >= 1 and a finite proj_scale > 0")
        if not (is_integer(self.kmeans_max_iter) and self.kmeans_max_iter >= 1
                and 0 <= self.kmeans_tol < math.inf):
            raise ConfigError("need an integer kmeans_max_iter >= 1 and a finite kmeans_tol >= 0")
        if not is_integer(self.seed) or self.seed < 0:
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
        w = np.array(self.weights, dtype=np.float64)
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


def _decide(data: Dataset, scope: tuple[int, ...], config: LearnConfig, seeds: SeedScope):
    """One node's decision: its fitted leaf, or how its children split it.

    ``(column groups, None)`` makes a product and ``(row clusters,
    proportions)`` a sum.
    """
    if data.n_cols == 1:
        col = data.column(0)
        # a constant column clusters into one cluster, which makes this leaf
        if data.n_rows >= config.min_instances and np.any(col != col[0]):
            part = cluster_samples(data, config, seeds)
            if len(part.clusters) == 2:
                sizes = [c.size for c in part.clusters]
                means = [float(col[c].mean()) for c in part.clusters]
                if (min(sizes) >= _MIN_CLUSTER_FRACTION * config.min_instances
                        and abs(means[0] - means[1]) > _MEAN_DISTINCT_TOL):
                    return part.clusters, part.proportions
        return _fit_leaf(data, scope[0], config)
    singletons = [(j,) for j in range(data.n_cols)]
    if data.n_rows < config.min_instances:
        return singletons, None
    groups = split_features(data, config.dependence_threshold, config, seeds).groups
    if len(groups) > 1:
        return groups, None
    part = cluster_samples(data, config, seeds)
    if len(part.clusters) > 1:
        return part.clusters, part.proportions
    # conditioning failed to separate anything: factorize instead of looping
    return singletons, None


def learn_mspn(dataset: Dataset, config: LearnConfig | None = None) -> Mspn:
    """Learn a tree-structured network from a dataset.

    Each node is one ``_decide`` on a task popped from a stack and is built
    after its children, so depth is bounded by memory, not by Python's
    recursion limit. Every random draw is keyed by ``config.seed`` and the
    node's path, so repeated runs build identical models. A continuous or
    discrete column with a value beyond ``numerics.MAX_BIN_MAGNITUDE``
    raises :class:`DomainError` before any learning.
    """
    if config is None:
        config = LearnConfig()
    for j, name in enumerate(dataset.schema.names):
        if not dataset.schema.stat_type(j).is_categorical:
            col = dataset.column(j)
            check_binnable(col.min(), col.max(), f"column {name!r}")
    built: list = []  # finished nodes; a parent takes its children from the end
    # (False, (parent data, rows, cols, scope, seeds)) copies its slice only
    # when popped; (True, (scope, sum weights or None, child count)) builds
    stack: list = [(False, (dataset, None, None, tuple(range(dataset.n_cols)),
                            SeedScope(config.seed)))]
    while stack:
        expanded, task = stack.pop()
        if expanded:
            scope, weights, n = task
            children = built[-n:]
            del built[-n:]
            built.append(ProductNode(scope, children) if weights is None
                         else SumNode(scope, weights, children))
            continue
        data, rows, cols, scope, seeds = task
        if rows is not None or cols is not None:
            data = data.select(rows=rows, cols=cols)
        decision = _decide(data, scope, config, seeds)
        if not isinstance(decision, tuple):
            built.append(decision)
            continue
        parts, weights = decision
        stack.append((True, (scope, weights, len(parts))))
        for i, part in reversed(list(enumerate(parts))):
            if weights is None:
                child = (data, None, part, tuple(scope[g] for g in part), seeds.child(i))
            else:
                child = (data, part, None, scope, seeds.child(i))
            stack.append((False, child))
    return Mspn(built[0], dataset.schema, config)


def node_problems(node, child_scopes: list, schema: Schema):
    """Each way ``node`` fails to fit its children's scopes (frozensets) or the schema.

    The one definition of a valid node, shared by ``validate`` and the
    model loader; the leaves' own rules are ``leaves.check_group``'s.
    Yields ``(child, message)``: the index of the child at fault, or None.
    """
    if isinstance(node, Leaf):
        if not 0 <= node.variable < len(schema):
            yield None, f"leaf variable {node.variable} is outside the schema"
            return
        st = schema.stat_type(node.variable)
        if node.domain != st.kind:
            yield None, f"leaf domain {node.domain} does not match column kind {st.kind}"
        # only histogram leaves can be categorical
        elif st.is_categorical and node.n_bins != st.arity:
            yield None, f"categorical leaf has {node.n_bins} bins for {st.arity} categories"
        return
    if not isinstance(node, (SumNode, ProductNode)):
        yield None, f"unknown node type {type(node).__name__}"
        return
    if not child_scopes:
        yield None, f"{type(node).__name__} has no children"
        return
    scope = frozenset(node.scope)
    if len(scope) != len(node.scope):
        yield None, f"scope {list(node.scope)} repeats a variable"
    if isinstance(node, ProductNode):
        union = frozenset().union(*child_scopes)
        if sum(map(len, child_scopes)) != len(union):
            yield None, "product children have overlapping scopes"
        if union != scope:
            yield None, "product children do not cover the product's scope"
        return
    if node.weights.shape != (len(child_scopes),):
        yield None, (f"weight/child count mismatch: {node.weights.size} weights "
                     f"for {len(child_scopes)} children")
    else:
        # a few Python floats check faster than numpy calls; NaN fails both tests
        w = node.weights.tolist()
        if not min(w) > 0.0:
            yield None, "sum weights must be positive"
        if not abs(sum(w) - 1.0) <= 1e-12:
            yield None, "sum weights do not sum to 1"
    for i, child_scope in enumerate(child_scopes):
        if child_scope != scope:
            yield i, "sum child scope differs from the sum's scope"


def root_problems(root_scope: frozenset, schema: Schema):
    """Each way a root with this scope fails to head a model over ``schema``."""
    if root_scope != frozenset(range(len(schema))):
        yield "root scope does not cover every variable"


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

    Each node gets the loader's checks (``node_problems``) and the leaves
    their constructors' rules, in the loader's grouped pass
    (``leaf_problems``), so a hand-built model that validates also saves
    and loads. Violations are reported with the preorder path of the
    offending node; nothing raises, so hand-built networks can be
    inspected too.
    """
    visits: list = []  # (path, node, whether an earlier path reached it)
    seen_ids: set[int] = set()
    for path, node in iter_nodes(mspn.root):
        visits.append((path, node, id(node) in seen_ids))
        seen_ids.add(id(node))
    leaves = [node for _, node, shared in visits
              if not shared and isinstance(node, Leaf)]
    leaf_messages = dict(zip(map(id, leaves), leaf_problems(leaves)))

    problems: list[tuple[str, str]] = []
    for path, node, shared in visits:
        if shared:
            problems.append((path, "node is shared; the network must be a tree"))
            continue
        child_scopes = [frozenset(getattr(c, "scope", ())) for c in getattr(node, "children", ())]
        for child, message in node_problems(node, child_scopes, mspn.schema):
            problems.append((path if child is None else f"{path}.{child}", message))
        if (message := leaf_messages.get(id(node))) is not None:
            problems.append((path, message))

    root_scope = frozenset(getattr(mspn.root, "scope", ()))
    problems += [("root", message) for message in root_problems(root_scope, mspn.schema)]
    return ValidityReport(problems, len(visits))
