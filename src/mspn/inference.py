"""Query answering on a learned network.

Every query is a bottom-up pass over the tree, plus for MPE a max-product
pass over the nodes with free variables and for sampling one top-down
pass, so query cost is linear in the node count. All computation happens
in log space: observed continuous variables contribute log-densities,
observed discrete/categorical variables contribute log-masses, and
marginalized variables contribute log 1 = 0 at their leaves. The value of
a mixed query is therefore a density with respect to the product of
Lebesgue measure (continuous coordinates) and counting measure (the rest).

The first query compiles the model into an evaluation plan, kept on the
model: the nodes in iterative postorder with their child indices, parents
and heights, per-variable leaf tables (padded knots, densities and slopes
of the piecewise-linear leaves, edges and bin densities of the
histograms, categorical ones included), the sum nodes grouped by height
and child count, and every edge with the range of leaves below it.
Neither compiling nor running a plan recurses, so the depth of the trees
they handle is bounded by memory, not by Python's recursion limit. The
executors on the plan:

* ``_Plan.evaluate_row`` answers one validated row (``log_evaluate``,
  ``log_conditional``, ``mpe``, ``sample``). It walks the heights once: each
  variable's leaves get their densities from a few vectorized ops that
  reproduce ``leaf_density_batch``, each group of sum nodes with the same
  height and child count is one ``weighted_logsumexp`` call, and products
  add ``0.0 + c0 + c1 + ...`` in child order.
* ``_Plan.evaluate_rows`` answers many rows (``log_evaluate_batch``).
  A node's key is the set of observed variables in its scope. Each
  observed variable gets its distinct values and a dense id per row once
  per batch, and a node keyed by one variable runs once per distinct
  value. A variable with more than a quarter as many distinct values as
  rows is dense, and a node with it, or with several observed variables,
  runs on every row. A node with no observed variable has one value.
  Leaves run ``leaf_density_batch``; a parent reads each child's values
  at its own key's entries and combines them in ``_Plan._combine``, as
  the MI tables below do. The root's values go back to the rows.
* ``_Plan.variable_tables`` and ``_Plan.pair_table`` evaluate the nodes
  on grids of one or two observed variables (``mutual_information``,
  ``mi_graph``), each node as a table shaped by its scope's share of the
  pair: a scalar from the all-marginalized row where it holds neither
  variable, a (g,) vector where it holds one, cached per variable, and a
  (ga, gb) table only where it holds both. The same arithmetic on
  broadcast tables gives each cell the bits of that grid cell in a full
  batch, while a pair costs only the nodes with both variables in scope.
* ``_Plan.max_product`` is MPE's second pass, in three vectorized steps.
  The leaves' log coefficients in their 1-d mixtures accumulate per leaf,
  one step per height. Each mixture is maximized on a candidate grid
  whose leaf densities are cached on the plan per (node, variable). The
  nodes with two or more free variables then take their maxima level by
  level, sums keeping a back-pointer to their best child, and a walk down
  those pointers collects the assignment.

So ``weighted_logsumexp`` is the one place a sum node combines its
children. It is elementwise and uses no BLAS, so its bits do not depend
on how many rows or nodes share a call: every row of a batch gets the
value a single-row query of that row gets, and the executors give every
node, bit for bit, the value a recursive evaluation of that node alone
gives it. ``mpe`` likewise reproduces a recursive max-product pass bit for
bit (``tests/test_plan.py`` keeps both recursive passes as oracles).

Passing a ``collections.Counter`` as ``counter`` to any query records
per-node visit counts (keyed by ``id(node)``): one count per node per
plan pass, plus one per free node in MPE's max-product pass, plus one
per node the sampler's top-down walk visits. That is how the
at-most-two-traversals contract is asserted in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, DISCRETE, Schema
from .errors import ConditioningError, QueryError
from .leaves import (
    HistogramLeaf,
    PiecewiseLinearLeaf,
    leaf_density_batch,
    leaf_sample,
    leaf_support,
)
from .numerics import weighted_logsumexp
from .structure import Mspn, ProductNode, SumNode, postorder


@dataclass(frozen=True)
class Evidence:
    """Per-variable observation state: a value, or marginalized out.

    ``values[i]`` is only meaningful where ``observed[i]`` is True.
    """

    values: np.ndarray = field(repr=False)
    observed: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).copy()
        o = np.asarray(self.observed, dtype=bool).copy()
        if v.ndim != 1 or v.shape != o.shape:
            raise QueryError("evidence needs matching 1-d value and mask vectors")
        v.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "observed", o)

    @classmethod
    def marginalized(cls, n_vars: int) -> "Evidence":
        return cls(np.zeros(n_vars), np.zeros(n_vars, dtype=bool))

    @classmethod
    def observe(cls, schema: Schema, assignments: Mapping[str, object]) -> "Evidence":
        """Build evidence from a {column name: value} mapping.

        Categorical values may be given as labels (strings) or codes;
        everything else parses as a number.
        """
        values = np.zeros(len(schema))
        observed = np.zeros(len(schema), dtype=bool)
        for name, raw in assignments.items():
            i = schema.index(name)
            st = schema.stat_type(i)
            if st.is_categorical and isinstance(raw, str):
                cats = st.categories or ()
                if raw not in cats:
                    raise QueryError(f"unknown category {raw!r} for column {name!r}")
                values[i] = float(cats.index(raw))
            else:
                try:
                    values[i] = float(raw)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    raise QueryError(
                        f"cannot parse {raw!r} as a value for column {name!r}"
                    ) from None
            observed[i] = True
        return cls(values, observed)

    def merged(self, other: "Evidence") -> "Evidence":
        if self.observed.shape != other.observed.shape:
            raise QueryError("evidence vectors cover different variable counts")
        if np.any(self.observed & other.observed):
            raise QueryError("evidence sets overlap")
        values = np.where(other.observed, other.values, self.values)
        return Evidence(values, self.observed | other.observed)

    @property
    def n_vars(self) -> int:
        return self.values.shape[0]


def _check_evidence(mspn: Mspn, evidence: Evidence) -> None:
    """Reject evidence that no query may hold, naming the first bad column."""
    if evidence.n_vars != mspn.n_vars:
        raise QueryError(
            f"evidence covers {evidence.n_vars} variables, model has {mspn.n_vars}"
        )
    v = evidence.values
    finite, whole, nonnegative = (np.isfinite(v).tolist(), (v == np.rint(v)).tolist(),
                                  (v >= 0).tolist())
    for j in np.flatnonzero(evidence.observed).tolist():
        _check_column(mspn.schema.columns[j], finite[j], whole[j], nonnegative[j])


def _check_column(column, finite: bool, whole: bool, nonnegative: bool) -> None:
    """Raise :class:`QueryError` for the first rule an observed column breaks.

    Observed values must be finite, discrete and categorical ones integers,
    and category codes nonnegative. Codes at or past the end of the
    vocabulary are legal: they score the leaves' unseen mass.
    """
    kind = column.stat_type.kind
    if not finite:
        raise QueryError(f"observed value for {column.name!r} is not finite")
    if kind != CONTINUOUS and not whole:
        raise QueryError(f"observed value for {column.name!r} must be an integer")
    if kind == CATEGORICAL and not nonnegative:
        raise QueryError(f"negative category code for {column.name!r}")


def _bump(counter, node) -> None:
    if counter is not None:
        counter[id(node)] += 1


_LEAF, _SUM, _PRODUCT = 0, 1, 2

# Batch keys (``_Batch``): a discrete or categorical column whose values
# span at most this many codes per row is numbered with a presence table,
# a wider one with ``np.unique``.
_CODES_PER_ROW = 4
# A variable with more than one distinct value per this many rows is
# dense: the nodes keyed by it run on every row.
_ROWS_PER_ENTRY = 4
# A column numbered with ``np.unique`` is first judged on a strided sample
# of about this many rows, and is not sorted if the sample is dense.
_SAMPLE_ROWS = 256


def _padded(rows, fill) -> np.ndarray:
    """Stack 1-d arrays of unequal length into a matrix, padding with ``fill``."""
    lengths = np.array([len(r) for r in rows])
    out = np.full((len(rows), lengths.max()), fill)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    return out


class _PwlTable:
    """All piecewise-linear leaves of one variable, knots padded to one width.

    Reproduces ``np.interp(x, knots_x, knots_y, left=0, right=0)`` for one
    value: the segment is the last knot <= x, a value on a knot (the last
    one included) takes that knot's density, and otherwise the density is
    ``slope * (x - x_j) + y_j`` with the slope computed as ``np.interp``
    computes it.
    """

    def __init__(self, index, leaves):
        self.index = np.asarray(index, dtype=np.intp)
        self.x = _padded([leaf.knots_x for leaf in leaves], np.inf)
        self.y = _padded([leaf.knots_y for leaf in leaves], 0.0)
        n_knots = np.array([leaf.knots_x.size for leaf in leaves])
        # slope of the segment that starts at each knot (0 past the last one)
        with np.errstate(invalid="ignore"):  # inf - inf in the padding
            slope = (self.y[:, 1:] - self.y[:, :-1]) / (self.x[:, 1:] - self.x[:, :-1])
        inner = np.arange(self.x.shape[1] - 1) < n_knots[:, None] - 1
        self.slope = np.zeros_like(self.x)
        self.slope[:, :-1] = np.where(inner, slope, 0.0)
        self.rows = np.arange(len(leaves))
        self.first = self.x[:, 0].copy()
        self.last = self.x[self.rows, n_knots - 1]

    def density(self, x: float) -> np.ndarray:
        j = np.maximum((self.x <= x).sum(axis=1) - 1, 0)
        xj = self.x[self.rows, j]
        yj = self.y[self.rows, j]
        d = np.where(x == xj, yj, self.slope[self.rows, j] * (x - xj) + yj)
        return np.where((x < self.first) | (x > self.last), 0.0, d)


class _HistogramTable:
    """All histogram leaves of one variable, edges padded to one width.

    Holds each bin's density as ``leaf_density_batch`` divides it out; the
    bin of x is the last edge <= x, clipped to the leaf's bins. Outside
    the leaf's range x gets density 0, or for a categorical leaf, whose
    range is the codes 0 .. arity - 1 (x is a validated integer), its
    unseen mass.
    """

    def __init__(self, index, leaves):
        self.index = np.asarray(index, dtype=np.intp)
        self.edges = _padded([leaf.edges for leaf in leaves], np.inf)
        dens, last, outside = [], [], []
        for leaf in leaves:
            widths = np.diff(leaf.edges)
            if leaf.domain == DISCRETE:
                widths = np.maximum(np.rint(widths), 1.0)
            dens.append(leaf.masses / widths)
            categorical = leaf.domain == CATEGORICAL
            last.append(leaf.edges[-1] - 1.0 if categorical else leaf.edges[-1])
            outside.append(leaf.unseen_mass if categorical else 0.0)
        self.dens = _padded(dens, 0.0)
        self.last = np.array(last)
        self.outside = np.array(outside)
        self.top_bin = np.array([leaf.n_bins - 1 for leaf in leaves])
        self.first = self.edges[:, 0].copy()
        self.rows = np.arange(len(leaves))

    def density(self, x: float) -> np.ndarray:
        b = np.clip((self.edges <= x).sum(axis=1) - 1, 0, self.top_bin)
        inside = (x >= self.first) & (x <= self.last)
        return np.where(inside, self.dens[self.rows, b], self.outside)


class _SettleTable(NamedTuple):
    """What MPE needs to maximize one node's 1-d mixture in one variable.

    The mixture's terms are the node's leaves of that variable, in
    postorder; ``ranks`` are their positions among all the plan's leaves.
    Term j has log density ``log_density[o:p]`` on ``grid[a:b]``, where
    ``(a, b, o, p) = spans[j]`` and ``sizes[j] = b - a``: the part of the
    candidate grid inside the leaf's support (all of it for categorical
    leaves, which give unseen codes their unseen mass). Outside it the
    density is 0, so the term adds nothing there. ``unset`` is -inf on the
    whole grid, the start of each fold.
    """

    grid: np.ndarray
    unset: np.ndarray
    ranks: np.ndarray
    sizes: np.ndarray
    spans: list
    log_density: np.ndarray


class _Edges(NamedTuple):
    """Every parent-child edge of a plan, in ascending order of the parent's height.

    ``log_w`` is the log weight of a sum edge and NaN on a product edge;
    the child's leaves are ``lo .. lo + size - 1`` in postorder.
    """

    parent: np.ndarray
    child: np.ndarray
    height: np.ndarray
    is_sum: np.ndarray
    log_w: np.ndarray
    lo: np.ndarray
    size: np.ndarray


class _Batch:
    """The rows of one ``log_evaluate_batch`` call, checked and keyed.

    A node's key is the set of observed variables in its scope, held as a
    bit mask; its table has one entry per distinct value of the key.
    Checking the batch gives each observed variable its distinct values
    (``points``) and a dense id per row: from a presence table for a
    discrete or categorical column whose range spans at most
    ``_CODES_PER_ROW`` codes per row, which needs no sort, and from
    ``np.unique`` for the others. A variable with more than one distinct
    value per ``_ROWS_PER_ENTRY`` rows is dense: its points are its rows
    and it has no ids; a column sorted by ``np.unique`` is taken as dense
    unsorted when a strided sample of it is. Which variables are keyed
    changes only speed. So the key of no variable has one entry, which
    broadcasts, the key of one variable with ids an entry per id, and
    every other key, each of several variables included, an entry per row.
    """

    def __init__(self, schema: Schema, values: np.ndarray, observed: np.ndarray):
        self.n_rows = n = values.shape[0]
        self.points: dict[int, np.ndarray] = {}  # variable -> where its leaves are evaluated
        self.ids: dict[int, np.ndarray] = {}  # key of one variable -> its id per row
        # an empty batch has no values to check or key
        for var in np.flatnonzero(observed).tolist() if n else ():
            # one contiguous copy: the passes below run several times faster on it
            column, col = schema.columns[var], np.ascontiguousarray(values[:, var])
            lo, hi = float(col.min()), float(col.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                _check_column(column, False, False, False)
            if column.stat_type.kind != CONTINUOUS and hi - lo < _CODES_PER_ROW * n:
                # the codes truncate fractions, so test the rows, not the codes
                _check_column(column, True, bool((col == np.rint(col)).all()), lo >= 0)
                codes = (col - lo).astype(np.intp)
                present = np.zeros(int(hi - lo) + 1, dtype=bool)
                present[codes] = True
                ids = (np.cumsum(present, dtype=np.intp) - 1)[codes]
                points = lo + np.flatnonzero(present)
            else:
                sample = col[:: max(1, n // _SAMPLE_ROWS)]
                if _ROWS_PER_ENTRY * np.unique(sample).size > sample.size:
                    points = col
                else:
                    points, ids = np.unique(col, return_inverse=True)
                _check_column(column, True, bool((points == np.rint(points)).all()), lo >= 0)
            if _ROWS_PER_ENTRY * points.size > n:
                points = col
            else:
                self.ids[1 << var] = ids
            self.points[var] = points

    def gather(self, child: int, table: np.ndarray, parent: int) -> np.ndarray:
        """``table``, on the key ``child``, at each entry of the key ``parent`` that covers it."""
        if child == parent or child not in self.ids:
            return table  # the same key, the one entry of no variable, or the rows
        return table[self.ids[child]]  # a parent of several variables runs per row

    def rows(self, mask: int, table: np.ndarray) -> np.ndarray:
        """``table``, on the key ``mask``, read back at every row."""
        if mask in self.ids:
            return table[self.ids[mask]]
        return table if mask else np.full(self.n_rows, table[0])


class _Plan:
    """A tree compiled once for evaluation; see the module docstring.

    Node ``i`` is the i-th node of ``structure.postorder``, so every child
    comes before its parent and the root is the last node. Node
    ``scope_owner[k]`` has variable ``scope_vars[k]`` in its scope.
    """

    def __init__(self, root):
        nodes, children = postorder(root)
        kinds = [_SUM if isinstance(node, SumNode) else
                 _PRODUCT if isinstance(node, ProductNode) else _LEAF for node in nodes]
        n = len(nodes)
        heights: list[int] = []
        first = list(range(n))  # postorder index where each subtree starts
        parent = np.full(n, n, dtype=np.intp)  # the root's parent is the padding slot
        for i, (kind, kids) in enumerate(zip(kinds, children)):
            heights.append(0 if kind == _LEAF else
                           1 + max((heights[c] for c in kids.tolist()), default=0))
            if kids.size:
                first[i] = first[int(kids[0])]
                parent[kids] = i
        is_leaf = np.array(kinds) == _LEAF
        # leaves_before[i]: how many leaves come before node i in postorder
        leaves_before = np.concatenate(([0], np.cumsum(is_leaf)))

        self.nodes = nodes
        self.ids = [id(node) for node in nodes]
        self.kinds = kinds
        self.children = children
        self.heights = heights
        self.parent = parent
        self.scope_vars = np.array([v for node in nodes for v in node.scope], dtype=np.intp)
        self.scope_owner = np.repeat(np.arange(n), [len(node.scope) for node in nodes])
        self.root = n - 1
        self.leaf_tables = self._leaf_tables()
        self.levels = self._levels()
        # leaves numbered in postorder: their nodes and variables, and the
        # numbers lo .. hi - 1 of the leaves under each node
        self.leaf_nodes = np.flatnonzero(is_leaf)
        self.leaf_vars = np.array([nodes[i].variable for i in self.leaf_nodes], dtype=np.intp)
        self.subtree_leaves = (leaves_before[first], leaves_before[1:])
        self.edges = self._edges()
        product_idx = np.flatnonzero(np.array(kinds) == _PRODUCT)
        self.products = (product_idx,
                         _padded([children[i] for i in product_idx], n).astype(np.intp).T
                         if product_idx.size else np.zeros((0, 0), dtype=np.intp))
        # (node, free variable) -> _SettleTable, built on first use by mpe
        self.settle_tables: dict[tuple[int, int], _SettleTable] = {}

    def _leaf_tables(self) -> list:
        groups: dict[tuple, list[int]] = {}
        for i, node in enumerate(self.nodes):
            if self.kinds[i] != _LEAF:
                continue
            family = _PwlTable if isinstance(node, PiecewiseLinearLeaf) else _HistogramTable
            groups.setdefault((node.variable, family), []).append(i)
        return [
            (var, family(idx, [self.nodes[i] for i in idx]))
            for (var, family), idx in groups.items()
        ]

    def _levels(self) -> list:
        """Per height above the leaves: sum groups by child count, then products.

        A sum group of G nodes with C children each is (node indices, child
        indices, weights, log weights), the last three (C, G): one row per
        child position, as ``weighted_logsumexp`` takes them. The products
        of a height share one child matrix, also one row per child
        position, padded with the index of a constant 0.0 slot past the
        last node.
        """
        sums: dict[tuple[int, int], list[int]] = {}
        products: dict[int, list[int]] = {}
        for i, kind in enumerate(self.kinds):
            if kind == _SUM:
                sums.setdefault((self.heights[i], len(self.children[i])), []).append(i)
            elif kind == _PRODUCT:
                products.setdefault(self.heights[i], []).append(i)
        levels = [([], None) for _ in range(max(self.heights))]
        for (h, _), idx in sorted(sums.items()):
            weights = np.stack([self.nodes[i].weights for i in idx], axis=1)
            with np.errstate(divide="ignore"):
                log_w = np.log(weights)
            levels[h - 1][0].append((np.array(idx, dtype=np.intp),
                                     np.stack([self.children[i] for i in idx], axis=1),
                                     weights, log_w))
        for h, idx in products.items():
            kids = _padded([self.children[i] for i in idx], len(self.nodes))
            levels[h - 1] = (levels[h - 1][0],
                             (np.array(idx, dtype=np.intp), kids.astype(np.intp).T))
        return levels

    def _edges(self) -> _Edges:
        n = len(self.nodes)
        parent = np.repeat(np.arange(n), [kids.size for kids in self.children])
        child = np.concatenate(self.children)
        with np.errstate(divide="ignore"):
            log_w = np.concatenate([
                np.log(node.weights) if kind == _SUM else np.full(kids.size, np.nan)
                for node, kind, kids in zip(self.nodes, self.kinds, self.children)])
        height = np.array(self.heights)[parent]
        order = np.argsort(height, kind="stable")
        parent, child = parent[order], child[order]
        lo, hi = self.subtree_leaves
        return _Edges(parent, child, height[order], np.array(self.kinds)[parent] == _SUM,
                      log_w[order], lo[child], (hi - lo)[child])

    def evaluate_row(self, values: np.ndarray, observed: np.ndarray,
                     counter=None) -> np.ndarray:
        """Log value of every node for one validated row (one plan pass).

        Slot ``len(nodes)`` past the last node holds the 0.0 that pads
        product rows. Each sum group is one ``weighted_logsumexp`` call with
        a column per node; its arithmetic is elementwise, so every node gets
        the bits it gets in a batch or alone.
        """
        if counter is not None:
            counter.update(self.ids)
        vals = np.zeros(len(self.nodes) + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            for var, table in self.leaf_tables:
                if observed[var]:
                    vals[table.index] = np.log(table.density(values[var]))
            for groups, prods in self.levels:
                for idx, kids, weights, _ in groups:
                    vals[idx] = weighted_logsumexp(vals[kids], weights)
                if prods is not None:
                    idx, kids = prods
                    acc = np.zeros(idx.size)
                    for column in kids:
                        acc = acc + vals[column]
                    vals[idx] = acc
        return vals

    def evaluate_rows(self, batch: _Batch) -> np.ndarray:
        """Per-row log values of the root, each node evaluated once per entry of its key.

        Nodes run in postorder, each holding a (key, table) pair until its
        parent takes it. A leaf of an observed variable evaluates at that
        variable's points; a parent reads each child's table at its own
        key's entries and combines them with ``_combine``, where a child of
        no observed variable broadcasts its one entry.
        """
        pending: list[tuple[int, np.ndarray]] = []
        with np.errstate(divide="ignore"):
            for i, (node, kind, children) in enumerate(zip(self.nodes, self.kinds,
                                                           self.children)):
                if kind == _LEAF:
                    points = batch.points.get(node.variable)
                    if points is None:
                        pending.append((0, np.zeros(1)))
                    else:
                        pending.append((1 << node.variable,
                                        np.log(leaf_density_batch(node, points))))
                    continue
                kids = pending[len(pending) - len(children):]
                del pending[len(pending) - len(children):]
                mask = 0
                for m, _ in kids:
                    mask |= m
                pending.append((mask, self._combine(i, [batch.gather(m, t, mask)
                                                        for m, t in kids])))
        return batch.rows(*pending[-1])

    def variable_tables(self, var: int, points: np.ndarray, base: np.ndarray) -> dict:
        """Log tables of the nodes with ``var`` in scope, ``var`` observed at ``points``.

        Maps node index to its (g,) table, in postorder, so the root's table
        is ``var``'s log marginal on ``points``. ``base`` holds every node's
        all-marginalized log value (``evaluate_row`` with nothing observed);
        a child without ``var`` in scope enters as that scalar.
        """
        tables: dict[int, np.ndarray] = {}
        for i in self.scope_owner[self.scope_vars == var].tolist():
            if self.kinds[i] == _LEAF:
                with np.errstate(divide="ignore"):
                    tables[i] = np.log(leaf_density_batch(self.nodes[i], points))
            else:
                kids = [tables.get(c, base[c]) for c in self.children[i].tolist()]
                tables[i] = self._combine(i, kids)
        return tables

    def pair_table(self, tables_a: dict, tables_b: dict, base: np.ndarray) -> np.ndarray:
        """(ga, gb) log table of the root with variables a and b observed on their grids.

        ``tables_a`` and ``tables_b`` are the two variables'
        ``variable_tables``. Only the nodes with both variables in scope are
        combined here; their other children enter as a's tables (ga, 1), b's
        tables (1, gb) or ``base`` scalars.
        """
        tables: dict[int, np.ndarray] = {}
        for i in (i for i in tables_a if i in tables_b):
            kids = []
            for c in self.children[i].tolist():
                if c in tables:
                    kids.append(tables[c])
                elif c in tables_a:
                    kids.append(tables_a[c][:, None])
                elif c in tables_b:
                    kids.append(tables_b[c][None, :])
                else:
                    kids.append(base[c])
            tables[i] = self._combine(i, kids)
        return tables[self.root]

    def _combine(self, i: int, kids: list) -> np.ndarray:
        """Node ``i``'s table from its children's, broadcast against each other.

        The one sum and product arithmetic of every table executor, cell by
        cell: ``weighted_logsumexp`` for a sum, ``0.0 + c0 + c1 + ...`` in
        child order for a product.
        """
        if self.kinds[i] == _SUM:
            return weighted_logsumexp(np.stack(np.broadcast_arrays(*kids)), self.nodes[i].weights)
        out = np.zeros(np.broadcast_shapes(*(np.shape(k) for k in kids)))
        for k in kids:
            out = out + k
        return out

    def max_product(self, vals: np.ndarray, observed: np.ndarray, counter=None) -> list:
        """MPE's max-product pass: [(variable, value), ...] for the free variables.

        ``vals`` is ``evaluate_row`` under the evidence. A node with one
        free variable is a 1-d mixture of its leaves of that variable; it
        is maximized where a node with two or more free variables consumes
        it, or at the root (its settle point). The mixtures' log
        coefficients come from ``_coefficients``, their grids and leaf
        densities from ``settle_table``. The nodes with two or more free
        variables then take their maxima level by level, and a walk down
        the chosen nodes collects the settle points' maximizers.
        """
        n = len(self.nodes)
        entries = np.flatnonzero(~observed[self.scope_vars])
        owners = self.scope_owner[entries]
        n_free = np.bincount(owners, minlength=n + 1)  # slot n: 0, the root's parent
        if counter is not None:
            counter.update([self.ids[i] for i in np.flatnonzero(n_free).tolist()])
        if not n_free[self.root]:
            return []
        free_var = np.zeros(n, dtype=np.intp)
        free_var[owners] = self.scope_vars[entries]  # the one free variable of 1-free nodes
        best = vals.copy()  # per node: its log maximum under the evidence
        at: dict[int, float] = {}  # settle point -> maximizer of its free variable
        settle = np.flatnonzero((n_free[:n] == 1) & (n_free[self.parent] != 1))
        if settle.size:
            coef = self._coefficients(vals, n_free)
            for s, var in zip(settle.tolist(), free_var[settle].tolist()):
                table = self.settle_table(s, var)
                terms = coef[table.ranks].repeat(table.sizes) + table.log_density
                total = table.unset.copy()
                for a, b, o, p in table.spans:
                    total[a:b] = np.logaddexp(total[a:b], terms[o:p])
                k = int(total.argmax())  # ties to the smallest value
                best[s] = total[k]
                at[s] = float(table.grid[k])
        choice = self._max_levels(best, n_free >= 2)

        out = []
        stack = [self.root]
        while stack:
            i = stack.pop()
            if i in at:
                out.append((int(free_var[i]), at[i]))
            elif self.kinds[i] == _SUM:
                stack.append(int(choice[i]))
            else:
                stack.extend(c for c in self.children[i].tolist() if n_free[c])
        return out

    def _coefficients(self, vals: np.ndarray, n_free: np.ndarray) -> np.ndarray:
        """Per leaf, its log coefficient in the mixture its settle point maximizes.

        Every edge below a node with one free variable scales the leaves
        under it: a sum edge by its weight, the free child of a product by
        the product's fully observed children (``0.0 + v0 + v1 + ...`` in
        child order). Adding each edge's log value to a per-leaf
        accumulator, parents in ascending height, gives each leaf
        ``x_top + (... + (x_parent + 0.0))``, nested from the leaf up.
        """
        # a free child adds 0.0 instead of being skipped: a sum that starts
        # at 0.0 is never -0.0, so adding 0.0 leaves its bits alone
        observed_vals = np.where(n_free > 0, 0.0, vals)
        idx, kids = self.products
        offset = np.zeros(idx.size)
        for column in kids:
            offset = offset + observed_vals[column]
        offsets = np.zeros(len(self.nodes))
        offsets[idx] = offset
        e = self.edges
        sel = np.flatnonzero((n_free[e.parent] == 1) & (n_free[e.child] > 0))
        value = np.where(e.is_sum[sel], e.log_w[sel], offsets[e.parent[sel]])
        lo, size = e.lo[sel], e.size[sel]
        acc = np.zeros(self.leaf_nodes.size)
        # one step per parent height; the subtrees of one height are disjoint
        bounds = np.flatnonzero(np.diff(e.height[sel], prepend=-1, append=-1)).tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            stop = np.cumsum(size[a:b])
            leaves = np.arange(stop[-1]) + np.repeat(lo[a:b] - stop + size[a:b], size[a:b])
            acc[leaves] = np.repeat(value[a:b], size[a:b]) + acc[leaves]
        return acc

    def settle_table(self, i: int, var: int) -> _SettleTable:
        """Node ``i``'s ``_SettleTable`` in ``var``, built on first use and kept."""
        table = self.settle_tables.get((i, var))
        if table is not None:
            return table
        lo, hi = self.subtree_leaves[0][i], self.subtree_leaves[1][i]
        ranks = lo + np.flatnonzero(self.leaf_vars[lo:hi] == var)
        leaves = [self.nodes[j] for j in self.leaf_nodes[ranks].tolist()]
        grid = _free_candidates([(0.0, leaf) for leaf in leaves])
        spans, parts, o = [], [], 0
        for leaf in leaves:
            if leaf.domain == CATEGORICAL:
                a, b = 0, grid.size
            else:
                first, last = leaf_support(leaf)
                a = int(np.searchsorted(grid, first, side="left"))
                b = int(np.searchsorted(grid, last, side="right"))
            with np.errstate(divide="ignore"):
                parts.append(np.log(leaf_density_batch(leaf, grid[a:b])))
            spans.append((a, b, o, o + b - a))
            o += b - a
        sizes = np.array([b - a for a, b, _, _ in spans])
        table = _SettleTable(grid, np.full(grid.size, -np.inf), ranks, sizes, spans,
                             np.concatenate(parts))
        self.settle_tables[i, var] = table
        return table

    def _max_levels(self, best: np.ndarray, multi: np.ndarray) -> np.ndarray:
        """Log maxima of the ``multi`` nodes, written into ``best`` level by level.

        A sum takes its first best weighted child (``np.argmax``), whose
        index it keeps as the returned back-pointer; a product adds its
        children's maxima to 0.0 in child order.
        """
        choice = np.zeros(len(self.nodes), dtype=np.intp)
        for groups, prods in self.levels:
            for idx, kids, _, log_w in groups:
                live = multi[idx]
                if not live.any():
                    continue
                idx, kids = idx[live], kids[:, live]
                scored = log_w[:, live] + best[kids]
                pick = scored.argmax(axis=0)
                cols = np.arange(idx.size)
                best[idx] = scored[pick, cols]
                choice[idx] = kids[pick, cols]
            if prods is not None:
                idx, kids = prods
                live = multi[idx]
                if live.any():
                    acc = np.zeros(int(live.sum()))
                    for column in kids[:, live]:
                        acc = acc + best[column]
                    best[idx[live]] = acc
        return choice


def evaluation_plan(mspn: Mspn) -> _Plan:
    """The model's evaluation plan, compiled on first use and kept on the model."""
    plan = mspn._plan
    if plan is None:
        plan = _Plan(mspn.root)
        object.__setattr__(mspn, "_plan", plan)
    return plan


def log_evaluate_batch(mspn: Mspn, values: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Log value of many queries sharing one observation mask.

    ``values`` is (rows, n_vars); ``observed`` is a single (n_vars,) bool
    mask applied to every row. Observed values are checked as
    ``log_evaluate`` checks them: one that is not finite, a discrete count
    or category code that is not an integer, or a negative code raises
    :class:`QueryError`. A node with one observed variable in its scope
    is evaluated once per distinct value of that variable, so the cost
    falls with repeated values; nodes with several run on every row. Each
    row gets the value ``log_evaluate`` gives it alone, bit
    for bit, whatever the other rows are.
    """
    values = np.asarray(values, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    return evaluation_plan(mspn).evaluate_rows(_Batch(mspn.schema, values, observed))


def log_evaluate(mspn: Mspn, evidence: Evidence, counter=None) -> float:
    """Log of the (mixed density/mass) value of the evidence.

    Marginalized variables integrate out, so all-marginalized evidence
    returns exactly 0 for a valid model.
    """
    _check_evidence(mspn, evidence)
    plan = evaluation_plan(mspn)
    return float(plan.evaluate_row(evidence.values, evidence.observed, counter)[plan.root])


def log_conditional(mspn: Mspn, query: Evidence, given: Evidence, counter=None) -> float:
    """log p(query | given) as a difference of two evaluations."""
    joint = query.merged(given)  # a QueryError unless both cover the same, disjoint variables
    denom = log_evaluate(mspn, given, counter)
    if denom == -np.inf:
        raise ConditioningError("conditioning evidence has zero probability")
    num = log_evaluate(mspn, joint, counter)
    return num - denom


def _free_candidates(terms) -> np.ndarray:
    """Points that cover every possible maximum of a 1-d leaf mixture.

    A sum of piecewise-linear densities is piecewise linear between the
    union of the knots, so its maximum sits on a knot; a sum of histogram
    densities is piecewise constant between the union of the edges, so
    evaluating the midpoints of that union partition is exact. Discrete
    and categorical variables enumerate their whole (integer) support.
    """
    leaves = [leaf for _, leaf in terms]
    domain = leaves[0].domain
    if domain == CATEGORICAL:
        arity = max(leaf.n_bins for leaf in leaves)
        return np.arange(arity, dtype=np.float64)
    if domain == DISCRETE:
        lo = min(leaf_support(leaf)[0] for leaf in leaves)
        hi = max(leaf_support(leaf)[1] for leaf in leaves)
        return np.arange(np.ceil(lo), np.floor(hi) + 1.0)
    parts = []
    edges = [leaf.edges for leaf in leaves if isinstance(leaf, HistogramLeaf)]
    for leaf in leaves:
        if isinstance(leaf, PiecewiseLinearLeaf):
            parts.append(leaf.knots_x)
    if edges:
        merged = np.unique(np.concatenate(edges))
        parts.append(merged)
        parts.append(0.5 * (merged[1:] + merged[:-1]))
    return np.unique(np.concatenate(parts))


def mpe(mspn: Mspn, evidence: Evidence, counter=None) -> tuple[np.ndarray, float]:
    """Most probable completion of the evidence.

    Two passes over the evaluation plan. The first, ``evaluate_row``,
    evaluates every node under the evidence, which gives each fully
    observed subtree its exact value. The second, ``_Plan.max_product``,
    runs over the nodes with free (unobserved) variables in scope:

    * a node with one free variable is, under the evidence, a 1-d mixture
      of its leaves of that variable, with log coefficients that absorb sum
      weights and the values of fully observed product siblings. Where a
      node with two or more free variables consumes it, or at the root,
      the mixture is maximized exactly: its density is piecewise linear
      (or a finite table), so the true maximizer lies on the union of the
      leaves' knots, bin midpoints, integers or category codes (ties to
      the smallest value). The grid and the leaf densities on it are kept
      on the plan per (node, variable), so repeated masks reuse them;
    * a node with two or more free variables takes its log maximum: a sum
      its best weighted child (ties to the lowest index), a product the
      sum of its children's maxima. A walk down the chosen children joins
      the maximizers into one assignment.

    The returned log value scores the completed assignment with a
    standard evaluation query, so for fully observed evidence it equals
    ``log_evaluate(evidence)``.
    """
    _check_evidence(mspn, evidence)
    plan = evaluation_plan(mspn)
    vals = plan.evaluate_row(evidence.values, evidence.observed, counter)
    assignment = evidence.values.copy()
    for var, x in plan.max_product(vals, evidence.observed, counter):
        assignment[var] = x
    value = log_evaluate(mspn, Evidence(assignment, np.ones(mspn.n_vars, dtype=bool)))
    return assignment, value


def sample(mspn: Mspn, evidence: Evidence, rng: np.random.Generator,
           counter=None) -> np.ndarray:
    """Draw one assignment from the model conditioned on the evidence.

    One plan pass evaluates every node under the evidence, then a top-down
    descent picks a child at each Sum with probability proportional to
    weight times the child's evaluated value, descends every child of a
    Product, samples unobserved leaves, and copies observed values through.
    """
    return sample_rows(mspn, evidence, rng, 1, counter)[0]


def sample_rows(mspn: Mspn, evidence: Evidence, rng: np.random.Generator, n: int,
                counter=None) -> np.ndarray:
    """``n`` draws, one per row, from one plan pass under the evidence.

    The evidence fixes every node's value, so only the descent repeats;
    the rows equal ``n`` successive ``sample`` calls with the same ``rng``.
    """
    _check_evidence(mspn, evidence)
    plan = evaluation_plan(mspn)
    vals = plan.evaluate_row(evidence.values, evidence.observed, counter)
    if vals[plan.root] == -np.inf:
        raise ConditioningError("evidence has zero probability; cannot sample")

    rows = np.tile(evidence.values, (n, 1))
    for assignment in rows:
        stack = [plan.root]
        while stack:
            i = stack.pop()
            node, kind, kids = plan.nodes[i], plan.kinds[i], plan.children[i]
            _bump(counter, node)
            if kind == _SUM:
                logits = vals[kids]
                top = logits.max()
                probs = node.weights * np.exp(logits - top)
                cum = np.cumsum(probs)
                pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
                stack.append(int(kids[min(pick, kids.size - 1)]))
            elif kind == _PRODUCT:
                # reversed so children are visited (and consume randomness)
                # in their natural left-to-right order
                stack.extend(kids[::-1].tolist())
            elif not evidence.observed[node.variable]:
                assignment[node.variable] = leaf_sample(node, rng)
    return rows
