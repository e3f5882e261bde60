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
and heights, one flat leaf table (every leaf's knots, densities and
slopes laid end to end, a histogram's edges and bin densities with slope
0, categorical ones included), the sum nodes grouped by height and child
count, and every edge with the range of leaves below it.
Neither compiling nor running a plan recurses, so the depth of the trees
they handle is bounded by memory, not by Python's recursion limit. The
executors on the plan:

* ``_Plan.evaluate_row`` answers one validated row (``log_evaluate``,
  ``log_conditional``, ``mpe``, ``sample``). It walks the heights once:
  the observed leaves get their densities from one pass over the leaf
  table that reproduces ``leaf_density_batch``, each group of sum nodes
  with the same height and child count is one ``weighted_logsumexp``
  call, and products add ``0.0 + c0 + c1 + ...`` in child order.
* ``_Plan.evaluate_tables`` evaluates the nodes on tables of observed
  values: many rows (``log_evaluate_batch``, on the distinct values
  ``_Batch`` gives each observed variable) or the grids of one or two
  variables (``mutual_information``, ``mi_graph``). Only the nodes with an
  observed variable in scope run; the others enter their parents as their
  all-marginalized value, ``_Plan.base``. A node with one observed
  variable runs on that variable's points, a grid or a batch column's
  distinct values. A node with several combines its children's tables by
  broadcasting, reading them per row in a batch and as (ga, 1) and
  (1, gb) tables on a pair's grid. Sums and products go through
  ``_Plan._combine``, so each cell gets the bits its row gets alone. MI
  keeps each variable's tables and shares them among pairs, so a pair
  runs only the nodes with both variables in scope.
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
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
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
# dense: the nodes with only it observed run on every row.
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


class _LeafTable:
    """Every leaf of a plan as one piecewise-linear density, knots laid end to end.

    Leaf k owns ``x``, ``y`` and ``slope`` at ``start[k] .. start[k] +
    count[k] - 1``. A piecewise-linear leaf keeps its knots, and each
    slope is computed as ``np.interp`` computes it (0 at the last knot). A
    histogram is piecewise constant: its knots are its edges, its
    densities each bin's as ``leaf_density_batch`` divides it out (the top
    bin's repeated at the last edge) and its slopes 0. ``density``
    reproduces ``leaf_density_batch`` for one value per leaf: the segment
    is the last knot <= x, a value on a knot takes that knot's density,
    and otherwise the density is ``slope * (x - x_j) + y_j``. Outside
    ``first .. last`` it is ``outside``: 0, or for a categorical leaf,
    whose range is the codes 0 .. arity - 1 (x is a validated integer),
    its unseen mass.
    """

    def __init__(self, leaves):
        xs, ys, slopes, last, outside = [], [], [], [], []
        for leaf in leaves:
            if isinstance(leaf, PiecewiseLinearLeaf):
                x, y = leaf.knots_x, leaf.knots_y
                slopes.append(np.append(np.diff(y) / np.diff(x), 0.0))
            else:
                x, widths = leaf.edges, np.diff(leaf.edges)
                if leaf.domain == DISCRETE:
                    widths = np.maximum(np.rint(widths), 1.0)
                dens = leaf.masses / widths
                y = np.append(dens, dens[-1])
                slopes.append(np.zeros(x.size))
            categorical = leaf.domain == CATEGORICAL
            last.append(x[-1] - 1.0 if categorical else x[-1])
            outside.append(leaf.unseen_mass if categorical else 0.0)
            xs.append(x)
            ys.append(y)
        self.count = np.array([x.size for x in xs])
        self.start = np.concatenate(([0], np.cumsum(self.count[:-1])))
        self.x, self.y, self.slope = (np.concatenate(a) for a in (xs, ys, slopes))
        self.first = self.x[self.start]
        self.last = np.array(last)
        self.outside = np.array(outside)

    def density(self, x: np.ndarray) -> np.ndarray:
        below = np.add.reduceat(self.x <= np.repeat(x, self.count), self.start, dtype=np.intp)
        j = self.start + np.maximum(below - 1, 0)
        xj, yj = self.x[j], self.y[j]
        d = np.where(x == xj, yj, self.slope[j] * (x - xj) + yj)
        return np.where((x < self.first) | (x > self.last), self.outside, d)


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

    Checking the batch gives each observed variable its distinct values
    (``points``) and a dense id per row (``ids``): from a presence table for
    a discrete or categorical column whose range spans at most
    ``_CODES_PER_ROW`` codes per row, which needs no sort, and from
    ``np.unique`` for the others. A variable with more than one distinct
    value per ``_ROWS_PER_ENTRY`` rows is dense: its points are its rows and
    it has no ids; a column sorted by ``np.unique`` is taken as dense
    unsorted when a strided sample of it is. Which variables are keyed
    changes only speed.
    """

    def __init__(self, schema: Schema, values: np.ndarray, observed: np.ndarray):
        self.n_rows = n = values.shape[0]
        self.points: dict[int, np.ndarray] = {}  # variable -> where its leaves are evaluated
        self.ids: dict[int, np.ndarray] = {}  # keyed variable -> its id per row
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
                self.ids[var] = ids
            self.points[var] = points


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
        self.levels = self._levels()
        # leaves numbered in postorder: their nodes, variables and table,
        # and the numbers lo .. hi - 1 of the leaves under each node
        self.leaf_nodes = np.flatnonzero(is_leaf)
        self.leaf_vars = np.array([nodes[i].variable for i in self.leaf_nodes], dtype=np.intp)
        self.leaf_table = _LeafTable([nodes[i] for i in self.leaf_nodes.tolist()])
        self.subtree_leaves = (leaves_before[first], leaves_before[1:])
        self.edges = self._edges()
        product_idx = np.flatnonzero(np.array(kinds) == _PRODUCT)
        self.products = (product_idx,
                         _padded([children[i] for i in product_idx], n).astype(np.intp).T
                         if product_idx.size else np.zeros((0, 0), dtype=np.intp))
        # (node, free variable) -> _SettleTable, built on first use by mpe
        self.settle_tables: dict[tuple[int, int], _SettleTable] = {}

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
        seen = observed[self.leaf_vars]
        x = np.where(seen, values[self.leaf_vars], 0.0)  # unobserved values are never read
        # far outside a leaf, slope * (x - x_j) may overflow; the range mask drops it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals[self.leaf_nodes] = np.where(seen, np.log(self.leaf_table.density(x)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
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

    @cached_property
    def base(self) -> np.ndarray:
        """Every node's log value with nothing observed (``evaluate_row``)."""
        nothing = np.zeros(int(self.leaf_vars.max()) + 1)
        return self.evaluate_row(nothing, nothing.astype(bool))

    @cached_property
    def var_nodes(self) -> list:
        """Per variable, the set of nodes with it in scope."""
        nodes: list[set] = [set() for _ in range(int(self.scope_vars.max()) + 1)]
        for i, var in zip(self.scope_owner.tolist(), self.scope_vars.tolist()):
            nodes[var].add(i)
        return nodes

    @cached_property
    def visit_rank(self) -> list:
        """Each node's place in a postorder that enters larger subtrees first.

        ``evaluate_tables`` runs its nodes in this order (children still
        combine in child order). Tables wait only at the nodes where the
        walk is inside a child other than the first, whose subtree is at
        most half its parent's, so with at most ``k`` children per node no
        more than ``(k - 1) * log2(nodes)`` wait at once, whatever the
        depth (Sethi and Ullman 1970). A preorder that pushes the children
        largest first, and so pops them smallest first, is this postorder
        reversed.
        """
        size = [1] * len(self.nodes)
        for i, kids in enumerate(self.children):
            size[i] += sum(size[c] for c in kids.tolist())
        preorder, stack = [], [self.root]
        while stack:
            i = stack.pop()
            preorder.append(i)
            stack.extend(sorted(self.children[i].tolist(), key=lambda c: -size[c]))
        rank = [0] * len(self.nodes)
        for place, i in enumerate(reversed(preorder)):
            rank[i] = place
        return rank

    def evaluate_tables(self, variables, points: dict, ids: dict, known: dict | None):
        """The root's log table with ``variables`` observed at ``points``.

        Only the nodes with some of ``variables`` in scope run; a child with
        none enters its parent as its ``base`` value. A node with one of
        them, ``v``, has a table on ``points[v]``. ``known``, if given, maps
        variables to such tables (node -> table): the tables of a variable
        it holds are read from it, and those the call computes are added to
        it. A node with several variables combines its children's tables by
        broadcasting, a one-variable child entering as ``table[ids[v]]``, or
        as is when ``v`` has no ids; the root's table comes back the same
        way. Every other table is dropped once its parent has read it, so a
        call without ``known`` holds only the tables still waiting for
        their parent, and running the nodes in ``visit_rank`` order keeps
        those few on a deep tree.
        """
        fresh = [v for v in variables if known is None or v not in known]
        stored = [(v, known[v]) for v in variables if v not in fresh]
        run, seen = {}, set()  # node -> its one variable, or -1 for several
        for v in variables:
            run.update(dict.fromkeys(seen & self.var_nodes[v], -1))
            seen |= self.var_nodes[v]
        for v in fresh:
            run.update(dict.fromkeys(self.var_nodes[v] - run.keys(), v))
        adding = {v: known.setdefault(v, {}) for v in fresh} if known is not None else {}
        tables = {}  # node -> (its one variable or -1, table)

        def gathered(nodes, var):
            """The tables of ``nodes`` as their parent reads them.

            ``var`` is the parent's one observed variable, or -1 for several;
            a table of another single variable is read at that one's ids.
            """
            out = []
            for c in nodes:
                if c in tables:
                    v, table = tables.pop(c)
                else:
                    for v, held in stored:
                        if c in held:
                            table = held[c]
                            break
                    else:
                        out.append(self.base[c])
                        continue
                out.append(table[ids[v]] if v != var and v in ids else table)
            return out

        # only leaves take logs, and only the leaves of fresh variables run
        with np.errstate(divide="ignore") if fresh else nullcontext():
            for i in sorted(run, key=self.visit_rank.__getitem__):
                v = run[i]
                if self.kinds[i] == _LEAF:
                    table = np.log(leaf_density_batch(self.nodes[i], points[v]))
                else:
                    table = self._combine(i, gathered(self.children[i].tolist(), v))
                tables[i] = v, table
                if v in adding:
                    adding[v][i] = table
        return gathered([self.root], -1)[0]

    def _combine(self, i: int, kids: list) -> np.ndarray:
        """Node ``i``'s table from its children's, broadcast against each other.

        The one sum and product arithmetic of the table executor, cell by
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
    falls with repeated values; nodes with several run on every row, and
    nodes with none do not run. Each row gets the value ``log_evaluate``
    gives it alone, bit for bit, whatever the other rows are.
    """
    values = np.asarray(values, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    batch = _Batch(mspn.schema, values, observed)
    out = evaluation_plan(mspn).evaluate_tables(list(batch.points), batch.points, batch.ids, None)
    return out if np.ndim(out) else np.full(batch.n_rows, out)


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
