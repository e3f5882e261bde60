"""Query answering on a learned network.

Every query is a bottom-up pass over the tree, plus for MPE a max-product
pass over the nodes with free variables and for sampling a top-down walk
per draw, so query cost is linear in the node count. All computation happens
in log space: observed continuous variables contribute log-densities,
observed discrete/categorical variables contribute log-masses, and
marginalized variables contribute log 1 = 0 at their leaves. The value of
a mixed query is therefore a density with respect to the product of
Lebesgue measure (continuous coordinates) and counting measure (the rest).

The first query compiles the model into an evaluation plan, kept on the
model: the nodes in iterative postorder with their child indices and
heights, each node's parent with its log weight there if the parent is a
sum, one flat leaf table (every leaf's ``knot_table``, its one density
rule, laid end to end), and one height-sorted child matrix per internal
node kind (``_NodeMatrix``) with each height's columns copied into a
contiguous block. Neither compiling nor running a plan recurses, so the
depth of the trees they handle is bounded by memory, not by Python's
recursion limit. The executors on the plan:

* ``_Plan.evaluate_rows`` answers a few validated rows in one pass
  (``log_conditional``'s given and joint rows), or one row (``log_evaluate``,
  ``mpe``, ``sample``). Its cost is numpy calls, not arithmetic, so it
  makes a fixed few per height. It walks the heights once: the observed
  leaves get their densities from one pass over the leaf table, the sums
  of a height are one ``weighted_logsumexp`` call on the height's
  contiguous block, and its products one ``_product`` fold,
  ``0.0 + c0 + c1 + ...`` in child order. The rows sit side by side
  as extra columns of those blocks, each row's node slots shifted by
  ``len(nodes) + 2``, so a few rows cost about the calls of one.
* ``_Plan.evaluate_tables`` evaluates the nodes on tables of observed
  values: many rows (``log_evaluate_batch``, on the distinct values
  ``_Batch`` gives each observed variable) or the grids of one or two
  variables (``mutual_information``, ``mi_graph``). Only the nodes with an
  observed variable in scope run; the others enter their parents as their
  all-marginalized value, ``_Plan.base``. A node with one observed
  variable runs on that variable's points, a grid or a batch column's
  distinct values, a leaf through ``leaf_density_batch``. A node with
  several combines its children's tables by broadcasting, reading them
  per row in a batch and as (ga, 1) and (1, gb) tables on a pair's grid.
  Sums and products go through ``_Plan._combine``, so each cell gets the
  bits its row gets alone. MI keeps each variable's tables and shares
  them among pairs, so a pair runs only the nodes with both variables in
  scope.
* ``_Plan.max_product`` is MPE's second pass, in three vectorized steps.
  The leaves' log coefficients in their 1-d mixtures accumulate per leaf,
  every leaf walking up the parent array one step at a time. Every
  mixture of the query is then maximized at once on its candidate grid:
  the cached per-(node, variable) tables, which hold each grid cell's leaf
  densities cell by cell, are laid end to end, and one segmented
  ``logaddexp`` fold gives every cell its mixture value, so a query costs
  a fixed number of numpy calls however many mixtures it has. The nodes
  with two or more free variables then take their maxima level by level,
  each height's whole blocks at once, sums keeping a back-pointer to their
  best child, and a walk down those pointers collects the assignment.
* ``sample_rows`` draws by walking down from the root. Before the walk,
  ``_Plan.choice_table`` gives every sum its cumulative weighted child
  values, one vectorized pass over the sum matrix, laid end to end in one
  list of floats, and each free leaf draws from an inverse-CDF table kept
  on the leaf. So a visited sum costs one ``rng.random()`` and one bisect,
  a free leaf one table lookup, and the walk makes no numpy call.

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
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, Schema
from .errors import ConditioningError, QueryError
from .leaves import leaf_density_batch, leaf_sample, mixture_candidates
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


def _padded(columns: list, fill) -> np.ndarray:
    """1-d arrays as the columns of a matrix, padded with ``fill``.

    The matrix has at least one row, so even an empty one reduces along axis 0.
    """
    lengths = np.array([len(c) for c in columns], dtype=np.intp)
    out = np.full((lengths.max(initial=1), len(columns)), fill)
    if columns:
        out.T[np.arange(out.shape[0]) < lengths[:, None]] = np.concatenate(columns)
    return out


def _product(terms) -> np.ndarray:
    """``0.0 + t0 + t1 + ...``, a product node's one arithmetic, over its children's terms.

    The terms are a matrix's rows or arrays that broadcast together.
    Starting at 0.0 keeps a total from being -0.0, so a term of 0.0 never
    changes its bits.
    """
    out = 0.0
    for t in terms:
        out = out + t
    return out


class _LeafTable:
    """Every leaf's ``knot_table`` (``leaves.KnotTable``), laid end to end.

    Leaf k owns ``x``, ``y`` and ``slope`` at ``start[k] .. start[k] +
    count[k] - 1`` (``knot_leaf`` names each knot's leaf), its support is
    ``first[k] .. last[k]`` and its density outside it ``outside[k]``.
    ``density`` reads the rule of the knot tables for one value per leaf,
    in one vectorized pass: the segment is the last knot <= x, and the
    density is ``slope * (x - x_j) + y_j``, which is ``y_j`` on a knot
    because every slope is finite.
    """

    def __init__(self, leaves):
        xs, ys, slopes, last, outside = zip(*(leaf.knot_table for leaf in leaves))
        self.count = np.array([x.size for x in xs])
        self.start = np.concatenate(([0], np.cumsum(self.count[:-1])))
        self.knot_leaf = np.repeat(np.arange(self.count.size), self.count)
        self.x, self.y, self.slope = (np.concatenate(a) for a in (xs, ys, slopes))
        self.first = self.x[self.start]
        self.last = np.array(last)
        self.outside = np.array(outside)

    def density(self, x: np.ndarray) -> np.ndarray:
        below = np.add.reduceat(self.x <= x[self.knot_leaf], self.start, dtype=np.intp)
        # below x[0] a leaf has no knot <= x; its first knot stands in, and the range mask drops it
        j = np.maximum(self.start - 1 + below, self.start)
        d = self.slope[j] * (x - self.x[j]) + self.y[j]
        return np.where((x < self.first) | (x > self.last), self.outside, d)


class _SettleTable(NamedTuple):
    """What MPE needs to maximize one node's 1-d mixture in one variable.

    The mixture's terms are the node's leaves of that variable, in
    postorder; ``ranks`` are their positions among all the plan's leaves.
    The entries hold each term's log density on the cells of the candidate
    ``grid`` inside the leaf's support (every cell if it has density
    outside, as a categorical leaf's unseen mass), laid out cell by cell:
    within a cell the terms keep their order, ``entry_ranks`` names each
    entry's leaf and ``first`` marks the first entry of each cell. Outside
    a support the density is 0, so the term adds nothing there. A cell no
    support covers holds one entry of log density 0 whose rank is the
    plan's leaf count, past the last leaf: ``_Plan._settle`` gives it a
    -inf coefficient.
    """

    grid: np.ndarray
    ranks: np.ndarray
    entry_ranks: np.ndarray
    log_density: np.ndarray
    first: np.ndarray


class _NodeMatrix(NamedTuple):
    """The internal nodes of one kind, one column each, in ascending height.

    ``nodes`` are their plan indices, and ``kids`` their children, one row
    per child position (as ``weighted_logsumexp`` takes them) and as many
    rows as the widest node has children. A product's column is padded
    with the plan's 0.0 slot; a sum's with its -inf slot, weight 0 and log
    weight -inf, so a pad adds 0 to a sum and never scores best.
    ``weights`` and ``log_w`` are None for products.
    """

    nodes: np.ndarray
    kids: np.ndarray
    weights: np.ndarray | None
    log_w: np.ndarray | None


class _Rows(NamedTuple):
    """What ``_Plan.evaluate_rows`` reads for arguments of one shape.

    The k rows sit side by side, row r's node slots ``r * (len(nodes) + 2)``
    on from row 0's, so each row keeps its own two pads. ``levels`` and
    ``leaf_table`` are the plan's, tiled k times with the node slots
    shifted; ``leaf_nodes`` and ``leaf_vars`` are each row's leaf slots and
    the flat positions of its leaves' values; ``blank`` is the result before
    the pass: zeros, with each row's sum pad -inf.
    """

    levels: list
    leaf_table: _LeafTable
    leaf_nodes: np.ndarray
    leaf_vars: np.ndarray
    blank: np.ndarray


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
        # per node and a pad slot n, the root's parent and its own: the parent,
        # whether it is a sum, and the node's log weight in it (0.0 under a product)
        parent = np.full(n + 1, n, dtype=np.intp)
        sum_child = np.zeros(n + 1, dtype=bool)
        edge_log_w = np.zeros(n + 1)
        with np.errstate(divide="ignore"):
            for i, (node, kind, kids) in enumerate(zip(nodes, kinds, children)):
                heights.append(0 if kind == _LEAF else
                               1 + max((heights[c] for c in kids.tolist()), default=0))
                if kids.size:
                    first[i] = first[int(kids[0])]
                    parent[kids] = i
                if kind == _SUM:
                    sum_child[kids] = True
                    edge_log_w[kids] = np.log(node.weights)
        is_leaf = np.array(kinds) == _LEAF
        # leaves_before[i]: how many leaves come before node i in postorder
        leaves_before = np.concatenate(([0], np.cumsum(is_leaf)))

        self.nodes = nodes
        self.ids = [id(node) for node in nodes]
        self.kinds = kinds
        self.children = children
        self.heights = np.array(heights)
        self.parent = parent
        self.sum_child = sum_child
        self.edge_log_w = edge_log_w
        self.scope_vars = np.array([v for node in nodes for v in node.scope], dtype=np.intp)
        self.scope_owner = np.repeat(np.arange(n), [len(node.scope) for node in nodes])
        self.root = n - 1
        # internal nodes by height, postorder within a height
        by_height = np.argsort(heights, kind="stable")
        sums, prods = (by_height[np.array(kinds)[by_height] == kind].tolist()
                       for kind in (_SUM, _PRODUCT))
        weights = _padded([nodes[i].weights for i in sums], 0.0)
        with np.errstate(divide="ignore"):
            self.sum_matrix = _NodeMatrix(np.array(sums, dtype=np.intp),
                                          _padded([children[i] for i in sums], n + 1),
                                          weights, np.log(weights))
        self.product_matrix = _NodeMatrix(np.array(prods, dtype=np.intp),
                                          _padded([children[i] for i in prods], n), None, None)
        self.levels = self._levels()
        # leaves numbered in postorder: their nodes, variables and table,
        # and the numbers lo .. hi - 1 of the leaves under each node
        self.leaf_nodes = np.flatnonzero(is_leaf)
        self.leaf_vars = np.array([nodes[i].variable for i in self.leaf_nodes], dtype=np.intp)
        self.leaf_table = _LeafTable([nodes[i] for i in self.leaf_nodes.tolist()])
        self.subtree_leaves = (leaves_before[first], leaves_before[1:])
        # (node, free variable) -> _SettleTable, built on first use by mpe
        self.settle_tables: dict[tuple[int, int], _SettleTable] = {}
        # evaluate_rows argument shape -> its _Rows, built on first use
        self.row_blocks: dict[tuple, _Rows] = {}

    def _levels(self) -> list:
        """Per height above the leaves, its (sums, products), each a ``_NodeMatrix``.

        Each is a C-contiguous copy of its height's columns of its kind's
        matrix, trimmed to the rows its widest node fills, or None if the
        height has none. They are built once, here: numpy gathers through a
        contiguous index block several times faster than through a column
        range of a wider matrix, and ``evaluate_rows`` gathers twice a height.
        """
        heights = self.heights
        levels = []
        for h in range(1, int(heights.max()) + 1):
            level = []
            for matrix in (self.sum_matrix, self.product_matrix):
                a, b = np.searchsorted(heights[matrix.nodes], (h, h + 1)).tolist()
                rows = max((self.children[i].size for i in matrix.nodes[a:b].tolist()), default=0)
                level.append(_NodeMatrix(matrix.nodes[a:b], *(
                    None if m is None else np.ascontiguousarray(m[:rows, a:b])
                    for m in matrix[1:])) if rows else None)
            levels.append(tuple(level))
        return levels

    @cached_property
    def steps(self) -> list:
        """What ``sample_rows``' top-down walk reads, built once per plan.

        ``steps[i]`` is node i's (kind, lo, hi, children, variable): a sum's
        cumulative weights are ``lo .. hi - 1`` of ``choice_table``, from
        the start of its column; a product's children are reversed, so that
        a stack pops them in child order; ``variable`` is a leaf's, -1
        elsewhere.
        """
        lo = [0] * len(self.nodes)
        width = self.sum_matrix.kids.shape[0]
        for column, i in enumerate(self.sum_matrix.nodes.tolist()):
            lo[i] = column * width
        steps = []
        for i, (node, kind, kids) in enumerate(zip(self.nodes, self.kinds, self.children)):
            kids = kids.tolist()
            steps.append((kind, lo[i], lo[i] + len(kids), kids[::-1] if kind == _PRODUCT else kids,
                          node.variable if kind == _LEAF else -1))
        return steps

    def choice_table(self, vals: np.ndarray) -> list:
        """Every sum's cumulative weighted child values, column after column.

        ``vals`` is ``evaluate_rows`` under the evidence. One pass over the
        sum matrix gives each node ``weights * exp(v - max v)`` over its
        children and their running sum, the arithmetic it would do alone;
        its pads add 0 after its last child. A dead sum, all of whose
        children are -inf, gets NaNs; the walk never enters it.
        """
        kids, weights = self.sum_matrix.kids, self.sum_matrix.weights
        with np.errstate(invalid="ignore"):
            logits = vals[kids]
            probs = weights * np.exp(logits - logits.max(axis=0))
        return np.cumsum(probs, axis=0).T.ravel().tolist()

    def _tile(self, shape: tuple) -> _Rows:
        """The ``_Rows`` of ``evaluate_rows`` arguments of this shape, kept on the plan.

        Every tiled block is a contiguous copy, the rows side by side along
        its last axis: gathers through views, and a (nodes, k) layout,
        measured slower. One row's blocks are ``levels`` and ``leaf_table``
        themselves.
        """
        k, n_vars, stride = math.prod(shape[:-1]), shape[-1], len(self.nodes) + 2

        def shifted(a, step):
            return np.concatenate([a + r * step for r in range(k)], axis=-1)

        def tiled(block):
            return None if block is None else _NodeMatrix(
                shifted(block.nodes, stride), shifted(block.kids, stride),
                *(None if a is None else np.tile(a, k) for a in block[2:]))

        if k == 1:
            levels, table = self.levels, self.leaf_table
        else:
            levels = [tuple(map(tiled, level)) for level in self.levels]
            table = _LeafTable([self.nodes[i] for i in self.leaf_nodes.tolist()] * k)
        blank = np.zeros(shape[:-1] + (stride,))
        blank[..., -1] = -np.inf
        blocks = _Rows(levels, table, shifted(self.leaf_nodes, stride),
                       shifted(self.leaf_vars, n_vars), blank)
        self.row_blocks[shape] = blocks
        return blocks

    def evaluate_rows(self, values: np.ndarray, observed: np.ndarray,
                      counter=None) -> np.ndarray:
        """Log value of every node for each of a few validated rows, in one plan pass.

        ``values`` and ``observed`` are (k, n_vars), or (n_vars,) for one
        row; row r of the (k, len(nodes) + 2) result, or the (len(nodes) +
        2,) one, is row r's node values, then its two pads: 0.0 for product
        columns, -inf for sum columns, where a pad's weight 0 makes its term
        exactly 0. The rows sit side by side in the contiguous blocks of
        ``row_blocks``, so k rows cost the numpy calls of one: per height,
        its sums are one ``weighted_logsumexp`` call with a column per node
        and row, whose arithmetic is elementwise, so every node gets the
        bits it gets in a batch or alone, and its products one ``_product``
        fold. ``counter`` counts each node once per row.
        """
        blocks = self.row_blocks.get(values.shape)
        if blocks is None:
            blocks = self._tile(values.shape)
        if counter is not None:
            for _ in range(values.size // values.shape[-1]):
                counter.update(self.ids)
        out = blocks.blank.copy()
        vals = out.ravel()
        seen = observed.ravel()[blocks.leaf_vars]
        x = np.where(seen, values.ravel()[blocks.leaf_vars], 0.0)  # unobserved values are never read
        # far outside a leaf, slope * (x - x_j) may overflow; the range mask drops it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals[blocks.leaf_nodes] = np.where(seen, np.log(blocks.leaf_table.density(x)), 0.0)
        for sums, prods in blocks.levels:
            if sums is not None:
                vals[sums.nodes] = weighted_logsumexp(vals[sums.kids], sums.weights)
            if prods is not None:
                vals[prods.nodes] = _product(vals[prods.kids])
        return out

    @cached_property
    def base(self) -> np.ndarray:
        """Every node's log value with nothing observed (``evaluate_rows``)."""
        nothing = np.zeros(int(self.leaf_vars.max()) + 1)
        return self.evaluate_rows(nothing, nothing.astype(bool))

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
        return _product(kids)

    def max_product(self, vals: np.ndarray, observed: np.ndarray, counter=None) -> list:
        """MPE's max-product pass: [(variable, value), ...] for the free variables.

        ``vals`` is ``evaluate_rows`` under the evidence. A node with one
        free variable is a 1-d mixture of its leaves of that variable; it
        is maximized where a node with two or more free variables consumes
        it, or at the root (its settle point). The mixtures' log
        coefficients come from ``_coefficients``, their grids and leaf
        densities from ``settle_table``, and ``_settle`` maximizes them all
        in one fold. The nodes with two or more free variables then take
        their maxima level by level (``_max_levels``), and a walk down the
        chosen nodes collects the settle points' maximizers. The coefficient
        walk and the levels cost a few numpy calls per height each.
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
        settle = np.flatnonzero((n_free == 1) & (n_free[self.parent] != 1))
        if settle.size:
            best[settle], x = self._settle(self._coefficients(vals, n_free, settle), settle,
                                           free_var[settle])
            at = dict(zip(settle.tolist(), x.tolist()))
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

    def _settle(self, coef: np.ndarray, settle: np.ndarray, variables: np.ndarray):
        """Each settle point's log maximum and its maximizer, from one fold.

        ``coef`` is ``_coefficients``' per-leaf coefficients. The settle
        points' tables are laid end to end and each cell's mixture value is
        one left ``logaddexp`` fold over its entries. That is the running
        total over the terms in postorder, started at -inf, that the
        recursive pass folds, bit for bit: ``logaddexp`` with -inf is
        exact, and no term is NaN or +inf. The sentinel entries of cells no
        support covers get the -inf appended past the last coefficient.
        Each settle point's maximizer is its first cell holding its
        maximum, so ties go to the smallest value, as ``argmax`` picks them.
        """
        grids, _, ranks, log_density, first = zip(
            *map(self.settle_table, settle.tolist(), variables.tolist()))
        grid = np.concatenate(grids)
        total = np.logaddexp.reduceat(
            np.append(coef, -np.inf)[np.concatenate(ranks)] + np.concatenate(log_density),
            np.flatnonzero(np.concatenate(first)))
        sizes = np.fromiter(map(len, grids), np.intp, len(grids))
        starts = np.cumsum(sizes) - sizes
        top = np.flatnonzero(total == np.repeat(np.maximum.reduceat(total, starts), sizes))
        k = top[np.searchsorted(top, starts)]
        return total[k], grid[k]

    def _coefficients(self, vals: np.ndarray, n_free: np.ndarray,
                      settle: np.ndarray) -> np.ndarray:
        """Per leaf, its log coefficient in the mixture its settle point maximizes.

        Every edge below a node with one free variable scales the leaves
        under it: a sum edge by its log weight, the free child of a product
        by the product's fully observed children (``0.0 + v0 + v1 + ...`` in
        child order). Every other edge adds +0.0. Each leaf walks up the
        ``parent`` array, adding its edges from the leaf up, so it gets
        ``x_top + (... + (x_parent + 0.0))``. A leaf's ancestors have
        strictly increasing heights, so the tallest ``settle`` point's height
        in steps reaches every edge below a settle point; past the root the
        walk stays in the pad slot, whose edge adds +0.0. Adding +0.0 changes
        no bits, since no total is -0.0: it starts at +0.0, and no edge
        value is -0.0. The walk holds one value per leaf and node, however
        deep the tree.
        """
        # a free child adds 0.0 instead of being skipped, as a pad does
        kids, parent = self.product_matrix.kids, self.parent
        offsets = np.zeros(len(self.nodes) + 1)
        offsets[self.product_matrix.nodes] = _product(np.where(n_free[kids] > 0, 0.0, vals[kids]))
        value = np.where((n_free[parent] == 1) & (n_free > 0),
                         np.where(self.sum_child, self.edge_log_w, offsets[parent]), 0.0)
        acc = np.zeros(self.leaf_nodes.size)
        node = self.leaf_nodes
        for _ in range(int(self.heights[settle].max(initial=0))):
            acc = value[node] + acc
            node = parent[node]
        return acc

    def settle_table(self, i: int, var: int) -> _SettleTable:
        """Node ``i``'s ``_SettleTable`` in ``var``, built on first use and kept."""
        table = self.settle_tables.get((i, var))
        if table is not None:
            return table
        lo, hi = self.subtree_leaves[0][i], self.subtree_leaves[1][i]
        ranks = lo + np.flatnonzero(self.leaf_vars[lo:hi] == var)
        leaves = [self.nodes[j] for j in self.leaf_nodes[ranks].tolist()]
        grid = mixture_candidates(leaves)
        t = self.leaf_table
        everywhere = t.outside[ranks] > 0
        spans = zip(np.searchsorted(grid, np.where(everywhere, -np.inf, t.first[ranks])).tolist(),
                    np.searchsorted(grid, np.where(everywhere, np.inf, t.last[ranks]),
                                    "right").tolist())
        covered = np.zeros(grid.size, dtype=bool)
        cells, densities = [], []
        for leaf, (a, b) in zip(leaves, spans):
            covered[a:b] = True
            cells.append(np.arange(a, b))
            densities.append(leaf_density_batch(leaf, grid[a:b]))
        # a cell no support covers holds one sentinel entry, of density 1
        bare = np.flatnonzero(~covered)
        cells.append(bare)
        densities.append(np.ones(bare.size))
        cell = np.concatenate(cells)
        order = np.argsort(cell, kind="stable")  # cell by cell, terms in postorder
        entry_ranks = np.repeat(np.append(ranks, self.leaf_nodes.size), list(map(len, cells)))
        with np.errstate(divide="ignore"):
            log_density = np.log(np.concatenate(densities))
        cell = cell[order]
        table = _SettleTable(grid, ranks, entry_ranks[order], log_density[order],
                             np.concatenate(([True], cell[1:] != cell[:-1])))
        self.settle_tables[i, var] = table
        return table

    def _max_levels(self, best: np.ndarray, multi: np.ndarray) -> np.ndarray:
        """Log maxima of the ``multi`` nodes, written into ``best`` level by level.

        Each height runs whole contiguous blocks, skipping a block with no
        ``multi`` node, and only the ``multi`` nodes keep their results. A
        sum takes its first best weighted child (``np.argmax``), whose index
        it keeps as the returned back-pointer (the walk reads only those of
        ``multi`` sums); a product adds its children's maxima to 0.0 in
        child order.
        """
        choice = np.zeros(len(self.nodes), dtype=np.intp)
        for sums, prods in self.levels:
            if sums is not None:
                live = multi[sums.nodes]
                if live.any():
                    scored = sums.log_w + best[sums.kids]
                    # pads score -inf after the last child, so argmax never picks one
                    pick = scored.argmax(axis=0)
                    cols = np.arange(pick.size)
                    best[sums.nodes] = np.where(live, scored[pick, cols], best[sums.nodes])
                    choice[sums.nodes] = sums.kids[pick, cols]
            if prods is not None:
                live = multi[prods.nodes]
                if live.any():
                    best[prods.nodes] = np.where(live, _product(best[prods.kids]),
                                                 best[prods.nodes])
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
    mask applied to every row. Other shapes raise :class:`QueryError`, and
    so do observed values that ``log_evaluate`` would reject: one that is
    not finite, a discrete count or category code that is not an integer,
    or a negative code. A node with one observed variable in its scope
    is evaluated once per distinct value of that variable, so the cost
    falls with repeated values; nodes with several run on every row, and
    nodes with none do not run. Each row gets the value ``log_evaluate``
    gives it alone, bit for bit, whatever the other rows are.
    """
    values = np.asarray(values, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    if values.ndim != 2 or values.shape[1] != mspn.n_vars or observed.shape != (mspn.n_vars,):
        raise QueryError(f"a batch needs (rows, {mspn.n_vars}) values and a ({mspn.n_vars},) "
                         f"mask, not {values.shape} and {observed.shape}")
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
    return float(plan.evaluate_rows(evidence.values, evidence.observed, counter)[plan.root])


def log_conditional(mspn: Mspn, query: Evidence, given: Evidence, counter=None) -> float:
    """log p(query | given), as log p(query, given) - log p(given).

    Both evidences are checked first, so an invalid query is a
    :class:`QueryError` even where ``given`` has zero probability. Then one
    plan pass evaluates the given and joint rows side by side
    (``_Plan.evaluate_rows``), and a ``given`` of zero probability raises
    :class:`ConditioningError`.
    """
    joint = query.merged(given)  # a QueryError unless both cover the same, disjoint variables
    _check_evidence(mspn, given)
    _check_evidence(mspn, joint)
    plan = evaluation_plan(mspn)
    vals = plan.evaluate_rows(np.stack((given.values, joint.values)),
                              np.stack((given.observed, joint.observed)), counter)
    denom, num = vals[:, plan.root].tolist()
    if denom == -np.inf:
        raise ConditioningError("conditioning evidence has zero probability")
    return num - denom


def mpe(mspn: Mspn, evidence: Evidence, counter=None) -> tuple[np.ndarray, float]:
    """Most probable completion of the evidence.

    Two passes over the evaluation plan. The first, ``evaluate_rows``,
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
      on the plan per (node, variable), so repeated masks reuse them, and
      the mixtures of one query are maximized together in one segmented
      ``logaddexp`` fold over their grid cells;
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
    vals = plan.evaluate_rows(evidence.values, evidence.observed, counter)
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

    The evidence fixes every node's value, and with it each sum's choice
    table (``_Plan.choice_table``), so only the descent repeats: a sum
    picks the first child whose cumulative weight exceeds ``rng.random()``
    times its total, by bisection, and a free leaf draws with
    ``leaf_sample`` from the table kept on the leaf. The rows equal ``n``
    successive ``sample`` calls with the same ``rng``.
    """
    _check_evidence(mspn, evidence)
    plan = evaluation_plan(mspn)
    vals = plan.evaluate_rows(evidence.values, evidence.observed, counter)
    if vals[plan.root] == -np.inf:
        raise ConditioningError("evidence has zero probability; cannot sample")

    rows = np.tile(evidence.values, (n, 1))
    steps, cum = plan.steps, plan.choice_table(vals)
    observed = evidence.observed.tolist()
    for assignment in rows:
        stack = [plan.root]
        while stack:
            i = stack.pop()
            if counter is not None:
                counter[plan.ids[i]] += 1
            kind, lo, hi, kids, var = steps[i]
            if kind == _SUM:
                pick = bisect_right(cum, rng.random() * cum[hi - 1], lo, hi)
                stack.append(kids[min(pick, hi - 1) - lo])
            elif kind == _PRODUCT:
                stack.extend(kids)
            elif not observed[var]:
                assignment[var] = leaf_sample(plan.nodes[i], rng)
    return rows
