"""The compiled evaluation plan against the recursive evaluator it replaced.

``oracle_eval``, ``oracle_sample`` and ``oracle_mpe`` evaluate, sample
and maximize by plain recursion over the tree, one node at a time, with
each node's own arithmetic, a sum's from the tests' own
``reference_logsumexp`` and each leaf's density from their
``reference_density``, not the code the queries run;
``oracle_leaf_sample`` draws from a leaf with its cumulative sums
recomputed on every call. Every query must reproduce them bit for bit:
the README's printed values and the determinism gate depend on it. The
evidence mixes training rows with values exactly on knots and bin edges,
values outside every support, unseen category codes and random
observation masks, so that whole sub-mixtures evaluate to -inf.
"""

import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mspn.inference
from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Evidence,
    LearnConfig,
    ProductNode,
    SumNode,
    deserialize,
    load_model,
    log_conditional,
    log_evaluate,
    log_evaluate_batch,
    mi_graph,
    mpe,
    mutual_information,
    sample,
    save_model,
    serialize,
    validate,
)
from mspn.analysis import _GridTables, _variable_grids
from mspn.data import DISCRETE
from mspn.errors import ConditioningError, QueryError
from mspn.inference import evaluation_plan, sample_rows
from mspn.leaves import HistogramLeaf, PiecewiseLinearLeaf, leaf_sample, mixture_candidates
from mspn.numerics import trapezoid
from mspn.structure import Mspn, iter_nodes
from conftest import make_dataset, reference_density, reference_logsumexp

EVIDENCES_PER_MODEL = 150


def oracle_eval(node, values, observed, cache=None):
    """One recursive bottom-up pass; per-row log values."""
    if isinstance(node, SumNode):
        child_vals = np.stack(
            [oracle_eval(c, values, observed, cache) for c in node.children]
        )
        out = reference_logsumexp(child_vals, node.weights)
    elif isinstance(node, ProductNode):
        out = np.zeros(values.shape[0])
        for c in node.children:
            out = out + oracle_eval(c, values, observed, cache)
    else:
        var = node.variable
        if observed[var]:
            with np.errstate(divide="ignore"):
                out = np.log(reference_density(node, values[:, var]))
        else:
            out = np.zeros(values.shape[0])
    if cache is not None:
        cache[id(node)] = out
    return out


def oracle_sample(model, evidence, rng):
    cache = {}
    root_val = oracle_eval(model.root, evidence.values[None, :], evidence.observed, cache)
    if float(root_val[0]) == -np.inf:
        raise ConditioningError("evidence has zero probability; cannot sample")
    assignment = evidence.values.copy()
    stack = [model.root]
    while stack:
        node = stack.pop()
        if isinstance(node, SumNode):
            logits = np.array([float(cache[id(c)][0]) for c in node.children])
            top = logits.max()
            probs = node.weights * np.exp(logits - top)
            cum = np.cumsum(probs)
            pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            stack.append(node.children[min(pick, len(node.children) - 1)])
        elif isinstance(node, ProductNode):
            stack.extend(reversed(node.children))
        elif not evidence.observed[node.variable]:
            assignment[node.variable] = oracle_leaf_sample(node, rng)
    return assignment


def oracle_leaf_sample(leaf, rng):
    """One inverse-CDF draw, the leaf's cumulative sums recomputed on every call."""
    if isinstance(leaf, HistogramLeaf):
        cum = np.cumsum(leaf.masses)
        b = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        b = min(b, leaf.masses.size - 1)
        if leaf.domain == CATEGORICAL:
            return float(b)
        if leaf.domain == DISCRETE:
            lo = math.ceil(leaf.edges[b])
            hi = math.floor(leaf.edges[b + 1])
            if hi <= lo:
                return float(lo)
            return float(rng.integers(lo, hi + 1))
        return float(leaf.edges[b] + rng.random() * (leaf.edges[b + 1] - leaf.edges[b]))

    if leaf.domain == DISCRETE:
        lo, hi = float(leaf.knots_x[0]), float(leaf.knots_x[-1])
        support = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=np.float64)
        pmf = np.interp(support, leaf.knots_x, leaf.knots_y)
        cum = np.cumsum(pmf)
        i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return float(support[min(i, support.size - 1)])

    x, y = leaf.knots_x, leaf.knots_y
    areas = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    cum = np.cumsum(areas)
    u = rng.random() * cum[-1]
    seg = int(np.searchsorted(cum, u, side="right"))
    seg = min(seg, areas.size - 1)
    rem = u - (cum[seg - 1] if seg > 0 else 0.0)
    width = x[seg + 1] - x[seg]
    slope = (y[seg + 1] - y[seg]) / width
    y0 = y[seg]
    if abs(slope) < 1e-300:
        t = rem / y0 if y0 > 0 else 0.0
    else:
        disc = max(y0 * y0 + 2.0 * slope * rem, 0.0)
        t = (math.sqrt(disc) - y0) / slope
    t = min(max(t, 0.0), width)
    return float(x[seg] + t)


def oracle_mpe(model, evidence):
    """Recursive max-product pass recording decisions by node id, then a top-down walk.

    A subtree with one free variable is flattened into (log coefficient,
    leaf) terms and maximized over ``mixture_candidates``; fully observed
    subtrees are scored with ``oracle_eval``.
    """
    values, observed = evidence.values[None, :], evidence.observed

    def score(node):
        return float(oracle_eval(node, values, observed)[0])

    def mixture_terms(node, var):
        if isinstance(node, SumNode):
            with np.errstate(divide="ignore"):
                log_w = np.log(node.weights)
            return [(float(lw) + t, leaf)
                    for lw, child in zip(log_w, node.children)
                    for t, leaf in mixture_terms(child, var)]
        if isinstance(node, ProductNode):
            offset, spine = 0.0, None
            for child in node.children:
                if var in child.scope:
                    spine = child
                else:
                    offset += score(child)
            return [(offset + t, leaf) for t, leaf in mixture_terms(spine, var)]
        return [(0.0, node)]

    def reduce_free_subtree(node, var):
        terms = mixture_terms(node, var)
        candidates = mixture_candidates([leaf for _, leaf in terms])
        total = np.full(candidates.shape, -np.inf)
        for log_w, leaf in terms:
            with np.errstate(divide="ignore"):
                total = np.logaddexp(total, log_w + np.log(reference_density(leaf, candidates)))
        best = int(np.argmax(total))
        return float(candidates[best]), float(total[best])

    decisions = {}

    def mpe_pass(node):
        free = [v for v in node.scope if not observed[v]]
        if not free:
            return score(node)
        if len(free) == 1:
            x, log_f = reduce_free_subtree(node, free[0])
            decisions[id(node)] = ("assign", free[0], x)
            return log_f
        if isinstance(node, SumNode):
            with np.errstate(divide="ignore"):
                scores = [float(np.log(w)) + mpe_pass(c)
                          for w, c in zip(node.weights, node.children)]
            branch = int(np.argmax(scores))
            decisions[id(node)] = ("branch", branch)
            return scores[branch]
        decisions[id(node)] = ("descend",)
        return sum(mpe_pass(c) for c in node.children)

    mpe_pass(model.root)
    assignment = evidence.values.copy()
    stack = [model.root]
    while stack:
        node = stack.pop()
        decision = decisions.get(id(node))
        if decision is None:  # fully observed subtree: nothing to fill in
            continue
        if decision[0] == "assign":
            assignment[decision[1]] = decision[2]
        elif decision[0] == "branch":
            stack.append(node.children[decision[1]])
        else:
            stack.extend(node.children)
    full = np.ones(model.n_vars, dtype=bool)
    return assignment, float(oracle_eval(model.root, assignment[None, :], full)[0])


def value_pools(model, data):
    """Per variable: valid values to draw evidence from.

    Continuous variables get every knot and bin edge of their leaves (the
    first, interior and last ones), the midpoints between them, points
    outside every support and training values. Discrete variables get the
    integers among those plus integers beyond the support; categorical
    ones every code plus codes past the vocabulary.
    """
    pools = []
    for var in range(model.n_vars):
        st = model.schema.stat_type(var)
        col = data.column(var)
        if st.is_categorical:
            pools.append(np.arange(st.arity + 3, dtype=np.float64))
            continue
        points = [col[:40]]
        for _, node in iter_nodes(model.root):
            if getattr(node, "variable", None) != var:
                continue
            grid = node.knots_x if isinstance(node, PiecewiseLinearLeaf) else node.edges
            points += [grid, 0.5 * (grid[1:] + grid[:-1])]
        pts = np.concatenate(points)
        span = pts.max() - pts.min() + 1.0
        pts = np.concatenate([pts, [pts.min() - span, pts.max() + span,
                                    pts.min() - 0.25, pts.max() + 0.25]])
        if st.is_discrete:
            pts = np.rint(pts)
        pools.append(np.unique(pts))
    return pools


def random_evidences(model, data, rng, count):
    pools = value_pools(model, data)
    out = []
    for k in range(count):
        values = np.array([rng.choice(pool) for pool in pools])
        if k % 3 == 0:  # a training row: mostly finite values
            values = data.values[rng.integers(data.n_rows)].copy()
        out.append(Evidence(values, rng.random(model.n_vars) < rng.random()))
    return out


def test_log_evaluate_matches_the_recursive_pass(fixture_models):
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(11)
        for ev in random_evidences(model, data, rng, EVIDENCES_PER_MODEL):
            want = oracle_eval(model.root, ev.values[None, :], ev.observed)
            assert np.array_equal([log_evaluate(model, ev)], want), name


def test_batches_match_the_recursive_pass(fixture_models):
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(12)
        evs = random_evidences(model, data, rng, EVIDENCES_PER_MODEL)
        rows = np.stack([ev.values for ev in evs])
        for ev in evs[:6]:
            want = oracle_eval(model.root, rows, ev.observed)
            got = log_evaluate_batch(model, rows, ev.observed)
            assert np.array_equal(got, want), name
            # a one-row batch is a different BLAS shape: compare it on its own
            one = log_evaluate_batch(model, rows[:1], ev.observed)
            assert np.array_equal(one, oracle_eval(model.root, rows[:1], ev.observed)), name


def test_conditionals_match_the_recursive_pass(fixture_models):
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(13)
        for ev in random_evidences(model, data, rng, EVIDENCES_PER_MODEL):
            given_mask = ev.observed & (rng.random(model.n_vars) < 0.5)
            given = Evidence(ev.values, given_mask)
            query = Evidence(ev.values, ev.observed & ~given_mask)
            denom = oracle_eval(model.root, ev.values[None, :], given_mask)[0]
            if denom == -np.inf:
                with pytest.raises(ConditioningError):
                    log_conditional(model, query, given)
                continue
            num = oracle_eval(model.root, ev.values[None, :], ev.observed)[0]
            assert np.array_equal([log_conditional(model, query, given)], [num - denom]), name


def test_sample_draws_match_the_recursive_sampler(fixture_models):
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(14)
        for k, ev in enumerate(random_evidences(model, data, rng, EVIDENCES_PER_MODEL)):
            want_rng, got_rng = np.random.default_rng(k), np.random.default_rng(k)
            try:
                want = oracle_sample(model, ev, want_rng)
            except ConditioningError:
                with pytest.raises(ConditioningError):
                    sample(model, ev, got_rng)
                continue
            assert np.array_equal(sample(model, ev, got_rng), want), name
            assert want_rng.random() == got_rng.random(), name


def test_choice_tables_hold_each_sums_own_cumulative_weights(fixture_models):
    # a changed bit in the table rarely flips a draw, so compare the tables
    for name, (data, model) in fixture_models.items():
        plan = evaluation_plan(model)
        rng = np.random.default_rng(16)
        for ev in random_evidences(model, data, rng, 20):
            vals = plan.evaluate_rows(ev.values, ev.observed)
            cum = plan.choice_table(vals)
            for i, (node, kids) in enumerate(zip(plan.nodes, plan.children)):
                _, lo, hi, _, _ = plan.steps[i]
                if isinstance(node, SumNode) and vals[i] > -np.inf:
                    logits = vals[kids]
                    want = np.cumsum(node.weights * np.exp(logits - logits.max()))
                    assert list(map(float.hex, cum[lo:hi])) == list(map(float.hex, want)), name


def test_each_height_reads_contiguous_blocks_of_one_matrix_per_node_kind(fixture_models):
    def height(node):
        if isinstance(node, (SumNode, ProductNode)):
            return 1 + max(map(height, node.children))
        return 0

    for name, (_, model) in fixture_models.items():
        plan = evaluation_plan(model)
        assert len(plan.levels) == height(model.root), name
        for h, level in enumerate(plan.levels, 1):
            for block, matrix in zip(level, (plan.sum_matrix, plan.product_matrix)):
                if block is None:
                    continue
                columns = np.flatnonzero(np.array(plan.heights)[matrix.nodes] == h)
                rows = max(plan.children[i].size for i in matrix.nodes[columns].tolist())
                for part, whole in zip(block, matrix):
                    if whole is None:
                        assert part is None, name
                        continue
                    assert part.flags.c_contiguous, name
                    want = whole[columns] if whole.ndim == 1 else whole[:rows, columns]
                    assert np.array_equal(part, want), (name, h)


def test_rows_side_by_side_read_shifted_contiguous_copies_of_the_one_row_blocks(fixture_models):
    for name, (_, model) in fixture_models.items():
        plan = evaluation_plan(model)
        n, stride = model.n_vars, len(plan.nodes) + 2
        n_knots, n_leaves = plan.leaf_table.x.size, plan.leaf_nodes.size
        for k in (1, 2, 3):
            plan.evaluate_rows(np.zeros((k, n)), np.zeros((k, n), dtype=bool))
            rows = plan.row_blocks[k, n]
            if k == 1:
                assert rows.levels is plan.levels and rows.leaf_table is plan.leaf_table, name
            # (tiled, one row's, shift of row r's copy per row) for every block
            parts = [(rows.leaf_nodes, plan.leaf_nodes, stride), (rows.leaf_vars, plan.leaf_vars, n),
                     (rows.leaf_table.start, plan.leaf_table.start, n_knots),
                     (rows.leaf_table.knot_leaf, plan.leaf_table.knot_leaf, n_leaves)]
            parts += [(getattr(rows.leaf_table, a), getattr(plan.leaf_table, a), 0)
                      for a in ("count", "x", "y", "slope", "first", "last", "outside")]
            assert len(rows.levels) == len(plan.levels), name
            for tiled_level, level in zip(rows.levels, plan.levels):
                for tiled, block in zip(tiled_level, level):
                    if block is None:
                        assert tiled is None, name
                        continue
                    for t, one, shift in zip(tiled, block, (stride, stride, 0, 0)):
                        if one is None:
                            assert t is None, name
                        else:
                            parts.append((t, one, shift))
            for t, one, shift in parts:
                assert t.flags.c_contiguous, name
                width = one.shape[-1]
                assert t.shape == one.shape[:-1] + (k * width,), name
                for r in range(k):
                    assert np.array_equal(t[..., r * width:(r + 1) * width], one + r * shift), name
            want = np.zeros((k, stride))
            want[:, -1] = -np.inf
            assert np.array_equal(rows.blank, want), name


def assert_rows_equal_single_rows(plan, evs):
    """``evaluate_rows`` on the evidences' rows gives each one-row call's bytes, pads too."""
    got = plan.evaluate_rows(np.stack([ev.values for ev in evs]),
                             np.stack([ev.observed for ev in evs]))
    want = np.stack([plan.evaluate_rows(ev.values, ev.observed) for ev in evs])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def far_evidences(model):
    """Every variable observed outside every support, below and above.

    Continuous and discrete values sit at -1e300 and 1e300; categorical
    codes past the vocabulary.
    """
    categorical = np.array([model.schema.stat_type(v).is_categorical
                            for v in range(model.n_vars)])
    return [Evidence(np.where(categorical, 50.0, sign * 1e300), np.ones(model.n_vars, dtype=bool))
            for sign in (-1.0, 1.0)]


def test_rows_side_by_side_equal_single_rows_bit_for_bit(fixture_models):
    zero_probability = set()
    for name, (data, model) in fixture_models.items():
        plan = evaluation_plan(model)
        rng = np.random.default_rng(23)
        evs = [Evidence.marginalized(model.n_vars), *far_evidences(model),
               *random_evidences(model, data, rng, 30)]
        rng.shuffle(evs)
        # the rows mix finite, all-marginalized and (on every model with a
        # variable that is not categorical) zero-probability ones
        roots = np.array([plan.evaluate_rows(ev.values, ev.observed)[plan.root] for ev in evs])
        assert (roots == 0.0).any() and np.isfinite(roots).any(), name
        if (roots == -np.inf).any():
            zero_probability.add(name)
        for k in (1, 2, 3):
            for i in range(0, len(evs) - k + 1, k):
                assert_rows_equal_single_rows(plan, evs[i:i + k])
    assert zero_probability == set(fixture_models) - {"cat_pair", "cat_indep"}


def test_dead_sums_and_zero_weights_are_never_sampled():
    # x = 0.5 lies outside both children of the second component's x-sum, so
    # that sum is dead (all children -inf) while the root stays finite; the
    # third component and the first y child are alive but weigh 0
    def box(var, lo, hi):
        return HistogramLeaf(var, CONTINUOUS, np.array([lo, hi]), np.array([1.0]))

    live_y = SumNode((1,), np.array([0.0, 1.0]), (box(1, 20.0, 21.0), box(1, 0.0, 1.0)))
    dead_x = SumNode((0,), np.array([0.5, 0.5]), (box(0, 2.0, 3.0), box(0, 2.0, 4.0)))
    root = SumNode((0, 1), np.array([0.6, 0.4, 0.0]), (
        ProductNode((0, 1), (box(0, 0.0, 1.0), live_y)),
        ProductNode((0, 1), (dead_x, box(1, 5.0, 6.0))),
        ProductNode((0, 1), (box(0, 0.0, 1.0), box(1, 10.0, 11.0))),
    ))
    data = make_dataset([("x", CONTINUOUS, None), ("y", CONTINUOUS, None)], [[0.5, 0.5]])
    model = Mspn(root, data.schema, LearnConfig())
    ev = Evidence(np.array([0.5, 0.0]), np.array([True, False]))
    plan = evaluation_plan(model)
    vals = plan.evaluate_rows(ev.values, ev.observed)
    dead = plan.ids.index(id(dead_x))
    _, lo, hi, _, _ = plan.steps[dead]
    assert vals[dead] == -np.inf and np.isfinite(vals[plan.root])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(plan.choice_table(vals)[lo:hi]).all()
        rng, visits = np.random.default_rng(21), Counter()
        draws = np.stack([sample(model, ev, rng, visits) for _ in range(1000)])
    assert (draws[:, 0] == 0.5).all()
    assert ((draws[:, 1] >= 0.0) & (draws[:, 1] <= 1.0)).all()
    # each sample's plan pass visits every node once; the walks add the rest
    never = [dead_x, *dead_x.children, root.children[1], root.children[2], live_y.children[0]]
    assert [visits[id(node)] for node in never] == [1000] * len(never)
    assert visits[id(live_y.children[1])] == 2000


def test_mpe_matches_the_recursive_max_product_pass(fixture_models):
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(15)
        evs = random_evidences(model, data, rng, EVIDENCES_PER_MODEL)
        evs += [Evidence.marginalized(model.n_vars),
                Evidence(data.values[0], np.ones(model.n_vars, dtype=bool))]
        for ev in evs:
            want_assignment, want_value = oracle_mpe(model, ev)
            assignment, value = mpe(model, ev)
            assert np.array_equal(assignment, want_assignment), name
            assert value == want_value, name


def test_some_evidence_reaches_minus_infinity_inside_the_tree(fixture_models):
    # the comparisons above only cover -inf sub-mixtures if some occur
    finite_root_dead_child = 0
    for data, model in fixture_models.values():
        rng = np.random.default_rng(11)
        for ev in random_evidences(model, data, rng, EVIDENCES_PER_MODEL):
            cache = {}
            root = oracle_eval(model.root, ev.values[None, :], ev.observed, cache)[0]
            dead = any(v[0] == -np.inf for v in cache.values())
            finite_root_dead_child += bool(np.isfinite(root) and dead)
    assert finite_root_dead_child >= 10


def every_leaf_shape_model():
    """A product of one sum per variable, each mixing every leaf shape of its domain.

    Variable 0 is continuous (piecewise-linear and histogram leaves), 1
    categorical (unseen masses 0.05, 0.01 and 0) and 2 discrete (a unit-bin
    histogram, one with bins wider than one integer as ``MAX_UNIT_BINS``
    falls back to, and a piecewise-linear leaf). Also returns probe values
    per variable: every knot and edge, midpoints and values out of range.
    """
    pwl = PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 0.5, 1.5, 2.0]),
                              np.array([0.0, 0.8, 0.4, 0.0]) / 0.9, 1)
    falling = PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0]),
                                  np.array([2.0, 0.0]), 0)
    rising = PiecewiseLinearLeaf(0, CONTINUOUS, np.array([1.0, 2.0]),
                                 np.array([0.0, 2.0]), 1)
    hist = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 0.5, 1.0, 3.0]),
                         np.array([0.2, 0.3, 0.5]))
    pair = HistogramLeaf(1, CATEGORICAL, np.arange(3.0), np.array([0.4, 0.6]),
                         1.0, 0.05)
    triple = HistogramLeaf(1, CATEGORICAL, np.arange(4.0), np.array([0.2, 0.3, 0.5]),
                           1.0, 0.01)
    no_unseen = HistogramLeaf(1, CATEGORICAL, np.arange(4.0), np.array([0.5, 0.0, 0.5]))
    unit = HistogramLeaf(2, DISCRETE, np.arange(-1.0, 4.0) - 0.5,
                         np.array([0.1, 0.2, 0.3, 0.4]))
    wide = HistogramLeaf(2, DISCRETE, np.array([0.0, 2.5, 7.0]), np.array([0.6, 0.4]))
    steps = PiecewiseLinearLeaf(2, DISCRETE, np.array([0.0, 1.0, 2.0, 3.0]),
                                np.array([0.2, 0.4, 0.4, 0.2]), 1)
    continuous = SumNode((0,), np.full(4, 0.25), (pwl, falling, rising, hist))
    categorical = SumNode((1,), np.full(3, 1.0 / 3.0), (pair, triple, no_unseen))
    discrete = SumNode((2,), np.full(3, 1.0 / 3.0), (unit, wide, steps))
    root = ProductNode((0, 1, 2), (continuous, categorical, discrete))
    data = make_dataset([("x", CONTINUOUS, None), ("c", CATEGORICAL, ("a", "b", "c")),
                         ("n", DISCRETE, None)], [[0.5, 0.0, 1.0]])
    probes = ([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5],
              [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
              [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
    return Mspn(root, data.schema, LearnConfig()), probes


def test_values_on_knots_and_edges_match_the_leaves():
    model, probes = every_leaf_shape_model()
    for var, pool in enumerate(probes):
        alone = np.arange(3) == var
        for v in pool:
            ev = Evidence(np.where(alone, v, 0.0), alone)
            want = oracle_eval(model.root, ev.values[None, :], ev.observed)
            assert np.array_equal([log_evaluate(model, ev)], want), (var, v)
    every = np.ones(3, dtype=bool)
    for values in itertools.product(*probes):
        ev = Evidence(np.array(values), every)
        want = oracle_eval(model.root, ev.values[None, :], ev.observed)
        assert np.array_equal([log_evaluate(model, ev)], want), values


def test_every_leaf_shape_draws_like_the_oracle():
    # the wide discrete histogram draws through rng.integers, and the
    # categorical leaf without unseen mass has a bin of mass 0
    model, _ = every_leaf_shape_model()
    leaves = [n for _, n in iter_nodes(model.root) if isinstance(n, (HistogramLeaf,
                                                                      PiecewiseLinearLeaf))]
    assert len(leaves) == 10
    for k, leaf in enumerate(leaves):
        want_rng, got_rng = np.random.default_rng(k), np.random.default_rng(k)
        want = [oracle_leaf_sample(leaf, want_rng) for _ in range(2000)]
        got = [leaf_sample(leaf, got_rng) for _ in range(2000)]
        assert list(map(float.hex, got)) == list(map(float.hex, want)), leaf
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, leaf


def test_far_values_neither_warn_nor_leak_from_unobserved_slots():
    # slope * (x - x_0) overflows far below a steep leaf's first knot, and
    # the range mask drops it; unobserved values are never read
    model, _ = every_leaf_shape_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = Evidence(np.array([-1e308, 0.0, 0.0]), np.array([True, False, False]))
        assert log_evaluate(model, far) == -np.inf
        assignment, value = mpe(model, far)
        assert assignment[0] == -1e308 and value == -np.inf
        for observed in itertools.product((False, True), repeat=3):
            observed = np.array(observed)
            want = log_evaluate(model, Evidence(np.where(observed, 1.0, 0.0), observed))
            for junk in (np.nan, np.inf, -np.inf, 1e308, -1e308):
                ev = Evidence(np.where(observed, 1.0, junk), observed)
                assert np.array_equal(log_evaluate(model, ev), want), (observed, junk)


def test_mpe_breaks_exact_ties_like_the_recursive_pass():
    # three equally weighted components with equal maxima: marginalized
    # evidence ties all of them, and evidence no component supports ties
    # them at -inf; both must pick the first, as the recursive pass does
    def component(x_lo, masses, y_lo):
        return ProductNode((0, 1, 2), (
            HistogramLeaf(0, CONTINUOUS, np.array([x_lo, x_lo + 1.0]), np.array([1.0])),
            HistogramLeaf(1, CATEGORICAL, np.arange(3.0), np.array(masses), 1.0, 0.05),
            HistogramLeaf(2, CONTINUOUS, np.array([y_lo, y_lo + 1.0]), np.array([1.0])),
        ))

    root = SumNode((0, 1, 2), np.full(3, 1.0 / 3.0), (
        component(0.0, [0.6, 0.4], 0.0),
        component(2.0, [0.4, 0.6], 0.0),
        component(4.0, [0.6, 0.4], 1.0),
    ))
    data = make_dataset([("x", CONTINUOUS, None), ("c", CATEGORICAL, ("a", "b")),
                         ("y", CONTINUOUS, None)], [[0.5, 0.0, 0.5]])
    model = Mspn(root, data.schema, LearnConfig())
    choices = [(None, 0.5, 2.5, 9.0), (None, 0.0, 1.0, 5.0), (None, 0.5, 1.5, 9.0)]
    for picks in itertools.product(*choices):
        observed = np.array([p is not None for p in picks])
        ev = Evidence(np.array([0.0 if p is None else p for p in picks]), observed)
        want_assignment, want_value = oracle_mpe(model, ev)
        assignment, value = mpe(model, ev)
        assert np.array_equal(assignment, want_assignment), picks
        assert value == want_value, picks
    assignment, _ = mpe(model, Evidence.marginalized(3))
    assert np.array_equal(assignment, [0.0, 0.0, 0.0])


def test_mpe_with_one_variable_observed_matches_the_recursive_pass(fixture_models):
    # one observed variable leaves many nodes with exactly one free
    # variable, so most of the answer comes from the 1-d mixtures; one free
    # variable makes the root itself such a mixture
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(18)
        pools = value_pools(model, data)
        for var in range(model.n_vars):
            for observed in (np.arange(model.n_vars) == var, np.arange(model.n_vars) != var):
                for _ in range(4):
                    ev = Evidence(np.array([rng.choice(pool) for pool in pools]), observed)
                    want_assignment, want_value = oracle_mpe(model, ev)
                    assignment, value = mpe(model, ev)
                    assert np.array_equal(assignment, want_assignment), (name, var)
                    assert value == want_value, (name, var)


def assert_mpe_matches_the_recursive_pass(model, ev):
    # the oracle's sums take a log of 0 where only a zero-weight child lives
    with np.errstate(divide="ignore"):
        want_assignment, want_value = oracle_mpe(model, ev)
    assignment, value = mpe(model, ev)
    assert np.array_equal(assignment, want_assignment), (ev.values, ev.observed)
    assert np.array_equal(value, want_value), (ev.values, ev.observed)


def every_evidence(probes):
    """Every mask over ``len(probes)`` variables with every probe of each observed one."""
    for observed in itertools.product((False, True), repeat=len(probes)):
        pools = [pool if seen else [0.0] for pool, seen in zip(probes, observed)]
        for values in itertools.product(*pools):
            yield Evidence(np.array(values), np.array(observed))


def test_mpe_over_cells_no_leaf_covers_matches_the_recursive_pass():
    # disjoint supports under one sum: the midpoint x = 1.5 of the merged
    # edges and the integers 2, 3 and 4 of n lie in gaps between the leaves,
    # so their cells hold only a sentinel entry
    def x_leaf(lo, masses):
        return HistogramLeaf(0, CONTINUOUS, lo + np.linspace(0.0, 1.0, len(masses) + 1),
                             np.array(masses))

    def n_leaf(lo, masses):
        return HistogramLeaf(1, DISCRETE, lo - 0.5 + np.arange(len(masses) + 1.0),
                             np.array(masses))

    x = SumNode((0,), np.array([0.3, 0.7]), (x_leaf(0.0, [1.0]), x_leaf(2.0, [0.4, 0.6])))
    n = SumNode((1,), np.array([0.5, 0.5]), (n_leaf(0.0, [0.5, 0.5]),
                                             n_leaf(5.0, [0.2, 0.3, 0.5])))
    root = SumNode((0, 1), np.array([0.2, 0.3, 0.5]), (
        ProductNode((0, 1), (x_leaf(0.0, [0.9, 0.1]), n_leaf(5.0, [0.6, 0.4]))),
        ProductNode((0, 1), (x_leaf(2.0, [1.0]), n_leaf(0.0, [1.0]))),
        ProductNode((0, 1), (x, n)),
    ))
    data = make_dataset([("x", CONTINUOUS, None), ("n", DISCRETE, None)], [[0.5, 0.0]])
    model = Mspn(root, data.schema, LearnConfig())
    probes = ([-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
              [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    for ev in every_evidence(probes):
        assert_mpe_matches_the_recursive_pass(model, ev)
    plan = evaluation_plan(model)
    sentinel = plan.leaf_nodes.size
    gaps = {var: table.grid[table.entry_ranks[table.first] == sentinel].tolist()
            for (i, var), table in plan.settle_tables.items() if i == plan.root}
    assert gaps == {0: [1.5], 1: [2.0, 3.0, 4.0]}


def test_mpe_with_a_zero_weight_child_matches_the_recursive_pass():
    # a zero weight gives the leaves below it a -inf log coefficient; the
    # tall component would win every maximum if its weight counted
    def component(x_lo, n_masses, height):
        return ProductNode((0, 1), (
            HistogramLeaf(0, CONTINUOUS, np.array([x_lo, x_lo + 1.0 / height]), np.array([1.0])),
            HistogramLeaf(1, DISCRETE, np.arange(4.0) - 0.5, np.array(n_masses)),
        ))

    one_free = SumNode((0,), np.array([0.0, 1.0]), (
        HistogramLeaf(0, CONTINUOUS, np.array([4.0, 4.01]), np.array([1.0])),
        HistogramLeaf(0, CONTINUOUS, np.array([4.0, 6.0]), np.array([1.0])),
    ))
    root = SumNode((0, 1), np.array([0.0, 0.5, 0.5]), (
        component(0.0, [0.8, 0.1, 0.1], 100.0),
        component(2.0, [0.1, 0.1, 0.8], 1.0),
        ProductNode((0, 1), (one_free, HistogramLeaf(1, DISCRETE, np.arange(4.0) - 0.5,
                                                     np.array([0.2, 0.6, 0.2])))),
    ))
    data = make_dataset([("x", CONTINUOUS, None), ("n", DISCRETE, None)], [[0.5, 0.0]])
    model = Mspn(root, data.schema, LearnConfig())
    probes = ([-1.0, 0.0, 0.005, 2.5, 4.005, 5.0, 7.0], [-1.0, 0.0, 1.0, 2.0, 3.0])
    for ev in every_evidence(probes):
        assert_mpe_matches_the_recursive_pass(model, ev)
    plan = evaluation_plan(model)
    n_observed = Evidence(np.array([0.0, 1.0]), np.array([False, True]))
    n_free = np.bincount(plan.scope_owner, ~n_observed.observed[plan.scope_vars],
                         len(plan.nodes) + 1)
    settle = np.flatnonzero((n_free == 1) & (n_free[plan.parent] != 1))
    coef = plan._coefficients(plan.evaluate_rows(n_observed.values, n_observed.observed), n_free,
                              settle)
    # the x leaves in postorder: the tall box, component 2's, the zero-weight and the wide child
    assert np.isneginf(coef[plan.leaf_vars == 0]).tolist() == [True, False, True, False]
    # the wide child's density 0.5 ties over [4, 6]: the smallest value wins
    assignment, value = mpe(model, n_observed)
    assert assignment[0] == 4.0
    np.testing.assert_allclose(value, np.log(0.5 * 0.5 * 0.6), rtol=1e-12)


def test_one_reduction_settles_every_domain_at_once(monkeypatch):
    # with at most one variable observed, the root product consumes a
    # continuous, a categorical and a discrete mixture, so one query folds
    # settle tables of all three domains in a single reduction
    model, probes = every_leaf_shape_model()
    for ev in every_evidence(probes):
        if ev.observed.sum() <= 1:
            assert_mpe_matches_the_recursive_pass(model, ev)
    plan = evaluation_plan(model)
    settled = []
    settle_table = plan.settle_table
    monkeypatch.setattr(plan, "settle_table",
                        lambda i, var: settled.append(var) or settle_table(i, var))
    mpe(model, Evidence.marginalized(3))
    assert [model.schema.stat_type(v).kind for v in settled] == [CONTINUOUS, CATEGORICAL,
                                                                DISCRETE]


@st.composite
def small_mixed_models(draw):
    """A random sum/product tree over 1-3 variables of mixed kinds, with probe values.

    Sums have 2-5 children and products 2-3 parts, so nodes of different
    widths share a height and pad the plan's child matrices.

    Leaves of each kind mix histograms (some bins of mass 0) and, for
    continuous and discrete variables, unimodal piecewise-linear
    densities. Knots and edges sit on a half-integer lattice, so leaves
    share knots, touch and leave gaps, and sums may have zero weights.
    """
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, DISCRETE, CATEGORICAL]),
                          min_size=1, max_size=3))
    arity = 3
    masses = st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any)

    def normalized(counts):
        counts = np.array(counts, dtype=np.float64)
        return counts / counts.sum()

    def leaf(var):
        kind = kinds[var]
        if kind == CATEGORICAL:
            m = draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity).filter(any))
            return HistogramLeaf(var, CATEGORICAL, np.arange(arity + 1.0), normalized(m),
                                 1.0, draw(st.sampled_from([0.0, 0.05])))
        lo = draw(st.integers(-8, 8)) / 2.0
        if draw(st.booleans()):
            m = draw(masses)
            if kind == DISCRETE:
                return HistogramLeaf(var, DISCRETE, np.rint(lo) - 0.5 + np.arange(len(m) + 1.0),
                                     normalized(m))
            widths = draw(st.lists(st.integers(1, 3), min_size=len(m), max_size=len(m)))
            return HistogramLeaf(var, CONTINUOUS, lo + np.cumsum([0] + widths) / 2.0,
                                 normalized(m))
        heights = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5).filter(any))
        mode = draw(st.integers(0, len(heights) - 1))
        y = np.array(sorted(heights[:mode]) + [max(heights)]
                     + sorted(heights[mode + 1:], reverse=True), dtype=np.float64)
        if kind == DISCRETE:
            x = np.rint(lo) + np.arange(y.size, dtype=np.float64)
        else:
            widths = draw(st.lists(st.integers(1, 3), min_size=y.size - 1, max_size=y.size - 1))
            x = lo + np.cumsum([0] + widths) / 2.0
        return PiecewiseLinearLeaf(var, kind, x, y / trapezoid(y, x), mode)

    def node(scope, depth):
        if len(scope) == 1 and (depth >= 3 or draw(st.booleans())):
            return leaf(scope[0])
        if len(scope) > 1 and (depth >= 3 or draw(st.booleans())):
            order = draw(st.permutations(scope))
            cuts = sorted(draw(st.lists(st.integers(1, len(order) - 1), min_size=1,
                                        max_size=min(2, len(order) - 1), unique=True)))
            parts = [tuple(sorted(order[a:b])) for a, b in zip([0] + cuts, cuts + [len(order)])]
            return ProductNode(scope, [node(part, depth + 1) for part in parts])
        weights = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5).filter(any))
        return SumNode(scope, normalized(weights),
                       [node(scope, depth + 1) for _ in weights])

    scope = tuple(range(len(kinds)))
    data = make_dataset([(f"v{j}", kind, tuple("abc") if kind == CATEGORICAL else None)
                         for j, kind in enumerate(kinds)], [[0.0] * len(kinds)])
    model = Mspn(node(scope, 0), data.schema, LearnConfig())
    probe = {CONTINUOUS: st.integers(-24, 24).map(lambda k: k / 4.0),
             DISCRETE: st.integers(-6, 9).map(float),
             CATEGORICAL: st.integers(0, arity + 1).map(float)}
    values = [draw(probe[kind]) for kind in kinds]
    observed = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    return model, Evidence(np.array(values), np.array(observed))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.filter_too_much])
@given(case=small_mixed_models())
def test_random_small_trees_mpe_matches_the_recursive_pass(case):
    model, ev = case
    assert_mpe_matches_the_recursive_pass(model, ev)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.filter_too_much])
@given(case=small_mixed_models(), seed=st.integers(0, 2**32 - 1))
def test_random_small_trees_sample_matches_the_recursive_sampler(case, seed):
    model, ev = case
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        # the oracle's reference_logsumexp takes log 0 at zero weights
        with np.errstate(divide="ignore"):
            want = np.stack([oracle_sample(model, ev, want_rng) for _ in range(3)])
    except ConditioningError:
        with pytest.raises(ConditioningError):
            sample_rows(model, ev, got_rng, 3)
        return
    assert np.array_equal(sample_rows(model, ev, got_rng, 3), want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.filter_too_much])
@given(case=small_mixed_models(), picks=st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_random_small_trees_rows_side_by_side_equal_single_rows(case, picks):
    model, ev = case
    n = model.n_vars
    pool = [ev, Evidence(ev.values, np.ones(n, dtype=bool)), Evidence.marginalized(n),
            *far_evidences(model)]
    assert_rows_equal_single_rows(evaluation_plan(model), [pool[i] for i in picks])


def recursive_mixture_terms(node, var, values, observed):
    """(log coefficient, leaf) terms of a subtree with one free variable, as ``oracle_mpe`` builds them."""
    if isinstance(node, SumNode):
        with np.errstate(divide="ignore"):
            log_w = np.log(node.weights)
        return [(float(lw) + t, leaf) for lw, child in zip(log_w, node.children)
                for t, leaf in recursive_mixture_terms(child, var, values, observed)]
    if isinstance(node, ProductNode):
        offset = 0.0
        for child in node.children:
            if var in child.scope:
                spine = child
            else:
                offset += float(oracle_eval(child, values[None, :], observed)[0])
        return [(offset + t, leaf)
                for t, leaf in recursive_mixture_terms(spine, var, values, observed)]
    return [(0.0, node)]


def test_mixture_coefficients_nest_like_the_recursive_pass(fixture_models):
    # the coefficients only steer argmax decisions, so a change in how they
    # are nested rarely shows in an assignment; compare them directly.
    # A 150-deep chain with x observed nests 151 log weights under its root.
    node = ProductNode((0, 1), (unit_leaf(0, 150), unit_leaf(1, 150)))
    for k in reversed(range(150)):
        part = ProductNode((0, 1), (unit_leaf(0, k), unit_leaf(1, k)))
        node = SumNode((0, 1), np.array([1.0 - STAY, STAY]), (part, node))
    chain = Mspn(node, make_dataset([("x", CONTINUOUS, None), ("y", CONTINUOUS, None)],
                                    [[0.5, 0.5]]).schema, LearnConfig())
    x_observed = np.array([True, False])
    cases = [("chain", chain, [Evidence(np.array([k + 0.5, 0.0]), x_observed)
                               for k in (0, 77, 150)])]
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(19)
        cases.append((name, model, random_evidences(model, data, rng, 40)))
    settled = 0
    for name, model, evidences in cases:
        plan = evaluation_plan(model)
        for ev in evidences:
            n_free = np.bincount(plan.scope_owner, ~ev.observed[plan.scope_vars],
                                 len(plan.nodes) + 1).astype(int)
            settle = np.flatnonzero((n_free == 1) & (n_free[plan.parent] != 1))
            coef = plan._coefficients(plan.evaluate_rows(ev.values, ev.observed), n_free, settle)
            for s in settle.tolist():
                var = next(v for v in plan.nodes[s].scope if not ev.observed[v])
                terms = recursive_mixture_terms(plan.nodes[s], var, ev.values, ev.observed)
                table = plan.settle_table(s, var)
                assert [id(leaf) for _, leaf in terms] == [plan.ids[i] for i in
                                                           plan.leaf_nodes[table.ranks]], name
                assert np.array_equal(coef[table.ranks], [t for t, _ in terms]), name
                settled += 1
    assert settled > 500


def coefficient_inputs(plan, ev):
    """``_coefficients``' arguments under ``ev``, as ``max_product`` computes them."""
    n_free = np.bincount(plan.scope_owner, ~ev.observed[plan.scope_vars], len(plan.nodes) + 1)
    settle = np.flatnonzero((n_free == 1) & (n_free[plan.parent] != 1))
    return plan.evaluate_rows(ev.values, ev.observed), n_free, settle


def read_coefficients(plan, ev):
    """The coefficients ``_settle`` reads under ``ev``: each settle point's leaves of its free variable."""
    vals, n_free, settle = coefficient_inputs(plan, ev)
    coef = plan._coefficients(vals, n_free, settle)
    ranks = [plan.settle_table(s, next(v for v in plan.nodes[s].scope if not ev.observed[v])).ranks
             for s in settle.tolist()]
    return coef[np.concatenate(ranks)] if ranks else coef[:0]


def assert_no_negative_zero(plan, ev):
    """No read coefficient is -0.0, so adding a +0.0 edge keeps every bit; returns the zeros."""
    coef = read_coefficients(plan, ev)
    zeros = coef[coef == 0.0]
    assert not np.signbit(zeros).any(), (ev.values, ev.observed)
    return zeros.size


def test_no_coefficient_is_negative_zero(fixture_models):
    # a leaf right under a product with two free variables settles alone,
    # so every edge on its walk adds the +0.0 of an unselected edge
    pair = SumNode((1, 2), np.array([0.25, 0.75]), (
        ProductNode((1, 2), (unit_leaf(1, 0), unit_leaf(2, 0))),
        ProductNode((1, 2), (unit_leaf(1, 1), unit_leaf(2, 1))),
    ))
    root = ProductNode((0, 1, 2), (unit_leaf(0, 0), pair))
    data = make_dataset([(name, CONTINUOUS, None) for name in "xyz"], [[0.5, 0.5, 0.5]])
    model = Mspn(root, data.schema, LearnConfig())
    plan = evaluation_plan(model)
    zeros = sum(assert_no_negative_zero(plan, ev)
                for ev in every_evidence(([0.5, 1.5], [0.5, 1.5], [0.5, 1.5])))
    assert zeros > 0
    zeros = 0
    for data, model in fixture_models.values():
        plan = evaluation_plan(model)
        rng = np.random.default_rng(21)
        zeros += sum(assert_no_negative_zero(plan, ev)
                     for ev in random_evidences(model, data, rng, 40))
    assert zeros > 100


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.filter_too_much])
@given(case=small_mixed_models())
def test_random_small_trees_read_no_negative_zero_coefficient(case):
    model, ev = case
    plan = evaluation_plan(model)
    for mask in (ev.observed, np.zeros(model.n_vars, dtype=bool)):
        assert_no_negative_zero(plan, Evidence(ev.values, mask))


def recursive_settle(terms):
    """The maximum of a term list's mixture and its maximizer, folded as ``oracle_mpe`` folds them."""
    candidates = mixture_candidates([leaf for _, leaf in terms])
    total = np.full(candidates.shape, -np.inf)
    for log_w, leaf in terms:
        with np.errstate(divide="ignore"):
            total = np.logaddexp(total, log_w + np.log(reference_density(leaf, candidates)))
    best = int(np.argmax(total))
    return total[best], candidates[best]


def test_settle_maxima_fold_like_the_recursive_pass(fixture_models):
    # like the coefficients, a settle point's maximum only steers argmax
    # decisions, and the fold's order within a cell shows only in its last
    # bits; compare every maximum and maximizer with the recursive fold
    cases = [(name, model, random_evidences(model, data, np.random.default_rng(20), 40))
             for name, (data, model) in fixture_models.items()]
    model, probes = every_leaf_shape_model()
    cases.append(("every leaf shape", model, list(every_evidence(probes))))
    settled = 0
    for name, model, evidences in cases:
        plan = evaluation_plan(model)
        for ev in evidences:
            n_free = np.bincount(plan.scope_owner, ~ev.observed[plan.scope_vars],
                                 len(plan.nodes) + 1)
            settle = np.flatnonzero((n_free == 1) & (n_free[plan.parent] != 1))
            if not settle.size:
                continue
            var = [next(v for v in plan.nodes[s].scope if not ev.observed[v])
                   for s in settle.tolist()]
            coef = plan._coefficients(plan.evaluate_rows(ev.values, ev.observed), n_free, settle)
            maxima, at = plan._settle(coef, settle, np.array(var))
            want = [recursive_settle(recursive_mixture_terms(plan.nodes[s], v, ev.values,
                                                             ev.observed))
                    for s, v in zip(settle.tolist(), var)]
            assert np.array_equal(maxima, [m for m, _ in want]), name
            assert np.array_equal(at, [x for _, x in want]), name
            settled += settle.size
    assert settled > 500


def test_repeated_masks_reuse_the_settle_tables(fixture_models, monkeypatch):
    calls = []
    density = mspn.inference.leaf_density_batch

    def counted(leaf, values):
        calls.append(leaf)
        return density(leaf, values)

    monkeypatch.setattr(mspn.inference, "leaf_density_batch", counted)
    for name, (data, model) in fixture_models.items():
        model = deserialize(serialize(model))  # a fresh plan
        mask = np.arange(model.n_vars) == 0
        first = mpe(model, Evidence(data.values[0], mask))
        built = len(calls)
        assert built > 0, name
        second = mpe(model, Evidence(data.values[1], mask))
        assert len(calls) == built, name
        for got, row in ((first, data.values[0]), (second, data.values[1])):
            want = oracle_mpe(model, Evidence(row, mask))
            assert np.array_equal(got[0], want[0]) and got[1] == want[1], name


# ---------------------------------------------------------------------------
# batch invariance: a row's value does not depend on the rest of its batch
# ---------------------------------------------------------------------------

BATCH_POOL = 1100
BATCH_SIZES = (1, 2, 7, 1000, BATCH_POOL)


def assert_batches_match_single_rows(model, rows, mask, rng, sizes):
    """Every row of shuffled batches of each size == ``log_evaluate`` of that row."""
    single = np.array([log_evaluate(model, Evidence(row, mask)) for row in rows])
    for size in sizes:
        order = rng.permutation(rows.shape[0])[:size]
        got = log_evaluate_batch(model, rows[order], mask)
        assert np.array_equal(got, single[order]), size
    return single


def test_batch_rows_equal_single_row_queries(fixture_models):
    dead = 0
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(16)
        # training rows with about a third of their values swapped for knots,
        # bin edges, off-support values and unseen codes
        rows = data.values[rng.integers(data.n_rows, size=BATCH_POOL)].copy()
        drawn = np.column_stack([rng.choice(pool, size=BATCH_POOL)
                                 for pool in value_pools(model, data)])
        swap = rng.random(rows.shape) < 0.3
        rows[swap] = drawn[swap]
        masks = [np.ones(model.n_vars, dtype=bool)]
        masks += [rng.random(model.n_vars) < 0.6 for _ in range(2)]
        for mask in masks:
            single = assert_batches_match_single_rows(model, rows, mask, rng, BATCH_SIZES)
            dead += int(np.sum(single == -np.inf))
    assert dead >= 10  # -inf rows are compared too


def test_columns_judged_dense_by_a_sample_keep_their_bits(hybrid6_train, hybrid6_model):
    # column 0 has few enough distinct values to be keyed, but its strided
    # sample is all distinct, so it runs per row; column 1 is dense, but its
    # sample is one repeated value, so it is sorted and then runs per row
    rng = np.random.default_rng(18)
    n = 2560
    rows = hybrid6_train.values[rng.integers(hybrid6_train.n_rows, size=n)].copy()
    sampled = np.arange(n) % (n // mspn.inference._SAMPLE_ROWS) == 0
    pos, energy = hybrid6_train.column(0), hybrid6_train.column(1)
    rows[:, 0] = rng.choice(pos[:50], size=n)
    rows[sampled, 0] = pos[50:50 + sampled.sum()]
    rows[:, 1] = energy[:n]
    rows[sampled, 1] = energy[0]
    mask = np.ones(6, dtype=bool)
    batch = mspn.inference._Batch(hybrid6_model.schema, rows, mask)
    assert np.unique(rows[:, 0]).size * 4 <= n and 0 not in batch.ids
    assert 1 not in batch.ids and 2 in batch.ids
    assert_batches_match_single_rows(hybrid6_model, rows, mask, rng, (n,))


def test_wide_sums_are_batch_invariant():
    # sums of 9 and 12 children: from 8 terms on, a numpy reduction would
    # add them pairwise, grouped by position; the combine adds in child order
    rng = np.random.default_rng(17)

    def box(variable):
        lo = rng.uniform(0.0, 8.0)
        return HistogramLeaf(variable, CONTINUOUS, np.array([lo, lo + rng.uniform(0.5, 3.0)]),
                             np.array([1.0]))

    def weights(n):
        w = rng.uniform(0.05, 1.0, n)
        return w / w.sum()

    parts = [ProductNode((0, 1), (box(0), SumNode((1,), weights(12),
                                                  [box(1) for _ in range(12)])))
             for _ in range(9)]
    root = SumNode((0, 1), weights(9), parts)
    data = make_dataset([("x", CONTINUOUS, None), ("y", CONTINUOUS, None)], [[0.5, 0.5]])
    model = Mspn(root, data.schema, LearnConfig())
    assert validate(model).ok
    rows = rng.uniform(-1.0, 11.0, size=(600, 2))
    for mask in ([True, True], [True, False], [False, True]):
        single = assert_batches_match_single_rows(model, rows, np.array(mask), rng,
                                                  (1, 2, 599, 600))
        assert np.any(single == -np.inf) and np.any(np.isfinite(single)), mask
    # some live rows have dead children in both kinds of sum
    cache = {}
    oracle_eval(root, rows, np.array([True, True]), cache)
    live = cache[id(root)] > -np.inf
    for sums in ([root], [part.children[1] for part in parts]):
        kids = np.stack([cache[id(c)] for s in sums for c in s.children])
        assert np.any(live & np.any(kids == -np.inf, axis=0))


def test_batch_rejects_non_finite_observed_values(hybrid_small_model):
    # columns: score (continuous), count (discrete), state (categorical)
    mask = np.ones(3, dtype=bool)
    for column in (0, 2):
        for bad in (np.nan, np.inf):
            rows = np.array([[0.1, 2.0, 1.0], [0.2, 3.0, 0.0]])
            rows[1, column] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(QueryError):
                    log_evaluate_batch(hybrid_small_model, rows, mask)
    # an unobserved column's value is never read
    mask = np.array([True, True, False])
    want = log_evaluate(hybrid_small_model, Evidence(np.array([0.1, 2.0, 0.0]), mask))
    got = log_evaluate_batch(hybrid_small_model, np.array([[0.1, 2.0, np.nan]]), mask)
    assert np.array_equal(got, [want])


def test_batch_rejects_what_single_row_queries_reject(hybrid_small_model):
    # columns: score (continuous), count (discrete), state (categorical)
    model, mask = hybrid_small_model, np.ones(3, dtype=bool)
    for bad, message in (([0.1, 2.4, 1.0], "'count' must be an integer"),
                         ([0.1, 2.0, 0.6], "'state' must be an integer"),
                         ([0.1, 2.0, -1.0], "negative category code for 'state'")):
        rows = np.array([[0.1, 2.0, 0.0], bad])
        with pytest.raises(QueryError, match=message):
            log_evaluate_batch(model, rows, mask)
        with pytest.raises(QueryError, match=message):
            log_evaluate(model, Evidence(rows[1], mask))
    # a code past the vocabulary, as `mspn loglik` writes for an unseen
    # label, is legal and scores the unseen mass, even one past 2**63
    arity = model.schema.stat_type(2).arity
    rows = np.array([[0.1, 2.0, float(arity)], [0.1, 2.0, arity + 3.0], [0.1, 2.0, 1e19]])
    want = [log_evaluate(model, Evidence(row, mask)) for row in rows]
    assert np.array_equal(log_evaluate_batch(model, rows, mask), want)
    assert np.isfinite(want).all()
    # unobserved columns are not checked
    got = log_evaluate_batch(model, np.array([[0.1, 2.5, -1.5]]), np.array([True, False, False]))
    assert np.isfinite(got).all()


# ---------------------------------------------------------------------------
# the batch executor's keys: each node evaluated once per distinct observed value
# ---------------------------------------------------------------------------

KEYED_BASE = 50
KEYED_TILE = 40
FAR = 1e6  # an integer past four values per row of any discrete range below


def duplicate_heavy_rows(model, data, rng):
    """KEYED_BASE rows, tiled KEYED_TILE times and shuffled, and each row's base row.

    The base rows are training rows with about a third of their values
    swapped for knots, bin edges, off-support values and unseen codes, and
    some for 0.0 or -0.0. The first discrete variable, if any, holds FAR in
    one base row, so its distinct values span more than four per row. With
    at most KEYED_BASE distinct rows, every variable stays below the dense
    cutoff and keys the nodes of its one-variable subtrees.
    """
    base = data.values[rng.integers(data.n_rows, size=KEYED_BASE)].copy()
    drawn = np.column_stack([rng.choice(pool, size=KEYED_BASE)
                             for pool in value_pools(model, data)])
    swap = rng.random(base.shape) < 0.3
    base[swap] = drawn[swap]
    zero = rng.random(base.shape) < 0.1
    base[zero] = np.where(rng.random(base.shape) < 0.5, 0.0, -0.0)[zero]
    discrete = [v for v in range(model.n_vars) if model.schema.stat_type(v).is_discrete]
    if discrete:
        base[0, discrete[0]] = FAR
    order = rng.permutation(KEYED_BASE * KEYED_TILE)
    return np.tile(base, (KEYED_TILE, 1))[order], base, order % KEYED_BASE


def test_keyed_batches_match_the_recursive_pass_and_single_rows(fixture_models):
    keyed, dead, signed_zeros = 0, 0, 0
    for name, (data, model) in fixture_models.items():
        rng = np.random.default_rng(18)
        rows, base, of_row = duplicate_heavy_rows(model, data, rng)
        signed_zeros += int(np.any(np.signbit(rows) & (rows == 0))
                            and np.any(~np.signbit(rows) & (rows == 0)))
        masks = [np.ones(model.n_vars, dtype=bool)]
        masks += [rng.random(model.n_vars) < 0.6 for _ in range(3)]
        for mask in masks:
            single = np.array([log_evaluate(model, Evidence(row, mask)) for row in base])
            got = log_evaluate_batch(model, rows, mask)
            assert np.array_equal(got, oracle_eval(model.root, rows, mask)), name
            assert np.array_equal(got, single[of_row]), name
            # no rows, and one and two rows, where every key is dense
            assert log_evaluate_batch(model, rows[:0], mask).shape == (0,)
            for size in (1, 2):
                assert np.array_equal(log_evaluate_batch(model, rows[:size], mask),
                                      single[of_row[:size]]), (name, size)
            keyed += len(mspn.inference._Batch(model.schema, rows, mask).ids)
            dead += int(np.sum(got == -np.inf))
    assert keyed >= 10  # variables below the dense cutoff are compared
    assert dead >= 10  # and so are -inf rows
    assert signed_zeros >= 4


def test_batch_keys_number_the_distinct_values():
    # one column per way to key a variable, and one with too many values
    n = 400
    rng = np.random.default_rng(19)
    data = make_dataset([("small", DISCRETE, None), ("wide", DISCRETE, None),
                         ("code", CATEGORICAL, ("a", "b", "c")), ("x", CONTINUOUS, None),
                         ("many", CONTINUOUS, None)], [[0.0, 0.0, 0.0, 0.0, 0.0]])
    values = np.column_stack([
        rng.integers(-3, 5, n),
        rng.choice([-2.0 * n, 0.0, 7.0, 3.0 * n], n),  # a range past four values per row
        rng.integers(0, 5, n),  # codes past the vocabulary too
        rng.choice([-0.0, 0.0, 0.25, 1.5], n),
        rng.uniform(0.0, 1.0, n),  # more than a quarter as many values as rows
    ]).astype(float)
    batch = mspn.inference._Batch(data.schema, values, np.ones(5, dtype=bool))
    for var in range(4):
        ids, points = batch.ids[var], batch.points[var]
        assert np.array_equal(points[ids], values[:, var])
        assert np.unique(points).size == points.size == ids.max() + 1
    assert 4 not in batch.ids  # dense: evaluated on its rows
    assert np.array_equal(batch.points[4], values[:, 4])


def test_partial_mask_batches_skip_subtrees_with_nothing_observed(fixture_models, monkeypatch):
    # a sum with no observed variable in scope enters its parent as its
    # all-marginalized value, so the batch runs only the other sums
    lse, calls = mspn.inference.weighted_logsumexp, []

    def counted(log_values, weights):
        calls.append(weights)
        return lse(log_values, weights)

    skipped = 0
    for name, (data, model) in fixture_models.items():
        first = np.arange(model.n_vars) == 0
        rows = data.values[:300]
        sums = [node for node in evaluation_plan(model).nodes if isinstance(node, SumNode)]
        for mask in (first, ~first):
            if not mask.any():
                continue
            want = log_evaluate_batch(model, rows, mask)  # builds the plan and its base
            monkeypatch.setattr(mspn.inference, "weighted_logsumexp", counted)
            calls.clear()
            got = log_evaluate_batch(model, rows, mask)
            monkeypatch.undo()
            live = sum(any(mask[v] for v in node.scope) for node in sums)
            assert len(calls) == live, (name, mask)
            assert np.array_equal(got, want), name
            skipped += len(sums) - live
    assert skipped >= 10


def batch_peak(model, depth, n=256):
    """tracemalloc peak of a warm n-row batch with both variables observed on
    a chain of ``depth`` levels, and the batch's row-sized table bytes."""
    rng = np.random.default_rng(23)
    ks = rng.integers(0, depth + 1, n)
    rows = np.column_stack([ks + rng.uniform(0.1, 0.9, n), ks + rng.uniform(0.1, 0.9, n)])
    both = np.array([True, True])
    want = log_evaluate_batch(model, rows, both)  # compiles the plan first
    tracemalloc.start()
    try:
        got = log_evaluate_batch(model, rows, both)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    return peak, rows[:, 0].nbytes


def test_deep_chain_batch_drops_each_table_once_its_parent_has_read_it(chain_model):
    # keeping every node's table would hold four row-sized tables per level.
    # Each level's product runs after the deeper sum beside it, so no table
    # waits for the rest of the chain and the peak does not grow with depth
    # by tables: what grows is the per-node bookkeeping (the run and seen
    # sets), about a quarter of a 256-row table per level, where 1.3 tables
    # per level waited in plain postorder
    peak, table = batch_peak(chain_model, CHAIN)
    shallow, _ = batch_peak(build_chain(1000), 1000)
    assert peak < 2 * CHAIN * table
    assert peak - shallow < 0.5 * (CHAIN - 1000) * table


def test_sample_rows_share_one_plan_pass(fixture_models):
    for name, (data, model) in fixture_models.items():
        evidence = Evidence(data.values[0], np.arange(model.n_vars) == 0)
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        want_visits, got_visits = Counter(), Counter()
        want = np.stack([sample(model, evidence, want_rng, want_visits) for _ in range(25)])
        got = sample_rows(model, evidence, got_rng, 25, got_visits)
        assert np.array_equal(got, want), name
        assert want_rng.random() == got_rng.random(), name
        # the same descents after one plan pass instead of 25
        got_visits.update(evaluation_plan(model).ids * 24)
        assert got_visits == want_visits, name


# ---------------------------------------------------------------------------
# grid tables for mutual information against the full-grid batch
# ---------------------------------------------------------------------------


def full_grid_log_joint(model, a, b, grids):
    """The (ga, gb) log table of the root from one batch over every grid cell."""
    pa, pb = grids[a][0], grids[b][0]
    values = np.zeros((pa.size * pb.size, model.n_vars))
    values[:, a] = np.repeat(pa, pb.size)
    values[:, b] = np.tile(pb, pa.size)
    observed = np.zeros(model.n_vars, dtype=bool)
    observed[a] = observed[b] = True
    return log_evaluate_batch(model, values, observed).reshape(pa.size, pb.size)


def full_grid_log_marginal(model, var, grids):
    points = grids[var][0]
    values = np.zeros((points.size, model.n_vars))
    values[:, var] = points
    return log_evaluate_batch(model, values, np.arange(model.n_vars) == var)


def full_grid_mi_graph(model, grid_size):
    """mi, nmi and entropies of ``mi_graph`` by full-grid batches (the oracle)."""
    n = model.n_vars
    grids = _variable_grids(model, grid_size, range(n))

    def entropy(p, measure, var):
        live = p > 0
        if model.schema.stat_type(var).is_continuous:
            return float(-(p[live] * (np.log(p[live]) - np.log(measure[live]))).sum())
        return float(-(p[live] * np.log(p[live])).sum())

    mi, nmi = np.zeros((n, n)), np.zeros((n, n))
    for a, b in itertools.combinations(range(n), 2):
        (_, wa), (_, wb) = grids[a], grids[b]
        cell_mass = np.exp(full_grid_log_joint(model, a, b, grids)) * np.outer(wa, wb)
        joint = cell_mass / float(cell_mass.sum())
        pa, pb = joint.sum(axis=1), joint.sum(axis=0)
        outer = np.outer(pa, pb)
        live = joint > 0
        value = max(0.0, float((joint[live] * (np.log(joint[live]) - np.log(outer[live]))).sum()))
        denom = entropy(pa, wa, a) * entropy(pb, wb, b)
        normalized = 0.0 if denom <= 0.0 else min(max(value / np.sqrt(denom), 0.0), 1.0)
        mi[a, b] = mi[b, a] = value
        nmi[a, b] = nmi[b, a] = normalized
    entropies = []
    for var in range(n):
        mass = np.exp(full_grid_log_marginal(model, var, grids)) * grids[var][1]
        entropies.append(entropy(mass / float(mass.sum()), grids[var][1], var))
    return mi, nmi, np.array(entropies)


@pytest.mark.parametrize("grid_size", [2, 7, 64])
def test_pair_tables_equal_the_full_grid_batch(fixture_models, grid_size):
    for name, (_, model) in fixture_models.items():
        grids = _variable_grids(model, grid_size, range(model.n_vars))
        tables = _GridTables(model, grids)
        for var in range(model.n_vars):
            want = full_grid_log_marginal(model, var, grids)
            assert np.array_equal(tables.marginal(var), want), (name, var)
        for a, b in itertools.combinations(range(model.n_vars), 2):
            want = full_grid_log_joint(model, a, b, grids)
            assert np.array_equal(tables.joint(a, b), want), (name, a, b)


@pytest.mark.parametrize("grid_size", [7, 64])
def test_mi_graph_equals_the_full_grid_oracle(fixture_models, grid_size):
    for name, (_, model) in fixture_models.items():
        if model.n_vars < 2:
            continue
        graph = mi_graph(model, grid_size)
        mi, nmi, entropies = full_grid_mi_graph(model, grid_size)
        assert np.array_equal(graph.mi, mi), name
        assert np.array_equal(graph.nmi, nmi), name
        assert np.array_equal(graph.entropies, entropies), name


# ---------------------------------------------------------------------------
# trees far deeper than Python's recursion limit
# ---------------------------------------------------------------------------

CHAIN = 3000
STAY = 0.99  # weight of the chain's next sum node; 1 - STAY goes to the product


def unit_leaf(variable, k):
    return HistogramLeaf(variable, CONTINUOUS, np.array([k, k + 1.0]), np.array([1.0]))


def build_chain(depth):
    """``depth`` nested sums; the k-th mixes in U(x; k, k+1) * U(y; k, k+1).

    Component k has weight (1 - STAY) * STAY**k (the last one STAY**depth),
    and components have disjoint supports, so a point in component k has
    log density log(weight_k).
    """
    node = ProductNode((0, 1), (unit_leaf(0, depth), unit_leaf(1, depth)))
    for k in reversed(range(depth)):
        part = ProductNode((0, 1), (unit_leaf(0, k), unit_leaf(1, k)))
        node = SumNode((0, 1), np.array([1.0 - STAY, STAY]), (part, node))
    data = make_dataset([("x", CONTINUOUS, None), ("y", CONTINUOUS, None)], [[0.5, 0.5]])
    return Mspn(node, data.schema, LearnConfig())


@pytest.fixture(scope="module")
def chain_model():
    return build_chain(CHAIN)


def log_weight(k):
    if k == CHAIN:
        return CHAIN * np.log(STAY)
    return k * np.log(STAY) + np.log(1.0 - STAY)


def test_deep_chain_evaluates_in_closed_form(chain_model):
    both = np.array([True, True])
    for k in (0, 1, 1700, CHAIN - 1, CHAIN):
        ev = Evidence(np.array([k + 0.5, k + 0.5]), both)
        np.testing.assert_allclose(log_evaluate(chain_model, ev), log_weight(k), rtol=1e-9)
    mismatched = Evidence(np.array([3.5, 4.5]), both)
    assert log_evaluate(chain_model, mismatched) == -np.inf
    assert abs(log_evaluate(chain_model, Evidence.marginalized(2))) <= 1e-9


def test_deep_chain_batch_evaluates_in_closed_form(chain_model):
    ks = np.array([0, 5, 2999, CHAIN])
    rows = np.column_stack([ks + 0.5, ks + 0.5])
    got = log_evaluate_batch(chain_model, rows, np.array([True, True]))
    np.testing.assert_allclose(got, [log_weight(k) for k in ks], rtol=1e-9)


def test_deep_chain_conditional_is_exact(chain_model):
    k = 2500
    query = Evidence(np.array([0.0, k + 0.5]), np.array([False, True]))
    given = Evidence(np.array([k + 0.5, 0.0]), np.array([True, False]))
    assert abs(log_conditional(chain_model, query, given)) <= 1e-9
    elsewhere = Evidence(np.array([0.0, k + 1.5]), np.array([False, True]))
    assert log_conditional(chain_model, elsewhere, given) == -np.inf


def test_deep_chain_samples_the_only_live_component(chain_model):
    rng = np.random.default_rng(3)
    for k in (0, 2222, CHAIN):
        counter = Counter()
        given = Evidence(np.array([k + 0.5, 0.0]), np.array([True, False]))
        draw = sample(chain_model, given, rng, counter)
        assert draw[0] == k + 0.5 and k <= draw[1] <= k + 1
        assert max(counter.values()) <= 2


def test_deep_chain_mpe_is_exact(chain_model):
    assignment, value = mpe(chain_model, Evidence.marginalized(2))
    np.testing.assert_allclose(value, log_weight(0), rtol=1e-9)
    assert np.all((0.0 <= assignment) & (assignment <= 1.0))
    for k in (0, 2500, CHAIN):
        given = Evidence(np.array([k + 0.5, 0.0]), np.array([True, False]))
        assignment, value = mpe(chain_model, given)
        assert assignment[0] == k + 0.5 and k <= assignment[1] <= k + 1
        np.testing.assert_allclose(value, log_weight(k), rtol=1e-9)


def test_deep_chain_coefficients_in_closed_form_in_bounded_memory(chain_model):
    # with x observed in component k, the root settles y: component k's y
    # leaf has the component's log weight and every other y leaf the -inf
    # of its x leaf. Each walk step holds one value per leaf and node; a
    # (leaf, ancestor) table would hold 9 015 002 entries here, 72 MB as doubles
    plan = evaluation_plan(chain_model)
    y_leaves = np.flatnonzero(plan.leaf_vars == 1)
    component = [int(plan.nodes[i].edges[0]) for i in plan.leaf_nodes[y_leaves].tolist()]
    x_observed = np.array([True, False])
    for k in (0, 2500, CHAIN):
        vals, n_free, settle = coefficient_inputs(plan, Evidence(np.array([k + 0.5, 0.0]),
                                                                 x_observed))
        assert settle.tolist() == [plan.root]
        tracemalloc.start()
        try:
            coef = plan._coefficients(vals, n_free, settle)[y_leaves]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, k
        mine = component.index(k)
        np.testing.assert_allclose(coef[mine], log_weight(k), rtol=1e-9)
        assert np.isneginf(np.delete(coef, mine)).all(), k


def test_deep_chain_settle_table_is_linear_in_its_leaves(chain_model):
    # with x observed every node has one free variable, so the root
    # maximizes one mixture of all CHAIN + 1 y leaves on about 2 * CHAIN
    # candidates; each leaf's densities cover only its own support
    given = Evidence(np.array([2500.5, 0.0]), np.array([True, False]))
    mpe(chain_model, given)
    plan = evaluation_plan(chain_model)
    table = plan.settle_tables[plan.root, 1]
    leaves = CHAIN + 1
    assert table.ranks.size == leaves
    held = sum(a.size for a in table)
    assert held <= 16 * leaves
    assert leaves * table.grid.size > 100 * held


def test_the_leaf_table_holds_each_leaf_knots_once():
    # the table lays the leaves end to end: a 1500-category leaf among
    # two-edge leaves takes its own 1501 edges and widens no other leaf
    wide = HistogramLeaf(0, CATEGORICAL, np.arange(1501.0), np.full(1500, 1.0 / 1500))
    narrow = SumNode((1,), np.full(50, 1.0 / 50), tuple(unit_leaf(1, k) for k in range(50)))
    data = make_dataset([("c", CATEGORICAL, tuple(map(str, range(1500)))),
                         ("y", CONTINUOUS, None)], [[0.0, 0.5]])
    model = Mspn(ProductNode((0, 1), (wide, narrow)), data.schema, LearnConfig())
    table = evaluation_plan(model).leaf_table
    knots = 1501 + 50 * 2
    assert [a.size for a in (table.x, table.y, table.slope)] == [knots] * 3
    both = np.array([True, True])
    for values in ([7.0, 3.5], [1499.0, 49.0], [1500.0, 50.0], [0.0, -1.0]):
        ev = Evidence(np.array(values), both)
        want = oracle_eval(model.root, ev.values[None, :], ev.observed)
        assert np.array_equal([log_evaluate(model, ev)], want), values


def test_deep_chain_validates_and_counts_its_nodes(chain_model):
    assert validate(chain_model).ok
    assert chain_model.node_count == 4 * CHAIN + 3


def test_deep_chain_saves_and_loads_byte_identically(chain_model, tmp_path):
    path = tmp_path / "chain.json"
    save_model(chain_model, path)
    clone = load_model(path)
    assert serialize(clone) == path.read_bytes()
    both = np.array([True, True])
    for k in (0, 1700, CHAIN):
        ev = Evidence(np.array([k + 0.5, k + 0.5]), both)
        assert log_evaluate(clone, ev) == log_evaluate(chain_model, ev)
    given = Evidence(np.array([2500.5, 0.0]), np.array([True, False]))
    for ev in (Evidence.marginalized(2), given):
        (got, got_value), (want, want_value) = mpe(clone, ev), mpe(chain_model, ev)
        assert np.array_equal(got, want) and got_value == want_value


def test_deep_chain_mi_graph_equals_the_pair_query(chain_model):
    graph = mi_graph(chain_model, 64)
    mi, nmi = mutual_information(chain_model, 0, 1, 64)
    assert graph.mi[0, 1] == mi and graph.nmi[0, 1] == nmi
    assert mi > 0.0
