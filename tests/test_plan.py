"""The compiled evaluation plan against the recursive evaluator it replaced.

``oracle_eval``, ``oracle_sample`` and ``oracle_mpe`` evaluate, sample
and maximize by plain recursion over the tree, one node at a time, with
each node's own arithmetic. Every query must reproduce them bit for bit:
the README's printed values and the determinism gate depend on it. The
evidence mixes training rows with values exactly on knots and bin edges,
values outside every support, unseen category codes and random
observation masks, so that whole sub-mixtures evaluate to -inf.
"""

import itertools
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

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
from mspn.inference import _free_candidates, evaluation_plan, sample_rows
from mspn.leaves import (
    HistogramLeaf,
    PiecewiseLinearLeaf,
    leaf_density_batch,
    leaf_sample,
)
from mspn.numerics import weighted_logsumexp
from mspn.structure import Mspn, iter_nodes
from conftest import make_dataset

EVIDENCES_PER_MODEL = 150


def oracle_eval(node, values, observed, cache=None):
    """One recursive bottom-up pass; per-row log values."""
    if isinstance(node, SumNode):
        child_vals = np.stack(
            [oracle_eval(c, values, observed, cache) for c in node.children]
        )
        out = weighted_logsumexp(child_vals, node.weights)
    elif isinstance(node, ProductNode):
        out = np.zeros(values.shape[0])
        for c in node.children:
            out = out + oracle_eval(c, values, observed, cache)
    else:
        var = node.variable
        if observed[var]:
            with np.errstate(divide="ignore"):
                out = np.log(leaf_density_batch(node, values[:, var]))
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
            assignment[node.variable] = leaf_sample(node, rng)
    return assignment


def oracle_mpe(model, evidence):
    """Recursive max-product pass recording decisions by node id, then a top-down walk.

    A subtree with one free variable is flattened into (log coefficient,
    leaf) terms and maximized over ``_free_candidates``; fully observed
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
        candidates = _free_candidates(terms)
        total = np.full(candidates.shape, -np.inf)
        for log_w, leaf in terms:
            with np.errstate(divide="ignore"):
                total = np.logaddexp(total, log_w + np.log(leaf_density_batch(leaf, candidates)))
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
            coef = plan._coefficients(plan.evaluate_row(ev.values, ev.observed), n_free)
            for s in np.flatnonzero((n_free[:-1] == 1) & (n_free[plan.parent] != 1)).tolist():
                var = next(v for v in plan.nodes[s].scope if not ev.observed[v])
                terms = recursive_mixture_terms(plan.nodes[s], var, ev.values, ev.observed)
                table = plan.settle_table(s, var)
                assert [id(leaf) for _, leaf in terms] == [plan.ids[i] for i in
                                                           plan.leaf_nodes[table.ranks]], name
                assert np.array_equal(coef[table.ranks], [t for t, _ in terms]), name
                settled += 1
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
    # label, is legal and scores the unseen mass
    arity = model.schema.stat_type(2).arity
    rows = np.array([[0.1, 2.0, float(arity)], [0.1, 2.0, arity + 3.0]])
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
    held = sum(a.size for a in (table.grid, table.unset, table.ranks, table.sizes,
                                table.log_density)) + 4 * len(table.spans)
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
