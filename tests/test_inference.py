"""Evidence handling, evaluation, conditionals, MPE, and sampling."""

import importlib
import inspect
import pkgutil
import re
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mspn
from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Evidence,
    LearnConfig,
    ProductNode,
    SumNode,
    deserialize,
    log_conditional,
    log_evaluate,
    log_evaluate_batch,
    mpe,
    sample,
    serialize,
)
from mspn.errors import ConditioningError, QueryError
from mspn.leaves import HistogramLeaf
from mspn.structure import Mspn
from conftest import make_dataset


def toy_product_model():
    """p(a, b) = U(a; 0, 1) * U(b; 0, 2); exact densities by hand."""
    leaf_a = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
    leaf_b = HistogramLeaf(1, CONTINUOUS, np.array([0.0, 2.0]), np.array([1.0]))
    data = make_dataset(
        [("a", CONTINUOUS, None), ("b", CONTINUOUS, None)], [[0.5, 0.5]]
    )
    return Mspn(ProductNode((0, 1), (leaf_a, leaf_b)), data.schema, LearnConfig())


def toy_sum_model():
    """p(x) = 0.3 * U(x; 0, 1) + 0.7 * U(x; 0, 2)."""
    narrow = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
    wide = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 2.0]), np.array([1.0]))
    data = make_dataset([("x", CONTINUOUS, None)], [[0.5]])
    root = SumNode((0,), np.array([0.3, 0.7]), (narrow, wide))
    return Mspn(root, data.schema, LearnConfig())


class TestEvidence:
    def test_arrays_are_read_only(self):
        ev = Evidence(np.array([1.0, 2.0]), np.array([True, False]))
        with pytest.raises(ValueError):
            ev.values[0] = 9.0

    def test_marginalized_observes_nothing(self):
        ev = Evidence.marginalized(4)
        assert ev.n_vars == 4
        assert not ev.observed.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(QueryError):
            Evidence(np.array([1.0, 2.0]), np.array([True]))

    def test_observe_maps_labels_to_codes(self, hybrid6_model):
        ev = Evidence.observe(hybrid6_model.schema, {"grade": "b", "pos": 0.25})
        assert ev.values[2] == 1.0 and ev.observed[2]
        assert ev.values[0] == 0.25 and ev.observed[0]
        assert not ev.observed[1]

    def test_observe_accepts_numeric_codes(self, hybrid6_model):
        ev = Evidence.observe(hybrid6_model.schema, {"grade": 2})
        assert ev.values[2] == 2.0

    def test_observe_unknown_label_rejected(self, hybrid6_model):
        with pytest.raises(QueryError):
            Evidence.observe(hybrid6_model.schema, {"grade": "z"})

    def test_observe_unparseable_value_rejected(self, hybrid6_model):
        with pytest.raises(QueryError):
            Evidence.observe(hybrid6_model.schema, {"pos": "fast"})

    def test_merged_combines_disjoint_evidence(self):
        a = Evidence(np.array([1.0, 0.0, 0.0]), np.array([True, False, False]))
        b = Evidence(np.array([0.0, 2.0, 0.0]), np.array([False, True, False]))
        m = a.merged(b)
        np.testing.assert_array_equal(m.values[:2], [1.0, 2.0])
        np.testing.assert_array_equal(m.observed, [True, True, False])

    def test_merged_rejects_overlap(self):
        a = Evidence(np.array([1.0]), np.array([True]))
        b = Evidence(np.array([2.0]), np.array([True]))
        with pytest.raises(QueryError):
            a.merged(b)

    def test_merged_rejects_width_mismatch(self):
        a = Evidence.marginalized(2)
        b = Evidence.marginalized(3)
        with pytest.raises(QueryError):
            a.merged(b)


class TestLogEvaluateExact:
    def test_product_multiplies_leaf_densities(self):
        model = toy_product_model()
        ev = Evidence(np.array([0.5, 0.5]), np.array([True, True]))
        assert log_evaluate(model, ev) == np.log(0.5)

    def test_product_marginal_drops_a_factor(self):
        model = toy_product_model()
        ev = Evidence(np.array([0.5, 0.0]), np.array([True, False]))
        assert log_evaluate(model, ev) == 0.0

    def test_sum_mixes_child_densities(self):
        model = toy_sum_model()
        ev = Evidence(np.array([0.5]), np.array([True]))
        np.testing.assert_allclose(
            log_evaluate(model, ev), np.log(0.3 * 1.0 + 0.7 * 0.5), rtol=1e-15
        )

    def test_outside_all_support_is_minus_infinity(self):
        model = toy_sum_model()
        ev = Evidence(np.array([5.0]), np.array([True]))
        assert log_evaluate(model, ev) == -np.inf

    @pytest.mark.parametrize("weights, exact", [
        ([0.25, 0.75], True), ([300 / 997, 697 / 997], True), ([1 / 6] * 6, False),
    ])
    def test_all_marginalized_is_zero_when_the_weights_add_to_one(self, weights, exact):
        # six sixths add to 0.9999999999999999, within the loader's 1e-12
        total = 0.0
        for w in weights:  # in child order, as the sum node adds them
            total += w
        assert (total == 1.0) == exact
        boxes = [HistogramLeaf(0, CONTINUOUS, np.array([k, k + 1.0]), np.array([1.0]))
                 for k in range(len(weights))]
        data = make_dataset([("x", CONTINUOUS, None)], [[0.5]])
        model = deserialize(serialize(Mspn(SumNode((0,), np.array(weights), boxes),
                                           data.schema, LearnConfig())))
        value = log_evaluate(model, Evidence.marginalized(1))
        assert (value == 0.0) == exact
        assert abs(value) <= 1e-12

    def test_two_cluster_proportions_add_to_exactly_one(self):
        # a learned sum's weights: each cluster's rows over the node's rows
        assert all(a / n + (n - a) / n == 1.0 for n in range(1, 1001) for a in range(n + 1))


class TestLogEvaluateModels:
    def test_all_marginalized_is_exactly_zero(self, fixture_models):
        for name, (_, model) in fixture_models.items():
            ll = log_evaluate(model, Evidence.marginalized(model.n_vars))
            assert ll == 0.0, name

    def test_evidence_width_mismatch_rejected(self, hybrid6_model):
        with pytest.raises(QueryError):
            log_evaluate(hybrid6_model, Evidence.marginalized(5))

    def test_non_finite_observation_rejected(self, hybrid6_model):
        ev = Evidence(np.array([np.nan, 0, 0, 0, 0, 0]),
                      np.array([True] + [False] * 5))
        with pytest.raises(QueryError):
            log_evaluate(hybrid6_model, ev)

    def test_fractional_discrete_observation_rejected(self, hybrid6_model):
        ev = Evidence(np.array([0, 0, 0, 2.5, 0, 0]),
                      np.array([False, False, False, True, False, False]))
        with pytest.raises(QueryError):
            log_evaluate(hybrid6_model, ev)

    def test_negative_category_code_rejected(self, hybrid6_model):
        ev = Evidence(np.array([0, 0, -1.0, 0, 0, 0]),
                      np.array([False, False, True, False, False, False]))
        with pytest.raises(QueryError):
            log_evaluate(hybrid6_model, ev)

    def test_unseen_category_code_gets_smoothed_mass(self, hybrid6_model):
        mask = np.array([False, False, True, False, False, False])
        unseen = log_evaluate(hybrid6_model, Evidence(np.array([0, 0, 9.0, 0, 0, 0]), mask))
        seen = log_evaluate(hybrid6_model, Evidence(np.array([0, 0, 0.0, 0, 0, 0]), mask))
        assert np.isfinite(unseen) and unseen < seen

    def test_out_of_vocabulary_codes_score_unseen_mass_outside_the_pmf(self, hybrid6_model):
        # the vocabulary's masses sum to 1; any code past it scores the
        # leaf's unseen mass on top of them
        leaf = HistogramLeaf(0, CATEGORICAL, np.arange(4.0), np.array([0.2, 0.3, 0.5]),
                             1.0, 0.04)
        data = make_dataset([("c", CATEGORICAL, ("a", "b", "c"))], [[0.0]])
        single_leaf = Mspn(leaf, data.schema, LearnConfig())
        grade = np.array([False, False, True, False, False, False])
        for model, var, mask in ((single_leaf, 0, np.array([True])),
                                 (hybrid6_model, 2, grade)):
            arity = model.schema.stat_type(var).arity
            rows = np.zeros((arity + 4, model.n_vars))
            rows[:, var] = np.arange(arity + 4)
            single = np.array([log_evaluate(model, Evidence(row, mask)) for row in rows])
            assert np.array_equal(log_evaluate_batch(model, rows, mask), single)
            assert abs(np.exp(single[:arity]).sum() - 1.0) <= 1e-12
            unseen = single[arity:]
            assert np.all(unseen == unseen[0]) and np.isfinite(unseen[0])
        assert log_evaluate(single_leaf, Evidence(np.array([5.0]), np.array([True]))) == np.log(0.04)

    def test_marginal_density_integrates_to_one(self, cont_indep_model):
        grid = np.linspace(-0.5, 1.5, 4001)
        lls = log_evaluate_batch(
            cont_indep_model, np.column_stack([grid, np.zeros_like(grid)]),
            np.array([True, False]),
        )
        total = np.trapezoid(np.exp(lls), grid)
        assert abs(total - 1.0) <= 1e-3

    def test_batch_matches_scalar_evaluation(self, hybrid6_model, hybrid6_test):
        rows = hybrid6_test.values[:25]
        mask = np.array([True, True, False, True, False, True])
        batch = log_evaluate_batch(hybrid6_model, rows, mask)
        # batched and scalar evaluation may differ by BLAS accumulation
        # order in the mixture dot products, but never beyond a few ulp
        for row, ll in zip(rows, batch):
            single = log_evaluate(hybrid6_model, Evidence(row, mask))
            np.testing.assert_allclose(ll, single, rtol=1e-12)

    def test_batch_of_the_wrong_shape_rejected(self, hybrid6_model, hybrid6_test):
        rows, mask = hybrid6_test.values[:5], np.ones(6, dtype=bool)
        bad = [
            (rows, mask[:4]),  # a short mask would marginalize the missing variables
            (np.column_stack([rows, rows[:, 0]]), mask),  # an extra column would be ignored
            (rows, np.ones(7, dtype=bool)),
            (rows, np.ones((5, 6), dtype=bool)),
            (rows[0], mask),
            (rows[None], mask),
            (rows[:, :5], mask),
        ]
        for values, observed in bad:
            with pytest.raises(QueryError, match="a batch needs"):
                log_evaluate_batch(hybrid6_model, values, observed)


class TestLogConditional:
    def test_equals_joint_minus_given(self, hybrid6_model, hybrid6_test):
        row = hybrid6_test.values[0]
        query = Evidence(row * (np.arange(6) < 2), np.array([True, True] + [False] * 4))
        given = Evidence(row * (np.arange(6) >= 2), np.array([False, False] + [True] * 4))
        lhs = log_conditional(hybrid6_model, query, given)
        rhs = log_evaluate(hybrid6_model, query.merged(given)) - log_evaluate(
            hybrid6_model, given
        )
        assert lhs == rhs

    def test_overlapping_query_and_given_rejected(self, hybrid6_model):
        ev = Evidence(np.zeros(6), np.array([True] + [False] * 5))
        with pytest.raises(QueryError):
            log_conditional(hybrid6_model, ev, ev)

    def test_evidence_of_different_lengths_rejected(self, hybrid6_model):
        query = Evidence(np.zeros(6), np.array([True] + [False] * 5))
        with pytest.raises(QueryError):
            log_conditional(hybrid6_model, query, Evidence.marginalized(5))

    def test_zero_probability_given_rejected(self, hybrid6_model):
        given = Evidence(np.array([100.0, 0, 0, 0, 0, 0]),
                         np.array([True] + [False] * 5))
        query = Evidence(np.array([0, 0, 1.0, 0, 0, 0]),
                         np.array([False, False, True, False, False, False]))
        assert log_evaluate(hybrid6_model, given) == -np.inf
        assert np.isfinite(log_evaluate(hybrid6_model, query))
        with pytest.raises(ConditioningError):
            log_conditional(hybrid6_model, query, given)

    def test_non_finite_query_value_rejected(self, hybrid6_model):
        given = Evidence(np.array([0, 0, 1.0, 0, 0, 0]),
                         np.array([False, False, True, False, False, False]))
        query = Evidence(np.array([np.nan, 0, 0, 0, 0, 0]), np.array([True] + [False] * 5))
        assert np.isfinite(log_evaluate(hybrid6_model, given))
        with pytest.raises(QueryError, match="not finite"):
            log_conditional(hybrid6_model, query, given)

    def test_invalid_query_rejected_before_a_zero_probability_given(self, hybrid6_model):
        # both evidences are checked before the one plan pass that scores them
        given = Evidence(np.array([100.0, 0, 0, 0, 0, 0]),
                         np.array([True] + [False] * 5))
        query = Evidence(np.array([0, 0, np.inf, 0, 0, 0]),
                         np.array([False, False, True, False, False, False]))
        with pytest.raises(QueryError, match="not finite"):
            log_conditional(hybrid6_model, query, given)

    def test_empty_query_conditions_to_zero(self, hybrid6_model):
        given = Evidence.observe(hybrid6_model.schema, {"grade": "a"})
        assert log_conditional(hybrid6_model, Evidence.marginalized(6), given) == 0.0


class TestMpe:
    def test_fully_observed_evidence_is_returned_unchanged(
        self, hybrid6_model, hybrid6_test
    ):
        row = hybrid6_test.values[3]
        ev = Evidence(row, np.ones(6, dtype=bool))
        assignment, value = mpe(hybrid6_model, ev)
        np.testing.assert_array_equal(assignment, row)
        assert value == log_evaluate(hybrid6_model, ev)

    def test_observed_values_are_preserved(self, hybrid6_model, hybrid6_train):
        med = float(np.median(hybrid6_train.column(0)))
        ev = Evidence.observe(hybrid6_model.schema, {"pos": med, "grade": "c"})
        assignment, value = mpe(hybrid6_model, ev)
        assert assignment[0] == med and assignment[2] == 2.0
        assert np.isfinite(value)

    def test_completion_scores_with_a_standard_evaluation(self, uni1d_model):
        assignment, value = mpe(uni1d_model, Evidence.marginalized(1))
        full = Evidence(assignment, np.ones(1, dtype=bool))
        assert value == log_evaluate(uni1d_model, full)

    def test_matches_dense_grid_argmax(self, uni1d_model, uni1d_data):
        assignment, value = mpe(uni1d_model, Evidence.marginalized(1))
        col = uni1d_data.column(0)
        grid = np.linspace(col.min() - 1.0, col.max() + 1.0, 20001)
        lls = log_evaluate_batch(uni1d_model, grid[:, None], np.array([True]))
        best = int(np.argmax(lls))
        assert abs(assignment[0] - grid[best]) <= 0.01
        assert value >= lls[best] - 1e-6

    def test_discrete_and_categorical_completions_are_integral(self, hybrid6_model):
        assignment, _ = mpe(hybrid6_model, Evidence.marginalized(6))
        for j in (2, 3, 5):
            assert assignment[j] == np.rint(assignment[j])
        assert 0 <= assignment[2] <= 2


class TestSample:
    def test_fully_observed_sampling_is_the_identity(
        self, hybrid6_model, hybrid6_test
    ):
        row = hybrid6_test.values[7]
        ev = Evidence(row, np.ones(6, dtype=bool))
        out = sample(hybrid6_model, ev, np.random.default_rng(0))
        np.testing.assert_array_equal(out, row)

    def test_mixture_weights_drive_branch_frequencies(self):
        heads = HistogramLeaf(
            0, CATEGORICAL, np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0])
        )
        tails = HistogramLeaf(
            0, CATEGORICAL, np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0])
        )
        data = make_dataset([("coin", CATEGORICAL, ("h", "t"))], [[0.0]])
        model = Mspn(
            SumNode((0,), np.array([0.25, 0.75]), (heads, tails)),
            data.schema, LearnConfig(),
        )
        r = np.random.default_rng(123)
        draws = np.array(
            [sample(model, Evidence.marginalized(1), r)[0] for _ in range(10000)]
        )
        assert abs(draws.mean() - 0.75) < 0.02

    def test_blob_membership_frequency_matches_weights(self, blobs2d_model):
        r = np.random.default_rng(7)
        draws = np.array(
            [sample(blobs2d_model, Evidence.marginalized(2), r)
             for _ in range(2000)]
        )
        low = (draws[:, 0] < 3.0).mean()
        assert abs(low - 0.5) < 0.04

    def test_conditioning_pins_observed_values(self, hybrid6_model):
        ev = Evidence.observe(hybrid6_model.schema, {"grade": "b"})
        r = np.random.default_rng(5)
        for _ in range(50):
            out = sample(hybrid6_model, ev, r)
            assert out[2] == 1.0
            assert out[3] == np.rint(out[3]) and out[5] == np.rint(out[5])

    def test_zero_probability_evidence_rejected(self, hybrid6_model):
        ev = Evidence(np.array([100.0, 0, 0, 0, 0, 0]),
                      np.array([True] + [False] * 5))
        with pytest.raises(ConditioningError):
            sample(hybrid6_model, ev, np.random.default_rng(0))

    def test_same_seed_reproduces_the_draw(self, hybrid6_model):
        ev = Evidence.marginalized(6)
        a = sample(hybrid6_model, ev, np.random.default_rng(42))
        b = sample(hybrid6_model, ev, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestQueryCounters:
    def test_evaluation_touches_each_node_exactly_once(self, hybrid6_model):
        counter = Counter()
        log_evaluate(hybrid6_model, Evidence.marginalized(6), counter)
        assert sum(counter.values()) == hybrid6_model.node_count
        assert max(counter.values()) == 1

    def test_conditional_touches_each_node_exactly_twice(self, hybrid6_model):
        counter = Counter()
        given = Evidence.observe(hybrid6_model.schema, {"grade": "a"})
        query = Evidence.observe(hybrid6_model.schema, {"hits": 4})
        log_conditional(hybrid6_model, query, given, counter)
        assert set(counter.values()) == {2}
        assert sum(counter.values()) == 2 * hybrid6_model.node_count

    def test_mpe_stays_within_two_visits_per_node(self, hybrid6_model):
        counter = Counter()
        mpe(hybrid6_model, Evidence.marginalized(6), counter)
        assert max(counter.values()) <= 2
        assert sum(counter.values()) <= 2 * hybrid6_model.node_count

    def test_mpe_counts_each_node_once_per_pass(self, hybrid6_model, hybrid6_train):
        # an evaluation pass over every node, then a max-product pass over
        # the nodes with a free variable in scope
        counter = Counter()
        mpe(hybrid6_model, Evidence.marginalized(6), counter)
        assert set(counter.values()) == {2}
        assert sum(counter.values()) == 2 * hybrid6_model.node_count
        counter = Counter()
        mpe(hybrid6_model, Evidence(hybrid6_train.values[0], np.ones(6, dtype=bool)), counter)
        assert set(counter.values()) == {1}
        assert sum(counter.values()) == hybrid6_model.node_count

    def test_sampling_stays_within_two_visits_per_node(self, hybrid6_model):
        counter = Counter()
        sample(hybrid6_model, Evidence.marginalized(6),
               np.random.default_rng(1), counter)
        assert max(counter.values()) <= 2
        assert sum(counter.values()) <= 2 * hybrid6_model.node_count


def package_callables():
    """(name, object) for every function, class and method the package's modules define."""
    for info in pkgutil.iter_modules(mspn.__path__):
        module = importlib.import_module(f"mspn.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            name = f"{info.name}.{name}"
            if inspect.isclass(obj):
                yield name, obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield name, obj


def test_every_public_annotation_resolves():
    # annotations are strings until resolved; a name the module never
    # imported only fails here
    unresolved = []
    checked = list(package_callables())
    assert len(checked) > 250  # private helpers included, so a walk that misses a module shows
    for name, obj in checked:
        try:
            typing.get_type_hints(obj)
        except NameError as err:
            unresolved.append(f"{name}: {err}")
    assert unresolved == []


def test_all_is_what_readme_shows():
    # every name the package exports is documented, and every package-level
    # name the README mentions is exported
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    shown = {word for word in re.findall(r"\w+", readme)
             if not word.startswith("_") and hasattr(mspn, word)
             and not inspect.ismodule(getattr(mspn, word))}
    assert shown == set(mspn.__all__)
