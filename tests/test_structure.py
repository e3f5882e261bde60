"""Structure learning, traversal, and structural validation."""

import hashlib
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mspn.structure
from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    LearnConfig,
    ProductNode,
    Schema,
    StatType,
    SumNode,
    deserialize,
    iter_nodes,
    learn_mspn,
    serialize,
    validate,
)
from mspn.data import DISCRETE
from mspn.errors import ConfigError, FormatError
from mspn.leaves import HistogramLeaf, PiecewiseLinearLeaf
from mspn.rdc import SamplePartition
from mspn.structure import Mspn
from conftest import H14_COLS, make_dataset, make_hybrid14

# the build the pinned model bytes below come from
PINNED_BUILD = "numpy 2.4.6 with scipy-openblas 0.3.31.188.0"


def assert_pinned_bytes(models, pinned):
    """sha256 prefixes of ``serialize(model)``, file format 2, equal ``pinned``.

    Another numpy or BLAS build may round the CCA's matrix products
    differently, so a failure names the build the pins came from.
    """
    got = {name: hashlib.sha256(serialize(model)).hexdigest()[:16]
           for name, model in models.items()}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = f"numpy {np.__version__} with {blas['name']} {blas['version']}"
    assert got == pinned, (
        f"model bytes changed; pinned under {PINNED_BUILD}, run under "
        f"{build}: on another build, repin rather than blame the learner"
    )


class TestLearnConfig:
    def test_defaults(self):
        cfg = LearnConfig()
        assert cfg.min_instances == 200
        assert cfg.smoothing == 1.0
        assert cfg.dependence_threshold == 0.3
        assert cfg.leaf_kind == "isotonic"
        assert cfg.proj_features == 20
        assert cfg.seed == 7

    def test_min_instances_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            LearnConfig(min_instances=1)

    def test_fractional_min_instances_rejected(self):
        with pytest.raises(ConfigError):
            LearnConfig(min_instances=10.5)

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ConfigError):
            LearnConfig(smoothing=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("smoothing", float("nan")), ("smoothing", float("inf")),
        ("proj_scale", float("nan")), ("proj_scale", float("inf")),
        ("kmeans_tol", float("nan")), ("kmeans_tol", float("inf")),
    ])
    def test_non_finite_settings_rejected(self, field, value):
        # NaN fails no plain < or <= bound, so each check is a range it must lie in
        with pytest.raises(ConfigError):
            LearnConfig(**{field: value})

    @pytest.mark.parametrize("field", ["proj_features", "kmeans_max_iter"])
    @pytest.mark.parametrize("value", [2.5, 20.0, True])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigError):
            LearnConfig(**{field: value})

    def test_threshold_must_be_interior(self):
        with pytest.raises(ConfigError):
            LearnConfig(dependence_threshold=0.0)
        with pytest.raises(ConfigError):
            LearnConfig(dependence_threshold=1.0)

    def test_unknown_leaf_kind_rejected(self):
        with pytest.raises(ConfigError):
            LearnConfig(leaf_kind="spline")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            LearnConfig(seed=-1)

    def test_dict_roundtrip(self):
        cfg = LearnConfig(min_instances=50, smoothing=0.5, seed=99)
        assert LearnConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ConfigError):
            LearnConfig.from_dict({"seed": 1, "bogus": 2})


class TestLearnedShapes:
    def test_independent_columns_factorize_at_the_root(self, cont_indep_model):
        root = cont_indep_model.root
        assert isinstance(root, ProductNode)
        assert root.scope == (0, 1)
        assert sorted(c.scope for c in root.children) == [(0,), (1,)]

    def test_separated_blobs_cluster_at_the_root(self, blobs2d_model):
        root = blobs2d_model.root
        assert isinstance(root, SumNode)
        np.testing.assert_array_equal(root.weights, [0.5, 0.5])

    def test_small_dataset_is_forced_to_factorize(self, hybrid_small_model):
        root = hybrid_small_model.root
        assert isinstance(root, ProductNode)
        assert len(root.children) == 3
        for child in root.children:
            assert isinstance(child, (HistogramLeaf, PiecewiseLinearLeaf))

    def test_single_constant_column_learns_a_leaf(self):
        data = make_dataset([("tag", CONTINUOUS, None)], np.full((500, 1), 3.0))
        model = learn_mspn(data, LearnConfig(seed=2))
        assert isinstance(model.root, (HistogramLeaf, PiecewiseLinearLeaf))
        assert model.root.scope == (0,)

    def test_constant_column_slices_skip_row_clustering(self, monkeypatch):
        # a constant column clusters into one cluster, which makes it a leaf:
        # its slice goes to that leaf without clustering its rows
        original = mspn.structure.cluster_samples
        clustered = []

        def counted(data, config, seeds):
            clustered.append(data)
            return original(data, config, seeds)

        monkeypatch.setattr(mspn.structure, "cluster_samples", counted)
        r = np.random.default_rng(41)
        x = r.normal(size=600)
        # a and b depend on each other; c is constant and d independent noise
        data = make_dataset(
            [("a", CONTINUOUS, None), ("b", CONTINUOUS, None), ("c", DISCRETE, None),
             ("d", CONTINUOUS, None)],
            np.column_stack([x, x + r.normal(0.0, 0.1, 600), np.full(600, 2.0),
                             r.uniform(size=600)]),
        )
        model = learn_mspn(data, LearnConfig(seed=3))
        assert isinstance(model.root, ProductNode)
        assert any(isinstance(c, (HistogramLeaf, PiecewiseLinearLeaf)) and c.scope == (2,)
                   for c in model.root.children)
        # the one-column gate still clusters the noise column's rows
        assert any(d.n_cols == 1 and d.n_rows == 600 for d in clustered)
        assert not [d for d in clustered if d.n_cols == 1 and np.all(d.column(0) == 2.0)]

    def test_marked_mixture_recovers_component_proportions(self, mix2_model):
        root = mix2_model.root
        assert isinstance(root, SumNode)
        np.testing.assert_array_equal(sorted(root.weights), [0.3, 0.7])

    def test_sum_weights_are_cluster_size_fractions(self, mix2_model):
        counts = np.asarray(mix2_model.root.weights) * 5000
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)

    def test_histogram_leaf_kind_is_respected(self, hybrid6_train):
        cfg = LearnConfig(leaf_kind="histogram")
        model = learn_mspn(hybrid6_train, cfg)
        for _, node in iter_nodes(model.root):
            assert not isinstance(node, PiecewiseLinearLeaf)

    def test_a_tree_deeper_than_the_recursion_limit_learns(self, monkeypatch):
        # every row clustering peels off the first row, so each sum node
        # sits one level below the last
        def peel(data, config, seeds):
            m = data.n_rows
            return SamplePartition((np.arange(1), np.arange(1, m)), np.array([1, m - 1]) / m)

        monkeypatch.setattr(mspn.structure, "cluster_samples", peel)
        rows = sys.getrecursionlimit() + 200
        data = make_dataset([("x", CONTINUOUS, None)], np.arange(rows, dtype=np.float64)[:, None])
        model = learn_mspn(data, LearnConfig(min_instances=4))
        assert model.node_count == 2 * (rows - 3) + 1
        assert validate(model).ok
        text = serialize(model)
        assert serialize(deserialize(text)) == text

    def test_model_properties(self, hybrid6_model):
        assert hybrid6_model.n_vars == 6
        assert hybrid6_model.seed == 7
        assert hybrid6_model.node_count == sum(
            1 for _ in iter_nodes(hybrid6_model.root)
        )


class TestDeterminism:
    def test_learning_twice_yields_identical_bytes(self, hybrid6_train):
        a = learn_mspn(hybrid6_train, LearnConfig())
        b = learn_mspn(hybrid6_train, LearnConfig())
        assert serialize(a) == serialize(b)

    def test_fixture_models_keep_their_bytes(self, fixture_models):
        # a learner change meant to run faster without changing what it
        # computes must leave them alone
        assert_pinned_bytes({name: model for name, (_, model) in fixture_models.items()}, {
            "blobs2d": "bc520d3f98b32285",
            "cont_indep": "169382436652d777",
            "cat_pair": "f33ae67e3969ab64",
            "cat_indep": "167c69ed6cdff95c",
            "hybrid6": "a9a81c0d88759527",
            "hybrid_small": "7f2987aa3c4fa84b",
            "uni1d": "24ff62426105a23a",
            "mix2": "444bd40ca0a650de",
        })

    def test_gate_model_keeps_its_bytes(self):
        # the 14-variable, 5000-row gate table of criterion 1: at this size
        # BLAS may round equal feature rows differently by position, which
        # the small fixtures do not show
        data = make_dataset(H14_COLS, make_hybrid14(2024, 5000))
        assert_pinned_bytes({"hybrid14": learn_mspn(data, LearnConfig())},
                            {"hybrid14": "ff6eb48732ec8018"})

    def test_histogram_gate_model_keeps_its_bytes(self):
        # the gate table with histogram leaves: the only pinned model whose
        # continuous leaves store the binning search's edges as they come
        data = make_dataset(H14_COLS, make_hybrid14(2024, 5000))
        assert_pinned_bytes({"hybrid14": learn_mspn(data, LearnConfig(leaf_kind="histogram"))},
                            {"hybrid14": "430c31c376deda05"})

    def test_different_seeds_may_differ_but_stay_valid(self, blobs2d_data):
        for seed in (11, 12, 13):
            model = learn_mspn(blobs2d_data, LearnConfig(seed=seed))
            assert validate(model).ok


class TestIterNodes:
    def test_paths_are_unique_and_preorder(self, hybrid6_model):
        pairs = list(iter_nodes(hybrid6_model.root))
        paths = [p for p, _ in pairs]
        assert len(set(paths)) == len(paths)
        assert paths[0] == "root"
        assert len(pairs) == hybrid6_model.node_count

    def test_child_paths_extend_the_parent(self):
        leaf0 = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        leaf1 = HistogramLeaf(1, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        root = ProductNode((0, 1), (leaf0, leaf1))
        assert [p for p, _ in iter_nodes(root)] == ["root", "root.0", "root.1"]

    def test_matches_the_recursive_preorder(self, fixture_models):
        def recursive(node, path="root"):
            yield path, node
            if isinstance(node, (SumNode, ProductNode)):
                for i, child in enumerate(node.children):
                    yield from recursive(child, f"{path}.{i}")

        for name, (_, model) in fixture_models.items():
            got, want = list(iter_nodes(model.root)), list(recursive(model.root))
            assert [p for p, _ in got] == [p for p, _ in want], name
            assert all(a is b for (_, a), (_, b) in zip(got, want)), name


def two_var_schema_model(root):
    data = make_dataset(
        [("a", CONTINUOUS, None), ("b", CONTINUOUS, None)], [[0.5, 0.5]]
    )
    return Mspn(root, data.schema, LearnConfig())


def unit_leaf(variable):
    return HistogramLeaf(variable, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))


class TestValidate:
    def test_learned_models_are_valid(self, hybrid6_model, cat_pair_model):
        for model in (hybrid6_model, cat_pair_model):
            report = validate(model)
            assert report.ok
            assert report.node_count == model.node_count
            assert "valid" in str(report)

    def test_weight_count_mismatch_is_reported(self):
        bad = SumNode((0, 1), np.array([1.0]), (
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
        ))
        report = validate(two_var_schema_model(bad))
        assert not report.ok
        assert any("mismatch" in msg and path == "root"
                   for path, msg in report.violations)

    def test_unnormalized_weights_are_reported(self):
        bad = SumNode((0, 1), np.array([0.6, 0.6]), (
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
        ))
        report = validate(two_var_schema_model(bad))
        assert any("sum to 1" in msg for _, msg in report.violations)

    def test_sum_child_scope_mismatch_is_reported(self):
        bad = SumNode((0, 1), np.array([0.5, 0.5]), (
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
            unit_leaf(0),
        ))
        report = validate(two_var_schema_model(bad))
        assert any(path == "root.1" and "scope" in msg
                   for path, msg in report.violations)

    def test_product_scope_overlap_is_reported(self):
        bad = ProductNode((0, 1), (unit_leaf(0), unit_leaf(0)))
        report = validate(two_var_schema_model(bad))
        assert any("overlap" in msg for _, msg in report.violations)

    def test_product_scope_gap_is_reported(self):
        bad = ProductNode((0, 1), (unit_leaf(0),))
        report = validate(two_var_schema_model(bad))
        assert any("cover" in msg for _, msg in report.violations)

    def test_leaf_domain_mismatch_is_reported(self):
        data = make_dataset(
            [("a", CONTINUOUS, None), ("b", CATEGORICAL, ("x", "y"))],
            [[0.5, 0.0]],
        )
        wrong = HistogramLeaf(1, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        bad = ProductNode((0, 1), (unit_leaf(0), wrong))
        report = validate(Mspn(bad, data.schema, LearnConfig()))
        assert any("domain" in msg for _, msg in report.violations)

    def test_incomplete_root_scope_is_reported(self):
        report = validate(two_var_schema_model(unit_leaf(0)))
        assert any(path == "root" and "cover" in msg
                   for path, msg in report.violations)

    def test_shared_subtree_is_reported(self):
        shared = unit_leaf(0)
        bad = SumNode((0,), np.array([0.5, 0.5]), (shared, shared))
        data = make_dataset([("a", CONTINUOUS, None)], [[0.5]])
        report = validate(Mspn(bad, data.schema, LearnConfig()))
        assert any("tree" in msg for _, msg in report.violations)

    def test_a_shared_chain_is_walked_once(self):
        # 40 sums, each over the one below it twice: 41 nodes on 2**40 paths
        node = unit_leaf(0)
        for _ in range(40):
            node = SumNode((0,), np.array([0.5, 0.5]), (node, node))
        model = Mspn(node, make_dataset([("a", CONTINUOUS, None)], [[0.5]]).schema,
                     LearnConfig())
        start = time.perf_counter()
        report = validate(model)
        assert time.perf_counter() - start < 1.0
        assert [message for _, message in report.violations] == (
            ["node is shared; the network must be a tree"] * 40)
        assert model.node_count == report.node_count == 41

    @pytest.mark.parametrize("variable", [0.9, np.float64(1.0), True])
    def test_a_leaf_variable_that_is_not_an_integer_is_reported(self, variable):
        leaf = HistogramLeaf(variable, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        report = validate(two_var_schema_model(ProductNode((0, 1), (unit_leaf(0), leaf))))
        assert not report.ok
        assert ("root.1", f"leaf variable {variable!r} is not an integer") in report.violations

    @pytest.mark.parametrize("scope", [([0], 1), (0.0, 1.0)])
    def test_a_scope_entry_that_is_not_an_integer_is_reported(self, scope):
        # at the root, and under a sum that reads the product's scope as a child's
        product = ProductNode(scope, (unit_leaf(0), unit_leaf(1)))
        for root, path in ((product, "root"),
                           (SumNode((0, 1), np.array([1.0]), (product,)), "root.0")):
            report = validate(two_var_schema_model(root))
            assert not report.ok
            assert (path, f"scope entry {scope[0]!r} is not an integer") in report.violations

    def test_report_str_lists_violations(self):
        report = validate(two_var_schema_model(unit_leaf(0)))
        text = str(report)
        assert "violation" in text and "root" in text

    def test_nan_weight_is_reported(self):
        bad = SumNode((0, 1), np.array([0.5, np.nan]), (
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
            ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
        ))
        report = validate(two_var_schema_model(bad))
        assert any(path == "root" and "sum to 1" in msg for path, msg in report.violations)

    def test_repeated_scope_variable_is_reported(self):
        bad = ProductNode((0, 0, 1), (unit_leaf(0), unit_leaf(1)))
        report = validate(two_var_schema_model(bad))
        assert report.violations == [("root", "scope [0, 0, 1] repeats a variable")]

    def test_leaf_constructor_checks_run_again(self):
        leaf = unit_leaf(1)
        object.__setattr__(leaf, "edges", np.array([1.0, 0.0]))  # past the constructor
        report = validate(two_var_schema_model(ProductNode((0, 1), (unit_leaf(0), leaf))))
        assert report.violations == [("root.1", "bin edges must be finite and strictly increasing")]

    def test_every_bad_leaf_of_one_group_is_reported(self):
        # four one-bin leaves make one group of the grouped check; two are
        # broken past their constructors, each in its own way
        leaves = [unit_leaf(v) for v in (0, 1, 0, 1)]
        object.__setattr__(leaves[1], "masses", np.array([0.5]))
        object.__setattr__(leaves[2], "edges", np.array([0.0, 5e-324]))
        root = SumNode((0, 1), np.array([0.5, 0.5]), (ProductNode((0, 1), leaves[:2]),
                                                      ProductNode((0, 1), leaves[2:])))
        report = validate(two_var_schema_model(root))
        assert report.violations == [("root.0.1", "masses must be a probability vector"),
                                     ("root.1.0", "bin densities overflow a double")]


def _sum_of_two(weights, second=None):
    return SumNode((0, 1), np.array(weights), (
        ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
        second if second is not None else ProductNode((0, 1), (unit_leaf(0), unit_leaf(1))),
    ))


def _categorical_b_model(root):
    data = make_dataset([("a", CONTINUOUS, None), ("b", CATEGORICAL, ("x", "y"))], [[0.5, 0.0]])
    return Mspn(root, data.schema, LearnConfig())


def _shared_leaf_model():
    shared = unit_leaf(0)
    data = make_dataset([("a", CONTINUOUS, None)], [[0.5]])
    return Mspn(SumNode((0,), np.array([0.5, 0.5]), (shared, shared)), data.schema, LearnConfig())


# hand-built models: the TestValidate cases, each valid or broken in one way
HAND_BUILT = {
    "valid sum": lambda: two_var_schema_model(_sum_of_two([0.25, 0.75])),
    "valid categorical leaf": lambda: _categorical_b_model(ProductNode((0, 1), (
        unit_leaf(0), HistogramLeaf(1, CATEGORICAL, np.arange(3.0), np.array([0.5, 0.5]))))),
    "weight count mismatch": lambda: two_var_schema_model(_sum_of_two([1.0])),
    "unnormalized weights": lambda: two_var_schema_model(_sum_of_two([0.6, 0.6])),
    "NaN weight": lambda: two_var_schema_model(_sum_of_two([np.nan, 0.5])),
    "sum child scope mismatch": lambda: two_var_schema_model(_sum_of_two([0.5, 0.5], unit_leaf(0))),
    "product overlap": lambda: two_var_schema_model(ProductNode((0, 1), (unit_leaf(0), unit_leaf(0)))),
    "product gap": lambda: two_var_schema_model(ProductNode((0, 1), (unit_leaf(0),))),
    "repeated scope": lambda: two_var_schema_model(
        ProductNode((0, 0, 1), (unit_leaf(0), unit_leaf(1)))),
    "leaf domain mismatch": lambda: _categorical_b_model(ProductNode((0, 1), (
        unit_leaf(0), HistogramLeaf(1, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))))),
    "incomplete root scope": lambda: two_var_schema_model(unit_leaf(0)),
    "shared subtree": _shared_leaf_model,
    "leaf variable a float": lambda: two_var_schema_model(ProductNode((0, 1), (
        unit_leaf(0), HistogramLeaf(0.9, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))))),
    "leaf variable a bool": lambda: two_var_schema_model(ProductNode((0, 1), (
        unit_leaf(0), HistogramLeaf(True, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))))),
    "scope entry a list": lambda: two_var_schema_model(
        ProductNode(([0], 1), (unit_leaf(0), unit_leaf(1)))),
}


def _round_trips(model) -> bool:
    try:
        deserialize(serialize(model))
    except FormatError:
        return False
    return True


_KINDS = (CONTINUOUS, DISCRETE, CATEGORICAL)


@st.composite
def small_models(draw):
    """Trees over one to three columns; each node is built right, or wrong in one way."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    schema = Schema(tuple(Column(f"v{j}", StatType(kind, ("a", "b") if kind == CATEGORICAL
                                                   else None))
                          for j, kind in enumerate(kinds)))

    def right_or(right, *wrong):
        # the right choice nine times in ten
        return draw(st.sampled_from([right] * 9 * len(wrong) + list(wrong))) if wrong else right

    def leaf(var):
        var = right_or(var, -1, len(kinds))
        kind = right_or(kinds[var] if 0 <= var < len(kinds) else CONTINUOUS, *_KINDS)
        if kind == CATEGORICAL:
            bins = right_or(2, 3)
            return HistogramLeaf(var, kind, np.arange(bins + 1.0), np.full(bins, 1.0 / bins))
        if draw(st.booleans()):
            return PiecewiseLinearLeaf(var, kind, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        return HistogramLeaf(var, kind, np.array([-0.5, 0.5, 1.5]), np.array([0.5, 0.5]))

    def node(scope, depth):
        if len(scope) == 1 and (depth >= 2 or draw(st.booleans())):
            return leaf(scope[0])
        declared = right_or(scope, scope + scope[:1], scope[1:])
        if len(scope) > 1 and (depth >= 2 or draw(st.booleans())):
            cut = draw(st.integers(1, len(scope) - 1))
            parts = right_or([scope[:cut], scope[cut:]], [scope, scope[cut:]], [scope[:cut]], [])
            return ProductNode(declared, [node(p, depth + 1) for p in parts])
        n_children = right_or(draw(st.integers(1, 2)), 0)
        children = [node(scope, depth + 1) for _ in range(n_children)]
        even = [1.0 / n_children] * n_children if n_children else []
        weights = right_or(even, even[1:], even + [0.5], [0.6] * n_children,
                           [np.nan] + even[1:], [-1.0, 2.0][:n_children])
        return SumNode(declared, np.array(weights, dtype=np.float64), children)

    return Mspn(node(tuple(range(len(kinds))), 0), schema, LearnConfig())


class TestValidateMatchesTheLoader:
    """A hand-built model validates exactly when it saves and loads."""

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_cases(self, case):
        model = HAND_BUILT[case]()
        assert validate(model).ok == _round_trips(model)

    @settings(max_examples=150, deadline=None)
    @given(model=small_models())
    def test_small_random_trees(self, model):
        report = validate(model)
        assert report.ok == _round_trips(model), str(report)
