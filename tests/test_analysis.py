"""Model-based mutual information and the dependency graph export."""

import numpy as np
import pytest

from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    LearnConfig,
    ProductNode,
    SumNode,
    mi_graph,
    mutual_information,
)
from mspn.errors import DomainError
from mspn.leaves import HistogramLeaf
from mspn.structure import Mspn
from conftest import make_dataset


def coupled_bits_model():
    """Two binary variables forced equal: I(X0; X1) = log 2 exactly."""
    def bit_leaf(variable, value):
        masses = np.zeros(2)
        masses[value] = 1.0
        return HistogramLeaf(variable, CATEGORICAL, np.arange(3.0), masses)

    root = SumNode(
        (0, 1),
        np.array([0.5, 0.5]),
        (
            ProductNode((0, 1), (bit_leaf(0, 0), bit_leaf(1, 0))),
            ProductNode((0, 1), (bit_leaf(0, 1), bit_leaf(1, 1))),
        ),
    )
    data = make_dataset(
        [("left", CATEGORICAL, ("n", "y")), ("right", CATEGORICAL, ("n", "y"))],
        [[0.0, 0.0]],
    )
    return Mspn(root, data.schema, LearnConfig())


class TestMutualInformation:
    def test_product_separated_pair_scores_exactly_zero(self):
        leaf0 = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        leaf1 = HistogramLeaf(1, CONTINUOUS, np.array([0.0, 2.0]), np.array([1.0]))
        data = make_dataset(
            [("a", CONTINUOUS, None), ("b", CONTINUOUS, None)], [[0.5, 0.5]]
        )
        model = Mspn(ProductNode((0, 1), (leaf0, leaf1)), data.schema, LearnConfig())
        mi, nmi = mutual_information(model, 0, 1)
        assert mi <= 1e-9
        assert nmi <= 1e-9

    def test_duplicated_bit_carries_one_bit(self):
        mi, nmi = mutual_information(coupled_bits_model(), 0, 1)
        assert abs(mi - np.log(2.0)) <= 1e-3
        assert nmi > 0.999

    def test_symmetric_in_the_argument_order(self, blobs2d_model):
        assert mutual_information(blobs2d_model, 0, 1) == mutual_information(
            blobs2d_model, 1, 0
        )

    def test_stable_under_grid_refinement(self, blobs2d_model):
        mi_a, _ = mutual_information(blobs2d_model, 0, 1, grid_size=256)
        mi_b, _ = mutual_information(blobs2d_model, 0, 1, grid_size=512)
        assert mi_a > 0.1
        assert abs(mi_a - mi_b) / mi_a < 0.01

    def test_dependent_categoricals_score_high(self, cat_pair_model, cat_indep_model):
        mi_dep, nmi_dep = mutual_information(cat_pair_model, 0, 1)
        mi_ind, nmi_ind = mutual_information(cat_indep_model, 0, 1)
        assert mi_dep > 0.3
        assert nmi_dep > 0.3
        assert mi_ind < 0.01
        assert nmi_ind < 0.01

    def test_same_variable_rejected(self, blobs2d_model):
        with pytest.raises(DomainError):
            mutual_information(blobs2d_model, 1, 1)

    def test_out_of_range_variable_rejected(self, blobs2d_model):
        with pytest.raises(DomainError):
            mutual_information(blobs2d_model, 0, 2)

    def test_tiny_grid_rejected(self, blobs2d_model):
        with pytest.raises(DomainError):
            mutual_information(blobs2d_model, 0, 1, grid_size=1)

    @pytest.mark.parametrize("call", [
        lambda model: mutual_information(model, 0, 1, grid_size=2.5),
        lambda model: mutual_information(model, 0, 1.0),
        lambda model: mutual_information(model, True, 0),
        lambda model: mi_graph(model, grid_size=2.5),
    ], ids=["grid 2.5", "variable 1.0", "variable True", "graph grid 2.5"])
    def test_non_integer_arguments_rejected(self, blobs2d_model, call):
        with pytest.raises(DomainError):
            call(blobs2d_model)


class TestMiGraph:
    def test_matrices_are_symmetric_with_zero_diagonal(self, hybrid6_model):
        graph = mi_graph(hybrid6_model)
        np.testing.assert_array_equal(graph.mi, graph.mi.T)
        np.testing.assert_array_equal(graph.nmi, graph.nmi.T)
        np.testing.assert_array_equal(np.diag(graph.mi), np.zeros(6))
        assert graph.entropies.shape == (6,)
        assert graph.names == hybrid6_model.schema.names

    @pytest.mark.parametrize(
        "model", ["cont_indep_model", "cat_indep_model", "hybrid_small_model"]
    )
    def test_every_mi_is_nonnegative(self, model, request):
        # independent pairs sum to about -1e-16 before the clamp
        graph = mi_graph(request.getfixturevalue(model), grid_size=64)
        assert (graph.mi >= 0).all()
        assert (graph.nmi >= 0).all()

    def test_equals_pairwise_mutual_information_exactly(self, hybrid6_model):
        graph = mi_graph(hybrid6_model, grid_size=64)
        for i, j, mi, nmi in graph.edges():
            assert (mi, nmi) == mutual_information(hybrid6_model, i, j, grid_size=64)

    def test_planted_dependency_is_the_strongest_edge(self, hybrid6_model):
        graph = mi_graph(hybrid6_model)
        edges = graph.edges()
        best = max(edges, key=lambda e: e[3])
        assert (best[0], best[1]) == (0, 1)

    def test_edges_cover_every_pair_unless_thresholded(self, hybrid6_model):
        graph = mi_graph(hybrid6_model)
        assert len(graph.edges()) == 15
        exported = graph.edges(exported_only=True)
        assert all(nmi >= graph.edge_threshold for _, _, _, nmi in exported)
        assert len(exported) < 15

    @pytest.mark.parametrize("grid_size", [1, 0, -3])
    def test_tiny_grid_rejected(self, blobs2d_model, grid_size):
        with pytest.raises(DomainError):
            mi_graph(blobs2d_model, grid_size=grid_size)

    def test_threshold_is_respected_by_exports(self, blobs2d_model):
        high = mi_graph(blobs2d_model, edge_threshold=0.99)
        assert high.edges(exported_only=True) == []
        low = mi_graph(blobs2d_model, edge_threshold=1e-6)
        assert len(low.edges(exported_only=True)) == 1

    def test_dot_output_shape(self, blobs2d_model):
        dot = mi_graph(blobs2d_model).to_dot()
        assert dot.startswith("graph dependencies {")
        assert dot.rstrip().endswith("}")
        assert '"depth";' in dot
        assert '"depth" -- "flow"' in dot
        assert "penwidth=" in dot and "label=" in dot

    def test_json_dict_is_complete(self, blobs2d_model):
        obj = mi_graph(blobs2d_model).to_json_dict()
        assert obj["variables"] == ["depth", "flow"]
        assert len(obj["mi"]) == 2 and len(obj["nmi"]) == 2
        assert len(obj["entropies"]) == 2
        assert obj["grid_size"] == 256
        edge = obj["edges"][0]
        assert edge["names"] == ["depth", "flow"]
        assert edge["mi"] > 0.1

    def test_single_variable_model_rejected(self, uni1d_model):
        with pytest.raises(DomainError):
            mi_graph(uni1d_model)
