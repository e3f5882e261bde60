"""Canonical serialization round trips and the command-line interface."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mspn.cli
from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    Evidence,
    LearnConfig,
    Schema,
    StatType,
    deserialize,
    load_dataset,
    load_model,
    load_schema,
    log_evaluate,
    log_evaluate_batch,
    mutual_information,
    sample,
    save_model,
    serialize,
    validate,
)
from mspn.analysis import MAX_GRID_CELLS
from mspn.cli import main
from mspn.data import DISCRETE, _BLOCK_ROWS
from mspn.errors import DomainError, FormatError, IngestError, QueryError, VersionError
from mspn.inference import sample_rows
from mspn.leaves import (
    MAX_GRID_INTEGERS, HistogramLeaf, PiecewiseLinearLeaf, check_group, integer_support,
)
from mspn.numerics import MAX_BIN_MAGNITUDE
from mspn.serialize import FORMAT_VERSION, canonical_json
from mspn.structure import LEAF_KINDS, Mspn, ProductNode, SumNode, postorder

from conftest import make_dataset, per_cell_load_dataset


class TestCanonicalJson:
    def test_object_keys_are_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_floats_use_seventeen_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert float(canonical_json(1.0 / 3.0)) == 1.0 / 3.0

    def test_scalars(self):
        assert canonical_json(3) == "3"
        assert canonical_json(True) == "true"
        assert canonical_json(None) == "null"
        assert canonical_json("café") == '"café"'

    def test_sequences_are_interchangeable(self):
        expected = "[1.5,2.5]"
        assert canonical_json([1.5, 2.5]) == expected
        assert canonical_json((1.5, 2.5)) == expected
        assert canonical_json(np.array([1.5, 2.5])) == expected

    def test_repeated_calls_are_identical(self):
        obj = {"z": [1.0, {"k": 2}], "a": "text"}
        assert canonical_json(obj) == canonical_json(obj)

    def test_non_finite_floats_rejected(self):
        with pytest.raises(FormatError):
            canonical_json(float("nan"))
        with pytest.raises(FormatError):
            canonical_json({"x": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(FormatError):
            canonical_json({1: "x"})

    def test_unsupported_types_rejected(self):
        with pytest.raises(FormatError):
            canonical_json({"x": {1, 2}})


class TestModelRoundTrip:
    def test_reserialization_is_byte_identical(self, hybrid6_model):
        blob = serialize(hybrid6_model)
        assert serialize(deserialize(blob)) == blob

    def test_loaded_model_evaluates_identically(self, hybrid6_model, hybrid6_test):
        clone = deserialize(serialize(hybrid6_model))
        mask = np.ones(6, dtype=bool)
        for row in hybrid6_test.values[:10]:
            ev = Evidence(row, mask)
            assert log_evaluate(clone, ev) == log_evaluate(hybrid6_model, ev)

    def test_schema_and_config_survive(self, cat_pair_model):
        clone = deserialize(serialize(cat_pair_model))
        assert clone.schema == cat_pair_model.schema
        assert clone.config == cat_pair_model.config
        assert clone.node_count == cat_pair_model.node_count

    def test_save_and_load_files(self, hybrid_small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(hybrid_small_model, path)
        assert serialize(load_model(path)) == serialize(hybrid_small_model)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_model(tmp_path / "nope.json")

    @pytest.mark.parametrize("field, value", [
        ("scope", 0.0), ("variable", np.float64(1.0)),  # written as integer literals
        ("scope", 0.9), ("variable", 0.9), ("scope", True), ("variable", True),
    ])
    def test_a_non_integer_scope_entry_or_leaf_variable_is_not_saved(self, field, value,
                                                                     tmp_path):
        # the emitter writes 1.0 as 1, so such a model would load with ints
        # in its place; serializing applies validate's integer rule instead
        leaves = tuple(HistogramLeaf(value if field == "variable" and v else v, CONTINUOUS,
                                     np.array([0.0, 1.0]), np.array([1.0])) for v in (0, 1))
        scope = (value, 1) if field == "scope" else (0, 1)
        data = make_dataset([("a", CONTINUOUS, None), ("b", CONTINUOUS, None)], [[0.5, 0.5]])
        model = Mspn(ProductNode(scope, leaves), data.schema, LearnConfig())
        what = "scope entry" if field == "scope" else "leaf variable"
        message = f"{what} {value!r} is not an integer"
        assert message in [m for _, m in validate(model).violations]
        with pytest.raises(FormatError) as raised:
            serialize(model)
        assert str(raised.value) == message
        path = tmp_path / "model.json"
        with pytest.raises(FormatError):
            save_model(model, path)
        assert not path.exists()


def tampered(model, **changes) -> bytes:
    obj = json.loads(serialize(model))
    obj.update(changes)
    return json.dumps(obj).encode()


class TestDeserializeValidation:
    def test_unsupported_version_rejected(self, hybrid_small_model):
        with pytest.raises(VersionError):
            deserialize(tampered(hybrid_small_model, format_version=999))

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            deserialize(b"this is not json")

    def test_truncated_payload_rejected(self, hybrid_small_model):
        with pytest.raises(FormatError):
            deserialize(serialize(hybrid_small_model)[:200])

    def test_non_object_payload_rejected(self):
        with pytest.raises(FormatError):
            deserialize(b"[1, 2, 3]")

    def test_seed_field_mismatch_rejected(self, hybrid_small_model):
        with pytest.raises(FormatError):
            deserialize(tampered(hybrid_small_model, seed=12345))

    def test_version_one_file_rejected(self, hybrid_small_model):
        with pytest.raises(VersionError):
            deserialize(tampered(hybrid_small_model, format_version=1))

    def test_unknown_node_kind_rejected(self, hybrid_small_model):
        obj = json.loads(serialize(hybrid_small_model))
        obj["nodes"][-1]["kind"] = "magic"
        with pytest.raises(FormatError):
            deserialize(json.dumps(obj).encode())

    def test_invalid_leaf_payload_rejected(self, hybrid_small_model):
        obj = json.loads(serialize(hybrid_small_model))
        leaf = obj["nodes"][0]
        assert leaf["kind"] in ("histogram", "piecewise_linear")
        key = "masses" if leaf["kind"] == "histogram" else "knots_y"
        leaf[key] = [v * 2 for v in leaf[key]]
        with pytest.raises(FormatError):
            deserialize(json.dumps(obj).encode())


def two_component_model():
    """Postorder: 0, 1 and 3, 4 leaves; 2 and 5 products; 6 the root sum."""
    schema = Schema((Column("x", StatType(CONTINUOUS)), Column("y", StatType(CONTINUOUS))))

    def part(k):
        return ProductNode((0, 1), [
            HistogramLeaf(v, CONTINUOUS, np.array([k, k + 1.0]), np.array([1.0])) for v in (0, 1)
        ])

    return Mspn(SumNode((0, 1), np.array([0.5, 0.5]), (part(0), part(1))), schema, LearnConfig())


def _set_children(node, children):
    return lambda obj: obj["nodes"][node].update(children=children)


HOSTILE_FILES = {
    "forward reference": _set_children(2, [0, 3]),
    "self reference": _set_children(2, [0, 2]),
    "out of range": _set_children(6, [2, 7]),
    "negative": _set_children(6, [2, -1]),
    "true as an index": _set_children(2, [0, True]),
    "float index": _set_children(2, [0, 1.0]),
    "children not a list": _set_children(6, 5),
    "shared child": _set_children(5, [3, 1]),
    "orphan node": lambda obj: obj["nodes"][6].update(children=[5], weights=[1.0]),
    "empty list": lambda obj: obj.update(nodes=[]),
    "nodes not a list": lambda obj: obj.update(nodes={"0": obj["nodes"][0]}),
    "nodes missing": lambda obj: obj.pop("nodes"),
}


class TestFlatNodeList:
    def test_nodes_are_the_postorder_with_child_indices(self):
        obj = json.loads(serialize(two_component_model()))
        assert "root" not in obj and "node_count" not in obj
        kinds = [record["kind"] for record in obj["nodes"]]
        assert kinds == ["histogram"] * 2 + ["product"] + ["histogram"] * 2 + ["product", "sum"]
        assert [obj["nodes"][i]["children"] for i in (2, 5, 6)] == [[0, 1], [3, 4], [2, 5]]

    def test_each_kind_of_record_has_its_format_two_keys(self):
        # the keys are the node classes' fields; a change to them changes the
        # file format, and comes with a FORMAT_VERSION bump
        assert FORMAT_VERSION == 2
        pwl = PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        one_column = Schema((Column("x", StatType(CONTINUOUS)),))
        records = (json.loads(serialize(two_component_model()))["nodes"]
                   + json.loads(serialize(Mspn(pwl, one_column, LearnConfig())))["nodes"])
        assert {record["kind"]: set(record) for record in records} == {
            "sum": {"kind", "scope", "weights", "children"},
            "product": {"kind", "scope", "children"},
            "histogram": {"kind", "variable", "domain", "edges", "masses", "smoothing",
                          "unseen_mass"},
            "piecewise_linear": {"kind", "variable", "domain", "knots_x", "knots_y",
                                 "mode_index"},
        }

    def test_a_shared_chain_saves_each_node_once_and_fails_to_load(self, tmp_path, capsys):
        # 40 sums, each over the one below it twice: 41 nodes on 2**40 paths
        node = HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0]))
        for _ in range(40):
            node = SumNode((0,), np.array([0.5, 0.5]), (node, node))
        schema = Schema((Column("x", StatType(CONTINUOUS)),))
        blob = serialize(Mspn(node, schema, LearnConfig()))
        assert len(json.loads(blob)["nodes"]) == 41
        with pytest.raises(FormatError, match="node 0 is the child of two nodes"):
            deserialize(blob)
        path = tmp_path / "shared.json"
        path.write_bytes(blob)
        assert main(["validate", "--model", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
    def test_hostile_node_lists_are_format_errors(self, case, tmp_path, capsys):
        obj = json.loads(serialize(two_component_model()))
        HOSTILE_FILES[case](obj)
        blob = json.dumps(obj).encode()
        with pytest.raises(FormatError) as info:
            deserialize(blob)
        assert not isinstance(info.value, VersionError)
        path = tmp_path / "hostile.json"
        path.write_bytes(blob)
        assert main(["validate", "--model", str(path)]) == 2
        assert "data error" in capsys.readouterr().err


def _set(node, **fields):
    return lambda obj: obj["nodes"][node].update(fields)


def _categorical_y(obj):
    # column y becomes categorical with three categories, its leaves two-bin
    obj["schema"]["columns"][1] = {"name": "y", "type": "categorical",
                                   "categories": ["a", "b", "c"]}
    for i in (1, 4):
        obj["nodes"][i].update(domain="categorical", edges=[0.0, 1.0, 2.0], masses=[0.5, 0.5])


# files that form one tree whose nodes do not fit their children or the schema
MISFIT_FILES = {
    "weights cut to one": _set(6, weights=[1.0]),
    "weights not positive": _set(6, weights=[1.5, -0.5]),
    "weights not summing to one": _set(6, weights=[0.5, 0.6]),
    "sum without children": _set(6, children=[], weights=[]),
    "sum scope narrowed": _set(6, scope=[0]),
    "product scope widened": _set(2, scope=[0, 1, 5]),
    "product scope repeats a variable": _set(2, scope=[0, 1, 1]),
    "product scope not a list of variables": _set(2, scope=[[0], 1]),
    "product children overlap": _set(1, variable=0),
    "leaf variable outside the schema": _set(0, variable=9),
    "leaf domain not the column's": _set(0, domain="discrete"),
    "categorical arity not the column's": _categorical_y,
    "root scope short of the schema": lambda obj: obj["schema"]["columns"].append(
        {"name": "z", "type": "continuous"}),
    "non-finite number": _set(0, edges=[0.0, float("inf")]),
    "leaf variable a float": _set(0, variable=0.9),
    "leaf variable a bool": _set(3, variable=False),
    "leaf mode_index a float": lambda obj: obj["nodes"][0].update(_pwl_record(0.0)),
    "sum scope of floats": _set(6, scope=[0.0, 1.0]),
    "product scope of floats": _set(5, scope=[0.0, 1.0]),
    "product scope a string": _set(5, scope="01"),
    "config proj_features a float": lambda obj: obj["config"].update(proj_features=2.5),
    # integers past the largest double, which numpy and float() cannot convert
    "leaf edge a 400-digit integer": _set(0, edges=[0, 10**400]),
    "leaf smoothing a 400-digit integer": _set(3, smoothing=10**400),
    "sum weight a 400-digit integer": _set(6, weights=[10**400, 0.5]),
}


def _pwl_record(mode_index):
    # a flat density on [0, 1] in place of leaf 0's one-bin histogram
    return {"kind": "piecewise_linear", "variable": 0, "domain": "continuous",
            "knots_x": [0.0, 1.0], "knots_y": [1.0, 1.0], "mode_index": mode_index}


class TestLoadChecksEveryNode:
    @pytest.mark.parametrize("case", sorted(MISFIT_FILES))
    def test_misfit_files_are_format_errors(self, case, tmp_path, capsys):
        obj = json.loads(serialize(two_component_model()))
        MISFIT_FILES[case](obj)
        blob = json.dumps(obj).encode()
        with pytest.raises(FormatError):
            deserialize(blob)
        path = tmp_path / "misfit.json"
        path.write_bytes(blob)
        for command in (["query"], ["mpe"], ["validate"]):
            assert main(command + ["--model", str(path)]) == 2, command
            assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["histogram", "piecewise_linear"])
    def test_discrete_leaf_without_an_integer_is_a_data_error(self, kind, tmp_path, capsys):
        # a one-leaf model over a discrete column whose support [0.1, 0.9]
        # holds no integer: sampling and MPE would have nothing to draw
        schema = Schema((Column("x", StatType(DISCRETE)),))
        if kind == "histogram":
            leaf = HistogramLeaf(0, DISCRETE, np.array([0.5, 1.5]), np.array([1.0]))
            damage = {"edges": [0.1, 0.9]}
        else:
            leaf = PiecewiseLinearLeaf(0, DISCRETE, np.array([0.5, 1.5]), np.array([1.0, 1.0]))
            damage = {"knots_x": [0.1, 0.9], "knots_y": [1.25, 1.25]}
        obj = json.loads(serialize(Mspn(leaf, schema, LearnConfig())))
        obj["nodes"][0].update(damage)
        blob = json.dumps(obj).encode()
        with pytest.raises(FormatError, match="holds no integer"):
            deserialize(blob)
        path = tmp_path / "no_integer.json"
        path.write_bytes(blob)
        for command in ("sample", "mpe", "query"):
            assert main([command, "--model", str(path)]) == 2, command
            err = capsys.readouterr().err
            assert "data error" in err and "Traceback" not in err, command

    @pytest.mark.parametrize("kind", ["histogram", "piecewise_linear"])
    def test_integer_grids_too_wide_to_enumerate_are_query_errors(self, kind, tmp_path, capsys):
        # a valid one-leaf model over a discrete column whose support holds
        # 1e15 integers: scoring works, enumerating them is a query error
        schema = Schema((Column("x", StatType(DISCRETE)),))
        if kind == "histogram":
            leaf = HistogramLeaf(0, DISCRETE, np.array([-0.5, 1e15]), np.array([1.0]))
            failing = ("mpe",)
        else:
            leaf = PiecewiseLinearLeaf(0, DISCRETE, np.array([0.0, 1e15]),
                                       np.array([1e-15, 1e-15]))
            failing = ("mpe", "sample")
        path = tmp_path / "wide.json"
        path.write_bytes(serialize(Mspn(leaf, schema, LearnConfig())))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in (["validate"], ["query", "--observe", "x=3"]):
                assert main(command + ["--model", str(path)]) == 0, command
                capsys.readouterr()
            for command in failing:
                assert main([command, "--model", str(path)]) == 3, command
                out, err = capsys.readouterr()
                assert "query error" in err and "Traceback" not in err, command
                assert out == "", command

    def test_integer_grids_stop_at_a_fixed_width(self):
        assert integer_support(-0.5, 1e7 - 0.5).size == 10**7
        with pytest.raises(QueryError, match="too many"):
            integer_support(0.0, float(MAX_GRID_INTEGERS))

    def test_categorical_case_fits_with_the_right_arity(self):
        obj = json.loads(serialize(two_component_model()))
        _categorical_y(obj)
        obj["schema"]["columns"][1]["categories"] = ["a", "b"]
        deserialize(json.dumps(obj).encode())

    def test_piecewise_linear_case_fits_with_an_integer_mode_index(self):
        obj = json.loads(serialize(two_component_model()))
        obj["nodes"][0] = _pwl_record(0)
        assert deserialize(json.dumps(obj).encode()).root.children[0].children[0].mode_index == 0

    def test_fixture_models_load(self, fixture_models):
        for _, model in fixture_models.values():
            assert serialize(deserialize(serialize(model))) == serialize(model)


# json.dumps writes an infinite float as Infinity, which the loader rejects
# by name; a literal past the largest double, such as 1e400, is what json
# reads back as an infinity
_HUGE = "HUGE"


def _with_huge(obj, literal: str) -> bytes:
    return json.dumps(obj).replace(json.dumps(_HUGE), literal).encode()


def _huge_at(node, key, index=None):
    def damage(obj):
        target = obj if node is None else obj["nodes"][node]
        if index is None:
            target[key] = _HUGE
        else:
            target[key][index] = _HUGE
    return damage


OVERFLOW_FILES = {
    "last edge": (_huge_at(0, "edges", -1), "1e400"),
    "first edge": (_huge_at(0, "edges", 0), "-1e400"),
    "smoothing": (_huge_at(3, "smoothing"), "1e400"),
    "unseen mass": (_huge_at(4, "unseen_mass"), "1e400"),
    "file seed": (_huge_at(None, "seed"), "1e400"),
    "config min_instances": (lambda obj: obj["config"].update(min_instances=_HUGE), "1e400"),
    "config kmeans_tol": (lambda obj: obj["config"].update(kmeans_tol=_HUGE), "1e400"),
}


class TestOverflowingNumbers:
    @pytest.mark.parametrize("case", sorted(OVERFLOW_FILES))
    def test_overflowing_literals_are_format_errors(self, case, tmp_path, capsys):
        damage, literal = OVERFLOW_FILES[case]
        obj = json.loads(serialize(two_component_model()))
        damage(obj)
        blob = _with_huge(obj, literal)
        with pytest.raises(FormatError):
            deserialize(blob)
        path = tmp_path / "overflow.json"
        path.write_bytes(blob)
        for command in ("query", "mpe", "validate"):
            assert main([command, "--model", str(path)]) == 2, command
            assert "data error" in capsys.readouterr().err


    @pytest.mark.parametrize("kind", ["histogram", "piecewise_linear"])
    def test_adjacent_interior_infinities_give_no_numpy_warning(self, kind, tmp_path, capsys):
        obj = json.loads(serialize(two_component_model()))
        if kind == "histogram":
            obj["nodes"][0].update(edges=[0.0, _HUGE, _HUGE, 1.0], masses=[0.3, 0.3, 0.4])
        else:
            obj["nodes"][0] = _pwl_record(1)
            obj["nodes"][0].update(knots_x=[0.0, _HUGE, _HUGE, 1.0], knots_y=[0.0, 1.0, 1.0, 0.0])
        blob = _with_huge(obj, "1e400")
        path = tmp_path / "interior.json"
        path.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError):
                deserialize(blob)
            assert main(["validate", "--model", str(path)]) == 2
        assert "data error" in capsys.readouterr().err


# one-leaf files whose leaf breaks a rule of its own check: categorical
# edges that are not the codes 0 .. arity, and spans x[-1] - x[0], knot
# slopes, a trapezoid integral or bin densities that overflow a double;
# each with a value to query the column at
HOSTILE_LEAVES = {
    "categorical edges not the codes": (
        Column("c", StatType(CATEGORICAL, ("a", "b"))),
        HistogramLeaf(0, CATEGORICAL, np.arange(3.0), np.array([0.4, 0.6])),
        {"edges": [0.0, 1.5, 3.0]}, "a"),
    "histogram span past a double": (
        Column("x", StatType(CONTINUOUS)),
        HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0])),
        {"edges": [-1e308, 1e308]}, "9e307"),
    "piecewise-linear span past a double": (
        Column("x", StatType(CONTINUOUS)),
        PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0, 1.0])),
        {"knots_x": [-1e308, 1e308, 1.5e308], "knots_y": [0.0, 1.0, 0.0], "mode_index": 1},
        "9e307"),
    "piecewise-linear slopes past a double": (
        Column("x", StatType(CONTINUOUS)),
        PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0, 1.0])),
        {"knots_x": [0.0, 1e-300, 2e-300], "knots_y": [0.0, 1e300, 0.0], "mode_index": 1},
        "5e-301"),
    "piecewise-linear integral past a double": (
        Column("x", StatType(CONTINUOUS)),
        PiecewiseLinearLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0, 1.0])),
        {"knots_x": [0.0, 1e-308], "knots_y": [1e308, 1e308], "mode_index": 0},
        "5e-309"),
    "histogram bin densities past a double": (
        Column("x", StatType(CONTINUOUS)),
        HistogramLeaf(0, CONTINUOUS, np.array([0.0, 1.0]), np.array([1.0])),
        {"edges": [0.0, 5e-324, 1e-323], "masses": [0.5, 0.5]}, "5e-324"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_LEAVES))
def test_leaves_breaking_their_checks_are_data_errors(case, tmp_path, capsys):
    column, leaf, damage, value = HOSTILE_LEAVES[case]
    obj = json.loads(serialize(Mspn(leaf, Schema((column,)), LearnConfig())))
    obj["nodes"][0].update(damage)
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps(obj))
    rows = tmp_path / "rows.csv"
    rows.write_text(f"{column.name}\n{value}\n")
    commands = (["validate"], ["query", "--observe", f"{column.name}={value}"],
                ["loglik", "--data", str(rows)], ["mpe"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in commands:
            assert main(command + ["--model", str(path)]) == 2, command
            err = capsys.readouterr().err
            assert "data error" in err and "Traceback" not in err, command


class TestSaveModel:
    def test_unserializable_model_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"earlier contents")
        model = two_component_model()
        bad = Mspn(SumNode((0, 1), np.array([np.nan, 0.5]), model.root.children),
                   model.schema, model.config)
        with pytest.raises(FormatError):
            save_model(bad, path)
        assert path.read_bytes() == b"earlier contents"
        assert not (tmp_path / "absent.json").exists()
        with pytest.raises(FormatError):
            save_model(bad, tmp_path / "absent.json")
        assert not (tmp_path / "absent.json").exists()


# ---------------------------------------------------------------------------
# command-line interface (driven in-process through main(argv))
# ---------------------------------------------------------------------------


def _one_column_table(root, limit):
    """A 300-row continuous column reaching -limit and +limit; returns the
    learn arguments that write ``m.json`` next to it."""
    values = np.concatenate([[-limit, limit], np.linspace(-0.9, 0.8, 298) ** 3 * limit])
    (root / "wide.json").write_text('{"columns":[{"name":"x","type":"continuous"}]}')
    (root / "wide.csv").write_text("x\n" + "".join(f"{float(v)!r}\n" for v in values))
    return ["--data", str(root / "wide.csv"), "--schema", str(root / "wide.json"),
            "--out", str(root / "m.json")]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """CSV data, schema json, and a learned model file for CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    r = np.random.default_rng(314)
    m = 400
    mode = r.choice(2, size=m, p=[0.6, 0.4])
    temp = np.where(mode == 0, r.uniform(0.0, 1.0, m), r.uniform(2.0, 3.0, m))

    schema_path = root / "schema.json"
    schema_path.write_text(
        '{"columns":[{"name":"temp","type":"continuous"},'
        '{"name":"mode","type":"categorical","categories":["low","high"]}]}'
    )

    def write_csv(path, rows):
        lines = ["temp,mode"]
        lines += [f"{t:.6f},{'low' if c == 0 else 'high'}" for t, c in rows]
        path.write_text("\n".join(lines) + "\n")

    train_path = root / "train.csv"
    write_csv(train_path, zip(temp, mode))

    test_path = root / "test.csv"
    write_csv(test_path, zip(temp[:50], mode[:50]))

    model_path = root / "model.json"
    code = main(["learn", "--data", str(train_path), "--schema", str(schema_path),
                 "--out", str(model_path), "--seed", "7"])
    assert code == 0
    return {"root": root, "schema": schema_path, "train": train_path,
            "test": test_path, "model": model_path}


def long_csvs(cli_files, tmp_path):
    """Three blocks of the CLI test rows: the last block holds a label unseen
    in training, and in the second file also a bad cell before it."""
    header, *rows = cli_files["test"].read_text().splitlines()
    rows = [rows[i % len(rows)] for i in range(3 * _BLOCK_ROWS)]
    rows[-5] = rows[-5].split(",")[0] + ",purple"
    unseen = tmp_path / "unseen.csv"
    unseen.write_text("\n".join([header] + rows) + "\n")
    rows[-9] = "oops," + rows[-9].split(",")[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header] + rows) + "\n")
    return unseen, bad


class TestCliLearn:
    def test_learn_reports_node_count(self, cli_files, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["learn", "--data", str(cli_files["train"]),
                     "--schema", str(cli_files["schema"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "learned" in captured.out and "400 rows" in captured.out
        assert out.exists()

    def test_learning_twice_writes_identical_files(self, cli_files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["learn", "--data", str(cli_files["train"]),
                         "--schema", str(cli_files["schema"]),
                         "--out", str(out), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_hyperparameter_is_a_usage_error(self, cli_files, tmp_path, capsys):
        code = main(["learn", "--data", str(cli_files["train"]),
                     "--schema", str(cli_files["schema"]),
                     "--out", str(tmp_path / "m.json"), "--eta", "1"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_a_usage_error(self, cli_files, tmp_path, capsys,
                                               monkeypatch, delta):
        monkeypatch.setattr(mspn.cli, "learn_mspn", lambda *args: pytest.fail("learned"))
        out = tmp_path / "m.json"
        code = main(["learn", "--data", str(cli_files["train"]),
                     "--schema", str(cli_files["schema"]), "--out", str(out),
                     "--delta", delta])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("leaf", LEAF_KINDS)
    def test_column_too_wide_to_bin_is_a_data_error(self, tmp_path, capsys, leaf):
        # 0.5 * (a + b), widths and cluster means of such values overflow
        files = _one_column_table(tmp_path, 1e308)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["learn", *files, "--leaf", leaf])
        assert code == 2
        assert "too wide to bin" in capsys.readouterr().err
        assert not caught
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("leaf", LEAF_KINDS)
    def test_column_at_the_binning_limit_learns(self, tmp_path, capsys, leaf):
        files = _one_column_table(tmp_path, MAX_BIN_MAGNITUDE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["learn", *files, "--leaf", leaf]) == 0
            assert main(["validate", "--model", str(tmp_path / "m.json")]) == 0
            capsys.readouterr()
            assert main(["loglik", "--model", str(tmp_path / "m.json"),
                         "--data", files[1]]) == 0
        assert not caught
        rows = capsys.readouterr().out.strip().split("\n")[:-1]
        assert len(rows) == 300 and np.all(np.isfinite([float(v) for v in rows]))

    def test_tiny_scale_column_needs_histogram_leaves(self, tmp_path, capsys):
        # near 1e-300 a piecewise-linear leaf's slopes, about
        # 1 / (rows * width**2), overflow; a histogram stores densities only
        files = _one_column_table(tmp_path, 1e-300)
        model = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["learn", *files, "--leaf", "isotonic"]) == 2
            err = capsys.readouterr().err
            assert "data error" in err and "--leaf histogram" in err
            assert not model.exists()
            assert main(["learn", *files, "--leaf", "histogram"]) == 0
            assert main(["validate", "--model", str(model)]) == 0
            capsys.readouterr()
            assert main(["loglik", "--model", str(model), "--data", files[1]]) == 0
        assert not caught
        rows = capsys.readouterr().out.strip().split("\n")[:-1]
        assert len(rows) == 300 and np.all(np.isfinite([float(v) for v in rows]))

    @pytest.mark.parametrize("leaf", LEAF_KINDS)
    def test_bins_too_narrow_for_their_densities_are_a_data_error(self, tmp_path, capsys, leaf):
        # seven subnormal values: a bin's mass over its width overflows a double
        (tmp_path / "s.json").write_text('{"columns":[{"name":"x","type":"continuous"}]}')
        (tmp_path / "s.csv").write_text("x\n" + "".join(f"{(i % 7) * 5e-324!r}\n"
                                                        for i in range(300)))
        model = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["learn", "--data", str(tmp_path / "s.csv"), "--schema",
                         str(tmp_path / "s.json"), "--out", str(model), "--leaf", leaf])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: variable 0: values in [" in err
        assert "whose bin densities overflow a double" in err
        assert not caught
        assert not model.exists()

    @pytest.mark.parametrize("leaf", LEAF_KINDS)
    def test_constant_column_past_two_to_the_53_learns(self, tmp_path, capsys, leaf):
        # 1e20 +- 0.5 == 1e20, so the one bin of a constant column is at
        # least one float step wide
        (tmp_path / "c.json").write_text('{"columns":[{"name":"x","type":"continuous"}]}')
        (tmp_path / "c.csv").write_text("x\n" + "1e20\n" * 50)
        model = str(tmp_path / "m.json")
        assert main(["learn", "--data", str(tmp_path / "c.csv"), "--schema",
                     str(tmp_path / "c.json"), "--out", model, "--leaf", leaf]) == 0
        assert main(["validate", "--model", model]) == 0
        capsys.readouterr()
        assert main(["loglik", "--model", model, "--data", str(tmp_path / "c.csv")]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[:-1]
        assert len(rows) == 50 and np.all(np.isfinite([float(v) for v in rows]))

    def test_discrete_integer_too_large_for_a_float_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "d.json").write_text('{"columns":[{"name":"n","type":"discrete"}]}')
        (tmp_path / "d.csv").write_text("n\n1\n2\n" + "9" * 400 + "\n")
        code = main(["learn", "--data", str(tmp_path / "d.csv"), "--schema",
                     str(tmp_path / "d.json"), "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "row 2, column 0" in err
        assert not (tmp_path / "m.json").exists()

    def test_missing_data_file_is_a_data_error(self, cli_files, tmp_path, capsys):
        code = main(["learn", "--data", str(tmp_path / "absent.csv"),
                     "--schema", str(cli_files["schema"]),
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_errors_past_the_first_block_are_the_per_cell_errors(self, cli_files, tmp_path,
                                                                  capsys):
        schema = load_schema(cli_files["schema"])
        for data, where in zip(long_csvs(cli_files, tmp_path), ("row 1531, column 1",
                                                                 "row 1527, column 0")):
            with pytest.raises(IngestError) as want:
                per_cell_load_dataset(data, schema)
            code = main(["learn", "--data", str(data), "--schema", str(cli_files["schema"]),
                         "--out", str(tmp_path / "m.json")])
            assert code == 2
            assert capsys.readouterr().err == f"data error: {want.value}\n"
            assert where in str(want.value)
            assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("bad_file, content", [
        ("data", b"temp,mode\n0.5,low\n" + b"1" * 200_000 + b",low\n2.5,high\n"),
        ("data", b"temp,mode\n0.5,low\n0.7,\xff\n2.5,high\n"),
        ("schema", b'{"columns":[{"name":"temp","type":"continuous\xff"}]}'),
    ], ids=["long-field", "non-utf8-data", "non-utf8-schema"])
    def test_unreadable_files_are_data_errors(self, cli_files, tmp_path, capsys,
                                              bad_file, content):
        # a field past the csv module's limit and bytes that are not UTF-8
        files = {"data": cli_files["test"], "schema": cli_files["schema"]}
        files[bad_file] = tmp_path / "bad"
        files[bad_file].write_bytes(content)
        runs = [["learn", "--schema", str(files["schema"]), "--out", str(tmp_path / "m.json")]]
        if bad_file == "data":
            runs.append(["loglik", "--model", str(cli_files["model"])])
        for args in runs:
            assert main(args + ["--data", str(files["data"])]) == 2
            assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "m.json").exists()


    @pytest.mark.parametrize("edits, error", [
        ({700: b"0.5,hi\xffgh"}, "row 700, column 1: bytes that are not UTF-8"),
        ({1300: b"1.\xe2\x28,low", 1400: b"oops,low"},
         "row 1300, column 0: bytes that are not UTF-8"),
        ({650: b"oops,low", 700: b"0.5,hi\xffgh"}, "row 650, column 0: 'oops' is not a number"),
        ({1: b"0.7,\xff"}, "row 1, column 1: bytes that are not UTF-8"),
        ({-1: b"te\xffmp,mode"}, "the csv header holds bytes that are not UTF-8"),
    ], ids=["label", "number", "bad-cell-first", "second-row", "header"])
    def test_bytes_that_are_not_utf8_are_reported_at_their_cell(self, cli_files, tmp_path,
                                                               capsys, edits, error):
        # the decoder reads kilobytes ahead of the row being converted; the
        # error names the cell that holds the bytes, or an earlier bad cell
        header, *rows = cli_files["test"].read_bytes().splitlines()
        lines = [header] + [rows[i % len(rows)] for i in range(3 * _BLOCK_ROWS)]
        for row, line in edits.items():
            lines[row + 1] = line
        data = tmp_path / "bytes.csv"
        data.write_bytes(b"\n".join(lines) + b"\n")
        for args in (["learn", "--schema", str(cli_files["schema"]),
                      "--out", str(tmp_path / "m.json")],
                     ["loglik", "--model", str(cli_files["model"])]):
            assert main(args + ["--data", str(data)]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"data error: {error}\n"
            assert captured.out == ""
        assert not (tmp_path / "m.json").exists()


class TestCliLoglik:
    def test_rows_and_mean_match_the_library(self, cli_files, capsys):
        code = main(["loglik", "--model", str(cli_files["model"]),
                     "--data", str(cli_files["test"])])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert len(lines) == 51
        values = np.array([float(v) for v in lines[:-1]])
        assert lines[-1].startswith("mean ")
        assert float(lines[-1].split()[1]) == values.mean()

    def test_unseen_label_scores_with_reserved_mass(self, cli_files, tmp_path, capsys):
        data = tmp_path / "odd.csv"
        data.write_text("temp,mode\n0.500000,purple\n")
        code = main(["loglik", "--model", str(cli_files["model"]),
                     "--data", str(data)])
        captured = capsys.readouterr()
        assert code == 0
        assert np.isfinite(float(captured.out.strip().split("\n")[0]))

    def test_tiled_rows_print_their_single_row_values(self, cli_files, tmp_path, capsys):
        # many copies of few rows, one with a label unseen in training
        header, *rows = cli_files["test"].read_text().splitlines()
        rows.append(rows[0].split(",")[0] + ",purple")
        order = np.random.default_rng(21).permutation(np.tile(np.arange(len(rows)), 40))
        data = tmp_path / "tiled.csv"
        data.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        assert main(["loglik", "--model", str(cli_files["model"]), "--data", str(data)]) == 0
        printed = capsys.readouterr().out.splitlines()
        model = load_model(cli_files["model"])
        full = np.ones(model.n_vars, dtype=bool)
        values = load_dataset(data, model.schema, unseen_to_sentinel=True).values
        want = [format(log_evaluate(model, Evidence(row, full)), ".17g") for row in values]
        assert printed[:-1] == want
        assert values[:, 1].max() == 2.0  # the unseen label's code is scored

    def test_csv_longer_than_one_block_scores_like_the_per_cell_loop(self, cli_files,
                                                                      tmp_path, capsys):
        unseen, bad = long_csvs(cli_files, tmp_path)
        model = load_model(cli_files["model"])
        assert main(["loglik", "--model", str(cli_files["model"]), "--data", str(unseen)]) == 0
        printed = capsys.readouterr().out.splitlines()
        values = per_cell_load_dataset(unseen, model.schema, unseen_to_sentinel=True).values
        want = log_evaluate_batch(model, values, np.ones(model.n_vars, dtype=bool))
        assert printed[:-1] == [format(float(v), ".17g") for v in want]
        assert values[-5, 1] == 2.0  # the unseen label's sentinel code
        assert main(["loglik", "--model", str(cli_files["model"]), "--data", str(bad)]) == 2
        with pytest.raises(IngestError) as err:
            per_cell_load_dataset(bad, model.schema, unseen_to_sentinel=True)
        assert capsys.readouterr().err == f"data error: {err.value}\n"


class TestCliQuery:
    def test_joint_query_matches_log_evaluate(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"]),
                     "--observe", "temp=0.5,mode=low"])
        captured = capsys.readouterr()
        assert code == 0
        model = load_model(cli_files["model"])
        expected = log_evaluate(
            model, Evidence.observe(model.schema, {"temp": 0.5, "mode": "low"})
        )
        assert float(captured.out.strip()) == expected

    def test_empty_observation_is_the_normalization_check(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"])])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_conditional_query(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"]),
                     "--observe", "temp=2.5", "--given", "mode=high"])
        captured = capsys.readouterr()
        assert code == 0
        assert np.isfinite(float(captured.out.strip()))

    def test_zero_probability_conditioning_is_a_query_error(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"]),
                     "--observe", "mode=low", "--given", "temp=999"])
        assert code == 3
        assert "query error" in capsys.readouterr().err

    def test_marginalizing_an_observed_column_is_rejected(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"]),
                     "--observe", "temp=0.5", "--marginalize", "temp"])
        assert code == 3

    def test_malformed_assignment_is_a_usage_error(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"]),
                     "--observe", "temp 0.5"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_column_is_a_data_error(self, cli_files, capsys):
        code = main(["query", "--model", str(cli_files["model"]),
                     "--observe", "pressure=1"])
        assert code == 2


class TestCliMpe:
    def test_prints_full_assignment_and_score(self, cli_files, capsys):
        code = main(["mpe", "--model", str(cli_files["model"]),
                     "--given", "mode=high"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("temp=")
        assert lines[1] == "mode=high"
        assert lines[2].startswith("logp=")
        completed = float(lines[0].split("=")[1])
        assert 2.0 <= completed <= 3.0


class TestCliSample:
    def test_emits_csv_with_header(self, cli_files, capsys):
        code = main(["sample", "--model", str(cli_files["model"]), "-n", "5"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "temp,mode"
        assert len(lines) == 6
        for line in lines[1:]:
            t, c = line.split(",")
            float(t)
            assert c in ("low", "high")

    def test_seed_makes_output_reproducible(self, cli_files, capsys):
        main(["sample", "--model", str(cli_files["model"]), "-n", "20",
              "--seed", "3"])
        first = capsys.readouterr().out
        main(["sample", "--model", str(cli_files["model"]), "-n", "20",
              "--seed", "3"])
        assert capsys.readouterr().out == first
        main(["sample", "--model", str(cli_files["model"]), "-n", "20",
              "--seed", "4"])
        assert capsys.readouterr().out != first

    def test_rows_equal_successive_sample_calls(self, cli_files, capsys):
        assert main(["sample", "--model", str(cli_files["model"]), "-n", "40",
                     "--seed", "11", "--given", "mode=high"]) == 0
        model = load_model(cli_files["model"])
        given = Evidence.observe(model.schema, {"mode": "high"})
        rng = np.random.default_rng(11)
        lines = ["temp,mode"]
        for _ in range(40):
            row = sample(model, given, rng)
            lines.append(",".join(mspn.cli._format_cell(model.schema, i, row[i])
                                  for i in range(model.n_vars)))
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_readme_sample_is_reproduced(self, cli_files, capsys):
        # cli_files holds the README walkthrough's data, seed and model
        command = "$ mspn sample --model model.json -n 3 --seed 1 --given mode=low\n"
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        printed = readme[readme.index(command) + len(command):].split("\n\n")[0] + "\n"
        assert main(["sample", "--model", str(cli_files["model"]), "-n", "3",
                     "--seed", "1", "--given", "mode=low"]) == 0
        assert capsys.readouterr().out == printed

    def test_conditioning_pins_the_sampled_column(self, cli_files, capsys):
        code = main(["sample", "--model", str(cli_files["model"]), "-n", "10",
                     "--given", "mode=high"])
        captured = capsys.readouterr()
        assert code == 0
        for line in captured.out.strip().split("\n")[1:]:
            assert line.endswith(",high")

    def test_rows_stream_in_chunks_equal_to_one_call(self, cli_files, capsys, monkeypatch):
        # more rows than two chunks: the rows come from chunk-sized calls,
        # and are the rows one call draws from the same rng
        asked = []

        def counted(model, evidence, rng, n, counter=None):
            asked.append(n)
            return sample_rows(model, evidence, rng, n, counter)

        monkeypatch.setattr(mspn.cli, "sample_rows", counted)
        assert main(["sample", "--model", str(cli_files["model"]), "-n", "2500",
                     "--seed", "5"]) == 0
        assert sum(asked) == 2500 and max(asked) <= mspn.cli.SAMPLE_CHUNK < 2500
        model = load_model(cli_files["model"])
        rows = sample_rows(model, Evidence.marginalized(model.n_vars),
                           np.random.default_rng(5), 2500)
        lines = ["temp,mode"] + [",".join(mspn.cli._format_cell(model.schema, i, row[i])
                                          for i in range(model.n_vars)) for row in rows]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_nonpositive_count_is_a_usage_error(self, cli_files, capsys):
        assert main(["sample", "--model", str(cli_files["model"]), "-n", "0"]) == 1

    def test_negative_seed_is_a_usage_error(self, cli_files, capsys):
        assert main(["sample", "--model", str(cli_files["model"]), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and captured.out == ""


class TestCliMi:
    def test_writes_dot_and_json_reports(self, cli_files, tmp_path, capsys):
        dot, js = tmp_path / "deps.dot", tmp_path / "deps.json"
        code = main(["mi", "--model", str(cli_files["model"]),
                     "--dot", str(dot), "--json", str(js)])
        captured = capsys.readouterr()
        assert code == 0
        assert "wrote" in captured.out
        assert dot.read_text().startswith("graph dependencies {")
        report = json.loads(js.read_text())
        assert report["variables"] == ["temp", "mode"]
        assert len(report["mi"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--grid", "0"), ("--grid", "-3"), ("--grid", "1"),
        ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-inf"),
    ])
    def test_bad_grid_or_threshold_is_a_usage_error(self, cli_files, tmp_path, capsys,
                                                     flag, value):
        dot, js = tmp_path / "deps.dot", tmp_path / "deps.json"
        code = main(["mi", "--model", str(cli_files["model"]),
                     "--dot", str(dot), "--json", str(js), f"{flag}={value}"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not dot.exists() and not js.exists()

    @pytest.mark.parametrize("kind, grid", [(CONTINUOUS, "100000"), (DISCRETE, "2")])
    def test_pair_tables_past_the_cell_cap_are_query_errors(self, kind, grid, tmp_path, capsys):
        # a 100000-point grid on two continuous columns, or two discrete
        # columns of 3000 integers each: a pair's table would pass
        # MAX_GRID_CELLS, which is refused before any table is built
        schema = Schema((Column("x", StatType(kind)), Column("y", StatType(kind))))
        leaves = [HistogramLeaf(v, kind, np.array([-0.5, 2999.5]), np.array([1.0])) for v in (0, 1)]
        path = tmp_path / "pair.json"
        path.write_bytes(serialize(Mspn(ProductNode((0, 1), leaves), schema, LearnConfig())))
        dot, js = tmp_path / "deps.dot", tmp_path / "deps.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["mi", "--model", str(path), "--dot", str(dot), "--json", str(js),
                         "--grid", grid])
        out, err = capsys.readouterr()
        assert code == 3 and f"more than {MAX_GRID_CELLS} cells" in err
        assert "Traceback" not in err and out == ""
        assert not dot.exists() and not js.exists()

    def test_a_pair_whose_joint_density_overflows_is_a_query_error(self, tmp_path, capsys):
        # each leaf's density 1e300 fits a double; their product on the grid does not
        schema = Schema((Column("x", StatType(CONTINUOUS)), Column("y", StatType(CONTINUOUS))))
        leaves = [HistogramLeaf(v, CONTINUOUS, np.array([1e-300, 2e-300]), np.array([1.0]))
                  for v in (0, 1)]
        path = tmp_path / "tiny.json"
        path.write_bytes(serialize(Mspn(ProductNode((0, 1), leaves), schema, LearnConfig())))
        dot, js = tmp_path / "deps.dot", tmp_path / "deps.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["mi", "--model", str(path), "--dot", str(dot), "--json", str(js),
                         "--grid", "4"])
        out, err = capsys.readouterr()
        assert code == 3 and "overflows a double" in err
        assert "Traceback" not in err and out == ""

    def test_a_pair_table_at_the_cell_cap_runs(self):
        schema = Schema((Column("x", StatType(DISCRETE)), Column("y", StatType(DISCRETE))))

        def pair(n_y):  # 2048 integers of x, n_y of y
            leaves = [HistogramLeaf(v, DISCRETE, np.array([-0.5, n - 0.5]), np.array([1.0]))
                      for v, n in enumerate((2048, n_y))]
            return Mspn(ProductNode((0, 1), leaves), schema, LearnConfig())

        assert 2048 * 2048 == MAX_GRID_CELLS
        assert mutual_information(pair(2048), 0, 1) == (0.0, 0.0)
        with pytest.raises(QueryError, match="2048 x 2049 table"):
            mutual_information(pair(2049), 0, 1)


class TestCliValidate:
    def test_valid_model_passes(self, cli_files, capsys):
        code = main(["validate", "--model", str(cli_files["model"])])
        captured = capsys.readouterr()
        assert code == 0
        assert "valid" in captured.out

    def test_non_model_json_is_a_data_error(self, cli_files, capsys):
        code = main(["validate", "--model", str(cli_files["schema"])])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_model_is_a_data_error(self, cli_files, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "gone.json")]) == 2

    def test_deeply_nested_json_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        assert main(["validate", "--model", str(path)]) == 2
        assert "data error" in capsys.readouterr().err


class TestCliParsing:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "learn" in capsys.readouterr().out

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_unknown_flag_is_a_usage_error(self, cli_files, capsys):
        assert main(["validate", "--model", str(cli_files["model"]),
                     "--fancy"]) == 1


def test_importing_the_package_loads_nothing_past_numpy_and_the_standard_library():
    # numpy is pyproject's one runtime dependency; scipy and hypothesis are
    # for the tests. What the bare interpreter loaded before the import
    # (site hooks of the environment) is left out.
    code = ("import sys; bare = set(sys.modules); import mspn, mspn.cli; "
            "print(*{name.partition('.')[0] for name in set(sys.modules) - bare})")
    src = str(Path(mspn.cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert set(run.stdout.split()) - set(sys.stdlib_module_names) == {"mspn", "numpy"}


# ---------------------------------------------------------------------------
# fuzzed model files: each loads and validates, or exits 2 from the CLI
# ---------------------------------------------------------------------------


def _unit_leaf(variable, k):
    return HistogramLeaf(variable, CONTINUOUS, np.array([k, k + 1.0]), np.array([1.0]))


def _chain_model(depth):
    """``depth`` nested sums over x and y, each mixing in one more box."""
    schema = Schema((Column("x", StatType(CONTINUOUS)), Column("y", StatType(CONTINUOUS))))
    node = ProductNode((0, 1), (_unit_leaf(0, depth), _unit_leaf(1, depth)))
    for k in reversed(range(depth)):
        part = ProductNode((0, 1), (_unit_leaf(0, k), _unit_leaf(1, k)))
        node = SumNode((0, 1), np.array([0.25, 0.75]), (part, node))
    return Mspn(node, schema, LearnConfig())


def _wide_model(width, product):
    """A product over ``width`` columns, or a sum of ``width`` boxes over one."""
    if product:
        schema = Schema(tuple(Column(f"v{j}", StatType(CONTINUOUS)) for j in range(width)))
        root = ProductNode(tuple(range(width)), [_unit_leaf(j, 0) for j in range(width)])
    else:
        schema = Schema((Column("x", StatType(CONTINUOUS)),))
        root = SumNode((0,), np.full(width, 1.0 / width), [_unit_leaf(0, k) for k in range(width)])
    return Mspn(root, schema, LearnConfig())


_WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.one_of(st.integers(-2, 9), st.floats(-2.0, 9.0)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def fuzzed_model_files(draw):
    shape = draw(st.sampled_from(["deep", "wide product", "wide sum"]))
    if shape == "deep":
        model = _chain_model(draw(st.integers(1, 300)))
    else:
        model = _wide_model(draw(st.integers(1, 200)), shape == "wide product")
    blob = serialize(model)
    obj = json.loads(blob)
    damage = draw(st.sampled_from(["none", "truncate", "retype", "drop", "nest", "overflow"]))
    if damage == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if damage == "none":
        return blob
    # a field of a node, or of the file itself
    target = draw(st.sampled_from([obj] + obj["nodes"]))
    key = draw(st.sampled_from(sorted(target)))
    if damage == "drop":
        del target[key]
    elif damage == "retype":
        target[key] = draw(_WRONG_VALUES)
    elif damage == "overflow":
        if isinstance(target[key], list) and target[key]:
            target[key][draw(st.integers(0, len(target[key]) - 1))] = _HUGE
        else:
            target[key] = _HUGE
        return _with_huge(obj, draw(st.sampled_from(["1e400", "-1e400"])))
    else:  # a JSON array nested deeper than the parser goes
        depth = draw(st.integers(10, 20000))
        return json.dumps(obj).replace(json.dumps(key) + ":",
                                       json.dumps(key) + ":" + "[" * depth + "]" * depth + ",",
                                       1).encode()
    return json.dumps(obj).encode()


def _chain_with_huge_last_edge() -> bytes:
    obj = json.loads(serialize(_chain_model(2)))
    _huge_at(0, "edges", -1)(obj)
    return _with_huge(obj, "1e400")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blob=fuzzed_model_files())
@example(blob=_chain_with_huge_last_edge())
def test_fuzzed_model_files_load_and_validate_or_exit_two(blob, tmp_path_factory):
    try:
        model = deserialize(blob)
    except FormatError:
        model = None
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [main([command, "--model", str(path)]) for command in ("validate", "query")]
    if model is None:
        assert codes == [2, 2]
        assert err.getvalue().count("data error") == 2
    else:
        assert validate(model).ok
        assert serialize(deserialize(serialize(model))) == serialize(model)
        assert codes == [0, 0] and err.getvalue() == ""


# ---------------------------------------------------------------------------
# the loader checks each group of leaves in one pass; every leaf must get the
# answer, and the message, of its own check
# ---------------------------------------------------------------------------

# knots climb from a base in steps of a scale: near 1e-300 and 1e100, in
# subnormal steps whose bin densities and slopes overflow, and in steps lost
# to rounding (1.0 on 1e100)
_KNOT_SCALES = ((0.0, 1.0), (0.5, 1.0), (-3.0, 2.0), (0.0, 0.25), (1e100, 1e100),
                (-1e100, 3e99), (1e100, 1.0), (0.0, 5e-324), (1e-300, 1e-300), (-1e-300, 5e-301))
_LEAF_CLASSES = {"histogram": HistogramLeaf, "piecewise_linear": PiecewiseLinearLeaf}
_LEAF_ARRAYS = {"histogram": "edges", "piecewise_linear": "knots_x"}


class _Draws:
    """``draw`` plus the damage a strategy may do: none when ``clean``, and
    NaN values only with ``nan`` (a model file cannot hold them)."""

    def __init__(self, draw, clean=False, nan=False):
        self.draw, self.clean, self.nan = draw, clean, nan

    def __call__(self, strategy):
        return self.draw(strategy)

    def rarely(self, usual, *rare, nan=None):
        """``usual`` four times in five, else one of ``rare`` (or ``nan``)."""
        if self.clean:
            return usual
        rare += (nan,) if self.nan and nan is not None else ()
        return self.draw(st.sampled_from([usual] * 4 * len(rare) + list(rare)))


def _knots(draw: _Draws, n):
    base, scale = draw(st.sampled_from(_KNOT_SCALES))
    x = [base]
    for _ in range(n - 1):
        x.append(x[-1] + scale * draw(st.sampled_from((1, 2, 3))))
    # a step of zero or down, or a knot that is not finite
    i = draw(st.integers(0, n - 1))
    x[i] = draw.rarely(x[i], x[i - 1] if i else x[i], x[i] - 5 * scale, math.inf, -math.inf,
                       nan=math.nan)
    return x


def _histogram_record(draw: _Draws, n_bins):
    domain = draw.rarely(draw(st.sampled_from([CONTINUOUS, DISCRETE, CATEGORICAL])), "ordinal")
    if domain == CATEGORICAL and draw.rarely(True, False):
        edges = [float(c) for c in range(n_bins + 1)]
    else:
        edges = _knots(draw, n_bins + 1)
    counts = draw(st.lists(st.integers(0, 3), min_size=n_bins, max_size=n_bins))
    counts[draw(st.integers(0, n_bins - 1))] += 1
    masses = [c / sum(counts) for c in counts]
    # just inside and just outside the 1e-12 tolerance, negative, not finite
    masses[-1] += draw.rarely(0.0, 4e-13, -4e-13, 3e-12, -3e-12, -2.0, math.inf, nan=math.nan)
    return {"kind": "histogram", "variable": 0, "domain": domain, "edges": edges,
            "masses": masses, "smoothing": draw.rarely(1.0, 0.0, math.inf),
            "unseen_mass": draw.rarely(0.0, 0.25, math.inf)}


def _piecewise_linear_record(draw: _Draws, n_knots):
    domain = draw.rarely(draw(st.sampled_from([CONTINUOUS, DISCRETE])), CATEGORICAL)
    x = _knots(draw, n_knots)
    mode = draw(st.integers(0, n_knots - 1))
    heights = draw(st.lists(st.integers(0, 3), min_size=n_knots, max_size=n_knots))
    y = [float(v) for v in sorted(heights[:mode]) + [max(heights)]
         + sorted(heights[mode + 1:], reverse=True)]
    i = draw(st.integers(0, n_knots - 2))
    y[i], y[i + 1] = draw.rarely((y[i], y[i + 1]), (y[i + 1], y[i]))
    area = sum(0.5 * (y[i] + y[i + 1]) * (x[i + 1] - x[i]) for i in range(n_knots - 1))
    if math.isfinite(area) and area > 0:
        # just inside and just outside the 1e-9 tolerance
        scale = draw.rarely(1.0, 1 + 4e-10, 1 - 4e-10, 1 + 3e-9, 1 - 3e-9)
        y = [v / area * scale for v in y]
    y[-1] = draw.rarely(y[-1], -1.0, math.inf, nan=math.nan)
    return {"kind": "piecewise_linear", "variable": 0, "domain": domain, "knots_x": x,
            "knots_y": y, "mode_index": draw.rarely(mode, 0, n_knots - 1, n_knots, -1)}


@st.composite
def leaf_records_of_one_length(draw, clean=False, nan=False):
    """Up to five leaf records of one family whose arrays have one length."""
    draw = _Draws(draw, clean, nan)
    kind = draw(st.sampled_from(sorted(_LEAF_CLASSES)))
    n = draw(st.integers(1, 3))
    return [_histogram_record(draw, n) if kind == "histogram"
            else _piecewise_linear_record(draw, n + 1)
            for _ in range(draw(st.integers(1, 5)))]


def _built_alone(record):
    """The loader's message for a leaf record built on its own, or None."""
    cls = _LEAF_CLASSES[record["kind"]]
    try:
        cls(*[record[f.name] for f in dataclasses.fields(cls)])
    except (DomainError, TypeError, ValueError) as exc:
        return f"bad {record['kind']} node: {exc}"
    return None


def _loaded_alone(record):
    """``_built_alone``, or the schema's objection to a categorical leaf of one bin."""
    message = _built_alone(record)
    if message is None and record["domain"] == CATEGORICAL and len(record["masses"]) == 1:
        return "categorical leaf has 1 bins for 2 categories"
    return message


@st.composite
def leaf_record_files(draw):
    """A product over leaf records of a few groups; half the files are undamaged."""
    clean = draw(st.booleans())
    groups = draw(st.lists(leaf_records_of_one_length(clean), min_size=1, max_size=3))
    records = draw(st.permutations(sum(groups, [])))
    draw = _Draws(draw, clean)
    columns = []
    for j, record in enumerate(records):
        record["variable"] = j
        key = _LEAF_ARRAYS[record["kind"]]
        # not a flat list of numbers
        record[key] = draw.rarely(record[key], [[v] for v in record[key]], str(record[key]))
        kind = record["domain"] if record["domain"] in (DISCRETE, CATEGORICAL) else CONTINUOUS
        if kind == CATEGORICAL and record["kind"] == "histogram":
            # a schema holds two categories or more
            arity = max(len(record["masses"]), 2)
            columns.append(Column(f"v{j}", StatType(kind, tuple(f"c{i}" for i in range(arity)))))
        else:
            columns.append(Column(f"v{j}", StatType(kind if kind != CATEGORICAL else CONTINUOUS)))
    n = len(records)
    obj = {"format_version": 2, "seed": 7, "config": LearnConfig().to_dict(),
           "schema": Schema(tuple(columns)).to_json_dict(),
           "nodes": [*records, {"kind": "product", "scope": list(range(n)),
                                "children": list(range(n))}]}
    # json writes an infinity as Infinity, which the loader reads only as 1e400
    return json.dumps(obj).replace("Infinity", "1e400").encode()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blob=leaf_record_files())
def test_a_file_loads_exactly_when_each_leaf_builds_alone(blob):
    records = json.loads(blob)["nodes"][:-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        failures = [m for m in map(_loaded_alone, records) if m is not None]
        if failures:
            with pytest.raises(FormatError) as info:
                deserialize(blob)
            assert str(info.value) == failures[0]
        else:
            model = deserialize(blob)
            assert validate(model).ok
            assert serialize(deserialize(serialize(model))) == serialize(model)


@settings(max_examples=80, deadline=None)
@given(records=leaf_records_of_one_length(nan=True))
def test_the_grouped_check_gives_each_leaf_its_own_message(records):
    cls = _LEAF_CLASSES[records[0]["kind"]]
    rows = [tuple(record[f.name] for f in dataclasses.fields(cls)) for record in records]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [_built_alone(record) for record in records]
        _, messages = check_group(cls, rows)
    assert [m and f"bad {records[0]['kind']} node: {m}" for m in messages] == alone


# ---------------------------------------------------------------------------
# every query subcommand on generated model files: a documented exit code,
# and on exit 0 the identities the benchmark checks
# ---------------------------------------------------------------------------


def _run_cli(argv):
    """``main(argv)`` with warnings as errors: its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert code == 0 or out.getvalue() == "", argv
    return code, out.getvalue()


def _first_row_csv(model) -> str:
    """A one-row csv over the model's columns: the first category, else 0."""
    columns = model.schema.columns if model is not None else (Column("x", StatType(CONTINUOUS)),)
    cells = [c.stat_type.categories[0] if c.stat_type.is_categorical else "0" for c in columns]
    return ",".join(c.name for c in columns) + "\n" + ",".join(cells) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blob=st.one_of(leaf_record_files(), fuzzed_model_files()))
def test_every_query_subcommand_exits_with_a_documented_code(blob, tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    path, data = root / "cli_fuzzed.json", root / "cli_fuzzed.csv"
    path.write_bytes(blob)
    try:
        model = deserialize(blob)
    except FormatError:
        model = None
    data.write_text(_first_row_csv(model))
    reports = ["--dot", str(root / "cli_fuzzed.dot"), "--json", str(root / "cli_fuzzed.mi.json")]
    for argv in (["validate"], ["query"], ["loglik", "--data", str(data)], ["mpe"],
                 ["sample", "-n", "3"], ["mi", "--grid", "4", *reports]):
        code, out = _run_cli(argv + ["--model", str(path)])
        if model is None:
            assert code == 2, argv
        elif code == 0 and argv[0] == "query":
            # all marginalized: 0, but for the loader's 1e-12 slack on each sum's weights
            n_sums = sum(isinstance(node, SumNode) for node in postorder(model.root)[0])
            assert abs(float(out)) <= 1e-12 * n_sums, out
        elif code == 0 and argv[0] == "mpe":
            pairs = dict(line.split("=", 1) for line in out.splitlines())
            logp = float(pairs.pop("logp"))
            assert log_evaluate(model, Evidence.observe(model.schema, pairs)) == logp
        elif code == 0 and argv[0] == "sample":
            header, *rows = csv.reader(io.StringIO(out))
            for row in rows:
                value = log_evaluate(model, Evidence.observe(model.schema, dict(zip(header, row))))
                assert math.isfinite(value), row
