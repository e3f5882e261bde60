"""Schema, dataset, CSV ingestion, and rank-transform behavior."""

import json

import numpy as np
import pytest

from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    Dataset,
    Schema,
    StatType,
    load_dataset,
    load_schema,
)
from mspn.data import DISCRETE, copula_transform, one_hot
from mspn.errors import DomainError, EmptyInputError, IngestError, SchemaError

from conftest import make_dataset


class TestStatType:
    def test_arity_of_categorical(self):
        st = StatType(CATEGORICAL, ("a", "b", "c"))
        assert st.arity == 3
        assert st.is_categorical and not st.is_continuous and not st.is_discrete

    def test_numeric_kinds_have_no_arity(self):
        assert StatType(CONTINUOUS).arity is None
        assert StatType(DISCRETE).arity is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            StatType("ordinal")

    def test_single_category_rejected(self):
        with pytest.raises(SchemaError):
            StatType(CATEGORICAL, ("only",))

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError):
            StatType(CATEGORICAL, ("x", "x"))

    def test_categories_on_numeric_kind_rejected(self):
        with pytest.raises(SchemaError):
            StatType(CONTINUOUS, ("a", "b"))


class TestSchema:
    def _schema(self):
        return Schema(
            (
                Column("height", StatType(CONTINUOUS)),
                Column("rooms", StatType(DISCRETE)),
                Column("zone", StatType(CATEGORICAL, ("u", "r"))),
            )
        )

    def test_names_and_index(self):
        s = self._schema()
        assert s.names == ("height", "rooms", "zone")
        assert s.index("rooms") == 1

    def test_unknown_name_raises(self):
        with pytest.raises(SchemaError):
            self._schema().index("missing")

    def test_select_keeps_order(self):
        s = self._schema().select([2, 0])
        assert s.names == ("zone", "height")

    def test_json_roundtrip(self):
        s = self._schema()
        assert Schema.from_json_dict(s.to_json_dict()) == s

    def test_from_json_requires_columns_key(self):
        with pytest.raises(SchemaError):
            Schema.from_json_dict({"cols": []})

    def test_load_schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(self._schema().to_json_dict()))
        assert load_schema(path) == self._schema()

    def test_load_schema_rejects_bad_json(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_schema(path)


class TestDataset:
    def test_matrix_is_read_only_float64(self):
        ds = make_dataset([("x", CONTINUOUS, None)], [[1.0], [2.0]])
        assert ds.values.dtype == np.float64
        with pytest.raises(ValueError):
            ds.values[0, 0] = 5.0

    def test_shape_properties(self):
        ds = make_dataset(
            [("x", CONTINUOUS, None), ("y", DISCRETE, None)], [[1.0, 2], [3.0, 4]]
        )
        assert (ds.n_rows, ds.n_cols) == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            make_dataset([("x", CONTINUOUS, None)], np.empty((0, 1)))

    def test_column_count_mismatch(self):
        with pytest.raises(SchemaError):
            make_dataset([("x", CONTINUOUS, None)], [[1.0, 2.0]])

    def test_non_finite_continuous_rejected(self):
        with pytest.raises(DomainError):
            make_dataset([("x", CONTINUOUS, None)], [[np.nan]])

    def test_fractional_discrete_rejected(self):
        with pytest.raises(DomainError):
            make_dataset([("k", DISCRETE, None)], [[1.5]])

    def test_categorical_code_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            make_dataset([("c", CATEGORICAL, ("a", "b"))], [[2.0]])

    def test_select_rows_and_columns(self):
        ds = make_dataset(
            [("x", CONTINUOUS, None), ("k", DISCRETE, None)],
            [[1.0, 2], [3.0, 4], [5.0, 6]],
        )
        sub = ds.select(rows=[2, 0], cols=[1])
        assert sub.schema.names == ("k",)
        np.testing.assert_array_equal(sub.values, [[6.0], [2.0]])


class TestLoadDataset:
    def _write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def _schema(self):
        return Schema(
            (
                Column("x", StatType(CONTINUOUS)),
                Column("k", StatType(DISCRETE)),
                Column("c", StatType(CATEGORICAL, ("a", "b"))),
            )
        )

    def test_roundtrip_values(self, tmp_path):
        p = self._write(tmp_path, "x,k,c\n1.5,2,a\n-0.25,7,b\n")
        ds = load_dataset(p, self._schema())
        np.testing.assert_array_equal(
            ds.values, [[1.5, 2.0, 0.0], [-0.25, 7.0, 1.0]]
        )

    def test_header_mismatch(self, tmp_path):
        p = self._write(tmp_path, "x,k,wrong\n1.0,2,a\n")
        with pytest.raises(IngestError):
            load_dataset(p, self._schema())

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        p = self._write(tmp_path, "x,k,c\n1.0,2,a\n1.0,oops,a\n")
        with pytest.raises(IngestError) as err:
            load_dataset(p, self._schema())
        assert err.value.row == 1
        assert err.value.column == 1

    def test_unknown_label_rejected_by_default(self, tmp_path):
        p = self._write(tmp_path, "x,k,c\n1.0,2,z\n")
        with pytest.raises(IngestError):
            load_dataset(p, self._schema())

    def test_missing_cell_rejected(self, tmp_path):
        p = self._write(tmp_path, "x,k,c\n1.0,,a\n")
        with pytest.raises(IngestError):
            load_dataset(p, self._schema())

    def test_empty_file_rejected(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(IngestError):
            load_dataset(p, self._schema())

    def test_unknown_label_maps_to_sentinel_code(self, tmp_path):
        p = self._write(tmp_path, "x,k,c\n1.0,2,z\n2.0,3,a\n")
        ds = load_dataset(p, self._schema(), unseen_to_sentinel=True)
        # out-of-vocabulary labels collapse to the code one past the arity range
        assert ds.values[0, 2] == 2.0
        assert ds.values[1, 2] == 0.0

    def test_undeclared_vocabulary_freezes_first_seen(self, tmp_path):
        schema = Schema(
            (Column("x", StatType(CONTINUOUS)), Column("c", StatType(CATEGORICAL)))
        )
        p = self._write(tmp_path, "x,c\n1.0,mid\n2.0,low\n3.0,mid\n")
        ds = load_dataset(p, schema)
        assert ds.schema.stat_type(1).categories == ("mid", "low")
        np.testing.assert_array_equal(ds.values[:, 1], [0.0, 1.0, 0.0])


class TestCopulaTransform:
    def test_distinct_values_get_fractional_ranks(self):
        np.testing.assert_allclose(
            copula_transform(np.array([3.0, 1.0, 2.0])), [1.0, 1 / 3, 2 / 3]
        )

    def test_ties_share_the_maximal_rank(self):
        np.testing.assert_array_equal(
            copula_transform(np.array([5.0, 5.0, 5.0])), [1.0, 1.0, 1.0]
        )

    def test_two_values(self):
        np.testing.assert_allclose(copula_transform(np.array([1.0, 2.0])), [0.5, 1.0])

    def test_maximum_is_one_and_minimum_positive(self):
        r = np.random.default_rng(4)
        out = copula_transform(r.normal(size=500))
        assert out.max() == 1.0
        assert out.min() > 0.0

    def test_invariant_under_strictly_increasing_transform(self):
        r = np.random.default_rng(5)
        x = r.uniform(0.0, 1.0, 300)
        np.testing.assert_array_equal(copula_transform(x), copula_transform(np.exp(x)))

    def test_counted_entries_rank_like_their_rows(self):
        # unsorted entries with repeats, as the indicator columns of distinct
        # categorical codes are
        entries = np.array([4.0, 0.0, 6.0, 4.0, 2.0, 1.0, 5.0, 3.0, 0.0])
        counts = np.random.default_rng(6).integers(1, 400, entries.size)
        rows = np.repeat(entries, counts)
        by_rows = np.searchsorted(np.sort(rows), rows, side="right") / rows.size
        np.testing.assert_array_equal(copula_transform(rows), by_rows)
        np.testing.assert_array_equal(
            copula_transform(entries, counts), by_rows[np.cumsum(counts) - 1]
        )
        with pytest.raises(DomainError):
            copula_transform(entries, counts[:-1])


class TestOneHot:
    def test_basic_encoding(self):
        out = one_hot(np.array([0.0, 1.0, 0.0]), 2)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_each_row_sums_to_one_for_known_codes(self):
        r = np.random.default_rng(6)
        codes = r.integers(0, 4, 100).astype(float)
        out = one_hot(codes, 4)
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(100))

    def test_out_of_range_code_rejected(self):
        with pytest.raises(DomainError):
            one_hot(np.array([0.0, 3.0]), 2)

    def test_empty_column_rejected(self):
        with pytest.raises(EmptyInputError):
            one_hot(np.array([]), 2)
