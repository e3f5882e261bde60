"""Schema, dataset, CSV ingestion, and rank-transform behavior."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mspn.data

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
from mspn.data import _BLOCK_ROWS, DISCRETE, copula_transform, one_hot
from mspn.errors import DomainError, EmptyInputError, IngestError, SchemaError

from conftest import make_dataset, per_cell_load_dataset


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


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _assert_loads_like_per_cell(path, schema, **kwargs):
    """load_dataset gives the per-cell loop's bytes and schema, or its error."""
    try:
        want = per_cell_load_dataset(path, schema, **kwargs)
    except IngestError as exc:
        with pytest.raises(IngestError) as got:
            load_dataset(path, schema, **kwargs)
        assert (str(got.value), got.value.row, got.value.column) == \
            (str(exc), exc.row, exc.column)
        return exc
    got = load_dataset(path, schema, **kwargs)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.shape == want.values.shape
    assert got.schema == want.schema
    return got


_BLOCK_SCHEMA = Schema((
    Column("x", StatType(CONTINUOUS)),
    Column("k", StatType(DISCRETE)),
    Column("c", StatType(CATEGORICAL, ("a", "b"))),
    Column("u", StatType(CATEGORICAL)),
))


def _block_rows(m, seed=0):
    """``m`` clean rows of ``_BLOCK_SCHEMA``; after the first block, only
    a block holding a fault goes through the per-cell loop."""
    r = np.random.default_rng(seed)
    return [[repr(float(x)), str(k), "ab"[c], "pq"[c]]
            for x, k, c in zip(r.normal(size=m), r.integers(-9, 99, m), r.integers(0, 2, m))]


@st.composite
def _csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from(["continuous", "discrete", "declared",
                                           "undeclared"]), min_size=1, max_size=4))
    m = draw(st.integers(_BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7))
    seed = draw(st.integers(0, 2**32 - 1))
    # "\x1c" is whitespace to str.strip but not to float or int
    pad = draw(st.sampled_from(["", " ", "\t", "\x1c"]))
    unknown = draw(st.booleans())  # an unknown declared label in a later block
    sentinel = draw(st.booleans())
    return kinds, m, seed, pad, unknown, sentinel


class TestBlockIngest:
    @settings(max_examples=25, deadline=None)
    @given(_csv_tables())
    def test_blocks_load_like_the_per_cell_loop(self, tmp_path_factory, table):
        kinds, m, seed, pad, unknown, sentinel = table
        r = np.random.default_rng(seed)
        cols, cells = [], []
        for j, kind in enumerate(kinds):
            if kind == "continuous":
                x = r.normal(size=m) * 10.0 ** r.integers(-30, 30, m)
                cols.append(Column(f"v{j}", StatType(CONTINUOUS)))
                cells.append([repr(float(v)) for v in x])
            elif kind == "discrete":
                k = r.integers(-10**15, 10**15, m) * r.integers(0, 2, m) + r.integers(0, 9, m)
                cols.append(Column(f"v{j}", StatType(DISCRETE)))
                cells.append([str(int(v)) for v in k])
            elif kind == "declared":
                labels = ("lo", "mid", "hi")
                cols.append(Column(f"v{j}", StatType(CATEGORICAL, labels)))
                cells.append([labels[c] for c in r.integers(0, 3, m)])
                if unknown:
                    cells[-1][int(r.integers(m // 2, m))] = "zz"
            else:
                # the pool of labels grows with the row, so new labels
                # first appear in later blocks
                cols.append(Column(f"v{j}", StatType(CATEGORICAL)))
                cells.append([f"l{r.integers(0, 2 + i // 300)}" for i in range(m)])
        padded = r.random((len(kinds), m)) < 0.3
        rows = [[f"{pad}{cell}{pad}" if padded[j, i] else cell
                 for j, cell in enumerate(row)] for i, row in enumerate(zip(*cells))]
        path = _write_rows(tmp_path_factory.mktemp("blocks") / "t.csv",
                           [c.name for c in cols], rows)
        _assert_loads_like_per_cell(path, Schema(tuple(cols)), unseen_to_sentinel=sentinel)

    def test_clean_blocks_skip_the_per_cell_loop(self, tmp_path, monkeypatch):
        parsed = []
        per_cell = mspn.data._parse_rows
        monkeypatch.setattr(mspn.data, "_parse_rows",
                            lambda records, start, *rest: parsed.append(start)
                            or per_cell(records, start, *rest))
        rows = _block_rows(3 * _BLOCK_ROWS + 5)
        rows[-1][3] = "w"
        path = _write_rows(tmp_path / "t.csv", _BLOCK_SCHEMA.names, rows)
        got = _assert_loads_like_per_cell(path, _BLOCK_SCHEMA)
        # only the blocks where ``u`` meets a new label are parsed cell by cell
        assert parsed == [0, 3 * _BLOCK_ROWS]
        assert sorted(got.schema.stat_type(3).categories[:2]) == ["p", "q"]
        assert got.schema.stat_type(3).categories[2] == "w"

    @pytest.mark.parametrize("column, cell", [
        (0, "oops"), (0, ""), (0, "  "), (0, "nan"), (0, "1e999"), (1, "2.5"),
        (1, "9" * 400), (2, "z"), (2, ""), (3, ""), ("ragged", None),
    ])
    def test_an_error_in_a_later_block_is_the_per_cell_error(self, tmp_path, column, cell):
        rows = _block_rows(3 * _BLOCK_ROWS)
        bad = 2 * _BLOCK_ROWS + 77
        if column == "ragged":
            rows[bad] = rows[bad][:3]
        else:
            rows[bad][column] = cell
        path = _write_rows(tmp_path / "t.csv", _BLOCK_SCHEMA.names, rows)
        exc = _assert_loads_like_per_cell(path, _BLOCK_SCHEMA)
        assert exc.row == bad
        assert exc.column == (None if column == "ragged" else column)

    @pytest.mark.parametrize("first, second", [
        ((700, 2), (701, 0)),  # an earlier row wins over an earlier column
        ((700, 0), (700, 2)),  # in one row, the earlier column wins
        ((700, 3), (1023, 1)),
    ])
    def test_the_row_major_first_error_wins_within_a_block(self, tmp_path, first, second):
        rows = _block_rows(3 * _BLOCK_ROWS)
        for r, c in (first, second):
            rows[r][c] = ""
        path = _write_rows(tmp_path / "t.csv", _BLOCK_SCHEMA.names, rows)
        exc = _assert_loads_like_per_cell(path, _BLOCK_SCHEMA)
        assert (exc.row, exc.column) == first

    @pytest.mark.parametrize("bad_cell", [None, 700])
    def test_a_reader_fault_raises_after_the_rows_before_it(self, tmp_path, bad_cell):
        # the csv module rejects a field past its limit at row 1000; a bad
        # cell earlier in the same block still raises first
        rows = _block_rows(3 * _BLOCK_ROWS)
        rows[1000][3] = "w" * 200_000
        if bad_cell is not None:
            rows[bad_cell][0] = "oops"
        path = _write_rows(tmp_path / "t.csv", _BLOCK_SCHEMA.names, rows)
        with pytest.raises(IngestError) as exc:
            load_dataset(path, _BLOCK_SCHEMA)
        if bad_cell is None:
            assert (exc.value.row, exc.value.column) == (1000, None)
            assert "field larger than field limit" in str(exc.value)
        else:
            assert (exc.value.row, exc.value.column) == (bad_cell, 0)

    @pytest.mark.parametrize("unseen_to_sentinel", [False, True])
    def test_bytes_that_are_not_utf8_are_reported_at_their_cell(self, tmp_path,
                                                                unseen_to_sentinel):
        # a declared label spelled with the escape of those bytes matches nothing
        schema = Schema((Column("c", StatType(CATEGORICAL, ("\udcff", "a"))),))
        lines = [b"c"] + [b"a"] * (2 * _BLOCK_ROWS)
        lines[1 + _BLOCK_ROWS + 3] = b"\xff"
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(IngestError) as exc:
            load_dataset(path, schema, unseen_to_sentinel=unseen_to_sentinel)
        assert (exc.value.row, exc.value.column) == (_BLOCK_ROWS + 3, 0)
        assert "not UTF-8" in str(exc.value)

    def test_an_empty_cell_is_missing_even_when_a_label_is_empty(self, tmp_path):
        schema = Schema((Column("c", StatType(CATEGORICAL, ("", "a"))),))
        rows = [["a"]] * (2 * _BLOCK_ROWS)
        rows[_BLOCK_ROWS + 3] = [""]
        path = _write_rows(tmp_path / "t.csv", schema.names, rows)
        exc = _assert_loads_like_per_cell(path, schema)
        assert (exc.row, exc.column) == (_BLOCK_ROWS + 3, 0)
        assert "missing value" in str(exc)

    def test_sentinel_codes_hold_in_every_block(self, tmp_path):
        # the first block meets two unknown labels; later blocks convert
        # both at once, and the second one's code must come down to arity
        rows = _block_rows(3 * _BLOCK_ROWS)
        unseen = {3: "zz", 4: "yy", _BLOCK_ROWS + 9: "yy", 3 * _BLOCK_ROWS - 1: "zz"}
        for r, label in unseen.items():
            rows[r][2] = label
        path = _write_rows(tmp_path / "t.csv", _BLOCK_SCHEMA.names, rows)
        got = _assert_loads_like_per_cell(path, _BLOCK_SCHEMA, unseen_to_sentinel=True)
        assert np.flatnonzero(got.values[:, 2] == 2.0).tolist() == list(unseen)


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
