"""Typed tabular data: schemas, CSV ingest, and per-column encodings.

Every column is declared as one of three statistical kinds:

* ``continuous`` -- real valued,
* ``discrete`` -- integer valued counts/ordinals,
* ``categorical`` -- a finite unordered vocabulary, stored as float codes
  ``0.0 .. arity-1`` in the value matrix.

Categorical vocabularies may be declared up-front in the schema or frozen
from the data in first-seen order while loading.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import DomainError, EmptyInputError, IngestError, SchemaError

CONTINUOUS = "continuous"
DISCRETE = "discrete"
CATEGORICAL = "categorical"

_KINDS = (CONTINUOUS, DISCRETE, CATEGORICAL)

# rows converted at a time by load_dataset; small blocks keep its peak memory low
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class StatType:
    """Statistical kind of one column, plus the vocabulary if categorical.

    ``categories is None`` on a categorical column means the vocabulary is
    not declared yet; it gets frozen during :func:`load_dataset`.
    """

    kind: str
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r}")
        if self.categories is not None:
            if self.kind != CATEGORICAL:
                raise SchemaError(f"{self.kind} columns cannot declare categories")
            if len(self.categories) < 2:
                raise SchemaError("categorical columns need at least 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError("duplicate category labels")

    @property
    def arity(self) -> int | None:
        if self.categories is None:
            return None
        return len(self.categories)

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS


@dataclass(frozen=True)
class Column:
    name: str
    stat_type: StatType


@dataclass(frozen=True)
class Schema:
    """Ordered, named, typed column declarations."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        if not self.columns:
            raise SchemaError("schema has no columns")
        names = [c.name for c in self.columns]
        if any(not n for n in names):
            raise SchemaError("column names must be non-empty")
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def stat_type(self, i: int) -> StatType:
        return self.columns[i].stat_type

    def select(self, indices) -> "Schema":
        return Schema(tuple(self.columns[i] for i in indices))

    def to_json_dict(self) -> dict:
        cols = []
        for c in self.columns:
            entry: dict = {"name": c.name, "type": c.stat_type.kind}
            if c.stat_type.categories is not None:
                entry["categories"] = list(c.stat_type.categories)
            cols.append(entry)
        return {"columns": cols}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Schema":
        if not isinstance(obj, dict) or "columns" not in obj:
            raise SchemaError("schema json must be an object with a 'columns' list")
        cols = []
        for entry in obj["columns"]:
            if not isinstance(entry, dict) or "name" not in entry or "type" not in entry:
                raise SchemaError("each column needs 'name' and 'type'")
            cats = entry.get("categories")
            if cats is not None:
                cats = tuple(str(c) for c in cats)
            cols.append(Column(str(entry["name"]), StatType(str(entry["type"]), cats)))
        return cls(tuple(cols))


def load_schema(path) -> Schema:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"schema file is not valid json: {exc}") from exc
    return Schema.from_json_dict(obj)


@dataclass(frozen=True)
class Dataset:
    """An (M, N) float64 value matrix bound to its schema.

    Categorical cells hold vocabulary indices, discrete cells hold
    integer-valued floats. The matrix is read-only.
    """

    schema: Schema
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DomainError(f"dataset values must be 2-d, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise EmptyInputError("dataset needs at least one row and one column")
        if v.shape[1] != len(self.schema):
            raise SchemaError(
                f"data has {v.shape[1]} columns but schema declares {len(self.schema)}"
            )
        for j, col in enumerate(self.schema.columns):
            st = col.stat_type
            if st.is_continuous:
                if not np.all(np.isfinite(v[:, j])):
                    raise DomainError(f"column {col.name!r} has non-finite values")
            else:
                if not np.all(np.isfinite(v[:, j])) or np.any(v[:, j] != np.rint(v[:, j])):
                    raise DomainError(f"column {col.name!r} must be integer valued")
                if st.is_categorical:
                    if st.arity is None:
                        raise SchemaError(
                            f"column {col.name!r} has no frozen vocabulary"
                        )
                    if np.any(v[:, j] < 0) or np.any(v[:, j] >= st.arity):
                        raise DomainError(
                            f"column {col.name!r} has codes outside [0, {st.arity})"
                        )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    @classmethod
    def _unchecked(cls, schema: Schema, values: np.ndarray) -> "Dataset":
        """A dataset of a 2-d float64 matrix already known to fit ``schema``.

        Skips ``__post_init__``'s scan and copy for values that were checked
        before: a slice of a dataset, or a parsed CSV (whose categorical
        codes may also equal ``arity``, the out-of-vocabulary code). The
        matrix is made read-only in place, so the caller must own it.
        """
        values.setflags(write=False)
        ds = object.__new__(cls)
        object.__setattr__(ds, "schema", schema)
        object.__setattr__(ds, "values", values)
        return ds

    def select(self, rows=None, cols=None) -> "Dataset":
        """Sub-dataset by row indices and/or column indices (both optional).

        Indices are integers in range; a bool mask or a fractional index
        raises :class:`DomainError`, and an empty selection
        :class:`EmptyInputError`.
        """
        v = self.values
        if rows is not None:
            v = v.take(_indices(rows, self.n_rows, "row"), axis=0)
        schema = self.schema
        if cols is not None:
            cols = _indices(cols, self.n_cols, "column")
            # take, unlike v[:, cols], gives a row-major matrix
            v = v.take(cols, axis=1)
            schema = schema.select(cols)
        return Dataset._unchecked(schema, v)


def _indices(index, n: int, what: str) -> np.ndarray:
    """``index`` as a 1-d integer array of positions in [0, n)."""
    idx = np.asarray(index)
    if idx.size == 0:
        raise EmptyInputError(f"cannot select zero {what}s")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise DomainError(f"{what} indices must be a 1-d sequence of integers")
    if idx.min() < 0 or idx.max() >= n:
        raise DomainError(f"{what} indices must lie in [0, {n})")
    return idx


def _escapes_bytes(text: str) -> bool:
    """Whether ``text`` holds bytes that were not UTF-8 (``surrogateescape``'s lone surrogates)."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _parse_cell(text: str, st: StatType, vocab: dict, row: int, col: int, strict_vocab: bool):
    if _escapes_bytes(text):
        raise IngestError(f"row {row}, column {col}: bytes that are not UTF-8",
                          row=row, column=col)
    if text == "":
        raise IngestError(f"missing value at row {row}, column {col}", row=row, column=col)
    if st.is_continuous:
        try:
            x = float(text)
        except ValueError:
            raise IngestError(
                f"row {row}, column {col}: {text!r} is not a number", row=row, column=col
            ) from None
        if not math.isfinite(x):
            raise IngestError(
                f"row {row}, column {col}: non-finite value", row=row, column=col
            )
        return x
    if st.is_discrete:
        try:
            return float(int(text))
        except ValueError:
            raise IngestError(
                f"row {row}, column {col}: {text!r} is not an integer", row=row, column=col
            ) from None
        except OverflowError:
            raise IngestError(
                f"row {row}, column {col}: integer too large for a float", row=row, column=col
            ) from None
    # categorical: map the label through the (possibly growing) vocabulary
    if text in vocab:
        return float(vocab[text])
    if strict_vocab:
        raise IngestError(
            f"row {row}, column {col}: unknown category {text!r}", row=row, column=col
        )
    vocab[text] = len(vocab)
    return float(vocab[text])


def _parse_rows(records, start: int, schema: Schema, vocabs: list, strict: list) -> list:
    """Parse ``records`` (rows ``start ..``) cell by cell, raising the first error."""
    rows = []
    for r, record in enumerate(records, start):
        if len(record) != len(schema):
            raise IngestError(
                f"row {r} has {len(record)} fields, expected {len(schema)}", row=r
            )
        rows.append([_parse_cell(cell.strip(), col.stat_type, vocabs[j], r, j, strict[j])
                     for j, (cell, col) in enumerate(zip(record, schema.columns))])
    return rows


def _convert_block(records, schema: Schema, vocabs: list):
    """``records`` as a float64 block, one ``map`` per column, or None on any fault.

    A ragged record, a cell a column's conversion rejects (an empty or bad
    cell, an integer too large for a float, a label not yet in the
    vocabulary) or a non-finite value gives None and leaves ``vocabs``
    untouched, so the caller parses the block cell by cell and raises
    there. Converted cells get the bits ``_parse_cell`` gives them:
    ``float`` and ``int`` skip the whitespace ``str.strip`` removes or
    reject the cell, and labels are looked up stripped.
    """
    n = len(schema)
    if any(len(record) != n for record in records):
        return None
    block = np.empty((len(records), n))
    try:
        for j, (cells, col) in enumerate(zip(zip(*records), schema.columns)):
            st = col.stat_type
            if st.is_continuous:
                converted = map(float, cells)
            elif st.is_discrete:
                converted = map(float, map(int, cells))
            else:
                labels = list(map(str.strip, cells))
                if "" in vocabs[j] and "" in labels:
                    return None  # a declared "" label is still a missing value
                converted = map(vocabs[j].__getitem__, labels)
            block[:, j] = np.fromiter(converted, np.float64, len(records))
    except (ValueError, KeyError, OverflowError):
        return None
    if not np.isfinite(block).all():
        return None
    return block


def load_dataset(path, schema: Schema, *, unseen_to_sentinel: bool = False) -> Dataset:
    """Load a headed CSV against ``schema``.

    Categorical columns with a declared vocabulary reject unknown labels,
    unless ``unseen_to_sentinel`` is set, in which case unknown labels map
    to the out-of-vocabulary code ``arity`` (useful for scoring held-out
    rows). Undeclared vocabularies are frozen from the data in first-seen
    order; the returned dataset carries the completed schema.

    Rows are read ``_BLOCK_ROWS`` at a time and converted column by
    column; a block with any fault is parsed again cell by cell, which
    raises the error of its first bad cell in row-major order. Bytes that
    are not UTF-8 are such a fault: the file is decoded with
    ``surrogateescape``, so they reach their cell as lone surrogates, which
    no number parses and no vocabulary holds, and the cell-by-cell parse
    names their row and column (a header holding them is rejected as a
    whole). A record the csv module rejects ends the rows read so far and
    raises after them.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("csv file is empty") from None
        except csv.Error as exc:
            raise IngestError(f"cannot read the csv header: {exc}") from exc
        if any(map(_escapes_bytes, header)):
            raise IngestError("the csv header holds bytes that are not UTF-8")
        header = [h.strip() for h in header]
        if tuple(header) != schema.names:
            raise IngestError(
                f"csv header {header} does not match schema columns {list(schema.names)}"
            )

        vocabs: list[dict] = []
        declared: list[bool] = []
        for c in schema.columns:
            st = c.stat_type
            if st.is_categorical and st.categories is not None:
                # a declared label made of escaped bytes must not match those bytes
                vocabs.append({label: i for i, label in enumerate(st.categories)
                               if not _escapes_bytes(label)})
                declared.append(True)
            else:
                vocabs.append({})
                declared.append(False)
        strict = [known and not unseen_to_sentinel for known in declared]

        blocks = []
        start = 0
        fault = None
        while fault is None:
            records = []
            try:
                records.extend(islice(reader, _BLOCK_ROWS))
            except csv.Error as exc:
                fault = exc
            if not records:
                break
            block = _convert_block(records, schema, vocabs)
            if block is None:
                block = np.array(_parse_rows(records, start, schema, vocabs, strict),
                                 dtype=np.float64)
            blocks.append(block)
            start += len(records)
        if fault is not None:
            raise IngestError(f"cannot read row {start} of the csv: {fault}",
                              row=start) from fault

    if not blocks:
        raise IngestError("csv file has a header but no data rows")

    cols = []
    for j, c in enumerate(schema.columns):
        st = c.stat_type
        if st.is_categorical and not declared[j]:
            labels = tuple(vocabs[j].keys())
            if len(labels) < 2:
                raise IngestError(
                    f"column {c.name!r} has fewer than 2 distinct categories"
                )
            cols.append(Column(c.name, StatType(CATEGORICAL, labels)))
        else:
            cols.append(c)
    frozen = Schema(tuple(cols))

    values = np.concatenate(blocks)
    if unseen_to_sentinel:
        # every label outside a declared vocab collapses to the single
        # out-of-vocab code ``arity``
        for j, known in enumerate(declared):
            if known:
                np.minimum(values[:, j], len(frozen.stat_type(j).categories), out=values[:, j])
    # the parse checked every cell; with unseen_to_sentinel a code may equal
    # arity, which Dataset's own checks would reject
    return Dataset._unchecked(frozen, values)


def copula_transform(column: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Empirical cumulative rank of each entry within its own column.

    Entry ``m`` maps to ``|{r : x_r <= x_m}| / M``, so ties share their
    maximal rank and the output lives in ``(0, 1]``. With ``counts``, entry
    ``m`` stands for ``counts[m]`` rows of a column of ``M = counts.sum()``
    rows and gets their rank: the same integer over the same ``M``, so the
    same bits as ranking every row.
    """
    col = np.asarray(column, dtype=np.float64).ravel()
    if col.size == 0:
        raise EmptyInputError("cannot rank an empty column")
    if counts is None:
        counts = np.ones(col.size, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if counts.shape != col.shape:
        raise DomainError("need one count per entry")
    order = np.argsort(col, kind="stable")
    at_most = np.cumsum(counts[order])
    return at_most[np.searchsorted(col[order], col, side="right") - 1] / at_most[-1]
