"""Model persistence: canonical JSON with byte-stable round trips.

The emitter sorts object keys and prints every float with 17 significant
digits, which round-trips IEEE doubles exactly. Serializing a model twice,
or serializing a deserialized model, therefore produces identical bytes,
and two learning runs with the same seed produce identical files.

A model file (format 2) is one object with ``format_version``, ``seed``,
``config``, ``schema`` and ``nodes``: the tree flattened by
``structure.postorder``, so children come before their parent and the
root is the last node. A node's record is its ``kind`` and its
dataclass's fields, written and read by one path for every kind: a sum's
or product's children as indices into ``nodes``, a field whose default is
a float through ``float()``, any other as it is. Whether each value fits
its node is ``structure.node_problems``'s and the leaf families' rules. No
array nests deeper than a few levels and neither direction recurses, so a
tree of any depth saves and loads.
"""

from __future__ import annotations

import json
from dataclasses import fields
from operator import itemgetter

import numpy as np

from .data import Schema
from .errors import DomainError, FormatError, MspnError, VersionError
from .leaves import HistogramLeaf, PiecewiseLinearLeaf, _unchecked, check_group
from .structure import (
    LearnConfig, Mspn, ProductNode, SumNode, integer_problem, node_problems, postorder,
    root_problems,
)

FORMAT_VERSION = 2

# a record's "kind" names its node's class; its other keys are the class's fields
_CLASSES = {"sum": SumNode, "product": ProductNode, "histogram": HistogramLeaf,
            "piecewise_linear": PiecewiseLinearLeaf}
_KINDS = {cls: kind for kind, cls in _CLASSES.items()}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _KINDS}
_FIELD_GETTERS = {cls: itemgetter(*names) for cls, names in _FIELDS.items()}
_FLOAT_FIELDS = {cls: [i for i, f in enumerate(fields(cls)) if type(f.default) is float]
                 for cls in _KINDS}
# where a sum's or product's children are, stored as node indices
_CHILDREN = {cls: names.index("children") for cls, names in _FIELDS.items()
             if "children" in names}
# what a node record's fields can raise as they are read or converted
_BAD_FIELD = (MspnError, KeyError, TypeError, ValueError, OverflowError)


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise FormatError("non-finite numbers cannot be serialized")
    return format(x, ".17g")


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise FormatError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")


def _reject_constant(name: str):
    # json.loads reads NaN and Infinity, which the emitter never writes
    raise FormatError(f"non-finite number {name} in model file")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def _record(node, kids: np.ndarray) -> dict:
    """A node's record: its kind and its fields, children as indices into the node list."""
    cls = type(node)
    if cls not in _KINDS:
        raise FormatError(f"cannot serialize node type {cls.__name__}")
    problem = integer_problem(node)
    if problem is not None:
        raise FormatError(problem)
    values = _floats(cls, [getattr(node, name) for name in _FIELDS[cls]])
    if cls in _CHILDREN:
        values[_CHILDREN[cls]] = kids
    return dict(zip(_FIELDS[cls], values), kind=_KINDS[cls])


def _floats(cls, values: list) -> list:
    """``values`` of ``cls``'s fields in order, those with a float default as floats."""
    for i in _FLOAT_FIELDS[cls]:
        values[i] = float(values[i])
    return values


def _take_children(kids, built: list, used: list) -> list:
    """The indices of the already-built children a record names.

    Each child is claimed by one parent only.
    """
    if not isinstance(kids, list) or not kids:
        raise FormatError("children must be a non-empty list of node indices")
    for c in kids:
        # bool is an int subclass, and true must not mean node 1
        if type(c) is not int or not 0 <= c < len(built):
            raise FormatError(f"child index {c!r} does not name an earlier node")
        if used[c]:
            raise FormatError(f"node {c} is the child of two nodes")
        used[c] = True
    return kids


def _check_leaf_records(records: list) -> dict:
    """Each grouped leaf record's index -> (group columns, row, message or None).

    Leaf records whose fields read and whose two arrays are lists are
    grouped by kind and array lengths, and each group goes through one
    ``check_group``. A record left out, or in a group whose arrays do not
    convert, is built on its own by the node loop, which raises its error.
    """
    groups: dict = {}
    for i, obj in enumerate(records):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        cls = _CLASSES.get(kind) if isinstance(kind, str) else None
        if cls is None or cls in _CHILDREN:  # not a leaf
            continue
        try:
            args = _floats(cls, list(_FIELD_GETTERS[cls](obj)))
        except _BAD_FIELD:
            continue
        if type(args[2]) is list and type(args[3]) is list:
            groups.setdefault((cls, len(args[2]), len(args[3])), []).append((i, args))
    checked = {}
    for (cls, _, _), members in groups.items():
        try:
            columns, messages = check_group(cls, [args for _, args in members])
        except (TypeError, ValueError, OverflowError):
            continue
        for row, ((i, _), message) in enumerate(zip(members, messages)):
            checked[i] = (columns, row, message)
    return checked


def _node_from_record(obj, built: list, used: list, leaf=None) -> tuple[object, list]:
    """One node built from its record, with the indices of its children.

    ``leaf`` is a leaf record's entry from ``_check_leaf_records``.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("every node needs a 'kind' tag")
    kind = obj["kind"]
    cls = _CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FormatError(f"unknown node kind {kind!r}")
    try:
        if leaf is not None:
            columns, row, message = leaf
            if message is not None:
                raise DomainError(message)
            return _unchecked(cls, columns, row), []
        args = _floats(cls, list(_FIELD_GETTERS[cls](obj)))
        kids = []
        if cls in _CHILDREN:
            kids = _take_children(args[_CHILDREN[cls]], built, used)
            args[_CHILDREN[cls]] = [built[c] for c in kids]
        return cls(*args), kids
    except _BAD_FIELD as exc:
        raise FormatError(f"bad {kind} node: {exc}") from exc


def serialize(mspn: Mspn) -> bytes:
    """Canonical JSON bytes for a model."""
    nodes, children = postorder(mspn.root)
    payload = {
        "format_version": FORMAT_VERSION,
        "seed": int(mspn.seed),
        "config": mspn.config.to_dict(),
        "schema": mspn.schema.to_json_dict(),
        "nodes": [_record(node, kids) for node, kids in zip(nodes, children)],
    }
    return (canonical_json(payload) + "\n").encode("utf-8")


def deserialize(data: bytes | str) -> Mspn:
    """Rebuild a model from its serialized form.

    Raises :class:`VersionError` for unsupported ``format_version`` values
    and :class:`FormatError` for anything else wrong with the payload:
    non-finite numbers, reconstructed nodes that fail their own validation,
    node lists that do not form one tree rooted at their last node, and
    the first problem ``structure.node_problems`` or ``root_problems`` finds,
    the same rules ``validate`` applies. So a model that loads passes
    ``validate``. The leaves are checked before the node loop, one
    ``leaves.check_group`` per kind and array lengths, and built from their
    group's matrices; the loop raises the message of the first record in
    file order that fails, as if each leaf had been built on its own.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        obj = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid json: {exc}") from exc
    except RecursionError:
        raise FormatError("json nested too deeply") from None
    if not isinstance(obj, dict):
        raise FormatError("model file must hold a json object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}"
        )
    try:
        schema = Schema.from_json_dict(obj["schema"])
        config = LearnConfig.from_dict(obj["config"])
        records = obj["nodes"]
        declared_seed = obj["seed"]
    except (MspnError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model file: {exc}") from exc
    if declared_seed != config.seed:
        raise FormatError("seed field disagrees with the config snapshot")
    if not isinstance(records, list) or not records:
        raise FormatError("nodes must be a non-empty list")

    built: list = []
    scopes: list[frozenset] = []
    used = [False] * len(records)
    checked = _check_leaf_records(records)
    for i, record in enumerate(records):
        node, kids = _node_from_record(record, built, used, checked.get(i))
        for _, message in node_problems(node, [scopes[c] for c in kids], schema):
            raise FormatError(message)
        scopes.append(frozenset(node.scope))
        built.append(node)
    if not all(used[:-1]):
        raise FormatError(f"node {used.index(False)} is not the child of any node")
    for message in root_problems(scopes[-1], schema):
        raise FormatError(message)
    return Mspn(built[-1], schema, config)


def save_model(mspn: Mspn, path) -> None:
    # serialize first: a model that cannot be saved leaves the path untouched
    data = serialize(mspn)
    with open(path, "wb") as fh:
        fh.write(data)


def load_model(path) -> Mspn:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read model file: {exc}") from exc
    return deserialize(data)
