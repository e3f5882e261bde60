"""Model persistence: canonical JSON with byte-stable round trips.

The emitter sorts object keys and prints every float with 17 significant
digits, which round-trips IEEE doubles exactly. Serializing a model twice,
or serializing a deserialized model, therefore produces identical bytes,
and two learning runs with the same seed produce identical files.

A model file (format 2) is one object with ``format_version``, ``seed``,
``config``, ``schema`` and ``nodes``: the tree flattened by
``structure.postorder``, so children come before their parent and the
root is the last node. Sum and product records name their children by
index into ``nodes``; leaf records hold their own parameters. No array
nests deeper than a few levels and neither direction recurses, so a tree
of any depth saves and loads.
"""

from __future__ import annotations

import json

import numpy as np

from .data import Schema
from .errors import DomainError, FormatError, MspnError, VersionError
from .leaves import HistogramLeaf, PiecewiseLinearLeaf, _unchecked, check_group
from .structure import (
    LearnConfig, Mspn, ProductNode, SumNode, node_problems, postorder, root_problems,
)

FORMAT_VERSION = 2

_LEAVES = {"histogram": HistogramLeaf, "piecewise_linear": PiecewiseLinearLeaf}
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


def _node_record(node, children) -> dict:
    if isinstance(node, SumNode):
        return {
            "kind": "sum",
            "scope": [int(v) for v in node.scope],
            "weights": [float(w) for w in node.weights],
            "children": children,
        }
    if isinstance(node, ProductNode):
        return {"kind": "product", "scope": [int(v) for v in node.scope], "children": children}
    if isinstance(node, HistogramLeaf):
        return {
            "kind": "histogram",
            "variable": int(node.variable),
            "domain": node.domain,
            "edges": [float(e) for e in node.edges],
            "masses": [float(m) for m in node.masses],
            "smoothing": float(node.smoothing),
            "unseen_mass": float(node.unseen_mass),
        }
    if isinstance(node, PiecewiseLinearLeaf):
        return {
            "kind": "piecewise_linear",
            "variable": int(node.variable),
            "domain": node.domain,
            "knots_x": [float(x) for x in node.knots_x],
            "knots_y": [float(y) for y in node.knots_y],
            "mode_index": int(node.mode_index),
        }
    raise FormatError(f"cannot serialize node type {type(node).__name__}")


def _integer(value, what: str) -> int:
    # bool is an int subclass, and a float such as 0.9 must not load as 0
    if type(value) is not int:
        raise FormatError(f"{what} {value!r} is not an integer")
    return value


def _scope(obj) -> tuple:
    return tuple(_integer(v, "scope entry") for v in obj["scope"])


def _take_children(obj, built: list, used: list) -> list:
    """The indices of the already-built children a record names.

    Each child is claimed by one parent only.
    """
    kids = obj["children"]
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


def _leaf_args(obj) -> tuple:
    """A leaf record's constructor arguments; the arrays as the record holds them."""
    variable, domain = _integer(obj["variable"], "leaf variable"), str(obj["domain"])
    if obj["kind"] == "histogram":
        return (variable, domain, obj["edges"], obj["masses"], float(obj["smoothing"]),
                float(obj["unseen_mass"]))
    return (variable, domain, obj["knots_x"], obj["knots_y"],
            _integer(obj["mode_index"], "mode_index"))


def _check_leaf_records(records: list) -> dict:
    """Each grouped leaf record's index -> (class, group columns, row, message or None).

    Leaf records whose fields read and whose two arrays are lists are
    grouped by kind and array lengths, and each group goes through one
    ``check_group``. A record left out, or in a group whose arrays do not
    convert, is built on its own by the node loop, which raises its error.
    """
    groups: dict = {}
    for i, obj in enumerate(records):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if not (isinstance(kind, str) and kind in _LEAVES):
            continue
        try:
            args = _leaf_args(obj)
        except _BAD_FIELD:
            continue
        if type(args[2]) is list and type(args[3]) is list:
            groups.setdefault((kind, len(args[2]), len(args[3])), []).append((i, args))
    checked = {}
    for (kind, _, _), members in groups.items():
        try:
            columns, messages = check_group(_LEAVES[kind], [args for _, args in members])
        except (TypeError, ValueError, OverflowError):
            continue
        for row, ((i, _), message) in enumerate(zip(members, messages)):
            checked[i] = (_LEAVES[kind], columns, row, message)
    return checked


def _node_from_record(obj, built: list, used: list, leaf=None) -> tuple[object, list]:
    """One node built from its record, with the indices of its children.

    ``leaf`` is a leaf record's entry from ``_check_leaf_records``.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("every node needs a 'kind' tag")
    kind = obj["kind"]
    try:
        if leaf is not None:
            cls, columns, row, message = leaf
            if message is not None:
                raise DomainError(message)
            return _unchecked(cls, columns, row), []
        if kind == "sum":
            kids = _take_children(obj, built, used)
            return SumNode(_scope(obj), obj["weights"], tuple(built[c] for c in kids)), kids
        if kind == "product":
            kids = _take_children(obj, built, used)
            return ProductNode(_scope(obj), tuple(built[c] for c in kids)), kids
        if isinstance(kind, str) and kind in _LEAVES:
            return _LEAVES[kind](*_leaf_args(obj)), []
    except _BAD_FIELD as exc:
        raise FormatError(f"bad {kind} node: {exc}") from exc
    raise FormatError(f"unknown node kind {kind!r}")


def serialize(mspn: Mspn) -> bytes:
    """Canonical JSON bytes for a model."""
    nodes, children = postorder(mspn.root)
    payload = {
        "format_version": FORMAT_VERSION,
        "seed": int(mspn.seed),
        "config": mspn.config.to_dict(),
        "schema": mspn.schema.to_json_dict(),
        "nodes": [_node_record(node, kids.tolist()) for node, kids in zip(nodes, children)],
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
