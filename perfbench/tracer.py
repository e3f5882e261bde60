"""In-memory span tracer for the benchmark's traced run.

Spans are recorded at layer boundaries by rebinding public ``mspn``
functions in the namespace that calls them. Modules import these names
with ``from .x import y``, so patching the defining module would miss the
call: ``dp_fill`` is rebound inside ``mspn.numerics``, ``leaf_density_batch``
inside ``mspn.inference``, and so on. ``mspn.rdc`` as an attribute of the
package is the re-exported function ``rdc``, so namespaces are looked up
in ``sys.modules``.

A span records its name, start, end, parent span and the op it belongs
to; spans open only while an op is open, so untimed check code adds
nothing. Self time is a span's duration minus the time its direct
children cover. A hook whose target no longer exists is listed in
``missing`` and the metrics it feeds are left out, never reported as 0.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


def _dp_cells(args, out) -> float:
    # inner-loop candidates of the binning DP for an (n, n) segment table:
    # sum over bin counts j and end boundaries p >= j of (p - j + 1)
    n = args[0].shape[0]
    return n * (n + 1) * (n + 2) / 6.0


def _rows(args, out) -> float:
    return float(np.shape(args[0])[0])


def _point_dims(args, out) -> float:
    m, d = np.shape(args[0])
    return float(m * d)


def _split_useful(args, out) -> float:
    return 1.0 if len(out.groups) > 1 else 0.0


# (calling namespace, attribute path, span name, per-call quantity)
HOOKS = (
    ("mspn.numerics", "dp_fill", "kernels.dp_fill", _dp_cells),
    ("mspn.numerics", "pava_nondecreasing", "kernels.pava_nondecreasing", None),
    ("mspn.numerics", "lloyd", "kernels.lloyd", _point_dims),
    ("mspn.leaves", "adaptive_bin_edges", "numerics.adaptive_bin_edges", None),
    ("mspn.rdc", "cca_max_correlation", "numerics.cca_max_correlation", _rows),
    ("mspn.rdc", "kmeans", "numerics.kmeans", None),
    ("mspn.rdc", "copula_transform", "data.copula_transform", None),
    ("mspn.structure", "split_features", "rdc.split_features", _split_useful),
    ("mspn.structure", "cluster_samples", "rdc.cluster_samples", None),
    ("mspn.structure", "fit_histogram", "leaves.fit_histogram", None),
    ("mspn.structure", "fit_isotonic_pwl", "leaves.fit_isotonic_pwl", None),
    # fit_isotonic_pwl fits its histogram through the leaves namespace
    ("mspn.leaves", "fit_histogram", "leaves.fit_histogram", None),
    ("mspn.data", "Dataset.select", "data.Dataset.select", None),
    ("mspn.inference", "leaf_density_batch", "leaves.leaf_density_batch", None),
    ("mspn.inference", "weighted_logsumexp", "numerics.weighted_logsumexp", None),
    ("mspn.inference", "leaf_sample", "leaves.leaf_sample", None),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a hook target, or None if absent."""
    owner = sys.modules.get(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Span store plus the hooks that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.quantities = array("d")
        self.op_kinds: list[str] = []
        self.missing: list[tuple[str, str]] = []  # (target, span name)
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- ops and spans ---------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1

    def end_op(self) -> None:
        self._op = -1

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ops.append(self._op)
        self.quantities.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (when an op is open)."""
        if self._op < 0:
            return fn(*args, **kwargs)
        i = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def wrap(self, fn, name: str, quantity=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if quantity is not None:
                tracer.quantities[i] = quantity(args, out)
            return out

        return traced

    # -- hooks -----------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        for module_name, path, name, quantity in hooks:
            target = _resolve(module_name, path)
            if target is None:
                self.missing.append((f"{module_name}.{path}", name))
                continue
            owner, attr = target
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(original, name, quantity))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def table(self):
        """Per-span arrays: name id, op index, duration, self time, quantity."""
        start = np.frombuffer(self.starts, dtype=np.float64)
        dur = np.frombuffer(self.ends, dtype=np.float64) - start
        parents = np.frombuffer(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int64),
            "op": np.frombuffer(self.ops, dtype=np.int64),
            "dur": dur,
            "self": dur - covered,
            "qty": np.frombuffer(self.quantities, dtype=np.float64),
        }

    def missing_names(self) -> set[str]:
        return {name for _, name in self.missing}

    def write(self, path) -> None:
        """Save every span (name, start, end, parent, op) as a .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            op=np.frombuffer(self.ops, dtype=np.int64),
            op_kinds=np.array(self.op_kinds),
        )
