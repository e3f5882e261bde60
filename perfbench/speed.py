"""Machine-speed probe: fixed reference kernels timed between the ops.

On a shared two-core VM the same deterministic work runs up to 65% slower
for stretches of ten to thirty seconds at a time, then fast again. CPU
time moves with wall time, so the machine itself runs slower; the process
is not just descheduled. The slow spells do not slow every kind of work
alike: per-node Python work slows more than array work over thousands of
rows. So the probe times two kernels, each shaped like one half of mspn's
work, and no mspn code:

- ``walk``: one small sum-product tree walked for a single row, the
  per-node Python overhead that dominates single-row queries and loading;
- ``array``: a smaller tree walked over a 5000-row block, the array work
  that dominates batch evaluation and the MI graph.

``SpeedProbe.scale`` turns an op's measured time into the time it would
have taken on a machine where the kernel takes its ``NOMINAL_S``. It
divides by the kernel's speed around the op: the mean of the median kernel
time in the ``WINDOW_S`` before the op started and the median in the
``WINDOW_S`` after it ended. Because the kernels are no part of mspn, a
change to mspn moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel times the scaled timings refer to: about what each kernel takes on
# a 2-vCPU Xeon VM when the host is quiet
NOMINAL_S = {"walk": 0.001, "array": 0.0015}
PERIOD_S = 0.1         # one probe per this much elapsed time
MAX_BURST = 10         # probes run at once after a long op
WINDOW_S = 0.5         # probes this close before or after an op scale it


class _Leaf:
    __slots__ = ("var", "xs", "ys")

    def __init__(self, var, xs, ys):
        self.var, self.xs, self.ys = var, xs, ys


class _Sum:
    __slots__ = ("weights", "children")

    def __init__(self, weights, children):
        self.weights, self.children = weights, children


class _Product:
    __slots__ = ("children",)

    def __init__(self, children):
        self.children = children


def _build(depth: int, var: int, rng):
    if depth == 0:
        return _Leaf(var % 6, np.sort(rng.random(12)), rng.random(12) + 0.1)
    if depth % 2:
        return _Sum(np.full(3, 1.0 / 3.0), [_build(depth - 1, var + i, rng) for i in range(3)])
    return _Product([_build(depth - 1, var + 2 * i, rng) for i in range(2)])


def _walk(node, values):
    if isinstance(node, _Sum):
        logs = np.stack([_walk(c, values) for c in node.children])
        top = np.max(logs, axis=0)
        return top + np.log(node.weights @ np.exp(logs - top))
    if isinstance(node, _Product):
        out = np.zeros(values.shape[0])
        for c in node.children:
            out = out + _walk(c, values)
        return out
    return np.log(np.interp(values[:, node.var], node.xs, node.ys))


# small sum-product trees of their own (no mspn code): a 108-leaf tree for
# one query row, and an 18-leaf tree for a batch-sized block of rows
_WALK_TREE = _build(5, 0, np.random.default_rng(0))
_ROW = np.full((1, 6), 0.5)
_ARRAY_TREE = _build(3, 0, np.random.default_rng(1))
_BLOCK = np.linspace(0.01, 1.0, 5000 * 6).reshape(5000, 6)

KERNELS = {
    "walk": lambda: _walk(_WALK_TREE, _ROW),
    "array": lambda: _walk(_ARRAY_TREE, _BLOCK),
}


class SpeedProbe:
    """Reference-kernel timings spread over a run, and scaling by them."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: dict[str, list[float]] = {name: [] for name in KERNELS}
        self._last = perf_counter()

    def probe(self, at_least: int = 0) -> None:
        """Run one probe per PERIOD_S elapsed since the last one (at most MAX_BURST).

        A probe times each kernel once; ``at_least`` probes run regardless.
        """
        due = int((perf_counter() - self._last) / PERIOD_S)
        for _ in range(max(min(due, MAX_BURST), at_least)):
            self.stamps.append(perf_counter())
            for name, kernel in KERNELS.items():
                start = perf_counter()
                kernel()
                self.times[name].append(perf_counter() - start)
        if due or at_least:
            self._last = perf_counter()

    def scale(self, samples, kernel: str) -> np.ndarray:
        """Scaled durations of (start, elapsed) samples, by the speed of ``kernel``."""
        stamps = np.asarray(self.stamps)
        times = np.asarray(self.times[kernel])
        overall = float(np.median(times))
        out = []
        for start, elapsed in samples:
            end = start + elapsed
            before = times[(stamps < start) & (stamps >= start - WINDOW_S)]
            after = times[(stamps > end) & (stamps <= end + WINDOW_S)]
            near = [float(np.median(t)) for t in (before, after) if t.size]
            ref = sum(near) / len(near) if near else overall
            out.append(elapsed * NOMINAL_S[kernel] / ref)
        return np.asarray(out)
