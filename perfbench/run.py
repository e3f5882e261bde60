"""End-to-end benchmark of mspn learning and exact queries.

Run from the repository root:

    python3 perfbench/run.py --workload learn-hybrid --seed 1 --seconds 35 --trace 0

One process, one closed-loop client: each op starts when the previous one
has returned. BLAS is pinned to one thread, so the run never has more
threads than the two cores it is sized for. Every op's output is checked;
an op that raises or fails a check counts in ``failed``. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``. A record with the
environment, sample counts and any check failures goes to
``perfbench/results/``. See ``perfbench/README.md`` for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import os

# one BLAS thread: the client thread plus BLAS stays within two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tables
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 2          # set-ups per run; setup_s is their median
SETUP_PROBES = 5        # speed probes right before and after each set-up
LOADS = 20              # load ops per run
MIN_SINGLE_QUERIES = 1000  # so that >= 10 single-row queries lie beyond p99
CHECK_ROWS = 4          # batch rows re-evaluated one by one per batch op
MI_GRID = 64
TOLERANCE = 1e-12

QUERY_KINDS = ("eval", "cond", "mpe", "sample")
ALL_KINDS = QUERY_KINDS + ("batch", "mi")
# ops that start from a fresh garbage collection, so the collections they
# trigger themselves fall at the same points on every repetition
COLLECTED_KINDS = ("learn", "load", "batch", "mi")
# the reference kernel (see speed.py) each kind's timings are scaled by:
# per-node Python work for loads and single-row queries, array work over
# thousands of rows for the rest
KERNEL_OF = {"setup": "array", "learn": "array", "load": "walk",
             "batch": "array", "mi": "array", **{kind: "walk" for kind in QUERY_KINDS}}


@dataclass(frozen=True)
class Workload:
    table: str   # "hybrid" or "categorical"
    # ops spread evenly over the measured window; the single-row query
    # stream fills the time between them
    learns: int
    batches: int
    mis: int


WORKLOADS = {
    "learn-hybrid": Workload("hybrid", learns=3, batches=10, mis=8),
    "learn-categorical": Workload("categorical", learns=3, batches=15, mis=12),
}

TABLES = {
    "hybrid": (tables.make_hybrid14, tables.HYBRID_SEED, tables.HYBRID_ROWS,
               tables.HYBRID_COLUMNS, tables.HYBRID_NODES),
    "categorical": (tables.make_categorical14, tables.CATEGORICAL_SEED,
                    tables.CATEGORICAL_ROWS, tables.CATEGORICAL_COLUMNS, None),
}

E2E_UNITS = {
    "setup_s": "s", "learn_s": "s", "load_ms": "ms",
    "eval_p50_ms": "ms", "cond_p50_ms": "ms", "mpe_p50_ms": "ms",
    "sample_p50_ms": "ms", "query_p99_ms": "ms", "batch_rows_per_s": "1/s",
    "mi_s": "s", "peak_rss_mb": "MB",
}


def import_mspn():
    """Import mspn from this checkout's ``src``; exit if it is not there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mspn
    except ImportError as exc:
        raise SystemExit(f"cannot import mspn from {src}: {exc}") from None
    if not Path(mspn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mspn was imported from {mspn.__file__}, not from {src}")
    return mspn


class Session:
    """One run: set-up, measured ops, checks and the samples they leave."""

    def __init__(self, mspn, workload: Workload, seed: int, traced: bool, workdir: Path):
        self.m = mspn
        self.workload = workload
        self.traced = traced
        self.tracer: Tracer | None = None  # set once the hooks are in
        self.rng = np.random.default_rng([seed, 0])
        self.sample_rng = np.random.default_rng([seed, 1])
        self.check_rng = np.random.default_rng([seed, 2])
        self.csv = workdir / "table.csv"
        self.schema = workdir / "schema.json"
        self.model_path = workdir / "model.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.speed = SpeedProbe()
        # timing samples are (start, elapsed) pairs, scaled by self.speed
        self.setup_times: list[tuple[float, float]] = []
        self.learn_times: list[tuple[float, float]] = []
        self.times: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.visits: dict[str, list[int]] = defaultdict(list)
        self.first_bytes: bytes | None = None
        self.node_count = 0
        self.stats: dict[str, float] = {}
        self.rows: np.ndarray | None = None
        self.model = None
        self.batch_ref: np.ndarray | None = None
        self.mi_ref = None
        self._k_cycle: list[int] = []

    # -- plumbing --------------------------------------------------------

    def _op(self, kind: str, body) -> None:
        """Run one op; ``body`` returns a problem string or None."""
        self.attempted += 1
        try:
            problem = body()
        except Exception as exc:  # a failing op is counted and the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        self.speed.probe()
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: {problem}")

    def _timed(self, kind: str, fn, *args, **kwargs):
        """Call ``fn`` as one timed op; returns (result, (start, seconds))."""
        if kind in COLLECTED_KINDS:
            gc.collect()
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_op()
        return out, (start, elapsed)

    def _span(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def _counter(self):
        return Counter() if self.tracer is not None else None

    def _visits(self, kind: str, counter) -> str | None:
        if counter is None:
            return None
        total = sum(counter.values())
        self.visits[kind].append(total)
        if total > 2 * self.node_count or max(counter.values()) > 2:
            return f"visit budget exceeded: {total} visits on {self.node_count} nodes"
        return None

    # -- learning --------------------------------------------------------

    def write_table(self) -> None:
        make, seed, rows, columns, _ = TABLES[self.workload.table]
        tables.write_table(make(seed, rows), columns, self.csv, self.schema)

    def learn_op(self) -> None:
        m = self.m

        def learn():
            schema = m.load_schema(self.schema)
            data = self._span("data.load_dataset", m.load_dataset, self.csv, schema)
            model = self._span("structure.learn_mspn", m.learn_mspn, data, m.LearnConfig())
            self._span("serialize.save_model", m.save_model, model, self.model_path)
            return data, model

        def body():
            (data, model), timing = self._timed("learn", learn)
            self.learn_times.append(timing)
            saved = self.model_path.read_bytes()
            report = m.validate(model)
            if not report.ok:
                return f"learned model is invalid: {report}"
            if saved != m.serialize(model):
                return "saved file differs from serialize(model)"
            if m.serialize(m.deserialize(saved)) != saved:
                return "serialize -> deserialize -> serialize is not bit-identical"
            expected = TABLES[self.workload.table][4]
            if expected is not None and model.node_count != expected:
                return f"{model.node_count} nodes, expected {expected}"
            if self.first_bytes is None:
                self.first_bytes = saved
                self.node_count = model.node_count
                self.rows = data.values
                self.stats = model_stats(m, model, len(saved))
            elif model.node_count != self.node_count:
                return f"{model.node_count} nodes, first learn of the run had {self.node_count}"
            elif saved != self.first_bytes:
                # also how a traced learn is shown identical to the untraced first one
                return "model bytes differ from the first learn of the run"
            return None

        self._op("learn", body)

    # -- queries ---------------------------------------------------------

    def load_op(self, record: bool = True) -> None:
        m = self.m

        def body():
            model, timing = self._timed(
                "load", self._span, "serialize.load_model", m.load_model, self.model_path
            )
            if record:
                self.times["load"].append(timing)
            self.model = model
            if m.serialize(model) != self.first_bytes:
                return "loaded model re-serializes to different bytes"
            return None

        self._op("load", body)

    def _next_k(self) -> int:
        # observed-variable counts cycle through 1..n in seeded order, so every
        # seed spreads its queries evenly over the mask sizes
        if not self._k_cycle:
            self._k_cycle = list(self.rng.permutation(np.arange(1, self.model.n_vars + 1)))
        return int(self._k_cycle.pop())

    def query_unit(self, record: bool = True) -> None:
        """One draw of evidence, queried as eval, cond, mpe and sample."""
        m, model = self.m, self.model
        n = model.n_vars
        row = self.rows[int(self.rng.integers(self.rows.shape[0]))]
        chosen = self.rng.choice(n, self._next_k(), replace=False)
        split = int(self.rng.integers(0, chosen.size))
        observed = np.zeros(n, dtype=bool)
        observed[chosen] = True
        given_mask = np.zeros(n, dtype=bool)
        given_mask[chosen[:split]] = True
        evidence = m.Evidence(row, observed)
        given = m.Evidence(row, given_mask)
        query = m.Evidence(row, observed & ~given_mask)
        full = np.ones(n, dtype=bool)
        found = {}

        def keep(kind, timing):
            if record:
                self.times[kind].append(timing)

        def eval_body():
            counter = self._counter()
            value, timing = self._timed("eval", self._span, "inference.eval",
                                         lambda: m.log_evaluate(model, evidence, counter))
            keep("eval", timing)
            found["eval"] = value
            if not np.isfinite(value):
                return f"log_evaluate of a training row is {value}"
            return self._visits("eval", counter)

        def cond_body():
            counter = self._counter()
            value, timing = self._timed("cond", self._span, "inference.cond",
                                         lambda: m.log_conditional(model, query, given, counter))
            keep("cond", timing)
            # query.merged(given) is this draw's evidence, so the eval query
            # already holds log_evaluate(merged) unless it failed
            joint = found.get("eval")
            if joint is None:
                joint = m.log_evaluate(model, query.merged(given))
            expect = joint - m.log_evaluate(model, given)
            if not abs(value - expect) <= TOLERANCE:
                return f"log_conditional {value!r} != joint - given {expect!r}"
            return self._visits("cond", counter)

        def mpe_body():
            counter = self._counter()
            (assignment, value), timing = self._timed(
                "mpe", self._span, "inference.mpe",
                lambda: m.mpe(model, evidence, counter))
            keep("mpe", timing)
            if not np.array_equal(assignment[observed], row[observed]):
                return "mpe changed observed values"
            direct = m.log_evaluate(model, m.Evidence(assignment, full))
            if not abs(value - direct) <= TOLERANCE:
                return f"mpe value {value!r} != log_evaluate of its assignment {direct!r}"
            return self._visits("mpe", counter)

        def sample_body():
            counter = self._counter()
            draw, timing = self._timed(
                "sample", self._span, "inference.sample",
                lambda: m.sample(model, evidence, self.sample_rng, counter))
            keep("sample", timing)
            if not np.array_equal(draw[observed], row[observed]):
                return "sample changed observed values"
            density = m.log_evaluate(model, m.Evidence(draw, full))
            if not np.isfinite(density):
                return f"sampled row has log density {density}"
            return self._visits("sample", counter)

        for kind, body in (("eval", eval_body), ("cond", cond_body),
                           ("mpe", mpe_body), ("sample", sample_body)):
            self._op(kind, body)

    def batch_op(self, record: bool = True) -> None:
        m, model, rows = self.m, self.model, self.rows
        full = np.ones(model.n_vars, dtype=bool)

        def body():
            out, timing = self._timed("batch", self._span, "inference.batch",
                                       m.log_evaluate_batch, model, rows, full)
            if record:
                self.times["batch"].append(timing)
            if self.batch_ref is None:
                if not np.all(np.isfinite(out)):
                    return "batch log values of training rows are not all finite"
                self.batch_ref = out
            elif not np.array_equal(out, self.batch_ref):
                return "batch result differs between repetitions"
            for r in self.check_rng.choice(rows.shape[0], CHECK_ROWS, replace=False):
                single = m.log_evaluate(model, m.Evidence(rows[r], full))
                if not abs(out[r] - single) <= TOLERANCE:
                    return f"batch row {r} is {out[r]!r}, single-row {single!r}"
            return None

        self._op("batch", body)

    def mi_op(self) -> None:
        m, model = self.m, self.model

        def body():
            graph, timing = self._timed("mi", self._span, "inference.mi",
                                         m.mi_graph, model, MI_GRID)
            self.times["mi"].append(timing)
            mi, nmi = graph.mi, graph.nmi
            if not (np.array_equal(mi, mi.T) and np.array_equal(nmi, nmi.T)):
                return "mutual information is not symmetric"
            # independent pairs come out as rounding noise around 0 (down to
            # -5.3e-16 at the time of writing), so mi >= 0 holds to TOLERANCE
            if not np.all(mi >= -TOLERANCE):
                return f"mutual information {mi.min()!r} < 0"
            if not np.all((nmi >= 0.0) & (nmi <= 1.0)):
                return "normalized mutual information outside [0, 1]"
            if self.mi_ref is not None and not np.array_equal(mi, self.mi_ref):
                return "mi_graph differs between repetitions"
            self.mi_ref = mi
            return None

        self._op("mi", body)

    def marginal_op(self) -> None:
        m, model = self.m, self.model

        def body():
            value = m.log_evaluate(model, m.Evidence.marginalized(model.n_vars))
            if value != 0.0:
                return f"all-marginalized evidence gives {value!r}, not 0"
            return None

        self._op("marginal", body)

    # -- phases ----------------------------------------------------------

    def setup(self) -> None:
        """Write the table, learn it once (the warm-up op) and warm the queries.

        The first learn of a process runs slower than later ones, and
        ``mspn learn`` on the command line pays that every time; it lands
        here, in setup_s, rather than in learn_s.
        """
        for rep in range(SETUP_REPS):
            # probes right before and after each set-up give the speed it ran at
            self.speed.probe(at_least=SETUP_PROBES)
            start = perf_counter()
            self.write_table()
            self.learn_op()
            if self.first_bytes is None:
                raise SystemExit("set-up learn failed: " + "; ".join(self.problems))
            self.load_op(record=False)
            if self.model is None:
                raise SystemExit("set-up load failed: " + "; ".join(self.problems))
            self.query_unit(record=False)
            self.batch_op(record=False)
            self.setup_times.append((start, perf_counter() - start))
            if rep == 0 and self.traced:
                # hooks go in after the first, untraced set-up, whose learned
                # bytes every traced learn must then reproduce
                self.tracer = Tracer()
                self.tracer.install()
        self.speed.probe(at_least=SETUP_PROBES)

    def measure(self, seconds: float) -> None:
        """Interleave the workload's ops with the query stream for ``seconds``.

        The i-th of c ops of a kind is due at (i + 1/2) / c of the window, so
        every metric's samples spread over the whole run instead of one
        stretch of it. The stream goes on past the window until it has
        MIN_SINGLE_QUERIES single-row queries.
        """
        wl = self.workload
        ops = {"learn": self.learn_op, "load": self.load_op,
               "batch": self.batch_op, "mi": self.mi_op}
        due = sorted(((i + 0.5) / count * seconds, kind)
                     for kind, count in (("learn", wl.learns), ("load", LOADS),
                                         ("batch", wl.batches), ("mi", wl.mis))
                     for i in range(count))
        self.marginal_op()
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if due and due[0][0] <= elapsed:
                ops[due.pop(0)[1]]()
            elif due or elapsed < seconds or len(self.times["eval"]) * 4 < MIN_SINGLE_QUERIES:
                self.query_unit()
            else:
                break

    # -- results ---------------------------------------------------------

    def end_to_end(self, scaled: bool = True) -> dict[str, tuple[float, int]]:
        """Metric name -> (value, sample count); metrics without samples are left out.

        Timings are scaled to the reference machine speed (see speed.py);
        ``scaled=False`` gives the raw wall-clock numbers.
        """
        samples = dict(self.times, setup=self.setup_times, learn=self.learn_times[1:])
        d = {kind: (self.speed.scale(xs, KERNEL_OF[kind]) if scaled
                    else np.array([e for _, e in xs]))
             for kind, xs in samples.items() if xs}
        out = {}
        for name, kind, factor in (("setup_s", "setup", 1.0), ("learn_s", "learn", 1.0),
                                   ("load_ms", "load", 1e3), ("mi_s", "mi", 1.0)):
            if kind in d:
                out[name] = (factor * float(np.median(d[kind])), d[kind].size)
        for kind in QUERY_KINDS:
            if kind in d:
                out[f"{kind}_p50_ms"] = (1e3 * float(np.median(d[kind])), d[kind].size)
        pooled = [d[kind] for kind in QUERY_KINDS if kind in d]
        if pooled:
            pooled = np.concatenate(pooled)
            out["query_p99_ms"] = (1e3 * float(np.percentile(pooled, 99)), pooled.size)
        if "batch" in d:
            out["batch_rows_per_s"] = (self.rows.shape[0] / float(np.median(d["batch"])),
                                       d["batch"].size)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = (peak_kb / 1024.0, 1)
        return out


def model_stats(m, model, n_bytes: int) -> dict[str, float]:
    counts = Counter()
    depth = 0
    for path, node in m.iter_nodes(model.root):
        depth = max(depth, path.count("."))
        if isinstance(node, m.SumNode):
            counts["sum"] += 1
        elif isinstance(node, m.ProductNode):
            counts["product"] += 1
        else:
            counts["leaf"] += 1
    return {
        "structure.nodes": float(sum(counts.values())),
        "structure.sum_nodes": float(counts["sum"]),
        "structure.product_nodes": float(counts["product"]),
        "structure.leaves": float(counts["leaf"]),
        "structure.depth": float(depth),
        "serialize.bytes": float(n_bytes),
    }


# learn-layer spans: (span name, reported quantities); values are per learn op
LEARN_LAYERS = (
    ("kernels.dp_fill", ("s", "calls", "cells")),
    ("numerics.adaptive_bin_edges", ("s",)),
    ("leaves.fit_histogram", ("s",)),
    ("leaves.fit_isotonic_pwl", ("s",)),
    ("kernels.pava_nondecreasing", ("s",)),
    ("numerics.cca_max_correlation", ("s", "calls", "rows")),
    ("numerics.kmeans", ("s",)),
    ("kernels.lloyd", ("s", "calls", "point_dims")),
    ("rdc.split_features", ("s", "calls", "useful_ratio")),
    ("rdc.cluster_samples", ("s", "calls", "useful_ratio")),
    ("data.load_dataset", ("s",)),
    ("data.Dataset.select", ("s", "calls")),
    ("data.copula_transform", ("s",)),
    ("serialize.save_model", ("s",)),
)
# query-layer spans, reported per query kind as <name>.<quantity>.<kind>
QUERY_LAYERS = ("leaves.leaf_density_batch", "numerics.weighted_logsumexp")
UNITS = {"s": "s", "calls": "count", "cells": "count", "rows": "count",
         "point_dims": "count", "useful_ratio": "ratio"}
TRACED_E2E = ("learn_s", "eval_p50_ms", "cond_p50_ms", "mpe_p50_ms",
              "sample_p50_ms", "batch_rows_per_s", "mi_s")


def layer_metrics(tracer: Tracer, stats: dict, visits: dict,
                  e2e: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.

    ``stats`` holds the model's exact counts (see ``model_stats``),
    ``visits`` the node-visit totals per query kind and ``e2e`` the traced
    run's own end-to-end numbers.
    """
    spans = tracer.table()
    names = tracer.names
    kinds = np.array(tracer.op_kinds + ["none"])  # op -1 maps to "none"
    span_kind = kinds[spans["op"]]
    n_ops = Counter(tracer.op_kinds)
    out: dict[str, tuple[float, str]] = {}

    def select(name, kind):
        if name not in names:
            return np.zeros(len(span_kind), dtype=bool)
        return (spans["name"] == names.index(name)) & (span_kind == kind)

    n_learn = max(n_ops["learn"], 1)
    for name, quantities in LEARN_LAYERS:
        sel = select(name, "learn")
        calls = float(sel.sum())
        for q in quantities:
            if q == "s":
                value = float(spans["dur"][sel].sum()) / n_learn
            elif q == "calls":
                value = calls / n_learn
            elif q == "useful_ratio" and name == "rdc.cluster_samples":
                value = stats["structure.sum_nodes"] / max(calls / n_learn, 1.0)
            elif q == "useful_ratio":
                value = float(spans["qty"][sel].sum()) / max(calls, 1.0)
            else:
                value = float(spans["qty"][sel].sum()) / n_learn
            out[f"{name}.{q}"] = (value, UNITS[q])

    # leaf fits the learner asks for, not the histogram inside an isotonic fit
    iso = names.index("leaves.fit_isotonic_pwl") if "leaves.fit_isotonic_pwl" in names else -2
    parents = np.frombuffer(tracer.parents, dtype=np.int64)
    parent_name = np.where(parents >= 0, spans["name"][parents], -1)
    fits = (select("leaves.fit_histogram", "learn") | select("leaves.fit_isotonic_pwl", "learn"))
    out["leaves.fit.calls"] = (float((fits & (parent_name != iso)).sum()) / n_learn, "count")

    sel = select("structure.learn_mspn", "learn")
    out["structure.learn_mspn.self_s"] = (float(spans["self"][sel].sum()) / n_learn, "s")
    for key, value in stats.items():
        out[key] = (value, "B" if key == "serialize.bytes" else "count")
    sel = select("serialize.load_model", "load")
    out["serialize.load_model.s"] = (float(spans["dur"][sel].sum()) / max(n_ops["load"], 1), "s")

    for kind in ALL_KINDS:
        per_op = max(n_ops[kind], 1)
        sel = select(f"inference.{kind}", kind)
        self_ms = 1e3 * float(np.median(spans["self"][sel])) if sel.any() else 0.0
        out[f"inference.{kind}.self_ms"] = (self_ms, "ms")
        for name in QUERY_LAYERS:
            sel = select(name, kind)
            out[f"{name}.s.{kind}"] = (float(spans["dur"][sel].sum()) / per_op, "s")
            out[f"{name}.calls.{kind}"] = (float(sel.sum()) / per_op, "count")
    sel = select("leaves.leaf_sample", "sample")
    out["leaves.leaf_sample.s"] = (float(spans["dur"][sel].sum()) / max(n_ops["sample"], 1), "s")
    for kind in QUERY_KINDS:
        counts = visits.get(kind)
        out[f"inference.visits.{kind}"] = (float(np.mean(counts)) if counts else 0.0, "count")
    for name in TRACED_E2E:
        if name in e2e:
            out[f"traced.{name}"] = (e2e[name][0], E2E_UNITS[name])

    # a hook whose target is gone is reported missing, never as 0
    missing = tracer.missing_names()
    if missing & {"leaves.fit_histogram", "leaves.fit_isotonic_pwl"}:
        del out["leaves.fit.calls"]
    return {k: v for k, v in out.items() if not any(k.startswith(f"{n}.") for n in missing)}


# -- environment record -------------------------------------------------


def blas_info() -> tuple[str, int | None]:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return name, int(fn())
    return name, None


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(mspn, args) -> dict:
    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_enabled": bool(sys.modules["mspn._kernels"].NUMBA_ENABLED),
        "commit": commit_id(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report_overhead(results: Path, args, e2e: dict) -> None:
    """Print traced vs untraced end-to-end numbers when both runs exist."""
    other = results / f"{args.workload}-seed{args.seed}-trace{1 - args.trace}.json"
    try:
        record = json.loads(other.read_text())
    except (OSError, ValueError):
        return
    traced_run, plain_run = (e2e, record["metrics"]) if args.trace else (record["metrics"], e2e)
    traced = {k[len("traced."):]: v["value"] for k, v in traced_run.items()
              if k.startswith("traced.")}
    plain = {k: v["value"] for k, v in plain_run.items()}
    for name in TRACED_E2E:
        if name in traced and name in plain and plain[name]:
            print(f"tracing overhead {name}: {traced[name] / plain[name] - 1.0:+.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mspn = import_mspn()
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(mspn, WORKLOADS[args.workload], args.seed, bool(args.trace), workdir)
    try:
        session.setup()
        session.measure(args.seconds)
    finally:
        if session.tracer is not None:
            session.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = session.end_to_end()
    for name, (value, n) in e2e.items():
        print(f"{name:>18} {value:14.6g} {E2E_UNITS[name]:<4} (n={n})")
    if args.trace:
        tracer = session.tracer
        tracer.write(results / f"{args.workload}-seed{args.seed}.spans.npz")
        for target, _ in tracer.missing:
            print(f"missing hook target: {target}", file=sys.stderr)
        layers = layer_metrics(tracer, session.stats, session.visits, e2e)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()}
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    env = environment(mspn, args)
    print("environment " + json.dumps(env))
    record = {
        "environment": env,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "missing_hooks": [t for t, _ in session.tracer.missing] if args.trace else [],
        "samples": {k: n for k, (_, n) in e2e.items()},
        "unscaled": {k: v for k, (v, _) in session.end_to_end(scaled=False).items()},
        "reference_kernel_ms": {name: 1e3 * float(np.median(times))
                                for name, times in session.speed.times.items()},
        "metrics": metrics,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    report_overhead(results, args, metrics)

    correct = session.failed == 0 and session.attempted > 0
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
