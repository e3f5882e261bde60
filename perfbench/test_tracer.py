"""Tracer neutrality and hook coverage.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys

import numpy as np
import pytest

import run
import tables
from tracer import HOOKS, Tracer

mspn = run.import_mspn()


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    """The hybrid table at 800 rows: every learn layer runs, in well under a second."""
    folder = tmp_path_factory.mktemp("table")
    csv, schema = folder / "table.csv", folder / "schema.json"
    values = tables.make_hybrid14(tables.HYBRID_SEED, 800)
    tables.write_table(values, tables.HYBRID_COLUMNS, csv, schema)
    return mspn.load_dataset(csv, mspn.load_schema(schema))


def traced_learn(tracer, data):
    tracer.begin_op("learn")
    try:
        return tracer.call("structure.learn_mspn", mspn.learn_mspn, data, mspn.LearnConfig())
    finally:
        tracer.end_op()


def hook_target(module, path):
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def test_every_hook_target_exists_and_uninstall_restores_it():
    originals = [hook_target(module, path) for module, path, _, _ in HOOKS]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert all(hook_target(module, path) is not orig
                   for (module, path, _, _), orig in zip(HOOKS, originals))
    finally:
        tracer.uninstall()
    assert all(hook_target(module, path) is orig
               for (module, path, _, _), orig in zip(HOOKS, originals))


def test_rdc_namespace_is_the_module_not_the_function():
    # the package re-exports the function rdc under the module's name
    assert callable(mspn.rdc) and not hasattr(mspn.rdc, "cca_max_correlation")
    assert hasattr(sys.modules["mspn.rdc"], "cca_max_correlation")


def test_traced_learn_is_bit_identical_to_untraced(small_table):
    plain = mspn.serialize(mspn.learn_mspn(small_table, mspn.LearnConfig()))
    tracer = Tracer()
    tracer.install()
    try:
        model = traced_learn(tracer, small_table)
    finally:
        tracer.uninstall()
    assert mspn.serialize(model) == plain
    spans = tracer.table()
    for name in ("kernels.dp_fill", "numerics.cca_max_correlation", "data.Dataset.select"):
        assert (spans["name"] == tracer.names.index(name)).any()


def test_missing_hook_is_reported_and_its_metrics_left_out(small_table):
    # as if a refactor moved dp_fill out of the namespace that calls it
    hooks = [h if h[2] != "kernels.dp_fill" else ("mspn.leaves",) + h[1:] for h in HOOKS]
    tracer = Tracer()
    tracer.install(hooks)
    try:
        model = traced_learn(tracer, small_table)
    finally:
        tracer.uninstall()
    assert tracer.missing == [("mspn.leaves.dp_fill", "kernels.dp_fill")]
    stats = run.model_stats(mspn, model, len(mspn.serialize(model)))
    metrics = run.layer_metrics(tracer, stats, {}, {})
    assert not any(k.startswith("kernels.dp_fill.") for k in metrics)
    assert metrics["numerics.adaptive_bin_edges.s"][0] > 0.0


def test_self_time_is_duration_minus_direct_children():
    tracer = Tracer()
    tracer.begin_op("learn")
    tracer.call("outer", lambda: tracer.call("inner", lambda: sum(range(20000))))
    tracer.end_op()
    tracer.call("ignored", lambda: None)  # outside an op: no span
    spans = tracer.table()
    assert tracer.names == ["outer", "inner"]
    outer, inner = spans["dur"]
    assert spans["self"][0] == pytest.approx(outer - inner, abs=1e-12)
    assert spans["self"][1] == inner
    assert list(np.frombuffer(tracer.parents, dtype=np.int64)) == [-1, 0]
