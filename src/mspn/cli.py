"""Command-line interface.

Subcommands: learn, loglik, query, mpe, sample, mi, validate. Exit codes
are 0 on success, 1 for usage problems (bad flags or hyperparameter
values), 2 for data/schema/model-file problems, and 3 for query problems
such as zero-probability conditioning.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys

import numpy as np

from .analysis import DEFAULT_EDGE_THRESHOLD, DEFAULT_GRID_SIZE, mi_graph
from .data import load_dataset, load_schema
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    IngestError,
    QueryError,
    SchemaError,
)
from .inference import (
    Evidence,
    log_conditional,
    log_evaluate,
    log_evaluate_batch,
    mpe,
    sample_rows,
)
from .serialize import canonical_json, load_model, save_model
from .structure import LEAF_KINDS, LearnConfig, learn_mspn, validate


# rows ``mspn sample`` draws and writes at a time, so any -n runs in fixed memory
SAMPLE_CHUNK = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mspn", description="Mixed sum-product network toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a model from csv data")
    learn.add_argument("--data", required=True, help="training csv with header")
    learn.add_argument("--schema", required=True, help="schema json")
    learn.add_argument("--out", required=True, help="output model path")
    learn.add_argument("--eta", type=int, default=200,
                       help="minimum instances to attempt a split (default 200)")
    learn.add_argument("--delta", type=float, default=1.0,
                       help="leaf smoothing pseudo-count (default 1.0)")
    learn.add_argument("--alpha", type=float, default=0.3,
                       help="dependence threshold for variable splits (default 0.3)")
    learn.add_argument("--leaf", choices=LEAF_KINDS, default="isotonic",
                       help="leaf family for numeric columns (default isotonic)")
    learn.add_argument("--seed", type=int, default=7)
    learn.set_defaults(handler=_cmd_learn)

    loglik = sub.add_parser("loglik", help="score held-out rows")
    loglik.add_argument("--model", required=True)
    loglik.add_argument("--data", required=True, help="test csv with header")
    loglik.set_defaults(handler=_cmd_loglik)

    query = sub.add_parser("query", help="evaluate a (conditional) probability query")
    query.add_argument("--model", required=True)
    query.add_argument("--observe", default="",
                       help="comma-separated name=value assignments")
    query.add_argument("--marginalize", default="",
                       help="names to leave marginalized (checked, for explicitness)")
    query.add_argument("--given", default="",
                       help="conditioning assignments, name=value,...")
    query.set_defaults(handler=_cmd_query)

    mpe_cmd = sub.add_parser("mpe", help="most probable completion of evidence")
    mpe_cmd.add_argument("--model", required=True)
    mpe_cmd.add_argument("--given", default="")
    mpe_cmd.set_defaults(handler=_cmd_mpe)

    sample_cmd = sub.add_parser("sample", help="draw rows from the model")
    sample_cmd.add_argument("--model", required=True)
    sample_cmd.add_argument("-n", type=int, default=100, help="number of rows")
    sample_cmd.add_argument("--given", default="")
    sample_cmd.add_argument("--seed", type=int, default=7)
    sample_cmd.set_defaults(handler=_cmd_sample)

    mi_cmd = sub.add_parser("mi", help="pairwise mutual information report")
    mi_cmd.add_argument("--model", required=True)
    mi_cmd.add_argument("--dot", required=True, help="output dot file")
    mi_cmd.add_argument("--json", required=True, help="output json report")
    mi_cmd.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    mi_cmd.add_argument("--threshold", type=float, default=DEFAULT_EDGE_THRESHOLD)
    mi_cmd.set_defaults(handler=_cmd_mi)

    val = sub.add_parser("validate", help="check a model file's structure")
    val.add_argument("--model", required=True)
    val.set_defaults(handler=_cmd_validate)

    return parser


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        if not sep or not name.strip():
            raise _UsageError(f"expected name=value, got {chunk!r}")
        pairs[name.strip()] = value.strip()
    return pairs


def _evidence_from_flag(model, text: str) -> Evidence:
    pairs = _parse_pairs(text)
    if not pairs:
        return Evidence.marginalized(model.n_vars)
    return Evidence.observe(model.schema, pairs)


def _format_cell(schema, i: int, value: float) -> str:
    st = schema.stat_type(i)
    if st.is_categorical:
        code = int(round(value))
        if st.categories is not None and 0 <= code < len(st.categories):
            return st.categories[code]
        return f"<unseen:{code}>"
    if st.is_discrete:
        return str(int(round(value)))
    return format(value, ".17g")


def _cmd_learn(args) -> int:
    schema = load_schema(args.schema)
    dataset = load_dataset(args.data, schema)
    config = LearnConfig(
        min_instances=args.eta,
        smoothing=args.delta,
        dependence_threshold=args.alpha,
        leaf_kind=args.leaf,
        seed=args.seed,
    )
    model = learn_mspn(dataset, config)
    save_model(model, args.out)
    print(f"learned {model.node_count} nodes from {dataset.n_rows} rows -> {args.out}")
    return 0


def _cmd_loglik(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data, model.schema, unseen_to_sentinel=True)
    mask = np.ones(model.n_vars, dtype=bool)
    values = log_evaluate_batch(model, dataset.values, mask)
    for v in values:
        print(format(float(v), ".17g"))
    print(f"mean {format(float(values.mean()), '.17g')}")
    return 0


def _cmd_query(args) -> int:
    model = load_model(args.model)
    observe = _evidence_from_flag(model, args.observe)
    given = _evidence_from_flag(model, args.given)
    for name in (n.strip() for n in args.marginalize.split(",") if n.strip()):
        i = model.schema.index(name)
        if observe.observed[i] or given.observed[i]:
            raise QueryError(f"cannot marginalize observed column {name!r}")
    if np.any(given.observed):
        value = log_conditional(model, observe, given)
    else:
        value = log_evaluate(model, observe)
    print(format(value, ".17g"))
    return 0


def _cmd_mpe(args) -> int:
    model = load_model(args.model)
    given = _evidence_from_flag(model, args.given)
    assignment, value = mpe(model, given)
    for i, name in enumerate(model.schema.names):
        print(f"{name}={_format_cell(model.schema, i, assignment[i])}")
    print(f"logp={format(value, '.17g')}")
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise _UsageError("-n must be at least 1")
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    model = load_model(args.model)
    given = _evidence_from_flag(model, args.given)
    rng = np.random.default_rng(args.seed)
    # successive chunks draw the rows one call would, from the same rng
    chunks = (sample_rows(model, given, rng, min(SAMPLE_CHUNK, args.n - start))
              for start in range(0, args.n, SAMPLE_CHUNK))
    first = next(chunks)  # drawn before the header, so a failed draw prints nothing
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(model.schema.names)
    for chunk in itertools.chain([first], chunks):
        for row in chunk:
            writer.writerow(
                _format_cell(model.schema, i, row[i]) for i in range(model.n_vars)
            )
    return 0


def _cmd_mi(args) -> int:
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    if not np.isfinite(args.threshold):
        raise _UsageError("--threshold must be a finite number")
    model = load_model(args.model)
    graph = mi_graph(model, args.grid, args.threshold)
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(graph.to_dot())
    with open(args.json, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(graph.to_json_dict()) + "\n")
    kept = len(graph.edges(exported_only=True))
    total = len(graph.edges())
    print(f"wrote {args.dot} and {args.json} ({kept}/{total} edges above threshold)")
    return 0


def _cmd_validate(args) -> int:
    report = validate(load_model(args.model))
    print(report)
    return 0 if report.ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 3
    except (IngestError, SchemaError, FormatError, DomainError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
