"""Fixed input tables for the learn workloads, written as CSV plus schema.

Both tables are generated from constant seeds, not from the run's
``--seed``: model size, and with it learn time, moves by several percent
between tables drawn from the same distribution (305 to 355 nodes over
three draws of the categorical table), which would bury the changes the
benchmark is meant to see. The run's seed drives the query stream and the
rows the checks sample instead.
"""

from __future__ import annotations

import csv
import json

import numpy as np

CONTINUOUS = "continuous"
DISCRETE = "discrete"
CATEGORICAL = "categorical"

HYBRID_SEED = 2024
HYBRID_ROWS = 5000
# node count of the acceptance gate's model of this table
HYBRID_NODES = 554

CATEGORICAL_SEED = 2025
CATEGORICAL_ROWS = 20000
CATEGORICAL_ARITIES = (2, 3, 4, 5, 2, 3, 4, 5)


def make_hybrid14(seed: int, m: int) -> np.ndarray:
    """Fourteen-variable hybrid sampler: 6 continuous, 4 discrete, 4 categorical.

    The acceptance gate's generator: a curved continuous pair (0, 1), a
    linear continuous pair (2, 3), a discrete pair (6, 7) and two noisy
    categorical couplings.
    """
    r = np.random.default_rng(seed)
    x0 = r.uniform(-1.0, 1.0, m)
    x1 = 2.0 * x0**2 + 0.2 * r.uniform(-1.0, 1.0, m)
    x2 = r.normal(0.0, 1.0, m)
    x3 = 0.5 * x2 + r.normal(0.0, 0.5, m)
    x4 = r.uniform(0.0, 1.0, m)
    x5 = r.exponential(1.0, m)
    d0 = r.integers(0, 8, m).astype(float)
    d1 = (d0 + r.integers(0, 3, m)).astype(float)
    d2 = r.binomial(10, 0.3, m).astype(float)
    d3 = r.integers(0, 5, m).astype(float)
    c0 = (d0 % 3).astype(float)
    relabel = r.random(m) < 0.3
    c0 = np.where(relabel, r.integers(0, 3, m), c0).astype(float)
    c1 = r.choice(2, m, p=[0.7, 0.3]).astype(float)
    c2 = r.choice(4, m).astype(float)
    c3 = np.where(x0 > 0, 1.0, 0.0)
    flip = r.random(m) < 0.2
    c3 = np.where(flip, 1.0 - c3, c3)
    return np.column_stack([x0, x1, x2, x3, x4, x5, d0, d1, d2, d3, c0, c1, c2, c3])


HYBRID_COLUMNS = [
    ("u0", CONTINUOUS, None), ("u1", CONTINUOUS, None),
    ("n0", CONTINUOUS, None), ("n1", CONTINUOUS, None),
    ("v0", CONTINUOUS, None), ("e0", CONTINUOUS, None),
    ("k0", DISCRETE, None), ("k1", DISCRETE, None),
    ("k2", DISCRETE, None), ("k3", DISCRETE, None),
    ("g0", CATEGORICAL, ("a", "b", "c")),
    ("g1", CATEGORICAL, ("f", "t")),
    ("g2", CATEGORICAL, ("p", "q", "r", "s")),
    ("g3", CATEGORICAL, ("neg", "pos")),
]


def make_categorical14(seed: int, m: int) -> np.ndarray:
    """8 categorical columns (arity 2-5) and 6 small-range discrete columns.

    A latent segment with four levels drives categorical columns 0-4 (each
    keeps a segment-dependent label with probability 0.75) and discrete
    columns 0-2 (binomial counts whose rate rises with the segment); the
    other six columns are independent noise. Every discrete range is far
    below the leaves' unit-bin limit, so no leaf runs the binning search.
    """
    r = np.random.default_rng(seed)
    segment = r.choice(4, m, p=[0.4, 0.3, 0.2, 0.1])
    cols = []
    for j, arity in enumerate(CATEGORICAL_ARITIES):
        noise = r.integers(0, arity, m)
        if j < 5:
            keep = r.random(m) < 0.75
            cols.append(np.where(keep, (segment + j) % arity, noise))
        else:
            cols.append(noise)
    for j in range(6):
        if j < 3:
            cols.append(r.binomial(6, 0.15 + 0.2 * segment))
        else:
            cols.append(r.integers(0, 4 + j, m))
    return np.column_stack(cols).astype(float)


CATEGORICAL_COLUMNS = [
    (f"c{j}", CATEGORICAL, tuple(f"l{i}" for i in range(arity)))
    for j, arity in enumerate(CATEGORICAL_ARITIES)
] + [(f"d{j}", DISCRETE, None) for j in range(6)]


def write_table(values: np.ndarray, columns, csv_path, schema_path) -> None:
    """Write ``values`` as a headed CSV and its schema as JSON.

    Continuous cells use ``repr``, which round-trips doubles exactly, so the
    loaded table equals ``values``; categorical codes become their labels.
    """
    schema = {"columns": []}
    for name, kind, labels in columns:
        entry = {"name": name, "type": kind}
        if labels is not None:
            entry["categories"] = list(labels)
        schema["columns"].append(entry)
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh)

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in columns])
        for row in values:
            cells = []
            for x, (_, kind, labels) in zip(row, columns):
                if kind == CONTINUOUS:
                    cells.append(repr(float(x)))
                elif kind == DISCRETE:
                    cells.append(str(int(x)))
                else:
                    cells.append(labels[int(x)])
            writer.writerow(cells)
