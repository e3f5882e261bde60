"""Shared dataset and model fixtures.

Every dataset is generated from a fixed seed so learned structures,
weights, and serialized bytes are reproducible across runs. Models are
session-scoped: learning is deterministic, so sharing them between tests
cannot leak state (all model objects are frozen/read-only).
"""

import csv
import math

import numpy as np
import pytest

from mspn import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    Dataset,
    LearnConfig,
    Schema,
    StatType,
    learn_mspn,
)
from mspn._kernels import dp_fill
from mspn.data import DISCRETE, _parse_cell
from mspn.errors import IngestError
from mspn.leaves import PiecewiseLinearLeaf
from mspn.numerics import _candidate_boundaries, _segment_loglik

# ---------------------------------------------------------------------------
# acceptance reporting: one printed line per acceptance criterion
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Store and print a one-line verdict for an acceptance criterion.

    The line is recorded before any assertion fires so failing criteria
    still produce their line in the terminal summary.
    """
    line = f"[criterion {number}] {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def per_pair_cca_max_correlation(a, b, ridge=1e-6):
    """Largest canonical correlation, standardizing and whitening both blocks
    on every call: the learner's per-pair computation before each block was
    whitened once per node. Scores must equal it bit for bit."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    m = a.shape[0]
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    sa = np.sqrt((a * a).sum(axis=0) / (m - 1))
    sb = np.sqrt((b * b).sum(axis=0) / (m - 1))
    a = a / np.where(sa > 0.0, sa, 1.0)
    b = b / np.where(sb > 0.0, sb, 1.0)
    saa = a.T @ a / (m - 1) + ridge * np.eye(a.shape[1])
    sbb = b.T @ b / (m - 1) + ridge * np.eye(b.shape[1])
    sab = a.T @ b / (m - 1)
    evals, evecs = np.linalg.eigh(saa)
    inv_sqrt = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    mid = inv_sqrt @ sab @ np.linalg.solve(sbb, sab.T) @ inv_sqrt
    mid = 0.5 * (mid + mid.T)
    lam = np.linalg.eigvalsh(mid)
    return float(np.sqrt(np.clip(lam[-1], 0.0, 1.0)))


def reference_density(leaf, values):
    """A leaf's density (mass for discrete/categorical) at ``values``, one
    branch per family, as the batch path computed it before every query
    read the leaf's knot table: the knot tables must reproduce it bit for
    bit. A code too large for an int64 casts to some out-of-range code,
    which scores the unseen mass like any other."""
    v = np.asarray(values, dtype=np.float64)
    if isinstance(leaf, PiecewiseLinearLeaf):
        return np.interp(v, leaf.knots_x, leaf.knots_y, left=0.0, right=0.0)
    if leaf.domain == CATEGORICAL:
        with np.errstate(invalid="ignore"):
            codes = np.rint(v).astype(np.int64)
        known = (codes >= 0) & (codes < leaf.n_bins)
        out = np.full(v.shape, leaf.unseen_mass)
        out[known] = leaf.masses[codes[known]]
        return out
    edges, masses = leaf.edges, leaf.masses
    idx = np.searchsorted(edges, v, side="right") - 1
    idx = np.clip(idx, 0, masses.size - 1)
    inside = (v >= edges[0]) & (v <= edges[-1])
    if leaf.domain == DISCRETE:
        # bins wider than one integer (the wide-range fallback) spread
        # their mass uniformly over the integers they contain
        span = np.maximum(np.rint(edges[idx + 1] - edges[idx]), 1.0)
        dens = masses[idx] / span
    else:
        dens = masses[idx] / (edges[idx + 1] - edges[idx])
    return np.where(inside, dens, 0.0)


def leaf_cdf(leaf, value: float) -> float:
    """P(X <= value) for one leaf, within-bin/segment mass interpolated: the
    reference the sampler's draws are tested against, written apart from the
    sampler's own ``inverse_cdf`` table."""
    v = float(value)
    if isinstance(leaf, PiecewiseLinearLeaf):
        x, y = leaf.knots_x, leaf.knots_y
        if v <= x[0]:
            return 0.0
        if v >= x[-1]:
            return 1.0
        seg = int(np.searchsorted(x, v, side="right")) - 1
        areas = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
        acc = float(areas[:seg].sum())
        t = v - x[seg]
        slope = (y[seg + 1] - y[seg]) / (x[seg + 1] - x[seg])
        return acc + y[seg] * t + 0.5 * slope * t * t
    if leaf.domain == CATEGORICAL:
        c = int(math.floor(v))
        if c < 0:
            return 0.0
        return float(leaf.masses[: c + 1].sum())
    edges, masses = leaf.edges, leaf.masses
    if v <= edges[0]:
        return 0.0
    if v >= edges[-1]:
        return 1.0
    b = int(np.searchsorted(edges, v, side="right")) - 1
    acc = float(masses[:b].sum())
    frac = (v - edges[b]) / (edges[b + 1] - edges[b])
    return acc + float(masses[b]) * frac


def reference_logsumexp(log_values, weights):
    """log(sum_c w_c * exp(log_values[c])) along axis 0, shifting by each
    column's maximum and giving a column of -inf 0 instead, as
    ``weighted_logsumexp`` computed it before its shift was floored:
    the floored form must reproduce it bit for bit, without a warning."""
    lv = np.asarray(log_values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    top = lv.max(axis=0)
    dead = top == -np.inf
    shifted = np.exp(lv - np.where(dead, 0.0, top))
    total = w[0] * shifted[0]
    for c in range(1, w.shape[0]):
        total += w[c] * shifted[c]
    # a dead column has total 0; log(0 + 1) keeps its -inf top without a warning
    return top + np.log(total + dead)


def per_cell_load_dataset(path, schema, *, unseen_to_sentinel=False) -> Dataset:
    """``load_dataset`` parsing one cell at a time, as before row blocks:
    the block-wise loader must return the same bytes and schema and raise
    the same first error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("csv file is empty") from None
        header = [h.strip() for h in header]
        if tuple(header) != schema.names:
            raise IngestError(
                f"csv header {header} does not match schema columns {list(schema.names)}"
            )
        vocabs, declared = [], []
        for c in schema.columns:
            st = c.stat_type
            known = st.is_categorical and st.categories is not None
            vocabs.append({label: i for i, label in enumerate(st.categories)} if known else {})
            declared.append(known)
        rows = []
        for r, record in enumerate(reader):
            if len(record) != len(schema):
                raise IngestError(
                    f"row {r} has {len(record)} fields, expected {len(schema)}", row=r
                )
            parsed = []
            for j, (cell, col) in enumerate(zip(record, schema.columns)):
                st = col.stat_type
                strict = st.is_categorical and declared[j] and not unseen_to_sentinel
                value = _parse_cell(cell.strip(), st, vocabs[j], r, j, strict)
                if st.is_categorical and declared[j] and not strict:
                    value = min(value, float(len(st.categories)))
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise IngestError("csv file has a header but no data rows")
    cols = []
    for j, c in enumerate(schema.columns):
        if c.stat_type.is_categorical and not declared[j]:
            labels = tuple(vocabs[j].keys())
            if len(labels) < 2:
                raise IngestError(f"column {c.name!r} has fewer than 2 distinct categories")
            cols.append(Column(c.name, StatType(CATEGORICAL, labels)))
        else:
            cols.append(c)
    values = np.asarray(rows, dtype=np.float64)
    if unseen_to_sentinel:
        return Dataset._unchecked(Schema(tuple(cols)), values)
    return Dataset(Schema(tuple(cols)), values)


def uncapped_adaptive_bin_edges(values):
    """Binning-search edges from the full DP: every bin-count column filled
    and every count scored, its penalty computed on the spot. The search
    that stops at the last count able to win must return them bit for bit."""
    vals = np.sort(np.asarray(values, dtype=np.float64).ravel())
    bounds = _candidate_boundaries(np.unique(vals))
    f, back = dp_fill(_segment_loglik(vals, bounds))
    n_segments = bounds.shape[0] - 1
    n_cuts = n_segments - 1
    best_j, best_score = 1, -np.inf
    for j in range(1, n_segments + 1):
        comb = math.lgamma(n_cuts + 1) - math.lgamma(j) - math.lgamma(n_cuts - j + 2)
        score = f[n_segments, j] - (comb + (j - 1) + math.log(j) ** 2.5)
        if score > best_score:
            best_score, best_j = score, j
    cut_idx = [n_segments]
    p, j = n_segments, best_j
    while j > 0:
        p = int(back[p, j])
        j -= 1
        cut_idx.append(p)
    return bounds[np.asarray(cut_idx[::-1], dtype=np.intp)]


# ---------------------------------------------------------------------------
# dataset builders
# ---------------------------------------------------------------------------


def make_dataset(cols, values) -> Dataset:
    """Dataset from [(name, kind, categories)] plus a value matrix."""
    schema = Schema(tuple(Column(n, StatType(k, c)) for n, k, c in cols))
    return Dataset(schema, np.asarray(values, dtype=np.float64))


def make_hybrid6(seed: int, m: int) -> np.ndarray:
    """Six-variable hybrid sampler with planted pairwise dependencies.

    Variables 0 and 1 are strongly coupled (1 is a noisy square of 0);
    variable 2 partially tracks variable 3; 4 and 5 are independent of
    everything. All marginals are bounded so held-out rows stay inside
    the smoothed support of leaves fit on a training split.
    """
    r = np.random.default_rng(seed)
    x0 = r.uniform(-1.0, 1.0, m)
    x1 = 2.0 * x0**2 + 0.2 * r.uniform(-1.0, 1.0, m)
    x3 = r.integers(0, 8, m).astype(float)
    relabel = r.random(m) < 0.25
    x2 = np.where(relabel, r.integers(0, 3, m), x3 % 3).astype(float)
    x4 = r.uniform(0.0, 1.0, m)
    x5 = r.binomial(8, 0.5, m).astype(float)
    return np.column_stack([x0, x1, x2, x3, x4, x5])


HYBRID6_COLS = [
    ("pos", CONTINUOUS, None),
    ("energy", CONTINUOUS, None),
    ("grade", CATEGORICAL, ("a", "b", "c")),
    ("slot", DISCRETE, None),
    ("phase", CONTINUOUS, None),
    ("hits", DISCRETE, None),
]


def make_hybrid14(seed: int, m: int) -> np.ndarray:
    """Fourteen-variable hybrid sampler: 6 continuous, 4 discrete, 4 categorical.

    Plants a curved continuous pair (0, 1), a linear continuous pair
    (2, 3), a discrete pair (6, 7), and two noisy categorical couplings
    so the learner has real structure to find at this width.
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


H14_COLS = [
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


C14_ARITIES = (2, 3, 4, 5, 2, 3, 4, 5)


def make_categorical14(seed: int, m: int) -> np.ndarray:
    """8 categorical columns (arity 2-5) and 6 small-range discrete columns.

    The benchmark's categorical table: a latent segment with four levels
    drives categorical columns 0-4 (each keeps a segment-dependent label
    with probability 0.75) and discrete columns 0-2 (binomial counts whose
    rate rises with the segment); the other six columns are independent
    noise, and no discrete range is wide enough for the binning search.
    """
    r = np.random.default_rng(seed)
    segment = r.choice(4, m, p=[0.4, 0.3, 0.2, 0.1])
    cols = []
    for j, arity in enumerate(C14_ARITIES):
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


C14_COLS = [
    (f"c{j}", CATEGORICAL, tuple(f"l{i}" for i in range(arity)))
    for j, arity in enumerate(C14_ARITIES)
] + [(f"d{j}", DISCRETE, None) for j in range(6)]


# ---------------------------------------------------------------------------
# fixture datasets (>= 6, spanning pure-continuous / pure-categorical / hybrid)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def blobs2d_data() -> Dataset:
    """Two equal-mass, well-separated 2-d blobs with within-blob correlation."""
    r = np.random.default_rng(2026)
    half = 600
    a0 = r.normal(0.0, 0.8, half)
    a1 = 0.8 * a0 + r.normal(0.0, 0.5, half)
    b0 = r.normal(6.0, 0.8, half)
    b1 = 6.0 + 0.8 * (b0 - 6.0) + r.normal(0.0, 0.5, half)
    values = np.column_stack(
        [np.concatenate([a0, b0]), np.concatenate([a1, b1])]
    )[r.permutation(2 * half)]
    return make_dataset(
        [("depth", CONTINUOUS, None), ("flow", CONTINUOUS, None)], values
    )


@pytest.fixture(scope="session")
def blobs2d_model(blobs2d_data):
    return learn_mspn(blobs2d_data, LearnConfig(seed=11))


@pytest.fixture(scope="session")
def cont_indep_data() -> Dataset:
    """Two independent uniform columns (M=1000)."""
    r = np.random.default_rng(515)
    values = np.column_stack([r.uniform(0.0, 1.0, 1000), r.uniform(10.0, 20.0, 1000)])
    return make_dataset(
        [("ratio", CONTINUOUS, None), ("load", CONTINUOUS, None)], values
    )


@pytest.fixture(scope="session")
def cont_indep_model(cont_indep_data):
    return learn_mspn(cont_indep_data, LearnConfig(seed=5))


@pytest.fixture(scope="session")
def cat_pair_data() -> Dataset:
    """Two dependent categorical columns (the second mostly copies the first)."""
    r = np.random.default_rng(77)
    m = 1500
    c0 = r.choice(3, size=m, p=[0.5, 0.3, 0.2]).astype(float)
    noise = r.random(m) < 0.15
    c1 = np.where(noise, r.integers(0, 3, m), c0).astype(float)
    return make_dataset(
        [
            ("source", CATEGORICAL, ("red", "green", "blue")),
            ("echo", CATEGORICAL, ("lo", "mid", "hi")),
        ],
        np.column_stack([c0, c1]),
    )


@pytest.fixture(scope="session")
def cat_pair_model(cat_pair_data):
    return learn_mspn(cat_pair_data, LearnConfig(seed=13))


@pytest.fixture(scope="session")
def cat_indep_data() -> Dataset:
    """Two independent categorical columns (M=1000)."""
    r = np.random.default_rng(31)
    m = 1000
    c0 = r.choice(3, size=m, p=[0.4, 0.35, 0.25]).astype(float)
    c1 = r.choice(2, size=m, p=[0.6, 0.4]).astype(float)
    return make_dataset(
        [
            ("region", CATEGORICAL, ("north", "south", "east")),
            ("flag", CATEGORICAL, ("off", "on")),
        ],
        np.column_stack([c0, c1]),
    )


@pytest.fixture(scope="session")
def cat_indep_model(cat_indep_data):
    return learn_mspn(cat_indep_data, LearnConfig(seed=3))


@pytest.fixture(scope="session")
def hybrid6_train() -> Dataset:
    return make_dataset(HYBRID6_COLS, make_hybrid6(1234, 5000))


@pytest.fixture(scope="session")
def hybrid6_test() -> Dataset:
    return make_dataset(HYBRID6_COLS, make_hybrid6(4321, 2000))


@pytest.fixture(scope="session")
def hybrid6_model(hybrid6_train):
    return learn_mspn(hybrid6_train, LearnConfig())


@pytest.fixture(scope="session")
def hybrid_small_data() -> Dataset:
    """Hybrid dataset below the splitting threshold (M=150 < 200)."""
    r = np.random.default_rng(8)
    m = 150
    values = np.column_stack(
        [
            r.normal(0.0, 1.0, m),
            r.integers(0, 6, m).astype(float),
            r.choice(2, size=m).astype(float),
        ]
    )
    return make_dataset(
        [
            ("score", CONTINUOUS, None),
            ("count", DISCRETE, None),
            ("state", CATEGORICAL, ("idle", "busy")),
        ],
        values,
    )


@pytest.fixture(scope="session")
def hybrid_small_model(hybrid_small_data):
    return learn_mspn(hybrid_small_data, LearnConfig(seed=7))


@pytest.fixture(scope="session")
def uni1d_data() -> Dataset:
    """Univariate bimodal mixture (0.7 / 0.3, well separated)."""
    r = np.random.default_rng(99)
    u = np.concatenate([r.normal(-2.0, 0.45, 2800), r.normal(3.0, 0.6, 1200)])
    return make_dataset([("reading", CONTINUOUS, None)], u[r.permutation(u.size), None])


@pytest.fixture(scope="session")
def uni1d_model(uni1d_data):
    return learn_mspn(uni1d_data, LearnConfig(seed=9))


@pytest.fixture(scope="session")
def mix2_data() -> Dataset:
    """Two-component fixture: exact 70/30 split marked by a categorical band.

    Component membership is recoverable exactly, so the learned root sum
    weights must reproduce the 0.7/0.3 proportions.
    """
    r = np.random.default_rng(20260816)
    m_a, m_b = 3500, 1500
    x0 = np.concatenate([r.uniform(0.0, 1.0, m_a), r.uniform(4.0, 5.0, m_b)])
    x1 = np.concatenate([np.zeros(m_a), np.ones(m_b)])
    values = np.column_stack([x0, x1])[r.permutation(m_a + m_b)]
    return make_dataset(
        [("amount", CONTINUOUS, None), ("band", CATEGORICAL, ("low", "high"))], values
    )


@pytest.fixture(scope="session")
def mix2_model(mix2_data):
    return learn_mspn(mix2_data, LearnConfig(seed=17))


# the keys of ``fixture_models``, for tests parametrized per model
FIXTURE_MODEL_NAMES = ("blobs2d", "cont_indep", "cat_pair", "cat_indep", "hybrid6",
                       "hybrid_small", "uni1d", "mix2")


@pytest.fixture(scope="session")
def fixture_models(
    blobs2d_data, blobs2d_model,
    cont_indep_data, cont_indep_model,
    cat_pair_data, cat_pair_model,
    cat_indep_data, cat_indep_model,
    hybrid6_train, hybrid6_model,
    hybrid_small_data, hybrid_small_model,
    uni1d_data, uni1d_model,
    mix2_data, mix2_model,
):
    """Every fixture dataset paired with its learned model."""
    return {
        "blobs2d": (blobs2d_data, blobs2d_model),
        "cont_indep": (cont_indep_data, cont_indep_model),
        "cat_pair": (cat_pair_data, cat_pair_model),
        "cat_indep": (cat_indep_data, cat_indep_model),
        "hybrid6": (hybrid6_train, hybrid6_model),
        "hybrid_small": (hybrid_small_data, hybrid_small_model),
        "uni1d": (uni1d_data, uni1d_model),
        "mix2": (mix2_data, mix2_model),
    }
