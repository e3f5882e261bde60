"""Information-theoretic summaries of a learned network.

Pairwise mutual information is computed by deterministic grid quadrature
over the model's own pairwise marginals: continuous variables get a
midpoint grid over the union of their leaves' supports, discrete and
categorical variables are enumerated exactly. Marginals come from summing
the same gridded joint, which keeps every MI nonnegative (rounding
residue below zero is clamped to 0) and makes model-independent pairs
score exactly zero.

Normalized MI divides by the geometric mean of the two grid entropies
(differential entropy for continuous variables) and clamps to [0, 1].

The log values come from the evaluation plan's grid tables (see
``inference``): one pass per variable over the nodes with that variable
in scope, shared by every pair, then per pair a pass over only the nodes
whose scope holds both variables. Each cell gets the bits a full-grid
``log_evaluate_batch`` gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QueryError
from .leaves import integer_support
from .inference import evaluation_plan
from .numerics import is_integer
from .structure import Mspn

DEFAULT_GRID_SIZE = 256
DEFAULT_EDGE_THRESHOLD = 0.01
# the most cells a pair's joint table may hold (2048 x 2048, 32 MB of doubles);
# a pair with more is a query error before any table is built
MAX_GRID_CELLS = 2**22
# how a pair's table reads its first and its second variable's tables
_ROWS, _COLUMNS = np.s_[:, None], np.s_[None, :]


def _variable_grids(mspn: Mspn, grid_size: int, variables) -> dict:
    """Evaluation points and cell measures for each of ``variables``.

    Continuous: ``grid_size`` midpoint cells over the union of leaf
    supports. Discrete and categorical: every integer of the united
    support, which for a categorical variable is every category code. The
    second array holds the quadrature measure of each point (cell width,
    or 1 for counting measure). The supports are read off the plan's leaf
    table; a pair table past ``MAX_GRID_CELLS`` cells is a :class:`QueryError`.
    """
    plan = evaluation_plan(mspn)
    lows, highs = np.full(mspn.n_vars, math.inf), np.full(mspn.n_vars, -math.inf)
    np.minimum.at(lows, plan.leaf_vars, plan.leaf_table.first)
    np.maximum.at(highs, plan.leaf_vars, plan.leaf_table.last)

    spans, sizes = {}, {}
    for var in variables:
        lo, hi = float(lows[var]), float(highs[var])
        if not lo <= hi:
            raise QueryError(f"no leaf covers variable {var}")
        spans[var] = lo, hi
        sizes[var] = (grid_size if mspn.schema.stat_type(var).is_continuous
                      else math.floor(hi) - math.ceil(lo) + 1)
    widest = sorted(sizes, key=sizes.get)[-2:]  # the pair with the largest table
    if len(widest) == 2 and sizes[widest[0]] * sizes[widest[1]] > MAX_GRID_CELLS:
        a, b = widest
        raise QueryError(f"the grids of variables {a} and {b} make a {sizes[a]} x {sizes[b]} "
                         f"table, more than {MAX_GRID_CELLS} cells")

    grids = {}
    for var, (lo, hi) in spans.items():
        if not mspn.schema.stat_type(var).is_continuous:
            points = integer_support(lo, hi)
            grids[var] = points, np.ones_like(points)
            continue
        width = (hi - lo) / grid_size
        points = lo + (np.arange(grid_size, dtype=np.float64) + 0.5) * width
        grids[var] = points, np.full(grid_size, width)
    return grids


class _GridTables:
    """Log tables of the model's nodes on the variable grids, shared by all pairs.

    One ``_Plan.evaluate_tables`` call per gridded variable keeps the
    tables of the nodes with it in scope; a pair's call then runs only the
    nodes with both variables in scope, the two variables' tables entering
    as (ga, 1) and (1, gb) views.
    """

    def __init__(self, mspn: Mspn, grids: dict):
        self.plan = evaluation_plan(mspn)
        self.points = {var: points for var, (points, _) in grids.items()}
        self.known: dict = {}
        for var in grids:
            self.plan.evaluate_tables((var,), self.points, {}, self.known)

    def marginal(self, var: int) -> np.ndarray:
        return self.known[var][self.plan.root]

    def joint(self, a: int, b: int) -> np.ndarray:
        return self.plan.evaluate_tables((a, b), self.points,
                                         {a: _ROWS, b: _COLUMNS}, self.known)


def _grid_joint(tables: _GridTables, a: int, b: int, grids: dict):
    """Normalized joint probability table of a variable pair on the grid."""
    _, wa = grids[a]
    _, wb = grids[b]
    cell_mass = np.exp(tables.joint(a, b)) * np.outer(wa, wb)
    total = float(cell_mass.sum())
    if total <= 0.0:
        raise QueryError("pairwise marginal has zero total mass on the grid")
    return cell_mass / total, wa, wb


def _entropy(p: np.ndarray, measure: np.ndarray, continuous: bool) -> float:
    live = p > 0
    if continuous:
        # differential entropy: densities are cell mass / cell width
        return float(-(p[live] * (np.log(p[live]) - np.log(measure[live]))).sum())
    return float(-(p[live] * np.log(p[live])).sum())


def _mi_pair(mspn: Mspn, i: int, j: int, grids: dict,
             tables: _GridTables) -> tuple[float, float]:
    a, b = (i, j) if i < j else (j, i)
    joint, wa, wb = _grid_joint(tables, a, b, grids)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)

    outer = np.outer(pa, pb)
    live = joint > 0
    mi = float((joint[live] * (np.log(joint[live]) - np.log(outer[live]))).sum())
    # the sum is nonnegative up to rounding; independent pairs land at -1e-16
    mi = max(0.0, mi)

    ha = _entropy(pa, wa, mspn.schema.stat_type(a).is_continuous)
    hb = _entropy(pb, wb, mspn.schema.stat_type(b).is_continuous)
    denom = ha * hb
    if denom <= 0.0:
        nmi = 0.0
    else:
        nmi = min(max(mi / math.sqrt(denom), 0.0), 1.0)
    return mi, nmi


def mutual_information(mspn: Mspn, i: int, j: int,
                       grid_size: int = DEFAULT_GRID_SIZE) -> tuple[float, float]:
    """Mutual information (nats) and normalized MI of a variable pair.

    Symmetric bit-exactly in (i, j): the pair is canonicalized before any
    computation. Marginals are read off the gridded joint itself, so a
    pair separated by a Product node scores exactly zero.
    """
    if not all(is_integer(v) and 0 <= v < mspn.n_vars for v in (i, j)):
        raise DomainError("variable indices must be integers in range")
    if i == j:
        raise DomainError("mutual information needs two distinct variables")
    if not is_integer(grid_size) or grid_size < 2:
        raise DomainError("grid_size must be an integer >= 2")
    grids = _variable_grids(mspn, grid_size, (i, j))
    return _mi_pair(mspn, i, j, grids, _GridTables(mspn, grids))


def _variable_entropy(mspn: Mspn, var: int, grids: dict, tables: _GridTables) -> float:
    _, measure = grids[var]
    mass = np.exp(tables.marginal(var)) * measure
    total = float(mass.sum())
    if total <= 0.0:
        raise QueryError(f"marginal of variable {var} has zero mass on the grid")
    return _entropy(mass / total, measure, mspn.schema.stat_type(var).is_continuous)


@dataclass(frozen=True)
class MiGraph:
    """All-pairs MI report plus the export threshold.

    ``mi`` and ``nmi`` are symmetric matrices with zero diagonals; every
    pair is retained here regardless of the threshold, which only governs
    which edges the DOT export draws.
    """

    names: tuple[str, ...]
    mi: np.ndarray = field(repr=False)
    nmi: np.ndarray = field(repr=False)
    entropies: np.ndarray = field(repr=False)
    edge_threshold: float
    grid_size: int

    def edges(self, exported_only: bool = False):
        """(i, j, mi, nmi) tuples for i < j, optionally thresholded on nmi."""
        out = []
        n = len(self.names)
        for i in range(n):
            for j in range(i + 1, n):
                if exported_only and self.nmi[i, j] < self.edge_threshold:
                    continue
                out.append((i, j, float(self.mi[i, j]), float(self.nmi[i, j])))
        return out

    def to_dot(self) -> str:
        lines = ["graph dependencies {", "  node [shape=ellipse];"]
        for name in self.names:
            lines.append(f'  "{name}";')
        for i, j, _, nmi in self.edges(exported_only=True):
            width = 0.5 + 6.0 * nmi
            lines.append(
                f'  "{self.names[i]}" -- "{self.names[j]}" '
                f'[penwidth={width:.3f}, label="{nmi:.3f}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.names),
            "entropies": [float(h) for h in self.entropies],
            "mi": [[float(v) for v in row] for row in self.mi],
            "nmi": [[float(v) for v in row] for row in self.nmi],
            "edge_threshold": self.edge_threshold,
            "grid_size": self.grid_size,
            "edges": [
                {
                    "i": i,
                    "j": j,
                    "names": [self.names[i], self.names[j]],
                    "mi": mi,
                    "nmi": nmi,
                }
                for i, j, mi, nmi in self.edges(exported_only=True)
            ],
        }


def mi_graph(mspn: Mspn, grid_size: int = DEFAULT_GRID_SIZE,
             edge_threshold: float = DEFAULT_EDGE_THRESHOLD) -> MiGraph:
    """Mutual information for every variable pair of the model."""
    n = mspn.n_vars
    if n < 2:
        raise DomainError("need at least two variables for a dependency graph")
    if not is_integer(grid_size) or grid_size < 2:
        raise DomainError("grid_size must be an integer >= 2")
    grids = _variable_grids(mspn, grid_size, range(n))
    tables = _GridTables(mspn, grids)
    mi = np.zeros((n, n))
    nmi = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mi[i, j], nmi[i, j] = _mi_pair(mspn, i, j, grids, tables)
            mi[j, i] = mi[i, j]
            nmi[j, i] = nmi[i, j]
    entropies = np.array([_variable_entropy(mspn, v, grids, tables) for v in range(n)])
    return MiGraph(mspn.schema.names, mi, nmi, entropies, edge_threshold, grid_size)
