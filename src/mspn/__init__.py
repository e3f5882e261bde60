"""Mixed sum-product networks.

Tree-structured tractable density estimators over hybrid
continuous/discrete/categorical data, learned by recursively splitting
variables that test as independent and clustering rows otherwise, with
nonparametric histogram or unimodal piecewise-linear leaves. Joint,
marginal, and conditional densities, most-probable completions, samples,
and pairwise mutual information all cost a constant number of passes
over the tree.
"""

from .analysis import mi_graph, mutual_information
from .data import (
    CATEGORICAL,
    CONTINUOUS,
    Column,
    Dataset,
    Schema,
    StatType,
    load_dataset,
    load_schema,
)
from .inference import (
    Evidence,
    log_conditional,
    log_evaluate,
    log_evaluate_batch,
    mpe,
    sample,
)
from .rdc import rdc
from .serialize import deserialize, load_model, save_model, serialize
from .structure import (
    LearnConfig,
    ProductNode,
    SumNode,
    iter_nodes,
    learn_mspn,
    validate,
)

__version__ = "0.1.0"

# what README shows; everything else is imported from its module
__all__ = [
    "CATEGORICAL",
    "CONTINUOUS",
    "Column",
    "Dataset",
    "Evidence",
    "LearnConfig",
    "ProductNode",
    "Schema",
    "StatType",
    "SumNode",
    "deserialize",
    "iter_nodes",
    "learn_mspn",
    "load_dataset",
    "load_model",
    "load_schema",
    "log_conditional",
    "log_evaluate",
    "log_evaluate_batch",
    "mi_graph",
    "mpe",
    "mutual_information",
    "rdc",
    "sample",
    "save_model",
    "serialize",
    "validate",
]
