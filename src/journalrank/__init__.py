"""Journal performance indicators from citation matrices.

A small library plus CLI that computes classical per-article indicators
(impact factor, audience factor), recursive stationary-vector indicators
(influence weights and per-article influence, damped citation scores and
their per-article variant, weighted PageRank, SJR), and the analysis
machinery around them: field-insensitivity checks, leave-one-out coverage
sensitivity, correlations, and rankings.
"""

from .analysis import CorrelationMatrix, average_ranks, correlation_table, pearson, spearman, top_k
from .core import (
    CitationMatrix,
    Journal,
    JournalSet,
    StructureReport,
    drop_journal,
    strongly_connected_components,
    structure,
    validate,
)
from .errors import (
    DegenerateInput,
    GenerationFailed,
    IndexOutOfRange,
    Issue,
    JournalRankError,
    NoConvergence,
    NotIrreducible,
    PreconditionViolated,
    ValidationError,
    ZeroArticles,
    ZeroArticlesT2,
    ZeroOutgoing,
)
from .indicators import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_GAMMA,
    IndicatorVector,
    article_influence,
    audience_factor,
    compute,
    eigenfactor,
    impact_factor,
    influence_per_publication,
    influence_weights,
    scimago_jr,
    weighted_pagerank,
)
from .properties import (
    FieldInsensitivityReport,
    FieldPartition,
    LeaveOneOutReport,
    ProportionalityReport,
    af_endpoint_check,
    field_insensitivity_check,
    ipp_endpoint_check,
    leave_one_out,
    min_delta,
)
from .spectral import SolverConfig, SolverReport, reference_shares, stationary
from .synth import (
    BlockModelSpec,
    block_model,
    near_decomposable_example,
    two_field_example,
    two_field_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BlockModelSpec",
    "CitationMatrix",
    "CorrelationMatrix",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "DEFAULT_GAMMA",
    "DegenerateInput",
    "FieldInsensitivityReport",
    "FieldPartition",
    "GenerationFailed",
    "IndexOutOfRange",
    "IndicatorVector",
    "Issue",
    "Journal",
    "JournalRankError",
    "JournalSet",
    "LeaveOneOutReport",
    "NoConvergence",
    "NotIrreducible",
    "PreconditionViolated",
    "ProportionalityReport",
    "SolverConfig",
    "SolverReport",
    "StructureReport",
    "ValidationError",
    "ZeroArticles",
    "ZeroArticlesT2",
    "ZeroOutgoing",
    "af_endpoint_check",
    "article_influence",
    "audience_factor",
    "average_ranks",
    "block_model",
    "compute",
    "correlation_table",
    "drop_journal",
    "eigenfactor",
    "field_insensitivity_check",
    "impact_factor",
    "influence_per_publication",
    "influence_weights",
    "ipp_endpoint_check",
    "leave_one_out",
    "min_delta",
    "near_decomposable_example",
    "pearson",
    "reference_shares",
    "scimago_jr",
    "spearman",
    "stationary",
    "strongly_connected_components",
    "structure",
    "top_k",
    "two_field_example",
    "two_field_partition",
    "validate",
    "weighted_pagerank",
]
