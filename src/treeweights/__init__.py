"""Exact probability measures on the spanning trees of multigraphs."""

from .errors import TreeWeightsError
from .graph import Edge, Multigraph
from .partitions import (
    ContractionTrace,
    Partition,
    admissible_orderings,
    build_trace,
    contact_indices,
    forest_trace,
)
from .psd import (
    ExactReport,
    PsdReport,
    TraceBatch,
    TraceCheck,
    contact_matrix_direct,
    contact_matrix_recursion,
    trace_batch,
    verify_constructive,
    verify_exact,
)
from .sectors import SectorCensus, sector_census
from .weights import (
    Monomial,
    TreeRow,
    WeightReport,
    edge_monomials,
    weight_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionTrace",
    "Edge",
    "ExactReport",
    "Monomial",
    "Multigraph",
    "Partition",
    "PsdReport",
    "SectorCensus",
    "TraceBatch",
    "TraceCheck",
    "TreeRow",
    "TreeWeightsError",
    "WeightReport",
    "admissible_orderings",
    "build_trace",
    "contact_indices",
    "contact_matrix_direct",
    "contact_matrix_recursion",
    "edge_monomials",
    "forest_trace",
    "sector_census",
    "trace_batch",
    "verify_constructive",
    "verify_exact",
    "weight_distribution",
]
