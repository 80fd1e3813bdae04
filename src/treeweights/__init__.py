"""Exact probability measures on the spanning trees of multigraphs."""

from .errors import TreeWeightsError
from .graph import Edge, GraphAudit, Multigraph
from .partitions import (
    ContractionTrace,
    Partition,
    TraceBatch,
    admissible_orderings,
    batch_contact_indices,
    build_trace,
    contact_indices,
    forest_trace,
    trace_batch,
)
from .psd import (
    PsdReport,
    TraceCheck,
    contact_matrix_direct,
    contact_matrix_recursion,
    verify_constructive,
)
from .sectors import SectorCensus, sector_census
from .weights import (
    ExactReport,
    Monomial,
    TreeRow,
    WeightReport,
    edge_monomials,
    symmetric_via_partition,
    verify_exact,
    weight_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionTrace",
    "Edge",
    "ExactReport",
    "GraphAudit",
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
    "batch_contact_indices",
    "build_trace",
    "contact_indices",
    "contact_matrix_direct",
    "contact_matrix_recursion",
    "edge_monomials",
    "forest_trace",
    "sector_census",
    "symmetric_via_partition",
    "trace_batch",
    "verify_constructive",
    "verify_exact",
    "weight_distribution",
]
