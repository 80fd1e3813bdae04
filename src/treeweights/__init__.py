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
    contract_partition,
    forest_trace,
    is_trans_block,
    trace_batch,
    trans_block_count,
)
from .psd import (
    PsdReport,
    TraceCheck,
    check_psd,
    contact_matrix_direct,
    contact_matrix_recursion,
    verify_constructive,
)
from .sectors import (
    SectorCensus,
    induced_ordering,
    leading_tree,
    sector_census,
    symmetric_weight,
)
from .weights import (
    ExactReport,
    Monomial,
    TreeRow,
    WeightReport,
    edge_monomials,
    monomial_weight,
    ordered_weight,
    symmetric_via_partition,
    tree_weight,
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
    "check_psd",
    "contact_indices",
    "contact_matrix_direct",
    "contact_matrix_recursion",
    "contract_partition",
    "edge_monomials",
    "forest_trace",
    "induced_ordering",
    "is_trans_block",
    "leading_tree",
    "monomial_weight",
    "ordered_weight",
    "sector_census",
    "symmetric_via_partition",
    "symmetric_weight",
    "trace_batch",
    "trans_block_count",
    "tree_weight",
    "verify_constructive",
    "verify_exact",
    "weight_distribution",
]
