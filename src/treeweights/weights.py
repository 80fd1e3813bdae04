"""Exact partition weights on spanning trees.

Two independent routes compute the weight of an ordered tree:

* the count route multiplies 1/k over the trace, where k is the number
  of trans-block edges at each step;
* the monomial route assembles, from the contact indices of every edge,
  the product of interpolation variables the ordered tree integrates,
  and evaluates the integral in closed form as prod 1/(exponent + 1).

Both must agree bit-exactly. Tree weights sum the ordered weights over
all admissible orderings, and the weights of all spanning trees of a
connected graph sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DisconnectedError, TrivialPartitionError
from .graph import Multigraph
from .partitions import (
    ContractionTrace,
    Partition,
    admissible_orderings,
    build_trace,
    contact_indices,
    ordered_trees,
)


@dataclass(frozen=True)
class Monomial:
    """Exponent vector over the interpolation variables u_1..u_{|V|-1}."""

    exponents: tuple[int, ...]

    def integral(self) -> Fraction:
        """Integral over the unit cube: prod 1/(e_p + 1)."""
        denom = 1
        for e in self.exponents:
            denom *= e + 1
        return Fraction(1, denom)


def edge_monomials(g: Multigraph, trace: ContractionTrace) -> Monomial:
    """Combined integrand of an ordered tree, one factor per edge of g.

    A tree edge with contact indices (i, j) contributes u_k for
    i < k < j; every other edge contributes u_k for i < k <= j. The
    combined exponent of u_p always equals k_{p-1} - 1.
    """
    n = len(g.vertices)
    exps = [0] * (n - 1)
    tree = trace.tree
    for e in g.edges:
        i, j = contact_indices(trace, e.ends[0], e.ends[1])
        upper = j if e.id in tree else j + 1
        for k in range(max(i + 1, 1), upper):
            exps[k - 1] += 1
    return Monomial(tuple(exps))


def ordered_weight_from_trace(trace: ContractionTrace) -> Fraction:
    """Count route: the product of 1/k over the trace steps."""
    denom = 1
    for k in trace.k_values:
        denom *= k
    return Fraction(1, denom)


def ordered_weight(g: Multigraph, part: Partition, order: Sequence[str]) -> Fraction:
    """Exact weight of one admissible ordered spanning tree."""
    return ordered_weight_from_trace(build_trace(g, part, order))


def monomial_weight_from_trace(g: Multigraph, trace: ContractionTrace) -> Fraction:
    """Integration route: closed-form integral of the combined monomial."""
    return edge_monomials(g, trace).integral()


def monomial_weight(g: Multigraph, part: Partition, order: Sequence[str]) -> Fraction:
    return monomial_weight_from_trace(g, build_trace(g, part, order))


def tree_weight(g: Multigraph, part: Partition, tree: Iterable[str]) -> Fraction:
    """Sum of ordered weights over all admissible orderings of the tree."""
    total = Fraction(0)
    for order in admissible_orderings(g, part, tree):
        total += ordered_weight(g, part, order)
    return total


@dataclass(frozen=True)
class TreeRow:
    """One spanning tree with its weight and per-ordering breakdown."""

    tree: tuple[str, ...]
    weight: Fraction
    orderings: tuple[tuple[tuple[str, ...], Fraction], ...]


@dataclass(frozen=True)
class WeightReport:
    """Weights of every spanning tree, sorted by edge-id set."""

    rows: tuple[TreeRow, ...]

    @property
    def total(self) -> Fraction:
        return sum((r.weight for r in self.rows), Fraction(0))

    def weight(self, tree: Iterable[str]) -> Fraction:
        key = tuple(sorted(tree))
        for row in self.rows:
            if row.tree == key:
                return row.weight
        return Fraction(0)

    def weights(self) -> dict[frozenset[str], Fraction]:
        return {frozenset(r.tree): r.weight for r in self.rows}


def weight_distribution(g: Multigraph, part: Partition) -> WeightReport:
    """The full probability distribution over the spanning trees of g."""
    if part.is_trivial:
        raise TrivialPartitionError("weights need a partition with at least two blocks")
    part.require_cover(g)
    if not g.is_connected():
        raise DisconnectedError("weights require a connected graph")
    grouped: dict[tuple[str, ...], list[tuple[tuple[str, ...], Fraction]]] = {}
    for order, denom in ordered_trees(g, part):
        grouped.setdefault(tuple(sorted(order)), []).append((order, Fraction(1, denom)))
    rows = []
    for key in sorted(grouped):
        breakdown = tuple(sorted(grouped[key]))
        rows.append(
            TreeRow(key, sum((w for _, w in breakdown), Fraction(0)), breakdown)
        )
    return WeightReport(tuple(rows))


def symmetric_via_partition(g: Multigraph) -> WeightReport:
    """Tree weights for the all-singletons partition.

    These coincide bit-exactly with the sector-census weights; the
    census route in sectors.py stays independent so the two can be
    checked against each other.
    """
    return weight_distribution(g, Partition.singletons(g.vertices))
