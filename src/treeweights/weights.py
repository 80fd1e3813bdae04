"""Exact partition weights on spanning trees.

Two independent routes compute the weight of an ordered tree:

* the count route multiplies 1/k over the trace, where k is the number
  of trans-block edges at each step;
* the monomial route assembles, from the contact indices of every edge,
  the product of interpolation variables the ordered tree integrates,
  and evaluates the integral in closed form as prod 1/(exponent + 1).

Both must agree bit-exactly; psd.verify_exact checks this on every
ordered tree, together with the exponent law and the order of the
contact indices, on numpy traces built in blocks by psd.trace_batch.
This module imports no numpy: its weights are Python integers and
Fractions. A tree
weighs the sum of its ordered weights over its admissible orderings,
and the weights of all spanning trees of a connected graph sum to
exactly 1. weight_distribution does not walk those orderings: k and
admissibility depend only on the components of the forest contracted
so far, so partitions._forest_sums sums every tree's weight over the
forests, merging every ordering that reaches the same forest. The
per-ordering breakdown is walked, only when read, by
partitions._ordered_tree_walk on the canonical labelings of the forests:
as (order tuple, Fraction) pairs when a row's orderings are read, or as
items a writer builds from pieces of its own output text, through
WeightReport.breakdowns. Either way _Listing.grouped checks each tree's
ordering count against the sums sweep.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable

from .errors import DisconnectedError, InvariantError, TrivialPartitionError
from .graph import Multigraph
from .partitions import (
    ContractionTrace,
    Partition,
    _forest_sums,
    _ordered_tree_walk,
    contact_indices,
)


@dataclass(frozen=True)
class Monomial:
    """Exponent vector over the interpolation variables u_1..u_{|V|-1}."""

    exponents: tuple[int, ...]

    def integral(self) -> Fraction:
        """Integral over the unit cube: prod 1/(e_p + 1)."""
        return Fraction(1, math.prod(e + 1 for e in self.exponents))


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


def require_weighable(g: Multigraph, part: Partition) -> None:
    """The input checks every exact weight route makes before any work."""
    if part.is_trivial:
        raise TrivialPartitionError("weights need a partition with at least two blocks")
    part.require_cover(g)
    if not g.is_connected():
        raise DisconnectedError("weights require a connected graph")


class _Listing:
    """The per-ordering breakdown of one report, from one ordering walk.

    grouped walks the orderings of (g, part) with _ordered_tree_walk,
    its prefixes built from the given pieces, and groups them by tree
    bitmask. The walk yields them in sorted order, so each tree's
    orderings stay sorted. Each tree must get as many orderings as the
    sums sweep counted. by_tree is grouped with the default pieces,
    walked the first time any row reads its orderings, every ordered
    weight 1/d one shared Fraction per distinct d.
    """

    def __init__(self, g: Multigraph, part: Partition, counts: dict[int, int]):
        self.g, self.part, self.counts = g, part, counts

    def grouped(self, piece, empty, item) -> dict[int, list]:
        """{tree mask: [item(order, k product), ...]}, the orderings of
        each tree in walk order, each order built from empty and the
        pieces of its edges."""
        grouped: dict[int, list] = {}
        for order, _, mask, denom in _ordered_tree_walk(self.g, self.part, piece, empty):
            items = grouped.get(mask)
            if items is None:
                items = grouped[mask] = []
            items.append(item(order, denom))
        if {mask: len(items) for mask, items in grouped.items()} != self.counts:
            raise InvariantError("the ordering walk and the summed ordering counts disagree")
        return grouped

    @cached_property
    def by_tree(self) -> dict[int, tuple[tuple[tuple[str, ...], Fraction], ...]]:
        shared: dict[int, Fraction] = {}

        def pair(order: tuple[str, ...], denom: int) -> tuple[tuple[str, ...], Fraction]:
            weight = shared.get(denom)
            if weight is None:
                weight = shared[denom] = Fraction(1, denom)
            return order, weight

        grouped = self.grouped(lambda eid: (eid,), (), pair)
        return {mask: tuple(pairs) for mask, pairs in grouped.items()}


class Breakdown(Sequence):
    """One tree's admissible orderings with their ordered weights, sorted.

    The length is the sums sweep's ordering count and costs nothing;
    the (order tuple, Fraction) pairs are listed, for every tree of the
    report at once, by _Listing.by_tree on first read. A writer that
    needs other items per ordering reads WeightReport.breakdowns, which
    builds no pairs. Compares equal to any tuple or list of the same
    pairs.
    """

    __slots__ = ("_count", "_tree", "_mask", "_listing")

    def __init__(self, count: int, tree: tuple[str, ...], mask: int, listing: _Listing):
        self._count, self._tree, self._mask, self._listing = count, tree, mask, listing

    def _pairs(self) -> tuple[tuple[tuple[str, ...], Fraction], ...]:
        return self._listing.by_tree[self._mask]

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._pairs()[index]

    def __iter__(self):
        return iter(self._pairs())

    def __eq__(self, other) -> bool:
        if isinstance(other, (Breakdown, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs())

    def __repr__(self) -> str:
        return f"Breakdown(tree={self._tree!r}, orderings={self._count})"


@dataclass(frozen=True)
class TreeRow:
    """One spanning tree with its weight and per-ordering breakdown."""

    tree: tuple[str, ...]
    weight: Fraction
    orderings: Sequence[tuple[tuple[str, ...], Fraction]]


@dataclass(frozen=True)
class WeightReport:
    """Weights of every spanning tree, sorted by edge-id set."""

    rows: tuple[TreeRow, ...]

    @property
    def total(self) -> Fraction:
        """The sum of the row weights, one Fraction per distinct weight:
        equal weights are counted by numerator and denominator (hashing
        a Fraction costs a modular inverse)."""
        counts = Counter((r.weight.numerator, r.weight.denominator) for r in self.rows)
        return sum((Fraction(num * c, d) for (num, d), c in counts.items()), Fraction(0))

    def breakdowns(self, piece, empty, item) -> list[list]:
        """Each row's orderings as [item(order, k product), ...], aligned
        with rows, from one walk of _Listing.grouped: each order is empty
        plus piece(edge id) of its edges, so a writer can build its text
        along the walk. The rows must be those of weight_distribution."""
        grouped = self.rows[0].orderings._listing.grouped(piece, empty, item)
        return [grouped[row.orderings._mask] for row in self.rows]

    def weight(self, tree: Iterable[str]) -> Fraction:
        key = tuple(sorted(tree))
        for row in self.rows:
            if row.tree == key:
                return row.weight
        return Fraction(0)


def weight_distribution(g: Multigraph, part: Partition) -> WeightReport:
    """The full probability distribution over the spanning trees of g.

    Tree weights and ordering counts come from one sweep over forests
    (partitions._forest_sums), as integer numerators over one
    denominator; each distinct numerator becomes one Fraction, shared
    by every row of that weight. A row's tree is read off its bitmask
    with the bits taken in id order, so it is sorted as it is built.
    The per-ordering breakdown is walked by _ordered_tree_walk only when
    read.
    """
    require_weighable(g, part)
    bits = [(eid, 1 << p) for p, (eid, _, _) in enumerate(g._edge_table)]
    trees, denom = _forest_sums(g, part)
    shared: dict[int, Fraction] = {}
    found = []
    for mask, (num, count) in trees.items():
        weight = shared.get(num)
        if weight is None:
            weight = shared[num] = Fraction(num, denom)
        found.append((tuple([eid for eid, bit in bits if mask & bit]), weight, mask, count))
    found.sort(key=itemgetter(0))
    listing = _Listing(g, part, {mask: count for mask, (_, count) in trees.items()})
    return WeightReport(
        tuple(
            TreeRow(key, weight, Breakdown(count, key, mask, listing))
            for key, weight, mask, count in found
        )
    )

