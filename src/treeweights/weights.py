"""Exact partition weights on spanning trees.

Two independent routes compute the weight of an ordered tree:

* the count route multiplies 1/k over the trace, where k is the number
  of trans-block edges at each step;
* the monomial route assembles, from the contact indices of every edge,
  the product of interpolation variables the ordered tree integrates,
  and evaluates the integral in closed form as prod 1/(exponent + 1).

Both must agree bit-exactly; verify_exact checks this on every ordered
tree, together with the exponent law and the order of the contact
indices, on traces built in blocks by partitions.trace_batch. A tree
weighs the sum of its ordered weights over its admissible orderings,
and the weights of all spanning trees of a connected graph sum to
exactly 1. weight_distribution does not walk those orderings: k and
admissibility depend only on the components of the forest contracted
so far, so partitions._forest_sums sums every tree's weight over the
forests, merging every ordering that reaches the same forest. The
per-ordering breakdown is walked, only when read, by
partitions._ordered_tree_walk on the canonical labelings of the forests.
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

import numpy as np

from .errors import DisconnectedError, InvariantError, TrivialPartitionError
from .graph import Multigraph
from .partitions import (
    BLOCK_ORDERINGS,
    ContractionTrace,
    Partition,
    TraceBatch,
    _forest_sums,
    _ordered_tree_walk,
    batch_contact_indices,
    contact_indices,
    trace_batch,
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


@dataclass(frozen=True)
class ExactReport:
    """The ordered trees, their summed weight, and one verdict per check."""

    ordered: int
    total: Fraction
    routes_agree: bool
    exponent_law: bool
    contact_order: bool


def edge_exponents(
    g: Multigraph, batch: TraceBatch, contacts: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """edge_monomials of every row of a batch, as an (N, |V|-1) array.

    contacts is the batch's (i, j) from batch_contact_indices. The
    exponent of u_p counts the edges whose range covers step p: i < p < j
    for a tree edge, i < p <= j for every other edge.
    """
    a, b = g._endpoints
    i, j = (c[:, a, b] for c in contacts)
    in_tree = np.zeros(i.shape, dtype=bool)
    in_tree[np.arange(len(batch))[:, None], batch.orders] = True
    steps = np.arange(1, len(g.vertices))
    covered = (i[..., None] < steps) & (steps < (j + ~in_tree)[..., None])
    return np.count_nonzero(covered, axis=1)


def _row_products(a: np.ndarray) -> list[int]:
    """The exact product of each row, in Python ints past the int64 range."""
    if a.size and int(np.abs(a).max()) ** a.shape[1] >= 2**63:
        a = a.astype(object)
    return a.prod(axis=1).tolist()


def verify_exact(g: Multigraph, part: Partition) -> ExactReport:
    """The exact checks on every ordered tree of a partition.

    prod 1/k equals the integral of the edge monomial, whose exponents
    equal k - 1, and distinct vertices get contact indices i < j. The
    traces are built BLOCK_ORDERINGS orderings at a time; the count
    route reads k from the labels, the monomial route the merge steps.
    """
    require_weighable(g, part)
    rows, cols = np.triu_indices(len(g.vertices), 1)
    # the walk runs to completion before the checks: interleaving it
    # with the trace work measured slower
    walks = list(_ordered_tree_walk(g, part))
    denoms = [denom for _, _, _, denom in walks]
    total = sum((Fraction(c, d) for d, c in Counter(denoms).items()), Fraction(0))
    routes = exponents = contacts = True
    for first in range(0, len(walks), BLOCK_ORDERINGS):
        block = walks[first:first + BLOCK_ORDERINGS]
        batch = trace_batch(g, part, [indices for _, indices, _, _ in block])
        i, j = batch_contact_indices(batch)
        exps = edge_exponents(g, batch, (i, j))
        walked = denoms[first:first + len(block)]
        routes = routes and _row_products(batch.k) == walked == _row_products(exps + 1)
        exponents = exponents and np.array_equal(exps, batch.k - 1)
        contacts = contacts and bool(np.all(i[:, rows, cols] < j[:, rows, cols]))
    return ExactReport(len(walks), total, routes, exponents, contacts)


class _Listing:
    """The per-ordering breakdown of one report, from one ordering walk.

    The orderings of (g, part) are walked once, by _ordered_tree_walk,
    the first time any row reads its orderings. The walk yields them in
    sorted order, so grouping them by tree bitmask keeps each tree's
    orderings sorted, and every ordered weight 1/d is one shared
    Fraction per distinct d. Each tree must get as many orderings as the
    sums sweep counted.
    """

    def __init__(self, g: Multigraph, part: Partition, counts: dict[int, int]):
        self.g, self.part, self.counts = g, part, counts

    @cached_property
    def by_tree(self) -> dict[int, tuple[tuple[tuple[str, ...], Fraction], ...]]:
        grouped: dict[int, list[tuple[tuple[str, ...], Fraction]]] = {}
        shared: dict[int, Fraction] = {}
        for order, _, mask, denom in _ordered_tree_walk(self.g, self.part):
            weight = shared.get(denom)
            if weight is None:
                weight = shared[denom] = Fraction(1, denom)
            grouped.setdefault(mask, []).append((order, weight))
        if {mask: len(pairs) for mask, pairs in grouped.items()} != self.counts:
            raise InvariantError("the ordering walk and the summed ordering counts disagree")
        return {mask: tuple(pairs) for mask, pairs in grouped.items()}


class Breakdown(Sequence):
    """One tree's admissible orderings with their ordered weights, sorted.

    The length is the sums sweep's ordering count and costs nothing;
    the orderings are listed, for every tree of the report at once, on
    first read. Compares equal to any tuple or list of the same pairs.
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
    # each edge's bit in a tree mask, in id order
    bits = sorted((e.id, 1 << i) for i, e in enumerate(g.edges))
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

