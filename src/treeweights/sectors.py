"""Edge-ordering census: greedy leading trees and the symmetric weights.

A sector is a total order on all edges of a graph. The greedy sweep
walks the sector, keeping each edge that does not close a cycle
(self-loops never qualify), which yields the unique spanning tree of
minimum total rank: the Kruskal tree, so a tree's symmetric weight is
its chance of being the minimum spanning tree under iid uniform edge
weights. The census counts the sectors leading to each tree exactly,
without listing the |E|! sectors one by one: the leading tree is fixed
as soon as a sector prefix spans, so the census walks prefixes and
credits each spanning prefix of d edges with the (|E| - d)! sectors
that extend it. The weight of a tree is count/|E|!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DisconnectedError,
    EnumerationGuardExceededError,
    MalformedSectorError,
    NotASpanningTreeError,
)
from .graph import DisjointSet, Multigraph

DEFAULT_GUARD = 10


def _check_sector(g: Multigraph, sector: Sequence[str]) -> None:
    if len(sector) != len(g.edges) or set(sector) != {e.id for e in g.edges}:
        raise MalformedSectorError(
            "sector must list every edge id exactly once"
        )


def induced_ordering(g: Multigraph, sector: Sequence[str]) -> tuple[str, ...]:
    """Edges of the leading tree in the order the greedy sweep accepts them."""
    _check_sector(g, sector)
    n = len(g.vertices)
    vi = g._vertex_index
    ds = DisjointSet(n)
    accepted: list[str] = []
    for eid in sector:
        a, b = g.ends(eid)
        if ds.union(vi[a], vi[b]):
            accepted.append(eid)
            if len(accepted) == n - 1:
                break
    if len(accepted) != n - 1:
        raise DisconnectedError("greedy sweep did not span the graph")
    return tuple(accepted)


def leading_tree(g: Multigraph, sector: Sequence[str]) -> frozenset[str]:
    """The spanning tree selected by the greedy sweep under the sector."""
    return frozenset(induced_ordering(g, sector))


@dataclass(frozen=True)
class SectorCensus:
    """Leading-tree counts over all |E|! sectors of one graph."""

    counts: Mapping[frozenset[str], int]
    total: int

    def weight(self, tree: Iterable[str]) -> Fraction:
        return Fraction(self.counts.get(frozenset(tree), 0), self.total)

    def weights(self) -> dict[frozenset[str], Fraction]:
        return {t: Fraction(c, self.total) for t, c in self.counts.items()}

    @staticmethod
    def merge(parts: Iterable[SectorCensus], total: int) -> SectorCensus:
        """Combine partial censuses by exact integer addition."""
        counts: dict[frozenset[str], int] = {}
        for part in parts:
            for tree, c in part.counts.items():
                counts[tree] = counts.get(tree, 0) + c
        return SectorCensus(counts, total)


def sector_census(g: Multigraph, guard: int = DEFAULT_GUARD) -> SectorCensus:
    """Count leading trees over every sector, by walking sector prefixes.

    A prefix is extended by every unused edge in turn; the walk tracks
    the greedy forest of the prefix as component labels and stops at
    the first edge that makes it span, adding (|E| - d)! to that tree
    for the d-edge prefix. Refuses graphs with more than ``guard``
    edges before any work: the census is exhaustive, never sampled.
    """
    if not g.is_connected():
        raise DisconnectedError("census requires a connected graph")
    m = len(g.edges)
    if m > guard:
        raise EnumerationGuardExceededError(
            f"{m} edges means {m}! sectors; guard is {guard}"
        )
    n = len(g.vertices)
    ids = sorted(e.id for e in g.edges)
    vi = g._vertex_index
    pairs = [(vi[a], vi[b]) for a, b in (g.ends(i) for i in ids)]
    suffixes = [math.factorial(k) for k in range(m + 1)]
    raw: dict[int, int] = {}

    def extend(comp: tuple[int, ...], used: int, picked: int) -> None:
        # edges still unplaced once one more joins the prefix
        rest = m - used.bit_count() - 1
        spans = picked.bit_count() + 1 == n - 1
        for ei, (a, b) in enumerate(pairs):
            bit = 1 << ei
            if used & bit:
                continue
            ca, cb = comp[a], comp[b]
            if ca == cb:
                extend(comp, used | bit, picked)
            elif spans:
                raw[picked | bit] = raw.get(picked | bit, 0) + suffixes[rest]
            else:
                joined = tuple(ca if c == cb else c for c in comp)
                extend(joined, used | bit, picked | bit)

    if n == 1:
        raw[0] = suffixes[m]
    else:
        extend(tuple(range(n)), 0, 0)
    counts = {
        frozenset(ids[i] for i in range(m) if key >> i & 1): c
        for key, c in raw.items()
    }
    return SectorCensus(counts, suffixes[m])


def symmetric_weight(
    g: Multigraph, tree: Iterable[str], guard: int = DEFAULT_GUARD
) -> Fraction:
    """Fraction of sectors whose leading tree is the given tree."""
    t = frozenset(tree)
    if not g.is_spanning_tree(t):
        raise NotASpanningTreeError(f"{sorted(t)} is not a spanning tree")
    return sector_census(g, guard=guard).weight(t)
