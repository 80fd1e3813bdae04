"""Edge-ordering census: greedy leading trees and the symmetric weights.

A sector is a total order on all edges of a graph. The greedy sweep
walks the sector, keeping each edge that does not close a cycle
(self-loops never qualify), which yields the unique spanning tree of
minimum total rank: the Kruskal tree, so a tree's symmetric weight is
its chance of being the minimum spanning tree under iid uniform edge
weights. The census counts the sectors leading to each tree exactly,
without listing the |E|! sectors one by one. An edge inside a component
of the greedy forest can only ever close a cycle, as the forest only
grows, so how a sector prefix can go on depends only on the forest it
built and on how many edges it placed. The census sweeps these forests
level by level, each with the number of prefixes that reach it, and the
leading tree is fixed as soon as the forest spans: a state whose next
edge makes a spanning tree after d placed edges credits that tree with
its multiplicity times the (|E| - d - 1)! ways to order the rest. The
weight of a tree is count/|E|!. Counting is in integers throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DisconnectedError, EnumerationGuardExceededError
from .graph import Multigraph

DEFAULT_GUARD = 10


@dataclass(frozen=True)
class SectorCensus:
    """Leading-tree counts over all |E|! sectors of one graph.

    states counts the non-spanning forest states the census swept, over
    all its levels (one per count of placed edges), the root included.
    """

    counts: Mapping[frozenset[str], int]
    total: int
    states: int = 0

    def weight(self, tree: Iterable[str]) -> Fraction:
        return Fraction(self.counts.get(frozenset(tree), 0), self.total)


def sector_census(g: Multigraph, guard: int = DEFAULT_GUARD) -> SectorCensus:
    """Count leading trees over every sector, by sweeping forest states.

    Level d holds the greedy forests F built by prefixes of d edges,
    each carried as F's component labels and the number of ordered
    prefixes that reach it. The d placed edges all lie inside components
    of F, so the edges inside them that are still unplaced, the dead
    ones, number inside(F) - d; placing one keeps F. Each edge e that
    joins two components credits the multiplicity times (|E| - d - 1)!
    to the tree F + e when that spans, and moves the state to F + e
    otherwise. Refuses graphs with more than ``guard`` edges before any
    work: the census is exhaustive, never sampled.
    """
    if not g.is_connected():
        raise DisconnectedError("census requires a connected graph")
    m = len(g.edges)
    if m > guard:
        raise EnumerationGuardExceededError(
            f"{m} edges means {m}! sectors; guard is {guard}"
        )
    n = len(g.vertices)
    ids = [eid for eid, _, _ in g._edge_table]
    edges = [(1 << p, a, b) for p, (_, a, b) in enumerate(g._edge_table)]
    suffixes = [math.factorial(k) for k in range(m + 1)]
    raw: dict[int, int] = {}
    states = 0
    # state key: forest edges; value: [labels, multiplicity]
    level: dict[int, list] = {}
    if n == 1:
        raw[0] = suffixes[m]
    else:
        level[0] = [tuple(range(n)), 1]
    for placed in range(m):
        states += len(level)
        # sectors extending a prefix of placed + 1 edges
        credit = suffixes[m - placed - 1]
        after: dict[int, list] = {}
        for forest, (comp, mult) in level.items():
            spans = forest.bit_count() + 2 == n
            inside = 0
            for bit, a, b in edges:
                ca, cb = comp[a], comp[b]
                step = forest | bit
                if ca == cb:
                    inside += 1
                elif spans:
                    raw[step] = raw.get(step, 0) + mult * credit
                elif step in after:
                    after[step][1] += mult
                else:
                    after[step] = [tuple(ca if c == cb else c for c in comp), mult]
            # the placed edges all lie inside components; the rest are dead
            if inside > placed:
                after.setdefault(forest, [comp, 0])[1] += mult * (inside - placed)
        level = after
    counts = {
        frozenset(ids[i] for i in range(m) if key >> i & 1): c
        for key, c in raw.items()
    }
    return SectorCensus(counts, suffixes[m], states)

