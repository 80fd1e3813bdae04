"""Edge-ordering census: greedy leading trees and the symmetric weights.

A sector is a total order on all edges of a graph. The greedy sweep
walks the sector, keeping each edge that does not close a cycle
(self-loops never qualify), which yields the unique spanning tree of
minimum total rank: the Kruskal tree, so a tree's symmetric weight is
its chance of being the minimum spanning tree under iid uniform edge
weights. The census counts the sectors leading to each tree exactly,
without listing the |E|! sectors one by one. How a sector prefix can go
on depends only on the set of edges it placed and the greedy forest
they built, so the census sweeps these states level by level, each with
the number of prefixes that reach it, and the leading tree is fixed as
soon as the forest spans: a state whose next edge makes a spanning tree
after d placed edges credits that tree with its multiplicity times the
(|E| - d - 1)! ways to order the rest. The weight of a tree is
count/|E|!. Counting is in integers throughout.
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

    states is the number of non-spanning (placed edges, forest) states
    the census swept, the empty root included.
    """

    counts: Mapping[frozenset[str], int]
    total: int
    states: int = 0

    def weight(self, tree: Iterable[str]) -> Fraction:
        return Fraction(self.counts.get(frozenset(tree), 0), self.total)

    def weights(self) -> dict[frozenset[str], Fraction]:
        return {t: Fraction(c, self.total) for t, c in self.counts.items()}


def sector_census(g: Multigraph, guard: int = DEFAULT_GUARD) -> SectorCensus:
    """Count leading trees over every sector, by sweeping prefix states.

    A state is the set U of edges placed so far with the greedy forest F
    they built, carried as F's component labels and the number of
    ordered prefixes that reach it. Level d holds the states with
    |U| = d; each unused edge e moves a state to (U + e, F) when e
    closes a cycle in F, credits the multiplicity times (|E| - d - 1)!
    to the tree F + e when that spans, and moves it to (U + e, F + e)
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
    ids = sorted(e.id for e in g.edges)
    vi = g._vertex_index
    edges = [(1 << ei, vi[a], vi[b]) for ei, (a, b) in enumerate(map(g.ends, ids))]
    suffixes = [math.factorial(k) for k in range(m + 1)]
    raw: dict[int, int] = {}
    states = 0
    # state key: placed edges | forest edges << m; value: [labels, multiplicity]
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
        for key, (comp, mult) in level.items():
            spans = (key >> m).bit_count() + 2 == n
            for bit, a, b in edges:
                if key & bit:
                    continue
                ca, cb = comp[a], comp[b]
                if ca == cb:
                    step = key | bit
                elif spans:
                    tree = key >> m | bit
                    raw[tree] = raw.get(tree, 0) + mult * credit
                    continue
                else:
                    step = key | bit | bit << m
                state = after.get(step)
                if state is not None:
                    state[1] += mult
                elif ca == cb:
                    after[step] = [comp, mult]
                else:
                    after[step] = [tuple(ca if c == cb else c for c in comp), mult]
        level = after
    counts = {
        frozenset(ids[i] for i in range(m) if key >> i & 1): c
        for key, c in raw.items()
    }
    return SectorCensus(counts, suffixes[m], states)

