"""Vertex partitions and trans-block contraction sequences.

A partition divides a graph's vertices into disjoint non-empty blocks.
An edge is trans-block when its endpoints sit in two distinct blocks;
contracting a trans-block edge removes both endpoints from their blocks
(dropping any block left empty) and appends the merged vertex as a new
singleton block. A vertex thus keeps its starting block until first
merged, and an edge is trans-block exactly when its endpoints carry
different integer labels: the starting block index, then a number fresh
to the step that first merges the vertex. forest_trace walks one
ordering on these labels, recording the step at which each vertex pair
merges; psd.trace_batch walks many complete orderings at once on
numpy arrays of the same labels, then reads every row's contact indices
off its merge steps. With merged components labeled canonically,
the labels of a forest depend only on its components, and so do k and
the trans-block edges: _Labelings builds each labeling once, with its
trans-block edges in id order, k, and each move's successor labeling
when first asked. A move is an edge's position p in the edge table, and
a forest or tree mask sets bit p. Two routes read the labelings.
_forest_sums sweeps the forests that admissible orderings reach, level
by level at one dict update per forest and trans-block edge, and sums
every tree's weight and ordering count, for the weights.
_ordered_tree_walk walks the labelings themselves, one stack entry per
ordering prefix, and yields every admissible ordering in sorted order,
for the per-ordering breakdown, ordered_trees and the verify and psd
checks. It builds each ordering from one piece per edge, made once per
edge: the edge-id tuple by default, or the output text of the
breakdown, and reads the depth from the edge positions, not from the
length of the pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateVertexError,
    EmptyBlockError,
    InvariantError,
    MissingVertexError,
    NotASpanningTreeError,
    NotAdmissibleError,
    TrivialPartitionError,
    UnknownVertexError,
)
from .graph import Multigraph


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering a vertex set, in canonical order."""

    blocks: tuple[frozenset[str], ...]

    @classmethod
    def of(cls, blocks: Iterable[Iterable[str]]) -> Partition:
        """Canonicalize and validate disjointness and non-emptiness."""
        frozen: list[frozenset[str]] = []
        seen: set[str] = set()
        for block in blocks:
            fs = frozenset(block)
            if not fs:
                raise EmptyBlockError("partition blocks must be non-empty")
            dup = fs & seen
            if dup:
                raise DuplicateVertexError(
                    f"vertex {sorted(dup)[0]!r} appears in more than one block"
                )
            seen |= fs
            frozen.append(fs)
        frozen.sort(key=lambda b: tuple(sorted(b)))
        return cls(tuple(frozen))

    @classmethod
    def singletons(cls, vertices: Iterable[str]) -> Partition:
        return cls.of([v] for v in vertices)

    @classmethod
    def parse(cls, spec: str, vertices: Iterable[str]) -> Partition:
        """Parse the "a,b|c|d,e" block syntax against a known vertex set.

        Blocks are separated by '|', members by ','; whitespace is
        ignored. Every vertex must appear exactly once.
        """
        universe = set(vertices)
        blocks: list[list[str]] = []
        for chunk in spec.split("|"):
            members = [m.strip() for m in chunk.split(",")]
            members = [m for m in members if m]
            if not members:
                raise EmptyBlockError(f"empty block in partition spec {spec!r}")
            for m in members:
                if m not in universe:
                    raise UnknownVertexError(f"unknown vertex {m!r} in partition spec")
            if len(set(members)) != len(members):
                repeated = next(m for i, m in enumerate(members) if m in members[:i])
                raise DuplicateVertexError(f"vertex {repeated!r} appears more than once in a block")
            blocks.append(members)
        part = cls.of(blocks)
        missing = universe - part.support
        if missing:
            raise MissingVertexError(
                f"partition spec omits vertices {sorted(missing)}"
            )
        return part

    @cached_property
    def support(self) -> frozenset[str]:
        out: set[str] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    @cached_property
    def _block_of(self) -> dict[str, int]:
        return {v: i for i, b in enumerate(self.blocks) for v in b}

    def block_index(self, vertex: str) -> int:
        try:
            return self._block_of[vertex]
        except KeyError:
            raise UnknownVertexError(f"vertex {vertex!r} not in partition") from None

    @property
    def is_trivial(self) -> bool:
        return len(self.blocks) == 1

    def covers(self, g: Multigraph) -> bool:
        return self.support == frozenset(g.vertices)

    def require_cover(self, g: Multigraph) -> None:
        if not self.covers(g):
            raise MissingVertexError(
                "partition blocks do not cover the graph's vertex set"
            )

    def format(self) -> str:
        return "|".join(",".join(sorted(b)) for b in self.blocks)


@dataclass(frozen=True)
class ContractionTrace:
    """The integer record of contracting an ordered edge sequence.

    Step p is the state after the first p contractions. k_values[p] is
    the trans-block edge count of step p (recorded just before the
    step-(p+1) contraction). Vertices are indexed as in graph.vertices:
    start_blocks[a] is a's block index in the starting partition;
    merge_steps[a][b] is the first step at which a and b have one image,
    and its diagonal merge_steps[a][a] the first step at which a merges
    with any vertex. On a partial trace a pair that never merges, or a
    vertex never merged, gets len(order) + 1.
    """

    graph: Multigraph
    partition: Partition
    order: tuple[str, ...]
    k_values: tuple[int, ...]
    start_blocks: tuple[int, ...]
    merge_steps: tuple[tuple[int, ...], ...]

    @property
    def tree(self) -> frozenset[str]:
        return frozenset(self.order)

    @property
    def is_complete(self) -> bool:
        return len(self.order) == len(self.graph.vertices) - 1


def forest_trace(
    g: Multigraph, part: Partition, edges: Sequence[str]
) -> ContractionTrace:
    """Contract the edges in order, requiring each to be trans-block.

    Works for any edge sequence, spanning or not; raises
    NotAdmissibleError naming the first step whose edge is not
    trans-block for the partition reached at that point.
    """
    part.require_cover(g)
    ids = tuple(edges)
    if len(set(ids)) != len(ids):
        raise NotASpanningTreeError("ordered edges must be distinct")
    vi = g._vertex_index
    ends = {e.id: (vi[e.ends[0]], vi[e.ends[1]]) for e in g.edges}
    for eid in ids:
        g.edge(eid)
    n = len(g.vertices)
    fresh = len(part.blocks)
    labels = [part.block_index(v) for v in g.vertices]
    start = tuple(labels)
    members = [[a] for a in range(n)]
    merge = [[len(ids) + 1] * n for _ in range(n)]
    ks: list[int] = []
    for step, eid in enumerate(ids):
        a, b = ends[eid]
        if labels[a] == labels[b]:
            raise NotAdmissibleError(
                f"edge {eid!r} is not trans-block at step {step}", step=step
            )
        ks.append(sum(1 for x, y in ends.values() if labels[x] != labels[y]))
        for x in members[a]:
            for y in members[b]:
                merge[x][y] = merge[y][x] = step + 1
        joined = members[a] + members[b]
        for x in joined:
            members[x] = joined
            labels[x] = fresh + step
            merge[x][x] = min(merge[x][x], step + 1)
    return ContractionTrace(
        g, part, ids, tuple(ks), start, tuple(tuple(row) for row in merge)
    )


def build_trace(
    g: Multigraph, part: Partition, order: Sequence[str]
) -> ContractionTrace:
    """Full trace of an ordered spanning tree; the final partition is trivial."""
    if part.is_trivial:
        raise TrivialPartitionError("weights need a partition with at least two blocks")
    if not g.is_spanning_tree(order):
        raise NotASpanningTreeError(
            f"{list(order)} is not an ordering of a spanning tree"
        )
    trace = forest_trace(g, part, order)
    if max(trace.merge_steps[0]) > len(trace.order):
        raise InvariantError("a spanning-tree trace must merge every vertex pair")
    return trace


def _merged_labels(labels: tuple[int, ...], a: int, b: int, fresh: int) -> tuple[int, ...]:
    """Labels after joining the components of a and b.

    An untouched vertex is alone in its component whatever its label; a
    merged component is labeled fresh plus its least vertex.
    """
    la, lb = labels[a], labels[b]
    members = [
        v for v, lv in enumerate(labels)
        if v == a or v == b or (lv >= fresh and lv in (la, lb))
    ]
    out = list(labels)
    for v in members:
        out[v] = fresh + members[0]
    return tuple(out)


class _Labeling:
    """One canonical labeling of (g, part), with what its forests share.

    moves holds the edge-table position p of each trans-block edge, in
    id order, bits each one's 1 << p, k their number and share scale //
    k. after[j] is the labeling that contracting moves[j] leads to, None
    until _Labelings.successor first computes it.
    """

    __slots__ = ("labels", "moves", "bits", "k", "share", "after")

    def __init__(self, labels: tuple[int, ...], moves: list[int], scale: int):
        if not moves:
            raise InvariantError("an interior contraction state has no trans-block edge")
        self.labels, self.moves, self.k = labels, moves, len(moves)
        self.bits = [1 << p for p in moves]
        self.share = scale // self.k
        self.after: list[_Labeling | None] = [None] * self.k


class _Labelings:
    """The canonical labelings of (g, part), each built once.

    A forest's labels are those of _merged_labels (block index until
    merged). They depend only on the forest's components, so every
    forest with the same components shares one _Labeling, and an edge is
    trans-block exactly when its two labels differ. The edges are those
    of the graph's edge table, so every labeling's moves come in id
    order. scale = lcm(1..|E|) is a multiple of every k.
    """

    def __init__(self, g: Multigraph, part: Partition):
        self.table = g._edge_table
        self.fresh = len(part.blocks)
        self.scale = math.lcm(*range(1, len(self.table) + 1))
        self.memo: dict[tuple[int, ...], _Labeling] = {}
        self.root = self.get(tuple(part.block_index(v) for v in g.vertices))

    def get(self, labels: tuple[int, ...]) -> _Labeling:
        labeling = self.memo.get(labels)
        if labeling is None:
            moves = [p for p, (_, a, b) in enumerate(self.table) if labels[a] != labels[b]]
            labeling = self.memo[labels] = _Labeling(labels, moves, self.scale)
        return labeling

    def successor(self, labeling: _Labeling, j: int) -> _Labeling:
        _, a, b = self.table[labeling.moves[j]]
        labeling.after[j] = self.get(_merged_labels(labeling.labels, a, b, self.fresh))
        return labeling.after[j]


def _forest_sums(g: Multigraph, part: Partition) -> tuple[dict[int, list[int]], int]:
    """Every tree's weight and ordering count, summed over forests.

    A forest is an edge bitmask (bit p for edge-table position p) that
    an admissible ordering reaches, built once, level by level, with its
    labeling. Each forest pushes its weight w/k and ordering count to
    mask | bit for each trans-block bit, as integer numerators over
    scale**depth; a successor's labeling is computed only when a move
    first creates that successor. Returns {tree mask: [numerator,
    orderings]} and scale**(|V|-1). g must be connected with two or more
    vertices and the partition non-trivial.
    """
    labelings = _Labelings(g, part)
    n = len(g.vertices)
    # mask -> [labeling (None on the tree level), numerator, orderings]
    level: dict[int, list] = {0: [labelings.root, 1, 1]}
    for depth in range(n - 1):
        last = depth == n - 2
        after: dict[int, list] = {}
        for mask, (labeling, num, count) in level.items():
            share = num * labeling.share
            successors = labeling.after
            for j, bit in enumerate(labeling.bits):
                key = mask | bit
                forest = after.get(key)
                if forest is not None:
                    forest[1] += share
                    forest[2] += count
                elif last:
                    after[key] = [None, share, count]
                else:
                    after[key] = [successors[j] or labelings.successor(labeling, j), share, count]
        level = after
    trees = {mask: [num, count] for mask, (_, num, count) in level.items()}
    return trees, labelings.scale ** (n - 1)


def _ordered_tree_walk(
    g: Multigraph, part: Partition, piece=lambda eid: (eid,), empty=()
) -> Iterator[tuple]:
    """(order, edge positions, tree bitmask, k product) of every
    admissible ordering of (g, part), in sorted order, walked on its
    _Labelings. The positions are those of the edges in the edge table,
    and the order is empty plus the pieces of its edges in walk order:
    by default, its edge-id tuple.

    piece(edge id) is called once per edge, in table order. An explicit
    stack of (labeling, mask, order, positions, denom) extends an
    ordering by one edge, and its prefix by that edge's piece, per step,
    so a prefix shared by many orderings is built once; the depth is
    read from the positions, as a piece need not have length 1. Each
    labeling's moves are pushed in reverse id order, so they pop in id
    order, and a successor labeling is computed when a move first
    reaches it. Nothing recurses and no per-forest state is built.
    """
    part.require_cover(g)
    n = len(g.vertices)
    if n == 1:
        yield empty, (), 0, 1
        return
    labelings = _Labelings(g, part)
    pieces = [piece(eid) for eid, _, _ in labelings.table]
    stack = [(labelings.root, 0, empty, (), 1)]
    while stack:
        labeling, mask, order, positions, denom = stack.pop()
        denom *= labeling.k
        moves, bits = labeling.moves, labeling.bits
        if len(positions) == n - 2:
            for p, bit in zip(moves, bits):
                yield order + pieces[p], positions + (p,), mask | bit, denom
            continue
        successors = labeling.after
        for j in reversed(range(labeling.k)):
            p = moves[j]
            stack.append((
                successors[j] or labelings.successor(labeling, j),
                mask | bits[j], order + pieces[p], positions + (p,), denom,
            ))


def ordered_trees(g: Multigraph, part: Partition) -> Iterator[tuple[tuple[str, ...], int]]:
    """Every admissible ordered spanning tree of g with its k product.

    Yields (order, k_0 * ... * k_{|V|-2}) in sorted order, orderings
    compared by edge id. _ordered_tree_walk reads them off the
    canonical labelings of (g, part), each shared by every forest with
    the same components and holding k and the trans-block edges in id
    order. g must be connected and the partition non-trivial; then
    every labeling short of a tree has a trans-block edge, so every
    path completes.
    """
    for order, _, _, denom in _ordered_tree_walk(g, part):
        yield order, denom


def admissible_orderings(
    g: Multigraph, part: Partition, tree: Iterable[str]
) -> list[tuple[str, ...]]:
    """All orderings of a spanning tree whose trace succeeds.

    Admissibility is decided on the tree-only subgraph: whether a tree
    edge is trans-block at its step never depends on the other edges of
    g. The result is non-empty for every non-trivial partition and is
    sorted lexicographically.
    """
    if part.is_trivial:
        raise TrivialPartitionError("no admissible orderings for one block")
    tree_ids = sorted(set(tree))
    if not g.is_spanning_tree(tree_ids):
        raise NotASpanningTreeError(f"{tree_ids} is not a spanning tree")
    skeleton = Multigraph(g.vertices, tuple(g.edge(eid) for eid in tree_ids))
    return [order for order, _ in ordered_trees(skeleton, part)]


def contact_indices(trace: ContractionTrace, v: str, w: str) -> tuple[int, int]:
    """The separation and merge steps of a vertex pair along a trace.

    Returns (i, j): i is the first step whose partition puts the two
    images in distinct blocks, j the first step at which the images
    coincide. By convention the pair (v, v) gets (-1, 0). Along every
    complete trace i < j. Images in one starting block separate when
    either vertex is first merged, into a fresh singleton block.
    """
    vi = trace.graph._vertex_index
    for x in (v, w):
        if x not in vi:
            raise UnknownVertexError(f"vertex {x!r} not in the traced graph")
    if v == w:
        return (-1, 0)
    if not trace.is_complete:
        raise NotASpanningTreeError("contact indices need a complete trace")
    a, b = vi[v], vi[w]
    merge = trace.merge_steps
    if trace.start_blocks[a] != trace.start_blocks[b]:
        return (0, merge[a][b])
    return (min(merge[a][a], merge[b][b]), merge[a][b])
