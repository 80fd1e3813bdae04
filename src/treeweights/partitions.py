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
merges; trace_batch walks many complete orderings at once on numpy
arrays of the same labels. _ordering_states builds the one table of
the forests that admissible orderings reach, level by level on the same
labels: each state holds its k and trans-block edges, and the table
sums every tree's weight and ordering count as it is built. The
weights, their per-ordering breakdown, ordered_trees and the psd
normalization all read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

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


# at most this many orderings go through one trace_batch call
BLOCK_ORDERINGS = 1 << 13


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """The integer traces of N complete orderings, one row each.

    orders[r] holds the edge indices (into graph.edges) of ordering r;
    k[r], merge_steps[r] and start_blocks are what its ContractionTrace
    holds as k_values, merge_steps and start_blocks. Shapes: orders and
    k (N, |V|-1), merge_steps (N, |V|, |V|), start_blocks (|V|,).
    """

    orders: np.ndarray
    k: np.ndarray
    merge_steps: np.ndarray
    start_blocks: np.ndarray

    def __len__(self) -> int:
        return len(self.orders)


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


def trace_batch(g: Multigraph, part: Partition, orders) -> TraceBatch:
    """build_trace of many complete orderings at once, as arrays.

    orders is an (N, |V|-1) array of indices into g.edges. Every row
    takes its steps on the integer labels of forest_trace, all rows
    together: k counts the edges whose two labels differ, and the pairs
    across the two joined components (kept as per-row component masks)
    get the step in merge_steps. Labels and steps are stored as int8
    (int16 from 64 vertices on). Raises NotAdmissibleError at the first
    step where some row's edge is not trans-block, and InvariantError if
    a row leaves a vertex pair unmerged.
    """
    part.require_cover(g)
    n = len(g.vertices)
    tails, heads = g._endpoints
    orders = np.asarray(orders, dtype=np.intp).reshape(len(orders), n - 1)
    count = len(orders)
    rows = np.arange(count)
    # labels stay below 2|V| and steps run to |V|
    small = np.int8 if n < 64 else np.int16
    start = np.array([part.block_index(v) for v in g.vertices], dtype=small)
    labels = np.repeat(start[None], count, axis=0)
    component = np.repeat(np.arange(n, dtype=small)[None], count, axis=0)
    merge = np.full((count, n, n), n, dtype=small)
    touched = np.full((count, n), n, dtype=small)
    k = np.empty((count, n - 1), dtype=np.int64)
    for step in range(n - 1):
        a, b = tails[orders[:, step]], heads[orders[:, step]]
        stuck = labels[rows, a] == labels[rows, b]
        if stuck.any():
            eid = g.edges[orders[stuck.argmax(), step]].id
            raise NotAdmissibleError(
                f"edge {eid!r} is not trans-block at step {step}", step=step
            )
        k[:, step] = np.count_nonzero(labels[:, tails] != labels[:, heads], axis=1)
        root = component[rows, a][:, None]
        in_a = component == root
        in_b = component == component[rows, b][:, None]
        across = in_a[:, :, None] & in_b[:, None, :]
        merge[across | across.transpose(0, 2, 1)] = step + 1
        joined = in_a | in_b
        touched[joined & (touched == n)] = step + 1
        component = np.where(joined, root, component)
        labels = np.where(joined, len(part.blocks) + step, labels)
    diag = np.arange(n)
    merge[:, diag, diag] = touched
    return TraceBatch(orders, k, merge, start)


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


def _ordering_states(g: Multigraph, part: Partition) -> tuple[list, dict[int, list], int]:
    """The forest-state table of (g, part), with every tree's weight.

    A state is a forest that an admissible ordering reaches, built once
    per edge bitmask (bit i for g.edges[i]) level by level, on the
    canonical labels of _merged_labels (block index until merged), so an
    edge is trans-block exactly when its two labels differ. A state is
    stored as [k, moves, last]: k counts its trans-block edges and moves
    holds (edge id, edge index, next) for each. On the last level next
    is the tree's bitmask and the moves are in id order; elsewhere next
    is the successor state and the moves are in reverse id order, ready
    to push. Each forest pushes its weight w/k and ordering count to its
    successors, as integer numerators over scale**depth, scale =
    lcm(1..|E|) being a multiple of every k. Returns the root,
    {tree mask: [numerator, orderings]} and scale**(|V|-1). g must be
    connected and the partition non-trivial.
    """
    vi = g._vertex_index
    ends = sorted((e.id, i, vi[e.ends[0]], vi[e.ends[1]]) for i, e in enumerate(g.edges))
    fresh = len(part.blocks)
    n = len(g.vertices)
    scale = math.lcm(*range(1, len(ends) + 1))
    root: list = [0, (), False]
    # mask -> [labels, state (on the tree level, the mask), numerator, orderings]
    level = {0: [tuple(part.block_index(v) for v in g.vertices), root, 1, 1]}
    for depth in range(n - 1):
        last = depth == n - 2
        after: dict[int, list] = {}
        for mask, (labels, state, num, count) in level.items():
            moves, successors = [], []
            for eid, i, a, b in ends:
                if labels[a] == labels[b]:
                    continue
                key = mask | 1 << i
                successor = after.get(key)
                if successor is None:
                    successor = after[key] = (
                        [None, key, 0, 0] if last
                        else [_merged_labels(labels, a, b, fresh), [0, (), False], 0, 0]
                    )
                successors.append(successor)
                moves.append((eid, i, successor[1]))
            if not moves:
                raise InvariantError("an interior contraction state has no trans-block edge")
            share = num * (scale // len(moves))
            for successor in successors:
                successor[2] += share
                successor[3] += count
            state[:] = len(moves), tuple(moves if last else reversed(moves)), last
        level = after
    trees = {mask: [num, count] for mask, (_, _, num, count) in level.items()}
    return root, trees, scale ** (n - 1)


def _walk_states(root: list) -> Iterator[tuple[tuple[str, ...], tuple[int, ...], int, int]]:
    """(order, edge indices, tree bitmask, k product) of every path from
    root, in sorted order. An explicit stack extends a path by one edge
    per step; nothing recurses and no edge list is rebuilt."""
    stack = [(root, (), (), 1)]
    while stack:
        (k, moves, last), order, indices, denom = stack.pop()
        denom *= k
        if last:
            for eid, i, mask in moves:
                yield order + (eid,), indices + (i,), mask, denom
        else:
            for eid, i, state in moves:
                stack.append((state, order + (eid,), indices + (i,), denom))


def _ordered_tree_walk(
    g: Multigraph, part: Partition
) -> Iterator[tuple[tuple[str, ...], tuple[int, ...], int, int]]:
    """ordered_trees with each ordering's edge indices and tree bitmask,
    as _walk_states yields them from a new state table of (g, part)."""
    part.require_cover(g)
    if len(g.vertices) == 1:
        yield (), (), 0, 1
        return
    yield from _walk_states(_ordering_states(g, part)[0])


def ordered_trees(g: Multigraph, part: Partition) -> Iterator[tuple[tuple[str, ...], int]]:
    """Every admissible ordered spanning tree of g with its k product.

    Yields (order, k_0 * ... * k_{|V|-2}) in sorted order, orderings
    compared by edge id. The orderings are read off the forest-state
    table of _ordering_states, in which every ordering that contracts
    the same edge set shares one state; the state holds k and the
    trans-block edges in id order, and a stack walks it. g must be
    connected and the partition non-trivial; then every state has a
    trans-block edge, so every path completes.
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


def batch_contact_indices(batch: TraceBatch) -> tuple[np.ndarray, np.ndarray]:
    """contact_indices of every vertex pair of every row of a batch.

    Returns (i, j), each of shape (N, |V|, |V|), with (-1, 0) on the
    diagonal by the same convention.
    """
    merge = batch.merge_steps
    touch = merge.diagonal(axis1=1, axis2=2)
    start = batch.start_blocks
    i = np.where(
        start[:, None] == start[None, :], np.minimum(touch[:, :, None], touch[:, None, :]), 0
    )
    j = merge.copy()
    diag = np.arange(merge.shape[1])
    i[:, diag, diag] = -1
    j[:, diag, diag] = 0
    return i, j
