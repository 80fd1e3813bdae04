"""Immutable multigraphs with spanning-tree enumeration.

Vertices and edges carry opaque string labels. Self-loops and parallel
edges are first-class and are preserved by serialization. All
operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DanglingEndpointError,
    DisconnectedError,
    DuplicateIdError,
    ParseError,
    UnknownEdgeError,
)


class DisjointSet:
    """Union-find over dense integer vertices, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.groups = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; return False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.groups -= 1
        return True


# the take move of a state whose edge completes a spanning tree
_TREE = object()


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]

    @property
    def is_self_loop(self) -> bool:
        return self.ends[0] == self.ends[1]


@dataclass(frozen=True)
class GraphAudit:
    """Outcome of validate(): the self-loop and parallel-class inventory."""

    self_loops: tuple[str, ...]
    parallel_classes: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Multigraph:
    """A labeled multigraph; endpoint order within an edge is irrelevant."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> Multigraph:
        """Construct from an iterable of (edge_id, end, end) triples and validate."""
        g = cls(tuple(vertices), tuple(Edge(i, (a, b)) for i, a, b in edges))
        g.validate()
        return g

    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _edge_index(self) -> dict[str, int]:
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads): the vertex index of each edge's two ends, in
        edge order, as read-only intp arrays."""
        vi = self._vertex_index
        tails, heads = (
            np.array([vi[e.ends[x]] for e in self.edges], dtype=np.intp) for x in (0, 1)
        )
        tails.flags.writeable = heads.flags.writeable = False
        return tails, heads

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"no edge {edge_id!r} in graph") from None

    def ends(self, edge_id: str) -> tuple[str, str]:
        return self.edge(edge_id).ends

    def validate(self) -> GraphAudit:
        """Check the structural invariants and inventory loops and parallels.

        Raises DuplicateIdError for repeated vertex or edge labels and
        DanglingEndpointError for an endpoint outside the vertex set.
        """
        seen_v: set[str] = set()
        for v in self.vertices:
            if v in seen_v:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_e: set[str] = set()
        by_pair: dict[frozenset[str], list[str]] = {}
        loops: list[str] = []
        for e in self.edges:
            if e.id in seen_e:
                raise DuplicateIdError(f"duplicate edge id {e.id!r}")
            seen_e.add(e.id)
            for end in e.ends:
                if end not in seen_v:
                    raise DanglingEndpointError(
                        f"edge {e.id!r} endpoint {end!r} is not a vertex"
                    )
            if e.is_self_loop:
                loops.append(e.id)
            by_pair.setdefault(frozenset(e.ends), []).append(e.id)
        parallels = tuple(
            tuple(ids) for ids in by_pair.values() if len(ids) > 1
        )
        return GraphAudit(tuple(loops), parallels)

    def is_connected(self) -> bool:
        """True iff every vertex pair is joined by a path; single vertex counts."""
        n = len(self.vertices)
        if n == 0:
            return False
        ds = DisjointSet(n)
        vi = self._vertex_index
        for e in self.edges:
            ds.union(vi[e.ends[0]], vi[e.ends[1]])
        return ds.groups == 1

    def spanning_trees(self) -> list[frozenset[str]]:
        """All spanning trees as edge-id sets, sorted by their sorted ids.

        The sets are those of `_sorted_trees`, in its order.
        """
        return [frozenset(t) for t in self._sorted_trees()]

    def _sorted_trees(self) -> list[tuple[str, ...]]:
        """All spanning trees as sorted edge-id tuples, in sorted order.

        The trees are read off the states of `_tree_states` by a walk
        that keeps its own stack and takes each edge before skipping
        it. Every state leads to a tree, so the walk never enters a
        branch without one and no branch needs a connectivity test.
        The edges come in id order, so each tree's tuple is built
        sorted, and taking first lists the trees in sorted order: no
        sort is needed. Nothing recurses, so a graph with thousands of
        edges lists its trees like any other.
        """
        if not self.is_connected():
            raise DisconnectedError("spanning trees require a connected graph")
        if len(self.vertices) == 1:
            return [()]
        out: list[tuple[str, ...]] = []
        stack: list[tuple[list, tuple[str, ...]]] = [(self._tree_states(), ())]
        while stack:
            (eid, take, skip), chosen = stack.pop()
            if skip is not None:
                stack.append((skip, chosen))
            if take is _TREE:
                out.append(chosen + (eid,))
            elif take is not None:
                stack.append((take, chosen + (eid,)))
        return out

    def _tree_states(self) -> list:
        """The root of the state DAG that `_sorted_trees` walks.

        The non-loop edges are taken in id order. A state is a position
        in that order together with the forest chosen from the edges
        before it, carried as canonical component labels (each vertex
        labeled by the least vertex of its component), and is stored as
        [edge id, take, skip]: the states after taking and after
        skipping its edge, None where the move is not allowed, and take
        is `_TREE` where taking the edge completes a tree. How the
        forest can grow depends only on the state, so a state reached by
        different choices is built once, and only the previous position
        is kept while building.

        Only states that lead to a tree are built: the forest joined
        with the components of the edges still to come must connect
        every vertex (then, by matroid augmentation, those edges extend
        the forest to a tree). Taking an allowed edge keeps that true,
        and so does skipping an edge whose ends the forest or the later
        edges already join; only the other skips are tested. A bridge
        is never skipped, so the states grow with the trees, not with
        the ways to leave edges out. The graph must be connected, with
        at least two vertices.
        """
        n = len(self.vertices)
        vi = self._vertex_index
        edges = sorted(
            (e.id, vi[e.ends[0]], vi[e.ends[1]]) for e in self.edges if not e.is_self_loop
        )
        m = len(edges)
        # suffix[p]: a root per vertex for the components of the edges at
        # positions p and later, None where those edges connect the graph
        suffix: list[tuple[int, ...] | None] = [None] * (m + 1)
        ds = DisjointSet(n)
        for p in range(m, 0, -1):
            suffix[p] = tuple(ds.find(v) for v in range(n))
            ds.union(edges[p - 1][1], edges[p - 1][2])
            if ds.groups == 1:
                break

        def joined(labels: tuple[int, ...], rest: tuple[int, ...]) -> bool:
            ds = DisjointSet(n)
            for v in range(n):
                ds.union(v, labels[v])
                ds.union(v, rest[v])
            return ds.groups == 1

        root = [edges[0][0], None, None]
        # component labels -> (state, edges the tree still needs)
        level: dict[tuple[int, ...], tuple[list, int]] = {tuple(range(n)): (root, n - 1)}
        for pos, (_, a, b) in enumerate(edges):
            rest = suffix[pos + 1]
            after: dict[tuple[int, ...], tuple[list, int]] = {}
            for labels, (state, need) in level.items():
                moves = []
                lo, hi = sorted((labels[a], labels[b]))
                if lo != hi and need == 1:
                    state[1] = _TREE
                elif lo != hi:
                    moves.append((1, tuple(lo if c == hi else c for c in labels), need - 1))
                # an edge within a component of the forest, or one whose
                # ends the later edges join, can be skipped
                if lo == hi or rest is None or rest[a] == rest[b] or joined(labels, rest):
                    moves.append((2, labels, need))
                # a built successor leads to a tree that needs another
                # edge, so one is left to decide
                for side, key, left in moves:
                    if key not in after:
                        after[key] = ([edges[pos + 1][0], None, None], left)
                    state[side] = after[key][0]
            level = after
        return root

    def complexity(self) -> int:
        """Number of spanning trees, by Kirchhoff's matrix-tree theorem.

        The count is the determinant of the Laplacian (self-loops
        ignored, parallel edges counted) with the first vertex's row and
        column removed, computed exactly by fraction-free Bareiss
        elimination. That minor is positive definite for a connected
        graph, so every pivot is a positive leading minor and no row
        exchange is needed.
        """
        if not self.is_connected():
            raise DisconnectedError("spanning trees require a connected graph")
        n = len(self.vertices)
        vi = self._vertex_index
        lap = [[0] * n for _ in range(n)]
        for e in self.edges:
            a, b = vi[e.ends[0]], vi[e.ends[1]]
            if a != b:
                lap[a][a] += 1
                lap[b][b] += 1
                lap[a][b] -= 1
                lap[b][a] -= 1
        m = [row[1:] for row in lap[1:]]
        prev = 1
        for p in range(n - 1):
            for r in range(p + 1, n - 1):
                for c in range(p + 1, n - 1):
                    m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
            prev = m[p][p]
        return prev

    def is_spanning_tree(self, edge_ids: Iterable[str]) -> bool:
        """True iff the ids form an acyclic edge set touching every vertex."""
        ids = list(edge_ids)
        if len(set(ids)) != len(ids) or len(ids) != len(self.vertices) - 1:
            return False
        ds = DisjointSet(len(self.vertices))
        vi = self._vertex_index
        by_id = self._edge_by_id
        for eid in ids:
            if eid not in by_id:
                return False
            a, b = by_id[eid].ends
            if not ds.union(vi[a], vi[b]):
                return False
        return ds.groups == 1

    # JSON wire format:
    #   {"vertices": ["v1", ...], "edges": [{"id": "l1", "ends": ["v1", "v2"]}, ...]}

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "ends": list(e.ends)} for e in self.edges],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, data: object) -> Multigraph:
        if not isinstance(data, Mapping):
            raise ParseError("graph document must be a JSON object")
        vertices = data.get("vertices")
        edges = data.get("edges")
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise ParseError('field "vertices" must be a list of strings')
        if not isinstance(edges, list):
            raise ParseError('field "edges" must be a list')
        triples = []
        for pos, item in enumerate(edges):
            if not isinstance(item, Mapping) or "id" not in item or "ends" not in item:
                raise ParseError(f'edge #{pos} must be an object with "id" and "ends"')
            eid, ends = item["id"], item["ends"]
            if not isinstance(eid, str):
                raise ParseError(f'edge #{pos}: "id" must be a string')
            if (
                not isinstance(ends, list)
                or len(ends) != 2
                or not all(isinstance(x, str) for x in ends)
            ):
                raise ParseError(f'edge {eid!r}: "ends" must be a pair of vertex ids')
            triples.append((eid, ends[0], ends[1]))
        return cls.build(vertices, triples)

    @classmethod
    def from_json(cls, text: str) -> Multigraph:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError("invalid JSON: nested too deeply") from exc
        return cls.from_json_dict(data)
