"""Immutable multigraphs with spanning-tree enumeration.

Vertices and edges carry opaque string labels. Self-loops and parallel
edges are first-class and are preserved by serialization. Every sweep
reads a graph's edges in one form, its edge table: each edge's id and
two ends as vertex indices, in id order, built once per graph; every
layer names an edge by its position there. It imports no numpy. All
operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

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
    def _edge_table(self) -> tuple[tuple[str, int, int], ...]:
        """(id, end, end) for each edge, in id order, with the ends as
        vertex indices. Loops and parallel edges are kept, each as an
        entry of its own. Every layer names an edge by its position here:
        bit p of a mask, index p of a move or of a trace row."""
        vi = self._vertex_index
        return tuple(sorted((e.id, vi[e.ends[0]], vi[e.ends[1]]) for e in self.edges))

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise UnknownEdgeError(f"no edge {edge_id!r} in graph") from None

    def validate(self) -> None:
        """Check the structural invariants.

        Raises DuplicateIdError for repeated vertex or edge labels and
        DanglingEndpointError for an endpoint outside the vertex set.
        """
        seen_v: set[str] = set()
        for v in self.vertices:
            if v in seen_v:
                raise DuplicateIdError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_e: set[str] = set()
        for e in self.edges:
            if e.id in seen_e:
                raise DuplicateIdError(f"duplicate edge id {e.id!r}")
            seen_e.add(e.id)
            for end in e.ends:
                if end not in seen_v:
                    raise DanglingEndpointError(
                        f"edge {e.id!r} endpoint {end!r} is not a vertex"
                    )

    def is_connected(self) -> bool:
        """True iff every vertex pair is joined by a path; single vertex counts."""
        n = len(self.vertices)
        if n == 0:
            return False
        ds = DisjointSet(n)
        for _, a, b in self._edge_table:
            ds.union(a, b)
        return ds.groups == 1

    def spanning_trees(self) -> list[frozenset[str]]:
        """All spanning trees as edge-id sets, sorted by their sorted ids.

        The sets are those of `_sorted_trees`, in its order.
        """
        return [frozenset(t) for t in self._sorted_trees()]

    def _sorted_trees(self, piece=lambda eid: (eid,), empty=()) -> list:
        """All spanning trees in sorted order, each as empty plus the
        pieces of its edges in id order: by default, its sorted edge-id
        tuple.

        piece(edge id) is called once per non-loop edge, and a state of
        `_tree_states` holds the piece of its edge. The trees are read
        off those states by a walk that keeps its own stack and takes
        each edge before skipping it, adding the edge's piece to the
        prefix taken so far, so a prefix shared by many trees is built
        once, not once per tree. Every state leads to a tree, so the
        walk never enters a branch without one and no branch needs a
        connectivity test. The edges come in id order, so each tree is
        built sorted, and taking first lists the trees in sorted order:
        no sort is needed. Nothing recurses, so a graph with thousands
        of edges lists its trees like any other.
        """
        if not self.is_connected():
            raise DisconnectedError("spanning trees require a connected graph")
        if len(self.vertices) == 1:
            return [empty]
        out = []
        stack = [(self._tree_states(piece), empty)]
        while stack:
            (part, take, skip), chosen = stack.pop()
            if skip is not None:
                stack.append((skip, chosen))
            if take is _TREE:
                out.append(chosen + part)
            elif take is not None:
                stack.append((take, chosen + part))
        return out

    def _tree_states(self, piece) -> list:
        """The root of the state DAG that `_sorted_trees` walks.

        The non-loop edges of the edge table are taken in id order. A
        state is a position in that order together with the forest
        chosen from the edges before it, carried as canonical component
        labels (each vertex labeled by the least vertex of its
        component), and is stored as [piece, take, skip]: piece(edge
        id) of its edge, made once per edge, and the states after
        taking and after skipping its edge, None where the move is not
        allowed, and take is `_TREE` where taking the edge completes a
        tree. How the forest can grow depends only on the state, so a
        state reached by different choices is built once, and only the
        previous position is kept while building.

        Only states that lead to a tree are built: the forest joined
        with the components of the edges still to come must connect
        every vertex (then, by matroid augmentation, those edges extend
        the forest to a tree). Taking an allowed edge keeps that true,
        and so does skipping an edge whose ends the forest or the later
        edges already join; only the other skips are tested. The test
        starts from the later edges' components, stored per position as
        a root per vertex and their count, and joins each vertex's root
        with that of its forest label, passing over equal roots; it
        stops once one component is left. A bridge is never skipped, so
        the states grow with the trees, not with the ways to leave edges
        out. The graph must be connected, with at least two vertices.
        """
        n = len(self.vertices)
        edges = [(piece(eid), a, b) for eid, a, b in self._edge_table if a != b]
        m = len(edges)
        # suffix[p]: the components of the edges at positions p and later, a
        # root per vertex and their count, None where they connect the graph
        suffix: list[tuple[tuple[int, ...], int] | None] = [None] * (m + 1)
        ds = DisjointSet(n)
        for p in range(m, 0, -1):
            suffix[p] = tuple(ds.find(v) for v in range(n)), ds.groups
            ds.union(edges[p - 1][1], edges[p - 1][2])
            if ds.groups == 1:
                break

        def joined(labels: tuple[int, ...], rest: tuple[int, ...], groups: int) -> bool:
            # each forest component joins the suffix roots of its vertices
            parent = list(range(n))
            for v, label in enumerate(labels):
                x, y = rest[v], rest[label]
                if x == y:
                    continue
                while parent[x] != x:
                    x = parent[x] = parent[parent[x]]
                while parent[y] != y:
                    y = parent[y] = parent[parent[y]]
                if x != y:
                    parent[x] = y
                    groups -= 1
                    if groups == 1:
                        return True
            return False

        root = [edges[0][0], None, None]
        # component labels -> (state, edges the tree still needs)
        level: dict[tuple[int, ...], tuple[list, int]] = {tuple(range(n)): (root, n - 1)}
        for pos, (_, a, b) in enumerate(edges):
            rest, groups = suffix[pos + 1] or (None, 0)
            # a built successor leads to a tree that needs another edge,
            # so one is left to decide
            after: dict[tuple[int, ...], tuple[list, int]] = {}
            for labels, (state, need) in level.items():
                la, lb = labels[a], labels[b]
                if la != lb:
                    if need == 1:
                        state[1] = _TREE
                    else:
                        lo, hi = (la, lb) if la < lb else (lb, la)
                        key = tuple(lo if c == hi else c for c in labels)
                        successor = ([edges[pos + 1][0], None, None], need - 1)
                        state[1] = after.setdefault(key, successor)[0]
                # an edge within a component of the forest, or one whose
                # ends the later edges join, can be skipped
                if la == lb or rest is None or rest[a] == rest[b] or joined(labels, rest, groups):
                    successor = ([edges[pos + 1][0], None, None], need)
                    state[2] = after.setdefault(labels, successor)[0]
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
        lap = [[0] * n for _ in range(n)]
        for _, a, b in self._edge_table:
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
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError("invalid JSON: nested too deeply") from exc
        return cls.from_json_dict(data)
