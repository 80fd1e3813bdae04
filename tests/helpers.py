"""Shared oracles and generators for the test suite.

The oracles are deliberately naive and independent of the library's
algorithms: spanning trees by subset enumeration, admissible orderings
by filtering all permutations, the census by per-sector greedy calls,
contact indices and k values by scanning the object form of a trace,
and a tree's weight by summing 1/k over one trace per admissible
ordering. The object form is the contraction layer the integer kernel
replaced: a trace is replayed by contracting a Multigraph and a
Partition one edge at a time. Five more are the routes the state
sweeps replaced: tree weights grouped from every ordered tree, the
census over every permutation, the census that walks every sector
prefix, the contraction-deletion recursion that listed the spanning
trees and the depth-first search that listed the ordered trees. Then
the positivity check that builds its matrices one point at a time,
which the stacked build replaced, and the exact and positivity checks
that build one trace per ordered tree, which the batched kernel
replaced. Then the CLI writers that the one-pass writers replaced:
JSON through json.dump and the table written line by line. Last, the
per-row routes that reading rows straight off the state walks
replaced: a Fraction reduced for every tree and a Fraction sum for the
total, every tree row formatted on its own, the census compared with the partition route as dicts of
Fractions, each tree's normalization summed as Fractions, and the
spanning trees sorted back from frozensets. With them, the weights
command that built its rows as dicts and cell lists and wrote them
through the reference writer, before it wrote them from each distinct
weight's shared text. Finally, what the library no longer ships: the
example graphs of the paper's figures, the one-sector greedy sweep the
census replaced, and a complete trace as a one-row TraceBatch.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from treeweights import cli, psd
from treeweights.errors import (
    DisconnectedError,
    EnumerationGuardExceededError,
    InvariantError,
    NotAdmissibleError,
    NotASpanningTreeError,
    ParseError,
    TreeWeightsError,
)
from treeweights.graph import DisjointSet, Edge, Multigraph
from treeweights.partitions import (
    BLOCK_ORDERINGS,
    ContractionTrace,
    Partition,
    TraceBatch,
    _ordering_states,
    admissible_orderings,
    build_trace,
    contact_indices,
    trace_batch,
)
from treeweights.psd import (
    AGREEMENT_TOLERANCE,
    PsdReport,
    TraceCheck,
    contact_matrix_direct,
    contact_matrix_recursion,
    min_eigenvalue,
)
from treeweights.sectors import DEFAULT_GUARD, SectorCensus
from treeweights.weights import (
    Breakdown,
    ExactReport,
    TreeRow,
    WeightReport,
    _Listing,
    _row_products,
    edge_monomials,
    require_weighable,
)


# The example graphs of the paper's figures. fig1: three vertices, a
# triangle with one doubled side (4 edges, 5 spanning trees). fig2: four
# vertices, six edges including a parallel pair (12 spanning trees).
# Matching JSON files live in fixtures/ at the repository root for CLI use.


def fig1() -> Multigraph:
    return Multigraph.build(
        ["v1", "v2", "v3"],
        [
            ("l1", "v1", "v2"),
            ("l2", "v1", "v3"),
            ("l3", "v2", "v3"),
            ("l4", "v2", "v3"),
        ],
    )


def fig1_root_first() -> Partition:
    """Root at v1: the singleton {v1} against the rest."""
    return Partition.of([{"v1"}, {"v2", "v3"}])


def fig1_root_second() -> Partition:
    """Root at v2."""
    return Partition.of([{"v2"}, {"v1", "v3"}])


def fig2() -> Multigraph:
    return Multigraph.build(
        ["v1", "v2", "v3", "v4"],
        [
            ("l1", "v1", "v2"),
            ("l2", "v2", "v3"),
            ("l3", "v1", "v3"),
            ("l4", "v1", "v3"),
            ("l5", "v1", "v4"),
            ("l6", "v3", "v4"),
        ],
    )


def fig2_double_rooted() -> Partition:
    """Roots at v1 and v2; v3 and v4 share the remaining block."""
    return Partition.of([{"v1"}, {"v2"}, {"v3", "v4"}])


def is_tree_subset(g: Multigraph, ids: tuple[str, ...]) -> bool:
    """Acyclic and spanning, checked with a fresh union-find."""
    ds = DisjointSet(len(g.vertices))
    vi = g._vertex_index
    for eid in ids:
        a, b = g.ends(eid)
        if not ds.union(vi[a], vi[b]):
            return False
    return ds.groups == 1


def brute_force_spanning_trees(g: Multigraph) -> set[frozenset[str]]:
    """Try every edge subset of size |V| - 1."""
    ids = [e.id for e in g.edges]
    size = len(g.vertices) - 1
    return {
        frozenset(combo)
        for combo in itertools.combinations(ids, size)
        if is_tree_subset(g, combo)
    }


def contraction_deletion_trees(g: Multigraph) -> list[frozenset[str]]:
    """All spanning trees as edge-id sets, via contraction-deletion.

    Branching on one non-loop edge e splits the trees into those that
    contain e (trees of G/e, each extended by e) and those that do not
    (trees of G-e, explored only while G-e stays connected), so every
    tree is produced exactly once. Output is sorted for determinism.
    """
    if not g.is_connected():
        raise DisconnectedError("spanning trees require a connected graph")
    n = len(g.vertices)
    vi = g._vertex_index
    edges = [(e.id, vi[e.ends[0]], vi[e.ends[1]]) for e in g.edges]
    out: list[frozenset[str]] = []

    def still_connected(nverts: int, rem: list[tuple[str, int, int]]) -> bool:
        ds = DisjointSet(n)
        groups = nverts
        for _, a, b in rem:
            if ds.union(a, b):
                groups -= 1
        return groups == 1

    def rec(nverts: int, rem: list[tuple[str, int, int]], chosen: tuple[str, ...]):
        if nverts == 1:
            out.append(frozenset(chosen))
            return
        pick = next((t for t in rem if t[1] != t[2]), None)
        if pick is None:
            return
        eid, a, b = pick
        contracted = [
            (i, a if x == b else x, a if y == b else y)
            for i, x, y in rem
            if i != eid
        ]
        rec(nverts - 1, contracted, chosen + (eid,))
        deleted = [t for t in rem if t[0] != eid]
        if still_connected(nverts, deleted):
            rec(nverts, deleted, chosen)

    # vertices keep their dense indices; contraction reuses index a for
    # the merged vertex, so DisjointSet(n) stays valid throughout
    rec(n, edges, ())
    out.sort(key=lambda t: tuple(sorted(t)))
    return out


def depth_first_ordered_trees(g: Multigraph, part: Partition):
    """Every admissible ordered spanning tree with its k product, depth first.

    Searches contraction states on the integer labels of forest_trace,
    with contracted edges remapped onto the surviving endpoint: at each
    state every trans-block edge is a branch, and a completed sequence
    yields (order, k_0 * ... * k_{|V|-2}). g must be connected and the
    partition non-trivial. Yields in no particular order.
    """
    part.require_cover(g)
    n = len(g.vertices)
    vi = g._vertex_index
    ids = [e.id for e in g.edges]
    fresh = len(part.blocks)
    edges0 = [(i, vi[e.ends[0]], vi[e.ends[1]]) for i, e in enumerate(g.edges)]
    stack = [(edges0, [part.block_index(v) for v in g.vertices], (), 1)]
    while stack:
        edges, labels, prefix, denom = stack.pop()
        depth = len(prefix)
        if depth == n - 1:
            yield tuple(ids[i] for i in prefix), denom
            continue
        tb = [t for t in edges if labels[t[1]] != labels[t[2]]]
        k = len(tb)
        if not k:
            raise InvariantError("an interior contraction state has no trans-block edge")
        for ei, a, b in tb:
            labels2 = labels[:]
            labels2[a] = fresh + depth
            edges2 = [
                (j, a if x == b else x, a if y == b else y)
                for j, x, y in edges
                if j != ei
            ]
            stack.append((edges2, labels2, prefix + (ei,), denom * k))


def brute_force_orderings(
    g: Multigraph, part: Partition, tree: frozenset[str]
) -> set[tuple[str, ...]]:
    """Filter all (|V|-1)! orderings of the tree through build_trace."""
    out = set()
    for perm in itertools.permutations(sorted(tree)):
        try:
            build_trace(g, part, perm)
        except NotAdmissibleError:
            continue
        out.add(perm)
    return out


def contract_graph(g: Multigraph, edge_id: str) -> tuple[Multigraph, dict[str, str]]:
    """Merge the endpoints of a non-self-loop edge into one fresh vertex.

    The contracted edge disappears; every other edge keeps its id with
    endpoints remapped, so parallels of the contracted edge become
    self-loops. Returns the new graph and the old-to-new vertex map.
    The merged vertex is named by joining the endpoint labels with '+'
    in sorted order, which keeps contraction sequences reproducible.
    """
    e = g.edge(edge_id)
    if e.is_self_loop:
        raise ValueError(f"edge {edge_id!r} is a self-loop")
    a, b = e.ends
    merged = "+".join(sorted((a, b)))
    taken = set(g.vertices)
    while merged in taken:
        merged += "'"
    vmap = {v: v for v in g.vertices}
    vmap[a] = merged
    vmap[b] = merged
    new_vertices = tuple(merged if v == a else v for v in g.vertices if v != b)
    new_edges = tuple(
        Edge(f.id, (vmap[f.ends[0]], vmap[f.ends[1]])) for f in g.edges if f.id != edge_id
    )
    return Multigraph(new_vertices, new_edges), vmap


def contract_block(part: Partition, a: str, b: str, merged: str) -> Partition:
    """Remove both endpoints, drop emptied blocks, append {merged}."""
    if part.block_index(a) == part.block_index(b):
        raise ValueError(
            f"vertices {a!r} and {b!r} share a block; contraction needs"
            " endpoints in distinct blocks"
        )
    kept = [blk - {a, b} for blk in part.blocks]
    return Partition.of([blk for blk in kept if blk] + [{merged}])


def replay_trace(trace: ContractionTrace) -> tuple[tuple, tuple, tuple]:
    """The graphs, partitions and vertex maps of every step of a trace.

    Step p is the state after contracting the first p edges of the
    order through contract_graph and contract_block; a vertex map takes
    each original vertex to its image.
    """
    g, part, vmap = trace.graph, trace.partition, {v: v for v in trace.graph.vertices}
    steps = [(g, part, vmap)]
    for eid in trace.order:
        a, b = g.ends(eid)
        g, step_map = contract_graph(g, eid)
        part = contract_block(part, a, b, step_map[a])
        vmap = {orig: step_map[img] for orig, img in vmap.items()}
        steps.append((g, part, vmap))
    return tuple(map(tuple, zip(*steps)))


def trans_block_count(g: Multigraph, part: Partition) -> int:
    """Number of trans-block edge ids; parallel edges count separately."""
    part.require_cover(g)
    bi = part.block_index
    return sum(
        1 for e in g.edges
        if e.ends[0] != e.ends[1] and bi(e.ends[0]) != bi(e.ends[1])
    )


def tree_weight(g: Multigraph, part: Partition, tree) -> Fraction:
    """One tree's weight, summed over its admissible orderings one by one.

    Independent of weight_distribution's forest sweep.
    """
    orders = admissible_orderings(g, part, tree)
    return sum(
        (Fraction(1, math.prod(build_trace(g, part, order).k_values)) for order in orders),
        Fraction(0),
    )


def scan_contact_indices(replay: tuple[tuple, tuple, tuple], v: str, w: str) -> tuple[int, int]:
    """Contact indices by walking the partitions and vertex maps of a replay.

    replay is what replay_trace returns. O(n) per pair: the first step
    whose blocks split the two images, and the first step at which the
    images coincide.
    """
    if v == w:
        return (-1, 0)
    _, partitions, vertex_maps = replay
    first_split = None
    for p, (part, vmap) in enumerate(zip(partitions, vertex_maps)):
        iv, iw = vmap[v], vmap[w]
        if iv == iw:
            return (first_split, p)
        if first_split is None and part.block_index(iv) != part.block_index(iw):
            first_split = p
    raise AssertionError(f"trace never merges {v!r} and {w!r}")


def replayed_k_values(replay: tuple[tuple, tuple, tuple]) -> tuple[int, ...]:
    """Trans-block counts of the replayed graph and partition before each step."""
    graphs, partitions, _ = replay
    return tuple(trans_block_count(g, part) for g, part in zip(graphs[:-1], partitions))


class MalformedSectorError(TreeWeightsError):
    code = "malformed-sector"


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


def census_by_leading_tree(g: Multigraph) -> dict[frozenset[str], int]:
    """Count leading trees one sector at a time via the greedy sweep."""
    ids = sorted(e.id for e in g.edges)
    counts: dict[frozenset[str], int] = {}
    for perm in itertools.permutations(ids):
        t = leading_tree(g, perm)
        counts[t] = counts.get(t, 0) + 1
    return counts


def grouped_weight_distribution(g: Multigraph, part: Partition) -> WeightReport:
    """Tree weights summed from every ordered tree, grouped by tree."""
    require_weighable(g, part)
    grouped: dict[tuple[str, ...], list[tuple[tuple[str, ...], Fraction]]] = {}
    for order, denom in depth_first_ordered_trees(g, part):
        grouped.setdefault(tuple(sorted(order)), []).append((order, Fraction(1, denom)))
    rows = []
    for key in sorted(grouped):
        breakdown = tuple(sorted(grouped[key]))
        rows.append(
            TreeRow(key, sum((w for _, w in breakdown), Fraction(0)), breakdown)
        )
    return WeightReport(tuple(rows))


def permutation_census(g: Multigraph) -> SectorCensus:
    """The census over all |E|! permutations, one greedy sweep each."""
    if not g.is_connected():
        raise DisconnectedError("census requires a connected graph")
    m = len(g.edges)
    n = len(g.vertices)
    total = math.factorial(m)
    ids = sorted(e.id for e in g.edges)
    vi = g._vertex_index
    pairs = [(vi[a], vi[b]) for a, b in (g.ends(i) for i in ids)]
    target = n - 1
    raw: dict[tuple[int, ...], int] = {}
    if target == 0:
        raw[()] = total
    else:
        for perm in itertools.permutations(range(m)):
            parent = list(range(n))
            picked: list[int] = []
            for ei in perm:
                a, b = pairs[ei]
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[a] = b
                    picked.append(ei)
                    if len(picked) == target:
                        break
            key = tuple(sorted(picked))
            raw[key] = raw.get(key, 0) + 1
    counts = {frozenset(ids[i] for i in key): c for key, c in raw.items()}
    return SectorCensus(counts, total)


def prefix_census(g: Multigraph, guard: int = DEFAULT_GUARD) -> SectorCensus:
    """The census by walking sector prefixes one by one.

    A prefix is extended by every unused edge in turn; the walk tracks
    the greedy forest of the prefix as component labels and stops at
    the first edge that makes it span, adding (|E| - d)! to that tree
    for the d-edge prefix.
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


def pointwise_verify_constructive(
    g: Multigraph, part: Partition, samples: int, tol: float, seed: int
) -> PsdReport:
    """verify_constructive with one builder call per point.

    Draws each sample on its own and runs the endpoint points as four
    separate calls, keeping running worst values across the samples.
    """
    n = len(g.vertices)
    checks: list[TraceCheck] = []
    normalized = True
    index = 0
    for tree in g.spanning_trees():
        skeleton = Multigraph(g.vertices, tuple(g.edge(e) for e in sorted(tree)))
        walks = sorted(depth_first_ordered_trees(skeleton, part))
        if sum((Fraction(1, denom) for _, denom in walks), Fraction(0)) != 1:
            normalized = False
        for order, _ in walks:
            batch = one_row_batch(build_trace(g, part, order))
            rng = np.random.default_rng([seed, index])
            index += 1
            worst_gap = 0.0
            worst_eig = np.inf
            diag_ok = True
            for _ in range(samples):
                u = rng.uniform(0.0, 1.0, size=n - 1)
                direct = contact_matrix_direct(batch, u[None])[0]
                recursed = contact_matrix_recursion(batch, u[None])[0]
                worst_gap = max(worst_gap, float(np.abs(direct - recursed).max()))
                worst_eig = min(worst_eig, min_eigenvalue(direct))
                if not (
                    np.array_equal(np.diag(direct), np.ones(n))
                    and np.array_equal(np.diag(recursed), np.ones(n))
                ):
                    diag_ok = False
            ones = np.ones((1, n - 1))
            zeros = np.zeros((1, n - 1))
            endpoints = (
                np.array_equal(contact_matrix_direct(batch, ones)[0], np.ones((n, n)))
                and np.array_equal(contact_matrix_recursion(batch, ones)[0], np.ones((n, n)))
                and np.array_equal(contact_matrix_direct(batch, zeros)[0], np.eye(n))
                and np.array_equal(contact_matrix_recursion(batch, zeros)[0], np.eye(n))
            )
            ok = (
                worst_gap <= AGREEMENT_TOLERANCE
                and worst_eig >= -tol
                and diag_ok
                and endpoints
            )
            checks.append(
                TraceCheck(
                    tree=tuple(sorted(tree)),
                    order=order,
                    min_eigenvalue=float(worst_eig),
                    max_discrepancy=worst_gap,
                    endpoints_exact=endpoints,
                    unit_diagonal=diag_ok,
                    passed=ok,
                )
            )
    return PsdReport(
        seed=seed,
        samples=samples,
        tolerance=tol,
        checks=tuple(checks),
        measure_normalized=normalized,
        passed=normalized and all(c.passed for c in checks),
    )


def per_tree_verify_exact(g: Multigraph, part: Partition) -> ExactReport:
    """verify_exact with one trace, one edge_monomials call and one
    contact_indices call per distinct vertex pair for each ordered tree."""
    require_weighable(g, part)
    verts = g.vertices
    pairs = [(v, w) for a, v in enumerate(verts) for w in verts[a + 1:]]
    total = Fraction(0)
    routes = exponents = contacts = True
    walks = list(depth_first_ordered_trees(g, part))
    for order, denom in walks:
        weight = Fraction(1, denom)
        total += weight
        trace = build_trace(g, part, order)
        mono = edge_monomials(g, trace)
        routes = routes and Fraction(1, math.prod(trace.k_values)) == weight == mono.integral()
        exponents = exponents and mono.exponents == tuple(k - 1 for k in trace.k_values)
        contacts = contacts and all(
            i < j for i, j in (contact_indices(trace, v, w) for v, w in pairs)
        )
    return ExactReport(len(walks), total, routes, exponents, contacts)


def one_row_batch(trace: ContractionTrace) -> TraceBatch:
    """A complete trace as a TraceBatch of one row."""
    if not trace.is_complete:
        raise NotASpanningTreeError("a trace batch needs a complete trace")
    index = trace.graph._edge_index
    return TraceBatch(
        np.array([[index[eid] for eid in trace.order]], dtype=np.intp),
        np.array([trace.k_values], dtype=np.int64),
        np.array([trace.merge_steps]),
        np.array(trace.start_blocks),
    )


def trace_matrix_direct(trace: ContractionTrace, points: np.ndarray) -> np.ndarray:
    """The direct contact matrices of one trace at a stack of points,
    one contact_indices call per vertex pair."""
    verts = trace.graph.vertices
    n = len(verts)
    m = np.ones(points.shape[:-1] + (n, n))
    for a in range(n):
        for b in range(a + 1, n):
            i, j = contact_indices(trace, verts[a], verts[b])
            value = 1.0
            for k in range(max(i + 1, 1), j + 1):
                value *= points[..., k - 1]
            m[..., a, b] = m[..., b, a] = value
    return m


def trace_matrix_recursion(trace: ContractionTrace, points: np.ndarray) -> np.ndarray:
    """The interpolation chain of one trace at a stack of points."""
    n = len(trace.graph.vertices)
    merge = np.array(trace.merge_steps)
    start = np.array(trace.start_blocks)
    touch = merge.diagonal()
    split = np.where(start[:, None] == start[None, :], np.minimum.outer(touch, touch), 0)
    steps = np.arange(n - 1)[:, None, None]
    masks = (merge <= steps) | (split > steps)
    x = np.ones(points.shape[:-1] + (n, n))
    for p in range(1, n):
        up = points[..., p - 1, None, None]
        x = up * x + (1.0 - up) * np.where(masks[p - 1], x, 0.0)
    return x


def per_tree_verify_constructive(
    g: Multigraph, part: Partition, samples: int, tol: float, seed: int
) -> PsdReport:
    """verify_constructive with one trace, one stack per construction
    and one eigvalsh call for each ordered tree."""
    n = len(g.vertices)
    corners = np.array([np.ones((n, n)), np.eye(n)])
    checks: list[TraceCheck] = []
    normalized = True
    index = 0
    for tree in g.spanning_trees():
        skeleton = Multigraph(g.vertices, tuple(g.edge(e) for e in sorted(tree)))
        walks = sorted(depth_first_ordered_trees(skeleton, part))
        if sum((Fraction(1, denom) for _, denom in walks), Fraction(0)) != 1:
            normalized = False
        for order, _ in walks:
            trace = build_trace(g, part, order)
            rng = np.random.default_rng([seed, index])
            index += 1
            sampled = rng.uniform(0.0, 1.0, size=(samples, n - 1))
            points = np.vstack((sampled, np.ones(n - 1), np.zeros(n - 1)))
            direct = trace_matrix_direct(trace, points)
            recursed = trace_matrix_recursion(trace, points)
            worst_gap = float(np.abs(direct[:samples] - recursed[:samples]).max())
            worst_eig = min_eigenvalue(direct[:samples])
            diag_ok = all(
                np.all(m[:samples, range(n), range(n)] == 1.0) for m in (direct, recursed)
            )
            endpoints = all(np.array_equal(m[samples:], corners) for m in (direct, recursed))
            checks.append(
                TraceCheck(
                    tree=tuple(sorted(tree)),
                    order=order,
                    min_eigenvalue=worst_eig,
                    max_discrepancy=worst_gap,
                    endpoints_exact=endpoints,
                    unit_diagonal=diag_ok,
                    passed=(
                        worst_gap <= AGREEMENT_TOLERANCE
                        and worst_eig >= -tol
                        and diag_ok
                        and endpoints
                    ),
                )
            )
    return PsdReport(
        seed=seed,
        samples=samples,
        tolerance=tol,
        checks=tuple(checks),
        measure_normalized=normalized,
        passed=normalized and all(c.passed for c in checks),
    )


def reference_table(headers: list[str], rows: list[list[str]], out) -> None:
    """The table writer before the one-pass writer: one write per line."""
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def reference_emit(config: cli.RunConfig, payload, headers: list[str], rows, out) -> None:
    """cli._emit before the one-pass writers: JSON through json.dump, whose
    indent=2 encoder writes token by token, and the line-by-line table."""
    if config.output_format == "json":
        json.dump({"format": cli.FORMAT_VERSION, **payload()}, out, indent=2, allow_nan=False)
        out.write("\n")
    elif config.output_format == "csv":
        cli._emit_csv(headers, rows(), out)
    else:
        reference_table(headers, rows(), out)


def reference_weight_distribution(g: Multigraph, part: Partition) -> WeightReport:
    """weight_distribution before equal weights shared one Fraction: a
    Fraction reduced for every tree, its key sorted from the mask."""
    require_weighable(g, part)
    ids = [e.id for e in g.edges]
    root, trees, denom = _ordering_states(g, part)
    found = {
        tuple(sorted(ids[i] for i in range(len(ids)) if mask >> i & 1)): (mask, num, count)
        for mask, (num, count) in trees.items()
    }
    listing = _Listing(root, {mask: count for mask, (_, count) in trees.items()})
    return WeightReport(
        tuple(
            TreeRow(key, Fraction(num, denom), Breakdown(count, key, mask, listing))
            for key, (mask, num, count) in sorted(found.items())
        )
    )


def reference_total(report: WeightReport) -> Fraction:
    """WeightReport.total before it summed one Fraction per distinct
    weight: one Fraction addition per row."""
    return sum((r.weight for r in report.rows), Fraction(0))


def reference_weight_items(report: WeightReport, breakdown: bool, table: bool) -> list:
    """The rows of a weight report as cmd_weights built them before it
    wrote them from each distinct weight's shared text (the code since
    deleted, as it stood before tree rows were formatted once per
    distinct weight): a dict per JSON item, or with table=True a list of
    cells per table line, every tree row's weight formatted on its own,
    and its table row made from its JSON item."""
    out = []
    shown: dict[tuple[int, int], tuple[str, str]] = {}

    def formatted(w: Fraction) -> tuple[str, str]:
        key = (w.numerator, w.denominator)
        text = shown.get(key)
        if text is None:
            text = shown[key] = (str(w), cli._decimal_str(w))
        return text

    for row in report.rows:
        item = {
            "tree": list(row.tree),
            "weight": str(row.weight),
            "decimal": cli._decimal_str(row.weight),
            "orderings": len(row.orderings),
        }
        if table:
            out.append(cli._cells(item))
            if breakdown:
                for order, w in row.orderings:
                    text, decimal = formatted(w)
                    out.append(["  " + ",".join(order), text, decimal, ""])
            continue
        if breakdown:
            item["breakdown"] = [
                {"order": list(order), "weight": formatted(w)[0]} for order, w in row.orderings
            ]
        out.append(item)
    return out


def reference_cmd_weights(config: cli.RunConfig, g: Multigraph, out) -> int:
    """cmd_weights before its rows were written from shared text:
    reference_weight_distribution's report, its rows built by
    reference_weight_items and written by reference_emit."""
    if config.partition is None:
        raise ParseError("the weights command requires --partition")
    part = cli.parse_partition(config.partition, g)
    report = reference_weight_distribution(g, part)
    total = reference_total(report)
    if total != 1:
        raise cli.CheckFailure(f"weights sum to {total}, not 1")

    def payload():
        return {
            "command": "weights",
            "partition": part.format(),
            "rows": reference_weight_items(report, config.breakdown, table=False),
            "sum": str(total),
        }

    reference_emit(
        config,
        payload,
        ["tree", "weight", "decimal", "orderings"],
        lambda: reference_weight_items(report, config.breakdown, table=True),
        out,
    )
    return cli.EXIT_OK


def reference_cmd_trees(config: cli.RunConfig, g: Multigraph, out) -> int:
    """cmd_trees before the walk's sorted tuples reached it: each
    frozenset of spanning_trees sorted back into a list."""
    trees = [sorted(t) for t in g.spanning_trees()]
    rows = [[",".join(t)] for t in trees]
    payload = {"command": "trees", "count": len(trees), "trees": trees}
    cli._emit(config, lambda: payload, ["tree"], lambda: rows, out)
    return cli.EXIT_OK


def reference_cmd_symmetric(config: cli.RunConfig, g: Multigraph, out) -> int:
    """cmd_symmetric before its integer check: the census and the
    partition route compared as dicts of Fractions, keyed by frozenset,
    and every row formatted on its own. It reads sector_census and
    weight_distribution through cli, so a patch there reaches both."""
    census = cli.sector_census(g, guard=config.guard)
    census_weights = census.weights()
    if len(g.vertices) >= 2:
        report = cli.weight_distribution(g, Partition.singletons(g.vertices))
        if census_weights != report.weights():
            raise cli.CheckFailure("sector census and partition route disagree")
        order_counts = {frozenset(r.tree): len(r.orderings) for r in report.rows}
    else:
        order_counts = {}
    items = [
        {
            "tree": sorted(tree),
            "weight": str(w),
            "decimal": cli._decimal_str(w),
            "sectors": census.counts[tree],
            "orderings": order_counts.get(tree, 0),
        }
        for tree, w in sorted(census_weights.items(), key=lambda item: sorted(item[0]))
    ]
    counted = sum(census.counts.values())
    if counted != census.total:
        raise cli.CheckFailure(f"weights sum to {Fraction(counted, census.total)}, not 1")
    payload = {
        "command": "symmetric",
        "sectors_total": census.total,
        "rows": items,
        "sum": "1",
    }
    headers = ["tree", "weight", "decimal", "sectors", "orderings"]
    cli._emit(config, lambda: payload, headers, lambda: [cli._cells(item) for item in items], out)
    return cli.EXIT_OK


def reference_measure_normalized(g: Multigraph, part: Partition) -> bool:
    """verify_constructive's normalization before it was checked in
    integers: each tree's ordered weights summed as Fractions. It reads
    the walk and _tree_k through psd, so a patch there reaches both."""
    spanning = g.complexity()
    walked = psd._ordered_tree_walk(g, part)
    walks = sorted(
        ((tuple(sorted(order)), order, indices) for order, indices, _, _ in walked),
        key=lambda row: row[0],
    )
    tree_weights: dict[tuple[str, ...], Fraction] = {}
    for first in range(0, len(walks), BLOCK_ORDERINGS):
        block = walks[first:first + BLOCK_ORDERINGS]
        batch = trace_batch(g, part, [indices for _, _, indices in block])
        for (tree, _, _), denom in zip(block, _row_products(psd._tree_k(g, batch))):
            tree_weights[tree] = tree_weights.get(tree, 0) + Fraction(1, denom)
    return len(tree_weights) == spanning and all(w == 1 for w in tree_weights.values())


def random_connected_multigraph(
    rng: random.Random,
    min_vertices: int = 2,
    max_vertices: int = 5,
    max_edges: int = 8,
) -> Multigraph:
    """A connected multigraph with self-loops and parallel edges allowed.

    A random spanning tree guarantees connectivity; the remaining edge
    budget is filled with uniformly random endpoint pairs, equal pairs
    included.
    """
    nv = rng.randint(min_vertices, max_vertices)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    edges: list[tuple[str, str, str]] = []
    for i in range(1, nv):
        other = rng.randrange(i)
        edges.append((f"l{len(edges) + 1}", vertices[i], vertices[other]))
    ne = rng.randint(nv - 1, max_edges)
    while len(edges) < ne:
        a = rng.choice(vertices)
        b = rng.choice(vertices)
        edges.append((f"l{len(edges) + 1}", a, b))
    return Multigraph.build(vertices, edges)


def all_set_partitions(items: list[str]) -> list[list[set[str]]]:
    """Every partition of the items, by placing each into old or new blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out: list[list[set[str]]] = []
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            grown = [set(b) for b in sub]
            grown[i].add(first)
            out.append(grown)
        out.append([{first}] + [set(b) for b in sub])
    return out


def nontrivial_partitions(
    g: Multigraph, rng: random.Random | None = None, cap: int = 50
) -> list[Partition]:
    """All non-trivial partitions of the vertex set, sampled down to cap."""
    parts = [
        Partition.of(blocks)
        for blocks in all_set_partitions(sorted(g.vertices))
        if len(blocks) >= 2
    ]
    if len(parts) > cap:
        assert rng is not None
        parts = rng.sample(parts, cap)
    return parts


def relabel(g: Multigraph, mapping: dict[str, str]) -> Multigraph:
    """Apply a vertex relabeling, keeping edge ids."""
    return Multigraph.build(
        [mapping[v] for v in g.vertices],
        [(e.id, mapping[e.ends[0]], mapping[e.ends[1]]) for e in g.edges],
    )
