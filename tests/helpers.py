"""Shared oracles and generators for the test suite.

The oracles are deliberately naive and independent of the library's
algorithms: spanning trees by subset enumeration, admissible orderings
by filtering all permutations, the census by per-sector greedy calls,
contact indices and k values by scanning the object form of a trace.
Two more are the routes the state sweeps replaced: tree weights grouped
from every ordered tree, and the census over every permutation. The
last is the positivity check that builds its matrices one point at a
time, which the stacked build replaced.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from treeweights.errors import DisconnectedError, NotAdmissibleError
from treeweights.graph import DisjointSet, Multigraph
from treeweights.partitions import (
    ContractionTrace,
    Partition,
    build_trace,
    ordered_trees,
    trans_block_count,
)
from treeweights.psd import (
    AGREEMENT_TOLERANCE,
    PsdReport,
    TraceCheck,
    contact_matrix_direct,
    contact_matrix_recursion,
    min_eigenvalue,
)
from treeweights.sectors import SectorCensus, leading_tree
from treeweights.weights import TreeRow, WeightReport, require_weighable


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


def scan_contact_indices(trace: ContractionTrace, v: str, w: str) -> tuple[int, int]:
    """Contact indices by walking the replayed partitions and vertex maps.

    O(n) per pair: the first step whose blocks split the two images, and
    the first step at which the images coincide.
    """
    if v == w:
        return (-1, 0)
    first_split = None
    for p, (part, vmap) in enumerate(zip(trace.partitions, trace.vertex_maps)):
        iv, iw = vmap[v], vmap[w]
        if iv == iw:
            return (first_split, p)
        if first_split is None and part.block_index(iv) != part.block_index(iw):
            first_split = p
    raise AssertionError(f"trace never merges {v!r} and {w!r}")


def replayed_k_values(trace: ContractionTrace) -> tuple[int, ...]:
    """Trans-block counts of the replayed graph and partition at each step."""
    return tuple(
        trans_block_count(trace.graphs[p], trace.partitions[p])
        for p in range(len(trace.order))
    )


def census_by_leading_tree(g: Multigraph) -> dict[frozenset[str], int]:
    """Count leading trees one sector at a time via the public greedy."""
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
    for order, denom in ordered_trees(g, part):
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
        walks = sorted(ordered_trees(skeleton, part))
        if sum((Fraction(1, denom) for _, denom in walks), Fraction(0)) != 1:
            normalized = False
        for order, _ in walks:
            trace = build_trace(g, part, order)
            rng = np.random.default_rng([seed, index])
            index += 1
            worst_gap = 0.0
            worst_eig = np.inf
            diag_ok = True
            for _ in range(samples):
                u = rng.uniform(0.0, 1.0, size=n - 1)
                direct = contact_matrix_direct(trace, u)
                recursed = contact_matrix_recursion(trace, u)
                worst_gap = max(worst_gap, float(np.abs(direct - recursed).max()))
                worst_eig = min(worst_eig, min_eigenvalue(direct))
                if not (
                    np.array_equal(np.diag(direct), np.ones(n))
                    and np.array_equal(np.diag(recursed), np.ones(n))
                ):
                    diag_ok = False
            ones = np.ones(n - 1)
            zeros = np.zeros(n - 1)
            endpoints = (
                np.array_equal(contact_matrix_direct(trace, ones), np.ones((n, n)))
                and np.array_equal(contact_matrix_recursion(trace, ones), np.ones((n, n)))
                and np.array_equal(contact_matrix_direct(trace, zeros), np.eye(n))
                and np.array_equal(contact_matrix_recursion(trace, zeros), np.eye(n))
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
