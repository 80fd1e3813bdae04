"""Seeded inputs and the fixed case lists of the benchmark's workloads.

A case is one CLI invocation: a command, a graph file and arguments.
Graphs are built from the workload seed; the program only ever sees the
written JSON files and the arguments. For `dense-weights` and `census`
the seed permutes vertex labels, edge ids and edge order of fixed
abstract graphs, so every seed does the same amount of work. For
`pool-verify` the seed draws a fresh pool of small random multigraphs
whose vertex and edge counts follow a fixed schedule.

Every workload runs all five commands, because every end-to-end metric
(one per command) must be reported on every workload. The commands
outside a workload's focus run on small graphs and take a minor share
of the pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

WORKLOADS = ("dense-weights", "census", "pool-verify")
COMMANDS = ("trees", "symmetric", "weights", "verify", "psd")
DEFAULT_SEED = 1

# Size fence: no case above these may start, so no multi-minute case runs.
# A case that the program must refuse with the guard exit is exempt.
MAX_CENSUS_EDGES = 10
MAX_WEIGHT_VERTICES = 6
MAX_TREES_VERTICES = 7
EXIT_GUARD = 4


class FenceError(Exception):
    """A generated case is larger than the size fence allows."""


@dataclass(frozen=True)
class Graph:
    """An abstract multigraph on vertices 0..n-1; a pair (v, v) is a loop."""

    n: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Case:
    id: str
    command: str
    graph: str
    partition: tuple[tuple[int, ...], ...] | None = None
    output_format: str = "json"
    breakdown: bool = False
    seed: int = 0
    expect_exit: int = 0
    ordered_trees: int | None = None  # counted independently, where known


def complete(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


SINGLETONS = None  # marker: the all-singletons partition


def _blocks(g: Graph, partition) -> tuple[tuple[int, ...], ...]:
    if partition is SINGLETONS:
        return tuple((v,) for v in range(g.n))
    return partition


# The named graphs, in abstract form.
K4, K5, K6, K7 = complete(4), complete(5), complete(6), complete(7)
# 6-cycle with two chords, two parallel edges and a self-loop.
MULTI6 = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                   (0, 3), (1, 4), (0, 1), (2, 3), (5, 5)))
# K5 without one edge: 9 edges.
K5_LESS = Graph(5, K5.pairs[1:])
# K4 plus two parallel edges and a loop: 9 edges on 4 vertices.
MULTI4 = Graph(4, K4.pairs + ((0, 1), (2, 3), (3, 3)))
# Triangular prism: two triangles joined by a perfect matching.
PRISM = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                  (0, 3), (1, 4), (2, 5)))
# The 3-cube has 12 edges: above the census guard, refused at once.
CUBE = Graph(8, tuple((a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b))
# K4 plus two parallel edges: an 8-edge census.
MULTI8 = Graph(4, K4.pairs + ((0, 1), (2, 3)))

NAMED_GRAPHS = {
    "k4": K4, "k5-less": K5_LESS, "k6": K6, "k7": K7, "multi4": MULTI4, "multi6": MULTI6,
    "multi8": MULTI8, "prism": PRISM, "cube": CUBE,
}

PAIRS6 = ((0, 1), (2, 3), (4, 5))
ROOTED6 = ((0,), (1, 2, 3, 4, 5))
ROOTED4 = ((0, 1, 2), (3,))

POOL_SIZE = 40
# (vertices, edges) of the pool graphs, cycled: same sizes for every seed.
POOL_SHAPES = ((3, 5), (4, 6), (5, 7), (4, 8), (5, 6), (3, 7), (4, 7), (5, 6))
POOL_WEIGHT_PARTITIONS = 6
POOL_VERIFY_PARTITIONS = 2
# Work of the pool's `weights`, `verify` and `psd` cases, summed over the
# pool, so that every seed does nearly the same work. A `weights` or
# `verify` case costs about the same per ordered tree at every size; a
# `psd` case costs about |V| units per ordered tree (its matrices are
# |V| x |V|).
POOL_WEIGHT_ORDERED_TREES = 13000
POOL_VERIFY_ORDERED_TREES = 4000
POOL_PSD_UNITS = 3200


# Small cases that give each workload every command outside its focus.
MINOR = {
    "trees": Case("trees-k6", "trees", "k6"),
    "symmetric": Case("symmetric-multi8", "symmetric", "multi8"),
    "weights": Case("weights-multi6-pairs", "weights", "multi6", PAIRS6),
    "verify": Case("verify-multi8-singletons", "verify", "multi8", SINGLETONS),
    "psd": Case("psd-k4-rooted", "psd", "k4", ROOTED4),
}
# The minor cases are short, so each runs this many times per pass, at
# points spread over it: their times need more samples than a run's
# passes alone give.
MINOR_REPEATS = 4


def _with_minor(focus: list[Case], graphs: dict[str, Graph] | None = None):
    """The focus cases with the minor ones spread among them, and the
    graphs they use."""
    commands = {c.command for c in focus}
    minor = [MINOR[c] for c in COMMANDS if c not in commands]
    cases = []
    for r in range(MINOR_REPEATS):
        cases += focus[r * len(focus) // MINOR_REPEATS:(r + 1) * len(focus) // MINOR_REPEATS] + minor
    available = {**NAMED_GRAPHS, **(graphs or {})}
    return {c.graph: available[c.graph] for c in cases}, cases


def _dense_weights() -> tuple[dict[str, Graph], list[Case]]:
    return _with_minor(
        [
            Case("weights-k6-singletons", "weights", "k6", SINGLETONS),
            Case("weights-k6-pairs", "weights", "k6", PAIRS6),
            Case("weights-k6-rooted", "weights", "k6", ROOTED6),
            Case("weights-k6-rooted-breakdown", "weights", "k6", ROOTED6,
                 output_format="table", breakdown=True),
            Case("weights-multi6-singletons", "weights", "multi6", SINGLETONS),
            Case("trees-k7", "trees", "k7"),
        ]
    )


def _census() -> tuple[dict[str, Graph], list[Case]]:
    return _with_minor(
        [
            Case("symmetric-k5-less", "symmetric", "k5-less"),
            Case("symmetric-multi4", "symmetric", "multi4"),
            Case("symmetric-prism", "symmetric", "prism"),
            Case("symmetric-cube-guard", "symmetric", "cube", expect_exit=EXIT_GUARD),
        ]
    )


def _documents(graphs: dict[str, Graph], rng: random.Random | None):
    """The graphs' JSON documents and each graph's vertex names.

    With an rng, vertex labels, edge ids, edge order and endpoint order
    are permuted: new inputs, the same work.
    """
    docs, names = {}, {}
    for name, g in graphs.items():
        vnames = [f"v{i + 1}" for i in range(g.n)]
        eids = [f"e{i + 1}" for i in range(len(g.pairs))]
        order = list(range(len(g.pairs)))
        if rng is not None:
            rng.shuffle(vnames)
            rng.shuffle(eids)
            rng.shuffle(order)
        edges = []
        for k in order:
            a, b = g.pairs[k]
            if rng is not None and rng.random() < 0.5:
                a, b = b, a
            edges.append({"id": eids[k], "ends": [vnames[a], vnames[b]]})
        docs[name] = {"vertices": [f"v{i + 1}" for i in range(g.n)], "edges": edges}
        names[name] = vnames
    return docs, names


def _random_pool_graph(rng: random.Random, n: int, m: int) -> Graph:
    """A connected multigraph: a random spanning tree plus random extra pairs."""
    pairs = [(i, rng.randrange(i)) for i in range(1, n)]
    while len(pairs) < m:
        pairs.append((rng.randrange(n), rng.randrange(n)))
    rng.shuffle(pairs)
    return Graph(n, tuple(pairs))


def _set_partitions(items: list[int]) -> list[list[list[int]]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            out.append([b + [first] if j == i else b for j, b in enumerate(sub)])
        out.append([[first]] + sub)
    return out


def ordered_tree_count(trees, blocks) -> int:
    """Admissible ordered spanning trees for a partition, counted
    independently of the program: brute force over edge subsets.

    `trees` are the graph's spanning trees, from spanning_trees(g).
    """
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    total = 0
    for tree in trees:
        ends = tuple((1 << a) | (1 << b) for a, b in tree)
        same_block = sum(1 << i for i, (a, b) in enumerate(tree) if block_of[a] == block_of[b])
        total += _orderings(ends, same_block)
    return total


@functools.cache
def _orderings(ends: tuple[int, ...], same_block: int) -> int:
    """Admissible orderings of one tree's edges, each given by the bit
    mask of its two ends; bit i of same_block is set if edge i joins two
    vertices of one block.

    Contracting a set S of tree edges leaves each merged vertex in a
    fresh block of its own, so whether edge e may follow S depends only
    on S: e is admissible unless both its ends are still unmerged
    vertices of one block.
    """
    k = len(ends)
    touched = [0] * (1 << k)  # vertices merged by the edge subset
    ways = [0] * (1 << k)
    ways[0] = 1
    for s in range(1, 1 << k):
        low = s & -s
        touched[s] = touched[s ^ low] | ends[low.bit_length() - 1]
        for i in range(k):
            if s >> i & 1:
                rest = s ^ (1 << i)
                if not same_block >> i & 1 or touched[rest] & ends[i]:
                    ways[s] += ways[rest]
    return ways[-1]


def spanning_trees(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """The spanning trees of g, as tuples of vertex pairs, by brute force."""
    edges = [p for p in g.pairs if p[0] != p[1]]
    return [tree for tree in itertools.combinations(edges, g.n - 1) if _is_spanning(g.n, tree)]


def _is_spanning(n: int, tree) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in tree:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _nearest(costs: dict, target: float, limit: float = math.inf):
    """The option whose cost is nearest to the target among those within
    the limit (the cheapest if none is); the first on a tie."""
    fits = [option for option, cost in costs.items() if cost <= limit]
    if not fits:
        return min(costs, key=costs.get)
    return min(fits, key=lambda option: abs(costs[option] - target))


def _picks(costs: dict, count: int, budget_left: float, picks_left: int) -> list:
    """`count` distinct options, each the one nearest to the budget left
    divided by the picks left; returns them in the order picked."""
    left, picked = dict(costs), []
    for j in range(count):
        option = _nearest(left, budget_left / (picks_left - j))
        picked.append(option)
        budget_left -= left.pop(option)
    return picked


def _pool(rng: random.Random) -> tuple[dict[str, Graph], list[Case]]:
    """Every graph runs `weights`, `verify` and `psd` on non-trivial
    partitions picked for their cost. Each pick is the partition nearest
    to the work left divided by the picks left, and the graphs with most
    vertices, whose partitions cost the widest range, pick last, so the
    pool's total stays close to its budget at every seed."""
    graphs: dict[str, Graph] = {}
    counts: dict[str, dict] = {}  # graph -> partition -> ordered trees
    for i in range(POOL_SIZE):
        n, m = POOL_SHAPES[i % len(POOL_SHAPES)]
        name = f"g{i:02d}"
        g = graphs[name] = _random_pool_graph(rng, n, m)
        trees = spanning_trees(g)
        counts[name] = {
            part: ordered_tree_count(trees, part)
            for part in (
                tuple(tuple(sorted(b)) for b in blocks)
                for blocks in _set_partitions(list(range(n)))
                if len(blocks) >= 2
            )
        }
    weighted, verified, psd = {}, {}, {}
    weight_left, verify_left = POOL_WEIGHT_ORDERED_TREES, POOL_VERIFY_ORDERED_TREES
    psd_left = POOL_PSD_UNITS
    order = sorted(graphs, key=lambda name: graphs[name].n)
    weight_picks = [min(POOL_WEIGHT_PARTITIONS, len(counts[name])) for name in order]
    # the cheapest psd case of each graph, kept back for the graphs after it
    floors = [min(counts[name].values()) * graphs[name].n for name in order]
    for k, name in enumerate(order):
        weighted[name] = _picks(counts[name], weight_picks[k], weight_left, sum(weight_picks[k:]))
        weight_left -= sum(counts[name][part] for part in weighted[name])
        verified[name] = _picks(counts[name], POOL_VERIFY_PARTITIONS, verify_left,
                                (POOL_SIZE - k) * POOL_VERIFY_PARTITIONS)
        verify_left -= sum(counts[name][part] for part in verified[name])
        units = {part: count * graphs[name].n for part, count in counts[name].items()}
        psd[name] = _nearest(units, psd_left / (POOL_SIZE - k), psd_left - sum(floors[k + 1:]))
        psd_left -= units[psd[name]]
    cases: list[Case] = []
    for i, name in enumerate(graphs):
        for j, part in enumerate(weighted[name]):
            cases.append(Case(f"weights-{name}-p{j}", "weights", name, part,
                              ordered_trees=counts[name][part]))
        for j, part in enumerate(verified[name]):
            cases.append(Case(f"verify-{name}-v{j}", "verify", name, part,
                              ordered_trees=counts[name][part]))
        cases.append(Case(f"psd-{name}", "psd", name, psd[name], seed=i,
                          ordered_trees=counts[name][psd[name]]))
    return _with_minor(cases, graphs)


def spanning_tree_count(g: Graph) -> int:
    """Kirchhoff's matrix-tree theorem: a Laplacian cofactor, exactly."""
    if g.n == 1:
        return 1
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for a, b in g.pairs:
        if a != b:
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    size = len(m)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, size):
                    m[r][k] -= f * m[c][k]
    return int(det)


def check_fence(case: Case, g: Graph) -> None:
    if case.expect_exit == EXIT_GUARD:
        return
    edges = len(g.pairs)
    if case.command == "symmetric" and (edges > MAX_CENSUS_EDGES or g.n > MAX_WEIGHT_VERTICES):
        raise FenceError(f"{case.id}: census on {g.n} vertices, {edges} edges is above the fence")
    if case.command in ("weights", "verify", "psd") and g.n > MAX_WEIGHT_VERTICES:
        raise FenceError(f"{case.id}: {case.command} on {g.n} vertices is above the fence")
    if case.command == "trees" and g.n > MAX_TREES_VERTICES:
        raise FenceError(f"{case.id}: trees on {g.n} vertices is above the fence")


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[dict]]:
    """The workload's graph documents and its case list for one seed.

    Each case dict holds the CLI arguments, the expected exit code and
    the input size. Raises FenceError before anything runs if a case is
    above the size fence.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-weights":
        graphs, cases = _dense_weights()
    elif workload == "census":
        graphs, cases = _census()
    elif workload == "pool-verify":
        graphs, cases = _pool(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # the pool is new for every seed; the fixed graphs are relabeled
    docs, names = _documents(graphs, None if workload == "pool-verify" else rng)
    labeled = [(case, names[case.graph]) for case in cases]
    for case, _ in labeled:
        check_fence(case, graphs[case.graph])
    trees = {name: spanning_tree_count(g) for name, g in graphs.items()}
    out = []
    for case, vnames in labeled:
        g = graphs[case.graph]
        item = asdict(case)
        blocks = None
        if case.command in ("weights", "verify", "psd"):
            blocks = _blocks(g, case.partition)
        item["partition"] = (
            None if blocks is None
            else "|".join(",".join(vnames[v] for v in b) for b in blocks)
        )
        item["size"] = {
            "vertices": g.n,
            "edges": len(g.pairs),
            "trees": trees[case.graph],
            "sectors": math.factorial(len(g.pairs)) if case.command == "symmetric" else None,
        }
        out.append(item)
    return docs, out


def write_files(directory: str, docs: dict[str, dict], cases: list[dict]) -> None:
    """Write the graph files and the case manifest."""
    os.makedirs(directory, exist_ok=True)
    for name, doc in docs.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    with open(os.path.join(directory, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
