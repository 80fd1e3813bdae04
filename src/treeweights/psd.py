"""Trace arrays, the exact array check and constructive positivity.

This is the only module of the package that imports numpy; the rest
computes exact integers and fractions in pure Python. Its arrays, as
every layer, name an edge by its position in the id-ordered edge table.
It holds the array form of a trace, which carries its contact indices
and the ends of the graph's edges so that no reader of it needs the
graph, and the two checks that read it, one per command:

* verify: verify_exact checks, on every ordered tree, that the count
  route and the monomial route give the same weight, the exponent law
  and the order of the contact indices, all in integers, on traces that
  trace_batch builds for many ordered trees at once, in bounded blocks;
* psd: verify_constructive checks that the contact matrices are
  positive semidefinite.

The contact matrix of an ordered tree at a point u in the unit cube has
entry (v, w) equal to the product of u_k over the contact-index range of
the pair. It is built here two ways: directly from the contact indices,
and by the interpolation recursion that rewrites it as a chain of
barycentric combinations (which is what makes it positive
semidefinite). Verification samples seeded random points per ordered
tree, compares the two constructions, checks eigenvalues, and confirms
the exact normalization of the tree measure; the traces and matrices of
many ordered trees are built together, in bounded blocks. The matrices
are the only floating point in the package; every weight is an exact
fraction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadDimensionError,
    InvariantError,
    NotAdmissibleError,
    OutOfRangeError,
    TrivialPartitionError,
)
from .graph import Multigraph
from .partitions import Partition, _ordered_tree_walk
from .weights import require_weighable

DEFAULT_TOLERANCE = 1e-10
DEFAULT_SAMPLES = 20
# the two matrix constructions are algebraically identical; their
# floating-point realizations must match this tightly
AGREEMENT_TOLERANCE = 1e-12
# at most this many entries in each (N, |V|, |V|) array of one
# trace_batch call of verify_exact: 8 192 rows up to 16 vertices
BLOCK_ENTRIES = 1 << 21
# at most this many float64 entries in one stack of contact matrices
STACK_ENTRIES = 1 << 14
# at most this many float64 entries in the samples + 2 matrices of one
# ordered tree, which one construction stacks at once (32 MiB)
MAX_TREE_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """The integer traces of N complete orderings, one row each.

    orders[r] holds the edge-table positions of ordering r's edges;
    k[r], merge_steps[r] and start_blocks are what its ContractionTrace
    holds as k_values, merge_steps and start_blocks, and (i[r], j[r])
    its contact_indices of every vertex pair, (-1, 0) on the diagonal.
    ends[:, p] are the vertex indices of the ends of the edge at p.
    Shapes: orders and k (N, |V|-1), merge_steps, i and j (N, |V|, |V|),
    start_blocks (|V|,), ends (2, |E|).
    """

    orders: np.ndarray
    k: np.ndarray
    merge_steps: np.ndarray
    start_blocks: np.ndarray
    i: np.ndarray
    j: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.orders)


def trace_batch(g: Multigraph, part: Partition, orders) -> TraceBatch:
    """build_trace of many complete orderings at once, as arrays.

    orders is an (N, |V|-1) array of positions in g's id-ordered edge
    table, as _ordered_tree_walk yields them. Every row takes its steps
    on the integer labels of forest_trace, all rows together. The step
    loop carries only the labels and the components (each named by one
    of its vertices) and counts over the |V| states, the one before
    each step and the one after the last: as components only join and
    a merged vertex never gets a block label back, k at a step counts
    the edges whose two labels differ before it, a pair's merge step is
    the number of states in which its components differ, and a vertex's
    first merge the number in which it keeps its block label (|V| on one
    vertex). Each row's contact indices are read off its merge steps.
    Labels, steps and contact indices are stored as int8 (int16 from 64
    vertices on). Raises NotAdmissibleError at the first step where
    some row's edge is not trans-block, naming it by id.
    """
    part.require_cover(g)
    n = len(g.vertices)
    ends = np.array([end for _, *end in g._edge_table], dtype=np.intp).reshape(-1, 2).T
    tails, heads = ends
    orders = np.asarray(orders, dtype=np.intp).reshape(len(orders), n - 1)
    count = len(orders)
    rows = np.arange(count)
    # labels stay below 2|V| and steps run to |V|
    small = np.int8 if n < 64 else np.int16
    start = np.array([part.block_index(v) for v in g.vertices], dtype=small)
    # each state is (|V|, N), one column per row, so every array op runs
    # along the rows; each state adds its counts as the loop passes it
    labels = np.repeat(start[:, None], count, axis=1)
    component = np.repeat(np.arange(n, dtype=small)[:, None], count, axis=1)
    k = np.empty((n - 1, count), dtype=np.int64)
    merge = np.zeros((n, n, count), dtype=small)
    touched = np.zeros((n, count), dtype=small)
    for step, (a, b) in enumerate(zip(tails[orders.T], heads[orders.T])):
        stuck = labels[a, rows] == labels[b, rows]
        if stuck.any():
            eid = g._edge_table[orders[stuck.argmax(), step]][0]
            raise NotAdmissibleError(
                f"edge {eid!r} is not trans-block at step {step}", step=step
            )
        k[step] = np.count_nonzero(labels[tails] != labels[heads], axis=0)
        merge += component[:, None] != component
        touched += labels == start[:, None]
        root = component[a, rows]
        joined = (component == root) | (component == component[b, rows])
        component = np.where(joined, root, component)
        labels = np.where(joined, len(part.blocks) + step, labels)
    # the state after the last step: every pair is joined, and a vertex
    # keeps its block label only where there is no step, on one vertex
    touched += labels == start[:, None]
    k, merge, touched = k.T.copy(), merge.transpose(2, 0, 1).copy(), touched.T.copy()
    # a pair in one starting block separates when either is first merged
    i = np.where(start[:, None] == start, np.minimum(touched[:, :, None], touched[:, None]), 0)
    diag = np.arange(n)
    i[:, diag, diag] = -1
    j = merge.copy()
    j[:, diag, diag] = 0
    merge[:, diag, diag] = touched
    return TraceBatch(orders, k, merge, start, i, j, ends)


@dataclass(frozen=True)
class ExactReport:
    """The ordered trees, their summed weight, and one verdict per check."""

    ordered: int
    total: Fraction
    routes_agree: bool
    exponent_law: bool
    contact_order: bool


def edge_exponents(batch: TraceBatch) -> np.ndarray:
    """edge_monomials of every row of a batch, as an (N, |V|-1) array.

    The exponent of u_p counts the edges, in table order as in orders,
    whose contact range covers step p: i < p < j for a tree edge,
    i < p <= j for any other.
    """
    a, b = batch.ends
    i, j = batch.i[:, a, b], batch.j[:, a, b]
    in_tree = np.zeros(i.shape, dtype=bool)
    in_tree[np.arange(len(batch))[:, None], batch.orders] = True
    steps = np.arange(1, batch.orders.shape[1] + 1)
    covered = (i[..., None] < steps) & (steps < (j + ~in_tree)[..., None])
    return np.count_nonzero(covered, axis=1)


def _row_products(a: np.ndarray) -> list[int]:
    """The exact product of each row, in Python ints past the int64 range."""
    if a.size and int(np.abs(a).max()) ** a.shape[1] >= 2**63:
        a = a.astype(object)
    return a.prod(axis=1).tolist()


def verify_exact(g: Multigraph, part: Partition) -> ExactReport:
    """The exact checks on every ordered tree of a partition.

    prod 1/k equals the integral of the edge monomial, whose exponents
    equal k - 1, and distinct vertices get contact indices i < j. The
    traces are built in blocks whose (N, |V|, |V|) arrays hold at most
    BLOCK_ENTRIES entries (or one ordering); the count route reads k
    from the labels, the monomial route the contact indices. Both read
    only each ordering's positions and k product, so the walk builds
    its orders from empty pieces.
    """
    require_weighable(g, part)
    # the walk runs to completion before the checks: interleaving it
    # with the trace work measured slower
    walks = list(_ordered_tree_walk(g, part, lambda eid: (), ()))
    denoms = [denom for _, _, _, denom in walks]
    # the sum of every 1/d over the lcm of the distinct d, in integers
    counted = Counter(denoms)
    lcm = math.lcm(*counted)
    total = Fraction(sum(c * (lcm // d) for d, c in counted.items()), lcm)
    routes = exponents = contacts = True
    size = max(1, BLOCK_ENTRIES // len(g.vertices) ** 2)
    for first in range(0, len(walks), size):
        block = walks[first:first + size]
        batch = trace_batch(g, part, [indices for _, indices, _, _ in block])
        exps = edge_exponents(batch)
        walked = denoms[first:first + len(block)]
        routes = routes and _row_products(batch.k) == walked == _row_products(exps + 1)
        exponents = exponents and np.array_equal(exps, batch.k - 1)
        # over all pairs: the diagonal's (-1, 0) passes by construction
        contacts = contacts and bool(np.all(batch.i < batch.j))
    return ExactReport(len(walks), total, routes, exponents, contacts)


def _batch_points(batch: TraceBatch, u: Sequence[float]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The points as (N, m, |V|-1), and the shape of the matrices asked for."""
    point = np.asarray(u, dtype=float)
    steps = batch.merge_steps.shape[1] - 1
    if point.ndim not in (2, 3) or (len(point), point.shape[-1]) != (len(batch), steps):
        raise BadDimensionError(
            f"point has shape {point.shape}, trace needs ({len(batch)}, {steps},)"
            f" or ({len(batch)}, m, {steps})"
        )
    # written so that NaN fails the test too
    if not np.all((point >= 0.0) & (point <= 1.0)):
        raise OutOfRangeError("evaluation point must lie in [0, 1]^steps")
    points = point if point.ndim == 3 else point[:, None]
    return points, point.shape[:-1] + (steps + 1, steps + 1)


def contact_matrix_direct(batch: TraceBatch, u: Sequence[float]) -> np.ndarray:
    """Entrywise product of u_k over each pair's contact-index range.

    A TraceBatch of N rows takes points of shape (N, |V|-1), one per
    row, or (N, m, |V|-1), m per row, and gives every row's matrices:
    (N, |V|, |V|) or (N, m, |V|, |V|). The factors of an entry multiply
    in ascending k.
    """
    points, shape = _batch_points(batch, u)
    i, j = batch.i, batch.j
    first = np.maximum(i + 1, 1)
    m = np.ones(points.shape[:-1] + i.shape[1:])
    for k in range(1, points.shape[-1] + 1):
        covered = (first <= k) & (k <= j)
        m = np.where(covered[:, None], m * points[..., k - 1, None, None], m)
    return m.reshape(shape)


def contact_matrix_recursion(batch: TraceBatch, u: Sequence[float]) -> np.ndarray:
    """Barycentric interpolation chain from the all-ones matrix.

    Each step mixes the previous matrix with its projection, where the
    projection keeps an entry iff the two vertices' images at that step
    coincide or share a partition block: both not yet merged, in one
    starting block. Takes points as contact_matrix_direct does.
    """
    points, shape = _batch_points(batch, u)
    merge = batch.merge_steps
    start = batch.start_blocks
    n = merge.shape[1]
    touch = merge.diagonal(axis1=1, axis2=2)
    # step at which an unmerged pair in one starting block stops sharing it
    split = np.where(
        start[:, None] == start[None, :], np.minimum(touch[:, :, None], touch[:, None, :]), 0
    )
    steps = np.arange(n - 1)[:, None, None]
    masks = (merge[:, None] <= steps) | (split[:, None] > steps)
    x = np.ones(points.shape[:-1] + (n, n))
    for p in range(1, n):
        up = points[..., p - 1, None, None]
        x = up * x + (1.0 - up) * np.where(masks[:, None, p - 1], x, 0.0)
    return x.reshape(shape)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, or of any matrix in a stack."""
    return float(np.linalg.eigvalsh(m)[..., 0].min())


@dataclass(frozen=True)
class TraceCheck:
    """Verification summary for one ordered tree."""

    tree: tuple[str, ...]
    order: tuple[str, ...]
    min_eigenvalue: float
    max_discrepancy: float
    endpoints_exact: bool
    unit_diagonal: bool
    passed: bool


@dataclass(frozen=True)
class PsdReport:
    """Aggregate result of verify_constructive, reproducible from the seed."""

    seed: int
    samples: int
    tolerance: float
    checks: tuple[TraceCheck, ...]
    measure_normalized: bool
    passed: bool

    @property
    def max_discrepancy(self) -> float:
        return max((c.max_discrepancy for c in self.checks), default=0.0)

    @property
    def min_eigenvalue(self) -> float:
        return min((c.min_eigenvalue for c in self.checks), default=0.0)


def _tree_k(batch: TraceBatch) -> np.ndarray:
    """The k of each row's tree alone, as an (N, |V|-1) array: a tree
    edge is trans-block at step s exactly when its contact indices
    satisfy i <= s < j, and k[r, s] counts row r's edges that are."""
    a, b = batch.ends[:, batch.orders]
    rows = np.arange(len(batch))[:, None]
    i, j = (c[rows, a, b][..., None] for c in (batch.i, batch.j))
    steps = np.arange(batch.orders.shape[1])
    return np.count_nonzero((i <= steps) & (steps < j), axis=1)


def _sums_to_one(denoms: list[int]) -> bool:
    """True iff the 1/d over denoms sum to exactly 1, checked in
    integers over the lcm of the denominators."""
    lcm = math.lcm(*denoms)
    return sum(lcm // d for d in denoms) == lcm


def verify_constructive(
    g: Multigraph,
    part: Partition,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> PsdReport:
    """Check positivity and construction agreement over all ordered trees.

    For every spanning tree and admissible ordering: at `samples` seeded
    random points both matrix constructions must agree within tol, the
    diagonal must be exactly one, and the smallest eigenvalue must stay
    above -tol; the endpoint points (all-ones, all-zeros) must give the
    all-ones matrix and the identity exactly. One _ordered_tree_walk of
    (g, part) gives the ordered trees, regrouped tree-major by a stable
    sort on their sorted edge positions, which sort as their sorted ids
    as the edge table is in id order; each tree's orderings keep walk
    order, which is sorted, and its ids are named once. Each ordered
    tree keeps its own generator, seeded as default_rng([seed, index])
    is: its uint32 entropy row holds the words SeedSequence makes of
    that list, the seed's little-endian 32-bit words (one for 0), then
    the index, and random() fills its samples as uniform(0.0, 1.0) does,
    bit for bit. The ordered trees go through trace_batch in blocks of
    at most STACK_ENTRIES matrix entries, or of one ordered tree when
    its own matrices are more, and each construction builds one stack
    per block: per ordered tree the samples, then the two endpoints;
    eigvalsh runs once per block. Samples that would give one ordered
    tree more than MAX_TREE_ENTRIES entries are refused before any
    work. Separately the tree measure is normalized exactly: every
    spanning tree (as many as Multigraph.complexity counts) is walked,
    and over the tree alone, whose edges alone decide admissibility, the
    ordered weights 1/prod k of its admissible orderings sum to 1, k
    read off the batch by _tree_k. That sum is taken in integers: the
    products, over their lcm, must add up to the lcm (_sums_to_one).
    """
    if part.is_trivial:
        raise TrivialPartitionError("verification needs a non-trivial partition")
    if samples < 1 or not math.isfinite(tol):
        raise OutOfRangeError(f"samples must be >= 1 and tol finite, not {samples}, {tol}")
    if tol < 0:
        raise OutOfRangeError(f"tol must be >= 0, not {tol}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, not {seed}")
    n = len(g.vertices)
    if (samples + 2) * n * n > MAX_TREE_ENTRIES:
        raise OutOfRangeError(
            f"samples must keep (samples + 2) * |V|**2 <= {MAX_TREE_ENTRIES},"
            f" not {samples} on {n} vertices"
        )
    # Kirchhoff's tree count, which also refuses a disconnected graph
    spanning = g.complexity()
    # the edge table is in id order, so sorted positions sort as sorted
    # ids; a stable sort keeps each tree's orderings in walk order
    walked = _ordered_tree_walk(g, part)
    walks = sorted(
        ((tuple(sorted(indices)), order, indices) for order, indices, _, _ in walked),
        key=lambda row: row[0],
    )
    # the walk is listed, so no index can reach 2**32 and take two words
    if len(walks) > 2**32:
        raise InvariantError(f"{len(walks)} ordered trees overflow a 32-bit seed index")
    # the seed's little-endian 32-bit words, as SeedSequence makes them
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    names = {
        tree: tuple(g._edge_table[p][0] for p in tree)
        for tree in dict.fromkeys(tree for tree, _, _ in walks)
    }
    corners = np.array([np.ones((n, n)), np.eye(n)])
    diag = np.arange(n)
    size = max(1, STACK_ENTRIES // ((samples + 2) * n * n))
    checks: list[TraceCheck] = []
    tree_denoms: dict[tuple[int, ...], list[int]] = {}
    for first in range(0, len(walks), size):
        block = walks[first:first + size]
        batch = trace_batch(g, part, [indices for _, _, indices in block])
        for (tree, _, _), denom in zip(block, _row_products(_tree_k(batch))):
            tree_denoms.setdefault(tree, []).append(denom)
        entropy = np.empty((len(block), len(words) + 1), dtype=np.uint32)
        entropy[:, :-1] = words
        entropy[:, -1] = np.arange(first, first + len(block))
        points = np.empty((len(block), samples + 2, n - 1))
        for row in range(len(block)):
            np.random.default_rng(entropy[row]).random(out=points[row, :samples])
        points[:, samples] = 1.0
        points[:, samples + 1] = 0.0
        direct = contact_matrix_direct(batch, points)
        recursed = contact_matrix_recursion(batch, points)
        gaps = np.abs(direct[:, :samples] - recursed[:, :samples]).max(axis=(1, 2, 3))
        lowest = np.linalg.eigvalsh(direct[:, :samples])[..., 0].min(axis=1)
        diag_ok = np.logical_and.reduce(
            [np.all(m[:, :samples, diag, diag] == 1.0, axis=(1, 2)) for m in (direct, recursed)]
        )
        endpoints = np.logical_and.reduce(
            [np.all(m[:, samples:] == corners, axis=(1, 2, 3)) for m in (direct, recursed)]
        )
        passed = (gaps <= AGREEMENT_TOLERANCE) & (lowest >= -tol) & diag_ok & endpoints
        # in the field order of TraceCheck
        verdicts = (a.tolist() for a in (lowest, gaps, endpoints, diag_ok, passed))
        checks.extend(
            TraceCheck(names[tree], order, *verdict)
            for (tree, order, _), *verdict in zip(block, *verdicts)
        )
    normalized = len(tree_denoms) == spanning and all(map(_sums_to_one, tree_denoms.values()))
    passed = normalized and all(c.passed for c in checks)
    return PsdReport(
        seed=seed,
        samples=samples,
        tolerance=tol,
        checks=tuple(checks),
        measure_normalized=normalized,
        passed=passed,
    )
