"""Contact matrices and constructive-positivity verification.

The contact matrix of an ordered tree at a point u in the unit cube has
entry (v, w) equal to the product of u_k over the contact-index range of
the pair. It is built here two ways: directly from the contact indices,
and by the interpolation recursion that rewrites it as a chain of
barycentric combinations (which is what makes it positive
semidefinite). Verification samples seeded random points per ordered
tree, compares the two constructions, checks eigenvalues, and confirms
the exact normalization of the tree measure; the traces and matrices of
many ordered trees are built together, in bounded blocks. This is the
only module that touches floating point; every weight elsewhere is an
exact fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadDimensionError, OutOfRangeError, TrivialPartitionError
from .graph import Multigraph
from .partitions import (
    BLOCK_ORDERINGS,
    Partition,
    TraceBatch,
    _ordered_tree_walk,
    batch_contact_indices,
    trace_batch,
)
from .weights import _row_products

DEFAULT_TOLERANCE = 1e-10
DEFAULT_SAMPLES = 20
# the two matrix constructions are algebraically identical; their
# floating-point realizations must match this tightly
AGREEMENT_TOLERANCE = 1e-12
# at most this many float64 entries in one stack of contact matrices
STACK_ENTRIES = 1 << 14


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
    i, j = batch_contact_indices(batch)
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


def _tree_k(g: Multigraph, batch: TraceBatch) -> np.ndarray:
    """The k of each row's tree alone, as an (N, |V|-1) array: a tree
    edge is trans-block at step s exactly when its contact indices
    satisfy i <= s < j, and k[r, s] counts row r's edges that are."""
    a, b = (end[batch.orders] for end in g._endpoints)
    rows = np.arange(len(batch))[:, None]
    i, j = (c[rows, a, b][..., None] for c in batch_contact_indices(batch))
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
    all-ones matrix and the identity exactly. One walk of the
    forest-state table gives the ordered trees, regrouped tree-major
    (trees by sorted edge ids, each tree's orderings in walk order,
    which is sorted); each keeps its own generator, seeded [seed,
    index]. The ordered trees go through trace_batch in blocks of at
    most STACK_ENTRIES matrix entries, and each construction builds one
    stack per block: per ordered tree the samples, then the two
    endpoints; eigvalsh runs once per block. Separately the tree measure
    is normalized exactly: every spanning tree (as many as
    Multigraph.complexity counts) is walked, and over the tree alone,
    whose edges alone decide admissibility, the ordered weights 1/prod k
    of its admissible orderings sum to 1, k read off the batch by _tree_k.
    That sum is taken in integers: the products, over their lcm, must
    add up to the lcm (_sums_to_one).
    """
    if part.is_trivial:
        raise TrivialPartitionError("verification needs a non-trivial partition")
    if samples < 1 or not math.isfinite(tol):
        raise OutOfRangeError(f"samples must be >= 1 and tol finite, not {samples}, {tol}")
    if tol < 0:
        raise OutOfRangeError(f"tol must be >= 0, not {tol}")
    if seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, not {seed}")
    # Kirchhoff's tree count, which also refuses a disconnected graph
    spanning = g.complexity()
    n = len(g.vertices)
    # a stable sort by tree keeps each tree's orderings in walk order
    walked = _ordered_tree_walk(g, part)
    walks = sorted(
        ((tuple(sorted(order)), order, indices) for order, indices, _, _ in walked),
        key=lambda row: row[0],
    )
    corners = np.array([np.ones((n, n)), np.eye(n)])
    diag = np.arange(n)
    size = max(1, min(BLOCK_ORDERINGS, STACK_ENTRIES // ((samples + 2) * n * n)))
    checks: list[TraceCheck] = []
    tree_denoms: dict[tuple[str, ...], list[int]] = {}
    for first in range(0, len(walks), size):
        block = walks[first:first + size]
        batch = trace_batch(g, part, [indices for _, _, indices in block])
        for (tree, _, _), denom in zip(block, _row_products(_tree_k(g, batch))):
            tree_denoms.setdefault(tree, []).append(denom)
        points = np.empty((len(block), samples + 2, n - 1))
        for row in range(len(block)):
            rng = np.random.default_rng([seed, first + row])
            points[row, :samples] = rng.uniform(0.0, 1.0, size=(samples, n - 1))
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
        checks.extend(
            TraceCheck(
                tree=tree,
                order=order,
                min_eigenvalue=float(lowest[row]),
                max_discrepancy=float(gaps[row]),
                endpoints_exact=bool(endpoints[row]),
                unit_diagonal=bool(diag_ok[row]),
                passed=bool(passed[row]),
            )
            for row, (tree, order, _) in enumerate(block)
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
