"""Contact matrices and constructive-positivity verification.

The contact matrix of an ordered tree at a point u in the unit cube has
entry (v, w) equal to the product of u_k over the contact-index range of
the pair. It is built here two ways: directly from the contact indices,
and by the interpolation recursion that rewrites it as a chain of
barycentric combinations (which is what makes it positive
semidefinite). Verification samples seeded random points per ordered
tree, compares the two constructions, checks eigenvalues, and confirms
the exact normalization of the tree measure. This is the only module
that touches floating point; every weight elsewhere is an exact
fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadDimensionError,
    NotSymmetricError,
    OutOfRangeError,
    TrivialPartitionError,
)
from .graph import Multigraph
from .partitions import (
    ContractionTrace,
    Partition,
    build_trace,
    contact_indices,
    ordered_trees,
)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_SAMPLES = 20
# the two matrix constructions are algebraically identical; their
# floating-point realizations must match this tightly
AGREEMENT_TOLERANCE = 1e-12


def _check_point(trace: ContractionTrace, u: Sequence[float]) -> np.ndarray:
    point = np.asarray(u, dtype=float)
    steps = len(trace.graph.vertices) - 1
    if point.ndim not in (1, 2) or point.shape[-1] != steps:
        raise BadDimensionError(
            f"point has shape {point.shape}, trace needs ({steps},) or (m, {steps})"
        )
    # written so that NaN fails the test too
    if not np.all((point >= 0.0) & (point <= 1.0)):
        raise OutOfRangeError("evaluation point must lie in [0, 1]^steps")
    return point


def contact_matrix_direct(trace: ContractionTrace, u: Sequence[float]) -> np.ndarray:
    """Entrywise product of u_k over each pair's contact-index range.

    A stack of m points, shape (m, |V|-1), gives the stack of their m matrices.
    """
    point = _check_point(trace, u)
    verts = trace.graph.vertices
    n = len(verts)
    m = np.ones(point.shape[:-1] + (n, n))
    for a in range(n):
        for b in range(a + 1, n):
            i, j = contact_indices(trace, verts[a], verts[b])
            value = 1.0
            for k in range(max(i + 1, 1), j + 1):
                value *= point[..., k - 1]
            m[..., a, b] = m[..., b, a] = value
    return m


def contact_matrix_recursion(trace: ContractionTrace, u: Sequence[float]) -> np.ndarray:
    """Barycentric interpolation chain from the all-ones matrix.

    Each step mixes the previous matrix with its projection, where the
    projection keeps an entry iff the two vertices' images at that step
    coincide or share a partition block: both not yet merged, in one
    starting block. A stack of points gives the stack of their matrices.
    """
    point = _check_point(trace, u)
    n = len(trace.graph.vertices)
    merge = np.array(trace.merge_steps)
    start = np.array(trace.start_blocks)
    touch = merge.diagonal()
    # step at which an unmerged pair in one starting block stops sharing it
    split = np.where(start[:, None] == start[None, :], np.minimum.outer(touch, touch), 0)
    steps = np.arange(n - 1)[:, None, None]
    masks = (merge <= steps) | (split > steps)
    x = np.ones(point.shape[:-1] + (n, n))
    for p in range(1, n):
        up = point[..., p - 1, None, None]
        x = up * x + (1.0 - up) * np.where(masks[p - 1], x, 0.0)
    return x


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix, or of any matrix in a stack."""
    return float(np.linalg.eigvalsh(m)[..., 0].min())


def check_psd(m: np.ndarray, tol: float = DEFAULT_TOLERANCE) -> bool:
    """True iff the symmetric matrix has smallest eigenvalue >= -tol."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError("matrix must be square")
    if not np.array_equal(m, m.T):
        raise NotSymmetricError("matrix must be symmetric")
    return min_eigenvalue(m) >= -tol


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
    all-ones matrix and the identity exactly. Each construction builds
    one stack per ordered tree: the samples, then the two endpoints.
    Separately the tree measure is normalized exactly: over the tree
    alone, the ordered weights of its admissible orderings sum to 1. One
    search over the tree alone gives both the orderings and those weights.
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
    corners = np.array([np.ones((n, n)), np.eye(n)])
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
            sampled = rng.uniform(0.0, 1.0, size=(samples, n - 1))
            points = np.vstack((sampled, np.ones(n - 1), np.zeros(n - 1)))
            direct = contact_matrix_direct(trace, points)
            recursed = contact_matrix_recursion(trace, points)
            worst_gap = float(np.abs(direct[:samples] - recursed[:samples]).max())
            worst_eig = min_eigenvalue(direct[:samples])
            diag_ok = all(
                np.all(m[:samples, range(n), range(n)] == 1.0) for m in (direct, recursed)
            )
            endpoints = all(np.array_equal(m[samples:], corners) for m in (direct, recursed))
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
                    min_eigenvalue=worst_eig,
                    max_discrepancy=worst_gap,
                    endpoints_exact=endpoints,
                    unit_diagonal=diag_ok,
                    passed=ok,
                )
            )
    passed = normalized and all(c.passed for c in checks)
    return PsdReport(
        seed=seed,
        samples=samples,
        tolerance=tol,
        checks=tuple(checks),
        measure_normalized=normalized,
        passed=passed,
    )
