"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as
they print. Randomized pools are seeded, so every run checks the same
graphs and partitions.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np

from treeweights.graph import Multigraph
from treeweights.partitions import (
    Partition,
    admissible_orderings,
    build_trace,
    contact_indices,
)
from treeweights.psd import contact_matrix_direct, contact_matrix_recursion, min_eigenvalue
from treeweights.sectors import sector_census
from treeweights.weights import verify_exact, weight_distribution

from helpers import (
    brute_force_orderings,
    brute_force_spanning_trees,
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    nontrivial_partitions,
    one_row_batch,
    random_connected_multigraph,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [FAIL] {description}")
        raise
    print(f"criterion {number} [PASS] {description}")


LIGHT_TREES = {
    frozenset(t)
    for t in [
        ("l1", "l2", "l5"),
        ("l1", "l2", "l6"),
        ("l1", "l5", "l6"),
        ("l2", "l5", "l6"),
    ]
}

FIG2_TABLE = {
    ("l1", "l3", "l5"): Fraction(47, 400),
    ("l1", "l4", "l5"): Fraction(47, 400),
    ("l2", "l3", "l5"): Fraction(11, 100),
    ("l2", "l4", "l5"): Fraction(11, 100),
    ("l2", "l3", "l6"): Fraction(2, 25),
    ("l2", "l4", "l6"): Fraction(2, 25),
    ("l1", "l3", "l6"): Fraction(3, 40),
    ("l1", "l4", "l6"): Fraction(3, 40),
    ("l2", "l5", "l6"): Fraction(1, 20),
    ("l1", "l2", "l6"): Fraction(11, 200),
    ("l1", "l2", "l5"): Fraction(7, 80),
    ("l1", "l5", "l6"): Fraction(17, 400),
}

FIG2_ORDER_COUNTS = {
    ("l1", "l2", "l5"): 6,
    ("l1", "l3", "l5"): 6,
    ("l1", "l4", "l5"): 6,
    ("l2", "l3", "l5"): 6,
    ("l2", "l4", "l5"): 6,
    ("l2", "l3", "l6"): 4,
    ("l2", "l4", "l6"): 4,
    ("l2", "l5", "l6"): 4,
    ("l1", "l2", "l6"): 3,
    ("l1", "l3", "l6"): 3,
    ("l1", "l4", "l6"): 3,
    ("l1", "l5", "l6"): 3,
}

PSD_FIXTURE_CASES = [
    ("fig1 root v1", fig1(), fig1_root_first()),
    ("fig1 root v2", fig1(), fig1_root_second()),
    ("fig2 double root", fig2(), fig2_double_rooted()),
    ("fig2 singletons", fig2(), Partition.singletons(fig2().vertices)),
]


@lru_cache(maxsize=1)
def pool_lemma5():
    """100 seeded connected multigraphs, |V| <= 4, |E| <= 7."""
    rng = random.Random(1004)
    return tuple(
        random_connected_multigraph(rng, min_vertices=2, max_vertices=4, max_edges=7)
        for _ in range(100)
    )


@lru_cache(maxsize=1)
def pool_normalization():
    """100 seeded connected multigraphs, |V| <= 5, |E| <= 8, with partitions.

    Every non-trivial partition of the vertex set, or 50 sampled without
    replacement when more than 50 exist.
    """
    rng = random.Random(1005)
    pool = []
    for _ in range(100):
        g = random_connected_multigraph(rng, min_vertices=2, max_vertices=5, max_edges=8)
        pool.append((g, tuple(nontrivial_partitions(g, rng, cap=50))))
    return tuple(pool)


@lru_cache(maxsize=1)
def trace_sweep():
    """Every admissible trace arising in criteria 2-5, with verdicts.

    Returns (traces, dual_ok, exponent_ok, contact_ok) where traces is
    the number of ordered trees visited and the flags AND the
    verify_exact verdicts of every case, used by criteria 6 and 8.
    """
    cases: list[tuple[Multigraph, Partition]] = [
        (fig2(), fig2_double_rooted()),
        (fig1(), fig1_root_first()),
        (fig1(), fig1_root_second()),
    ]
    cases.extend((g, Partition.singletons(g.vertices)) for g in pool_lemma5())
    for g, parts in pool_normalization():
        cases.extend((g, part) for part in parts)

    reports = [verify_exact(g, part) for g, part in cases]
    traces = sum(r.ordered for r in reports)
    dual_ok = all(r.routes_agree for r in reports)
    exponent_ok = all(r.exponent_law for r in reports)
    contact_ok = all(r.contact_order for r in reports)
    return traces, dual_ok, exponent_ok, contact_ok


def test_criterion_1_fig2_symmetric_weights():
    with criterion(1, "fig2 sector census reproduces the symmetric weights"):
        start = time.perf_counter()
        census = sector_census(fig2())
        elapsed = time.perf_counter() - start
        assert census.total == 720
        assert sum(census.counts.values()) == 720
        weights = census.weights()
        assert len(weights) == 12
        for tree, w in weights.items():
            expect = Fraction(1, 15) if tree in LIGHT_TREES else Fraction(11, 120)
            assert w == expect
        assert elapsed < 1.0


def test_criterion_2_fig2_partition_weights():
    with criterion(2, "fig2 double-rooted weight table, breakdown, and order counts"):
        start = time.perf_counter()
        report = weight_distribution(fig2(), fig2_double_rooted())
        elapsed = time.perf_counter() - start
        assert {r.tree: r.weight for r in report.rows} == FIG2_TABLE
        assert report.total == 1
        counts = {r.tree: len(r.orderings) for r in report.rows}
        assert counts == FIG2_ORDER_COUNTS
        assert sum(counts.values()) == 54
        t125 = next(r for r in report.rows if r.tree == ("l1", "l2", "l5"))
        assert sorted(w for _, w in t125.orderings) == [
            Fraction(1, 100),
            Fraction(1, 100),
            Fraction(1, 100),
            Fraction(1, 80),
            Fraction(1, 50),
            Fraction(1, 40),
        ]
        assert elapsed < 1.0


def test_criterion_3_fig1_rooted_weights():
    with criterion(3, "fig1 rooted weights for both partitions"):
        report = weight_distribution(fig1(), fig1_root_first())
        ordered = {
            order: w for row in report.rows for order, w in row.orderings
        }
        assert len(ordered) == 6
        assert all(w == Fraction(1, 6) for w in ordered.values())
        assert set(ordered) == {
            ("l1", "l2"), ("l2", "l1"),
            ("l1", "l3"), ("l1", "l4"), ("l2", "l3"), ("l2", "l4"),
        }
        assert report.total == 1

        report = weight_distribution(fig1(), fig1_root_second())
        ordered = {
            order: w for row in report.rows for order, w in row.orderings
        }
        assert len(ordered) == 7
        expected = {
            ("l1", "l2"): Fraction(1, 9),
            ("l1", "l3"): Fraction(1, 9),
            ("l1", "l4"): Fraction(1, 9),
            ("l3", "l1"): Fraction(1, 6),
            ("l4", "l1"): Fraction(1, 6),
            ("l3", "l2"): Fraction(1, 6),
            ("l4", "l2"): Fraction(1, 6),
        }
        assert ordered == expected
        assert report.total == 1


def test_criterion_4_symmetric_equivalence():
    with criterion(4, "census weights equal all-singleton partition weights, 100 graphs"):
        start = time.perf_counter()
        for g in pool_lemma5():
            census = sector_census(g).weights()
            via_partition = weight_distribution(
                g, Partition.singletons(g.vertices)
            ).weights()
            assert census == via_partition
        assert time.perf_counter() - start < 120.0


def test_criterion_5_normalization():
    with criterion(5, "tree weights sum to exactly 1 for every sampled partition"):
        for g, parts in pool_normalization():
            for part in parts:
                assert weight_distribution(g, part).total == 1


def test_criterion_6_exponent_law_and_dual_route():
    with criterion(6, "monomial exponents equal k-1 and both weight routes agree"):
        traces, dual_ok, exponent_ok, _ = trace_sweep()
        assert traces > 0
        assert dual_ok
        assert exponent_ok


def test_criterion_7_positivity():
    with criterion(7, "contact matrices: constructions agree, PSD, exact endpoints"):
        for _, g, part in PSD_FIXTURE_CASES:
            n = len(g.vertices)
            case_index = 0
            for tree in g.spanning_trees():
                for order in admissible_orderings(g, part, tree):
                    batch = one_row_batch(build_trace(g, part, order))
                    rng = np.random.default_rng([20260810, case_index])
                    case_index += 1
                    for _ in range(20):
                        u = rng.uniform(size=(1, n - 1))
                        direct = contact_matrix_direct(batch, u)[0]
                        recursed = contact_matrix_recursion(batch, u)[0]
                        assert np.abs(direct - recursed).max() <= 1e-12
                        assert np.array_equal(np.diag(direct), np.ones(n))
                        assert np.array_equal(np.diag(recursed), np.ones(n))
                        assert min_eigenvalue(direct) >= -1e-10
                    for build in (contact_matrix_direct, contact_matrix_recursion):
                        assert np.array_equal(
                            build(batch, np.ones((1, n - 1)))[0], np.ones((n, n))
                        )
                        assert np.array_equal(
                            build(batch, np.zeros((1, n - 1)))[0], np.eye(n)
                        )


def test_criterion_8_contact_index_order():
    with criterion(8, "i < j for every vertex pair on every generated trace"):
        _, _, _, contact_ok = trace_sweep()
        assert contact_ok
        # the PSD fixture cases of criterion 7, including fig2 singletons
        for _, g, part in PSD_FIXTURE_CASES:
            for tree in g.spanning_trees():
                for order in admissible_orderings(g, part, tree):
                    trace = build_trace(g, part, order)
                    for v in g.vertices:
                        for w in g.vertices:
                            i, j = contact_indices(trace, v, w)
                            assert i < j
                            if v == w:
                                assert (i, j) == (-1, 0)


def test_criterion_9_brute_force_oracles():
    with criterion(9, "tree enumeration and admissible orderings match brute force"):
        graphs = [fig1(), fig2()]
        graphs.extend(pool_lemma5())
        graphs.extend(g for g, _ in pool_normalization())
        for g in graphs:
            assert set(g.spanning_trees()) == brute_force_spanning_trees(g)

        ordering_cases = [
            (fig1(), [fig1_root_first(), fig1_root_second()]),
            (fig2(), [fig2_double_rooted(), Partition.singletons(fig2().vertices)]),
        ]
        ordering_cases.extend(
            (g, list(parts[:6])) for g, parts in pool_normalization()[:30]
        )
        for g, parts in ordering_cases:
            for part in parts:
                for tree in g.spanning_trees():
                    assert set(admissible_orderings(g, part, tree)) == (
                        brute_force_orderings(g, part, tree)
                    )
