import math
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from treeweights.errors import TrivialPartitionError
from treeweights.graph import Multigraph
from treeweights.partitions import Partition, admissible_orderings, build_trace
from treeweights.sectors import sector_census
from treeweights.weights import edge_monomials, weight_distribution

from helpers import (
    census_weights,
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    nontrivial_partitions,
    random_connected_multigraph,
    relabel,
    report_weights,
    symmetric_via_partition,
    tree_weight,
)

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


def test_edge_monomials_examples():
    trace = build_trace(fig2(), fig2_double_rooted(), ("l1", "l2", "l5"))
    assert edge_monomials(fig2(), trace).exponents == (4, 3, 1)

    trace = build_trace(fig1(), fig1_root_first(), ("l1", "l2"))
    assert edge_monomials(fig1(), trace).exponents == (1, 2)

    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    trace = build_trace(g, Partition.singletons(g.vertices), ("l1",))
    assert edge_monomials(g, trace).exponents == (0,)


def test_ordered_weight_fig2():
    g, part = fig2(), fig2_double_rooted()
    trace = build_trace(g, part, ("l1", "l2", "l5"))
    assert Fraction(1, math.prod(trace.k_values)) == Fraction(1, 40)
    others = sorted(
        Fraction(1, math.prod(build_trace(g, part, order).k_values))
        for order in admissible_orderings(g, part, {"l1", "l2", "l5"})
        if order != ("l1", "l2", "l5")
    )
    assert others == [
        Fraction(1, 100),
        Fraction(1, 100),
        Fraction(1, 100),
        Fraction(1, 80),
        Fraction(1, 50),
    ]


def test_ordered_weight_fig1():
    g, part = fig1(), fig1_root_second()
    assert Fraction(1, math.prod(build_trace(g, part, ("l1", "l2")).k_values)) == Fraction(1, 9)
    assert Fraction(1, math.prod(build_trace(g, part, ("l3", "l1")).k_values)) == Fraction(1, 6)


def test_tree_weight_examples():
    g, part = fig2(), fig2_double_rooted()
    assert tree_weight(g, part, {"l1", "l2", "l5"}) == Fraction(7, 80)
    assert tree_weight(g, part, {"l1", "l5", "l6"}) == Fraction(17, 400)
    assert tree_weight(fig1(), fig1_root_first(), {"l1", "l3"}) == Fraction(1, 6)


def test_weight_distribution_fig2_table():
    report = weight_distribution(fig2(), fig2_double_rooted())
    assert {r.tree: r.weight for r in report.rows} == FIG2_TABLE
    assert report.total == 1


def test_weight_distribution_fig1_tables():
    report = weight_distribution(fig1(), fig1_root_first())
    assert {r.tree: r.weight for r in report.rows} == {
        ("l1", "l2"): Fraction(1, 3),
        ("l1", "l3"): Fraction(1, 6),
        ("l1", "l4"): Fraction(1, 6),
        ("l2", "l3"): Fraction(1, 6),
        ("l2", "l4"): Fraction(1, 6),
    }
    report = weight_distribution(fig1(), fig1_root_second())
    assert {r.tree: r.weight for r in report.rows} == {
        ("l1", "l2"): Fraction(1, 9),
        ("l1", "l3"): Fraction(5, 18),
        ("l1", "l4"): Fraction(5, 18),
        ("l2", "l3"): Fraction(1, 6),
        ("l2", "l4"): Fraction(1, 6),
    }


def test_weight_distribution_single_edge():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    report = weight_distribution(g, Partition.singletons(g.vertices))
    assert {r.tree: r.weight for r in report.rows} == {("l1",): Fraction(1)}


def test_weight_distribution_rejects_trivial_partition():
    with pytest.raises(TrivialPartitionError):
        weight_distribution(fig1(), Partition.of([set(fig1().vertices)]))


def test_distribution_agrees_with_per_tree_route():
    # the shared-prefix search must match summing independent traces
    cases = [
        (fig1(), fig1_root_first()),
        (fig1(), fig1_root_second()),
        (fig2(), fig2_double_rooted()),
    ]
    rng = random.Random(37)
    for _ in range(8):
        g = random_connected_multigraph(rng, max_vertices=4, max_edges=6)
        cases.extend((g, part) for part in nontrivial_partitions(g, rng, cap=3))
    for g, part in cases:
        report = weight_distribution(g, part)
        for row in report.rows:
            assert row.weight == tree_weight(g, part, row.tree)
            assert set(order for order, _ in row.orderings) == set(
                admissible_orderings(g, part, row.tree)
            )


def test_dual_route_equality_random():
    rng = random.Random(41)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=7)
        for part in nontrivial_partitions(g, rng, cap=3):
            for tree in g.spanning_trees():
                for order in admissible_orderings(g, part, tree):
                    trace = build_trace(g, part, order)
                    assert Fraction(1, math.prod(trace.k_values)) == (
                        edge_monomials(g, trace).integral()
                    )


def test_exponent_law():
    rng = random.Random(43)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=7)
        for part in nontrivial_partitions(g, rng, cap=3):
            for tree in g.spanning_trees():
                for order in admissible_orderings(g, part, tree):
                    trace = build_trace(g, part, order)
                    mono = edge_monomials(g, trace)
                    assert mono.exponents == tuple(k - 1 for k in trace.k_values)


def test_ordered_weights_positive_bounded():
    g, part = fig2(), fig2_double_rooted()
    for tree in g.spanning_trees():
        for order in admissible_orderings(g, part, tree):
            trace = build_trace(g, part, order)
            w = Fraction(1, math.prod(trace.k_values))
            assert 0 < w <= 1
            prod = 1
            for k in trace.k_values:
                prod *= k
            assert prod % w.denominator == 0


def test_normalization_random():
    rng = random.Random(47)
    for _ in range(20):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
        for part in nontrivial_partitions(g, rng, cap=8):
            assert weight_distribution(g, part).total == 1


def test_symmetric_via_partition_fig2():
    assert report_weights(symmetric_via_partition(fig2())) == census_weights(sector_census(fig2()))


def test_symmetric_via_partition_fig1_values():
    report = symmetric_via_partition(fig1())
    assert {r.tree: r.weight for r in report.rows} == {
        ("l1", "l2"): Fraction(1, 6),
        ("l1", "l3"): Fraction(5, 24),
        ("l1", "l4"): Fraction(5, 24),
        ("l2", "l3"): Fraction(5, 24),
        ("l2", "l4"): Fraction(5, 24),
    }
    assert report_weights(report) == census_weights(sector_census(fig1()))


def test_symmetric_via_partition_small_cases():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2"), ("l2", "v1", "v2")])
    assert report_weights(symmetric_via_partition(g)) == {
        frozenset({"l1"}): Fraction(1, 2),
        frozenset({"l2"}): Fraction(1, 2),
    }
    single = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert report_weights(symmetric_via_partition(single)) == {frozenset({"l1"}): Fraction(1)}


def test_self_loops_do_not_change_weights():
    g = fig1()
    noisy = Multigraph.build(
        g.vertices,
        [(e.id, e.ends[0], e.ends[1]) for e in g.edges]
        + [("s1", "v1", "v1"), ("s2", "v3", "v3")],
    )
    for part in (fig1_root_first(), fig1_root_second()):
        base = weight_distribution(g, part)
        loud = weight_distribution(noisy, part)
        assert report_weights(base) == report_weights(loud)
        for row_a, row_b in zip(base.rows, loud.rows):
            assert row_a.orderings == row_b.orderings


def test_block_relabeling_symmetry():
    rng = random.Random(53)
    for _ in range(6):
        g = random_connected_multigraph(rng, max_vertices=4, max_edges=6)
        perm = list(g.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(g.vertices, perm))
        h = relabel(g, mapping)
        for part in nontrivial_partitions(g, rng, cap=3):
            part_h = Partition.of([{mapping[v] for v in b} for b in part.blocks])
            assert report_weights(weight_distribution(g, part)) == report_weights(
                weight_distribution(h, part_h)
            )


ROOT = Path(__file__).resolve().parent.parent

# the integer routes on fig2, printed as one value: the spanning trees,
# the sector census, and the partition weights with their breakdown
EXACT_ROUTES = """
from treeweights.graph import Multigraph
from treeweights.partitions import Partition
from treeweights.sectors import sector_census
from treeweights.weights import weight_distribution

with open(FIG2, encoding="utf-8") as fh:
    g = Multigraph.from_json(fh.read())
census = sector_census(g, 10)
report = weight_distribution(g, Partition.parse("v1|v2|v3,v4", g.vertices))
rows = [(row.tree, row.weight, tuple(row.orderings)) for row in report.rows]
counts = sorted((tuple(sorted(tree)), count) for tree, count in census.counts.items())
print(repr((g._sorted_trees(), counts, census.total, rows)))
"""


def test_exact_routes_run_without_numpy():
    # numpy is made unimportable, and a stub package stands in for
    # treeweights so that its __init__ (which imports psd) does not run
    src = str(ROOT / "src")
    preludes = [
        f"import sys\nsys.path.insert(0, {src!r})\nimport treeweights\n",
        textwrap.dedent(
            f"""
            import sys, types
            sys.modules["numpy"] = None
            package = types.ModuleType("treeweights")
            package.__path__ = [{str(ROOT / "src" / "treeweights")!r}]
            sys.modules["treeweights"] = package
            """
        ),
    ]
    fig2_path = f"FIG2 = {str(ROOT / 'fixtures' / 'fig2.json')!r}\n"
    outputs = []
    for prelude in preludes:
        result = subprocess.run(
            [sys.executable, "-c", prelude + fig2_path + EXACT_ROUTES],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    normal, without_numpy = outputs
    assert without_numpy == normal
    assert "Fraction(47, 400)" in normal
