import itertools
import math
import random
from fractions import Fraction

import pytest

from treeweights.errors import EnumerationGuardExceededError
from treeweights.graph import Multigraph
from treeweights.sectors import sector_census

from helpers import (
    MalformedSectorError,
    census_by_leading_tree,
    fig1,
    fig2,
    induced_ordering,
    leading_tree,
    random_connected_multigraph,
    relabel,
)


def test_leading_tree_fig1():
    g = fig1()
    assert leading_tree(g, ("l1", "l2", "l3", "l4")) == {"l1", "l2"}
    assert leading_tree(g, ("l3", "l4", "l1", "l2")) == {"l3", "l1"}


def test_leading_tree_skips_self_loop():
    g = Multigraph.build(["v1"], [("l1", "v1", "v1")])
    assert leading_tree(g, ("l1",)) == frozenset()


def test_induced_ordering_fig1():
    g = fig1()
    assert induced_ordering(g, ("l3", "l4", "l1", "l2")) == ("l3", "l1")
    assert induced_ordering(g, ("l1", "l2", "l3", "l4")) == ("l1", "l2")


def test_induced_ordering_single_edge():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert induced_ordering(g, ("l1",)) == ("l1",)


def test_malformed_sector():
    g = fig1()
    with pytest.raises(MalformedSectorError):
        leading_tree(g, ("l1", "l2"))
    with pytest.raises(MalformedSectorError):
        leading_tree(g, ("l1", "l2", "l3", "l3"))


def test_census_single_edge():
    census = sector_census(Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")]))
    assert census.counts == {frozenset({"l1"}): 1}
    assert census.total == 1


def test_census_parallel_pair():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2"), ("l2", "v1", "v2")])
    census = sector_census(g)
    assert census.total == 2
    assert census.counts == {frozenset({"l1"}): 1, frozenset({"l2"}): 1}
    assert census.weight({"l1"}) == Fraction(1, 2)


def test_census_fig2_matches_published_weights():
    census = sector_census(fig2())
    light = {
        frozenset(t)
        for t in [("l1", "l2", "l5"), ("l1", "l2", "l6"), ("l1", "l5", "l6"), ("l2", "l5", "l6")]
    }
    for tree, count in census.counts.items():
        assert count == (48 if tree in light else 66)
    assert census.weight({"l1", "l5", "l6"}) == Fraction(1, 15)
    assert census.weight({"l2", "l4", "l6"}) == Fraction(11, 120)


def test_census_totals_and_oracle():
    rng = random.Random(3)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_vertices=4, max_edges=6)
        census = sector_census(g)
        assert census.total == math.factorial(len(g.edges))
        assert sum(census.counts.values()) == census.total
        assert dict(census.counts) == census_by_leading_tree(g)


def test_census_guard():
    with pytest.raises(EnumerationGuardExceededError):
        sector_census(fig2(), guard=5)


def test_census_chunked_merge_is_exact():
    g = fig1()
    ids = sorted(e.id for e in g.edges)
    parts = []
    chunk: dict[frozenset[str], int] = {}
    for pos, perm in enumerate(itertools.permutations(ids)):
        t = leading_tree(g, perm)
        chunk[t] = chunk.get(t, 0) + 1
        if pos % 7 == 6:
            parts.append(chunk)
            chunk = {}
    parts.append(chunk)
    merged: dict[frozenset[str], int] = {}
    for part in parts:
        for tree, c in part.items():
            merged[tree] = merged.get(tree, 0) + c
    census = sector_census(g)
    assert merged == dict(census.counts)
    assert sum(merged.values()) == census.total == math.factorial(len(ids))


def test_symmetric_weight_examples():
    census = sector_census(fig2())
    assert census.weight({"l1", "l5", "l6"}) == Fraction(1, 15)
    assert census.weight({"l2", "l4", "l6"}) == Fraction(11, 120)
    single = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert sector_census(single).weight({"l1"}) == 1


def test_leading_tree_ignores_self_loop_position():
    g = Multigraph.build(
        ["v1", "v2", "v3"],
        [
            ("l1", "v1", "v2"),
            ("l2", "v2", "v3"),
            ("l3", "v1", "v3"),
            ("s1", "v2", "v2"),
            ("s2", "v3", "v3"),
        ],
    )
    rng = random.Random(5)
    base = ["l1", "l2", "l3"]
    for _ in range(50):
        order = base[:]
        for loop in ("s1", "s2"):
            order.insert(rng.randint(0, len(order)), loop)
        assert leading_tree(g, order) == leading_tree(g, base + ["s1", "s2"])


def test_greedy_tree_is_minimal():
    rng = random.Random(9)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=4, max_edges=6)
        ids = sorted(e.id for e in g.edges)
        trees = g.spanning_trees()
        for perm in itertools.permutations(ids):
            rank = {eid: pos for pos, eid in enumerate(perm)}
            best = leading_tree(g, perm)
            best_cost = sum(rank[e] for e in best)
            assert all(best_cost <= sum(rank[e] for e in t) for t in trees)


def test_symmetric_weight_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(8):
        g = random_connected_multigraph(rng, max_vertices=4, max_edges=6)
        perm = list(g.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(g.vertices, perm))
        h = relabel(g, mapping)
        # edge ids survive relabeling, so trees are directly comparable
        assert sector_census(g).weights() == sector_census(h).weights()
