import random

import pytest
from hypothesis import given, strategies as st

from treeweights.errors import (
    DanglingEndpointError,
    DisconnectedError,
    DuplicateIdError,
    ParseError,
)
from treeweights.graph import Edge, Multigraph

from helpers import (
    brute_force_spanning_trees,
    contract_graph,
    ends,
    fig1,
    fig2,
    is_self_loop,
    loops_and_parallels,
    random_connected_multigraph,
    to_json,
)

FIG2_TREES = {
    frozenset(t)
    for t in [
        ("l1", "l2", "l5"), ("l1", "l3", "l5"), ("l1", "l4", "l5"),
        ("l2", "l3", "l5"), ("l2", "l4", "l5"),
        ("l2", "l3", "l6"), ("l2", "l4", "l6"), ("l2", "l5", "l6"),
        ("l1", "l2", "l6"), ("l1", "l3", "l6"), ("l1", "l4", "l6"),
        ("l1", "l5", "l6"),
    ]
}


def test_validate_minimal_graph():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert g.validate() is None


def test_edge_table_keeps_self_loop():
    g = Multigraph.build(["v1"], [("l1", "v1", "v1")])
    assert g._edge_table == (("l1", 0, 0),)


def test_edge_table_keeps_parallel_edges():
    # l3 and l4 both join v2 and v3: two entries with the same ends
    assert fig1()._edge_table[2:] == (("l3", 1, 2), ("l4", 1, 2))


def test_validate_dangling_endpoint():
    g = Multigraph(("v1",), (Edge("l1", ("v1", "v2")),))
    with pytest.raises(DanglingEndpointError):
        g.validate()


def test_validate_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        Multigraph.build(["v1", "v1"], [])
    with pytest.raises(DuplicateIdError):
        Multigraph.build(["v1", "v2"], [("l1", "v1", "v2"), ("l1", "v2", "v1")])


def test_is_connected():
    assert fig1().is_connected()
    assert not Multigraph.build(["v1", "v2"], []).is_connected()
    assert Multigraph.build(["v1"], [("l1", "v1", "v1")]).is_connected()


def test_contract_fig1():
    g, vmap = contract_graph(fig1(), "l1")
    assert set(g.vertices) == {"v1+v2", "v3"}
    assert vmap == {"v1": "v1+v2", "v2": "v1+v2", "v3": "v3"}
    assert [(e.id, set(e.ends)) for e in g.edges] == [
        ("l2", {"v1+v2", "v3"}),
        ("l3", {"v1+v2", "v3"}),
        ("l4", {"v1+v2", "v3"}),
    ]


def test_contract_parallel_becomes_self_loop():
    g, _ = contract_graph(fig2(), "l3")
    assert is_self_loop(g.edge("l4"))


def test_contract_single_edge():
    g, _ = contract_graph(Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")]), "l1")
    assert len(g.vertices) == 1
    assert g.edges == ()


def test_contract_bookkeeping():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
        for e in g.edges:
            if is_self_loop(e):
                continue
            h, _ = contract_graph(g, e.id)
            assert len(h.vertices) == len(g.vertices) - 1
            assert len(h.edges) == len(g.edges) - 1


def test_spanning_trees_fig1():
    trees = fig1().spanning_trees()
    assert [sorted(t) for t in trees] == [
        ["l1", "l2"], ["l1", "l3"], ["l1", "l4"], ["l2", "l3"], ["l2", "l4"],
    ]


def test_spanning_trees_fig2():
    assert set(fig2().spanning_trees()) == FIG2_TREES


def test_spanning_trees_single_edge():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert g.spanning_trees() == [frozenset({"l1"})]


def test_spanning_trees_disconnected():
    with pytest.raises(DisconnectedError):
        Multigraph.build(["v1", "v2"], []).spanning_trees()


def test_spanning_trees_match_brute_force():
    # the same trees, listed in the order of their sorted ids
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
        expected = sorted(brute_force_spanning_trees(g), key=lambda t: tuple(sorted(t)))
        assert g.spanning_trees() == expected
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=6, max_edges=10)
        expected = sorted(brute_force_spanning_trees(g), key=lambda t: tuple(sorted(t)))
        assert g.spanning_trees() == expected


def test_every_tree_spans_without_self_loops():
    rng = random.Random(13)
    for _ in range(30):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
        for tree in g.spanning_trees():
            assert len(tree) == len(g.vertices) - 1
            touched = set()
            for eid in tree:
                assert not is_self_loop(g.edge(eid))
                touched.update(ends(g, eid))
            assert touched == set(g.vertices) or len(g.vertices) == 1


def test_complexity():
    assert fig2().complexity() == 12
    assert fig1().complexity() == 5
    assert Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")]).complexity() == 1


def test_complexity_matches_enumeration():
    # the matrix-tree count against the trees listed one by one
    graphs = [fig1(), fig2(), Multigraph.build(["v1"], [("s1", "v1", "v1")])]
    rng = random.Random(61)
    graphs.extend(
        random_connected_multigraph(rng, min_vertices=1, max_vertices=6, max_edges=11)
        for _ in range(60)
    )
    inventories = [loops_and_parallels(g) for g in graphs]
    assert any(loops for loops, _ in inventories)
    assert any(parallels for _, parallels in inventories)
    for g in graphs:
        assert g.complexity() == len(g.spanning_trees())


def test_complexity_disconnected():
    g = Multigraph.build(["v1", "v2", "v3"], [("l1", "v1", "v2"), ("s1", "v3", "v3")])
    with pytest.raises(DisconnectedError):
        g.complexity()


def test_json_round_trip():
    for g in (fig1(), fig2()):
        assert Multigraph.from_json(to_json(g)) == g


def test_json_rejects_unknown_vertex():
    text = '{"vertices": ["v1"], "edges": [{"id": "l1", "ends": ["v1", "v2"]}]}'
    with pytest.raises(DanglingEndpointError):
        Multigraph.from_json(text)


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        Multigraph.from_json("{not json")
    with pytest.raises(ParseError):
        Multigraph.from_json('{"vertices": "v1", "edges": []}')
    with pytest.raises(ParseError):
        Multigraph.from_json('{"vertices": ["v1"], "edges": [{"id": "l1"}]}')


# exact arithmetic: the weight computations lean on Fraction staying
# normalized and exactly associative

@given(st.fractions(), st.fractions(), st.fractions())
def test_fraction_add_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)


@given(st.fractions())
def test_fraction_lowest_terms(x):
    from math import gcd

    assert x.denominator > 0
    assert gcd(abs(x.numerator), x.denominator) == 1
