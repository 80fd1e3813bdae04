import random

import pytest

from treeweights.errors import (
    DuplicateVertexError,
    EmptyBlockError,
    MissingVertexError,
    NotASpanningTreeError,
    NotAdmissibleError,
    TrivialPartitionError,
    UnknownVertexError,
)
from treeweights.graph import Multigraph
from treeweights.partitions import (
    Partition,
    admissible_orderings,
    build_trace,
    contact_indices,
    forest_trace,
)

from helpers import (
    brute_force_orderings,
    contract_block,
    contract_graph,
    ends,
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    nontrivial_partitions,
    random_connected_multigraph,
    replay_trace,
    trans_block_count,
)


def blocks(part):
    return sorted(sorted(b) for b in part.blocks)


def is_trans_block(g, part, edge_id):
    """Whether forest_trace accepts the edge as its first contraction."""
    try:
        forest_trace(g, part, [edge_id])
    except NotAdmissibleError as err:
        assert err.step == 0
        return False
    return True


def contract_partition(g, part, edge_id):
    """The partition after contracting one edge through the object oracles."""
    a, b = ends(g, edge_id)
    _, vmap = contract_graph(g, edge_id)
    return contract_block(part, a, b, vmap[a])


def test_partition_of_rejects_bad_blocks():
    with pytest.raises(EmptyBlockError):
        Partition.of([set(), {"v1"}])
    with pytest.raises(DuplicateVertexError):
        Partition.of([{"v1"}, {"v1", "v2"}])


def test_partition_parse():
    g = fig2()
    part = Partition.parse("v1|v2|v3,v4", g.vertices)
    assert blocks(part) == [["v1"], ["v2"], ["v3", "v4"]]
    part = Partition.parse(" v1 | v2 , v3 ", fig1().vertices)
    assert blocks(part) == [["v1"], ["v2", "v3"]]


def test_partition_parse_errors():
    g = fig1()
    with pytest.raises(DuplicateVertexError):
        Partition.parse("v1|v1,v2", g.vertices)
    with pytest.raises(DuplicateVertexError):
        Partition.parse("v1,v1|v2,v3", g.vertices)
    with pytest.raises(UnknownVertexError):
        Partition.parse("v1|v2,v9", g.vertices)
    with pytest.raises(MissingVertexError):
        Partition.parse("v1|v2", g.vertices)
    with pytest.raises(EmptyBlockError):
        Partition.parse("v1||v2,v3", g.vertices)


def test_is_trans_block_fig1():
    g = fig1()
    part = fig1_root_first()
    assert is_trans_block(g, part, "l1")
    assert not is_trans_block(g, part, "l3")


def test_is_trans_block_self_loop_never():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2"), ("s", "v1", "v1")])
    assert not is_trans_block(g, Partition.singletons(g.vertices), "s")


def test_is_trans_block_fig2_internal_edge():
    assert not is_trans_block(fig2(), fig2_double_rooted(), "l6")


def test_contract_partition_fig1():
    g = fig1()
    part = contract_partition(g, fig1_root_first(), "l1")
    assert blocks(part) == [["v1+v2"], ["v3"]]


def test_contract_partition_fig2():
    g = fig2()
    part = contract_partition(g, fig2_double_rooted(), "l1")
    assert blocks(part) == [["v1+v2"], ["v3", "v4"]]


def test_contract_partition_two_vertices_goes_trivial():
    g = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    part = contract_partition(g, Partition.singletons(g.vertices), "l1")
    assert part.is_trivial


def test_contract_partition_rejects_internal_edge():
    with pytest.raises(ValueError):
        contract_partition(fig1(), fig1_root_first(), "l3")
    assert not is_trans_block(fig1(), fig1_root_first(), "l3")


def test_trans_block_count():
    assert trans_block_count(fig2(), fig2_double_rooted()) == 5
    assert trans_block_count(fig1(), fig1_root_second()) == 3
    g = fig1()
    assert trans_block_count(g, Partition.of([set(g.vertices)])) == 0


def test_build_trace_fig2():
    trace = build_trace(fig2(), fig2_double_rooted(), ("l1", "l2", "l5"))
    assert trace.k_values == (5, 4, 2)
    graphs, partitions, _ = replay_trace(trace)
    assert partitions[-1].is_trivial
    assert [len(g.vertices) for g in graphs] == [4, 3, 2, 1]


def test_build_trace_fig1_examples():
    g = fig1()
    trace = build_trace(g, fig1_root_second(), ("l3", "l1"))
    assert trace.k_values == (3, 2)
    with pytest.raises(NotAdmissibleError) as err:
        build_trace(g, fig1_root_second(), ("l2", "l1"))
    assert err.value.step == 0


def test_build_trace_rejects_non_tree():
    with pytest.raises(NotASpanningTreeError):
        build_trace(fig2(), fig2_double_rooted(), ("l3", "l4", "l5"))
    with pytest.raises(TrivialPartitionError):
        build_trace(fig1(), Partition.of([set(fig1().vertices)]), ("l1", "l2"))


def test_forest_trace_triviality_iff_spanning():
    # a trans-block ordered forest drives the partition to one block
    # exactly when it has |V| - 1 edges
    rng = random.Random(23)
    checked = 0
    for _ in range(25):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
        for part in nontrivial_partitions(g, rng, cap=6):
            for tree in g.spanning_trees():
                order = admissible_orderings(g, part, tree)[0]
                full = forest_trace(g, part, order)
                assert replay_trace(full)[1][-1].is_trivial
                for cut in range(len(order)):
                    partial = forest_trace(g, part, order[:cut])
                    assert not replay_trace(partial)[1][-1].is_trivial
                checked += 1
    assert checked > 100


def test_admissible_orderings_fig2_counts():
    g = fig2()
    part = fig2_double_rooted()
    assert len(admissible_orderings(g, part, {"l1", "l2", "l5"})) == 6
    assert len(admissible_orderings(g, part, {"l2", "l5", "l6"})) == 4
    assert len(admissible_orderings(g, part, {"l1", "l5", "l6"})) == 3


def test_admissible_orderings_never_empty_and_match_oracle():
    rng = random.Random(29)
    for _ in range(15):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=7)
        for part in nontrivial_partitions(g, rng, cap=4):
            for tree in g.spanning_trees():
                found = admissible_orderings(g, part, tree)
                assert found
                assert set(found) == brute_force_orderings(g, part, tree)


def test_admissible_orderings_ignore_non_tree_edges():
    g = fig2()
    part = fig2_double_rooted()
    pruned = Multigraph.build(
        g.vertices, [("l1", "v1", "v2"), ("l2", "v2", "v3"), ("l5", "v1", "v4")]
    )
    tree = {"l1", "l2", "l5"}
    assert admissible_orderings(g, part, tree) == admissible_orderings(
        pruned, part, tree
    )


def test_admissible_orderings_trivial_partition():
    with pytest.raises(TrivialPartitionError):
        admissible_orderings(fig1(), Partition.of([set(fig1().vertices)]), {"l1", "l2"})


def test_contact_indices_fig1():
    trace = build_trace(fig1(), fig1_root_first(), ("l1", "l2"))
    assert contact_indices(trace, "v2", "v3") == (1, 2)
    assert contact_indices(trace, "v2", "v2") == (-1, 0)


def test_contact_indices_fig2():
    trace = build_trace(fig2(), fig2_double_rooted(), ("l1", "l2", "l5"))
    assert contact_indices(trace, "v1", "v4") == (0, 3)
    # endpoints of the block-internal edge separate only at step 2
    assert contact_indices(trace, "v3", "v4") == (2, 3)


def test_contact_indices_unknown_vertex():
    trace = build_trace(fig1(), fig1_root_first(), ("l1", "l2"))
    with pytest.raises(UnknownVertexError):
        contact_indices(trace, "v1", "zz")


def test_contact_indices_ordered_on_every_trace():
    rng = random.Random(31)
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=5, max_edges=7)
        for part in nontrivial_partitions(g, rng, cap=3):
            for tree in g.spanning_trees():
                for order in admissible_orderings(g, part, tree):
                    trace = build_trace(g, part, order)
                    for v in g.vertices:
                        for w in g.vertices:
                            i, j = contact_indices(trace, v, w)
                            assert i < j
                            if v == w:
                                assert (i, j) == (-1, 0)
