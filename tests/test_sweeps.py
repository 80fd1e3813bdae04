"""The state sweeps against the routes they replaced.

weight_distribution sweeps forests, sector_census sweeps the greedy
forests of each count of placed edges, spanning_trees walks (position,
forest) states and ordered_trees walks one state per forest labeling;
each must equal, bit for bit, the routes kept in helpers: the grouping
of every ordered tree, the census that walks every sector prefix and
the one over every permutation, the contraction-deletion recursion (and,
on a seeded pool and on K4 with bridges listed last, the enumeration
of every edge subset) and the depth-first ordering search, order
included. Beyond the guard, on
K6 and K7, the census must equal the partition route. The sums sweep
and the walk of the labelings must equal the one forest-state table
they replaced, and the walk must build labelings only, a few hundred
bytes of them. Built from text pieces, the walk must give the joined
pieces of its default orders. Printing tree weights must never list an
ordering, printing the breakdown must never build an (order, weight)
pair, verify and psd must never build the sums, and the symmetric,
trees and psd commands must print the same bytes with the replaced
routes. The
edge table every sweep reads must list the edges in id order, whatever
their order in the graph, and the walk must name each edge by its
position there.
"""

import io
import json
import random
import tracemalloc
from collections import deque
from functools import lru_cache
from itertools import islice
from pathlib import Path

import pytest

from treeweights import cli, partitions, psd, weights
from treeweights.cli import RunConfig
from treeweights.graph import Multigraph
from treeweights.partitions import (
    Partition,
    _forest_sums,
    _ordered_tree_walk,
    ordered_trees,
)
from treeweights.sectors import DEFAULT_GUARD, sector_census
from treeweights.weights import weight_distribution

from helpers import (
    brute_force_spanning_trees,
    census_weights,
    complete_graph,
    contraction_deletion_trees,
    depth_first_ordered_trees,
    edge_index,
    edge_reversed_graphs,
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    grouped_weight_distribution,
    looped_k5,
    loops_and_parallels,
    nontrivial_partitions,
    permutation_census,
    prefix_census,
    random_connected_multigraph,
    reference_cmd_weights,
    reference_ordering_states,
    report_weights,
    symmetric_via_partition,
    to_json,
    walk_ordering_states,
)
from test_acceptance import pool_lemma5
from test_kernel import kernel_cases

ROOT = Path(__file__).resolve().parent.parent
FIG1 = str(ROOT / "fixtures" / "fig1.json")
FIG2 = str(ROOT / "fixtures" / "fig2.json")


@lru_cache(maxsize=1)
def multigraph_pool():
    """40 seeded connected multigraphs, |V| <= 5, |E| <= 8."""
    rng = random.Random(2024)
    pool = tuple(
        random_connected_multigraph(rng, min_vertices=2, max_vertices=5, max_edges=8)
        for _ in range(40)
    )
    inventories = [loops_and_parallels(g) for g in pool]
    assert any(loops for loops, _ in inventories)
    assert any(parallels for _, parallels in inventories)
    return pool


def sweep_cases():
    cases = [(g, part) for g, parts in kernel_cases() for part in parts]
    cases.extend(
        (g, part) for g in multigraph_pool() for part in nontrivial_partitions(g, cap=100)
    )
    return cases


def run_configs(configs):
    """Exit code, stdout and stderr of each CLI run."""
    outputs = []
    for config in configs:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(config, out=out, err=err)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def test_forest_sweep_matches_grouped_orderings():
    orderings = 0
    for g, part in sweep_cases():
        report = weight_distribution(g, part)
        oracle = grouped_weight_distribution(g, part)
        assert [row.tree for row in report.rows] == [row.tree for row in oracle.rows]
        for row, expected in zip(report.rows, oracle.rows):
            assert row.weight == expected.weight
            assert len(row.orderings) == len(expected.orderings)
            assert tuple(row.orderings) == expected.orderings
            assert row.orderings == expected.orderings
        # one shared Fraction per distinct k product
        weights_read = [w for row in report.rows for _, w in row.orderings]
        assert len(set(map(id, weights_read))) == len(set(weights_read))
        assert report.total == oracle.total == 1
        orderings += sum(len(row.orderings) for row in report.rows)
    assert orderings > 10000


def looped_triangle():
    """A triangle with seven loops, spread over its three vertices."""
    triangle = [("l1", "v1", "v2"), ("l2", "v2", "v3"), ("l3", "v1", "v3")]
    loops = [(f"s{i}", f"v{i % 3 + 1}", f"v{i % 3 + 1}") for i in range(7)]
    return Multigraph.build(["v1", "v2", "v3"], triangle + loops)


def test_state_census_matches_prefix_walk_and_permutations():
    graphs = [g for g, _ in kernel_cases()] + list(multigraph_pool())
    for g in graphs:
        census = sector_census(g)
        for oracle in (prefix_census(g), permutation_census(g)):
            assert dict(census.counts) == dict(oracle.counts)
            assert census.total == oracle.total
    larger = [
        (complete_graph(5), DEFAULT_GUARD),
        (complete_graph(5, [(0, 1), (2, 3)]), 12),
        (looped_triangle(), DEFAULT_GUARD),
        (Multigraph.build(["v1"], [("s1", "v1", "v1"), ("s2", "v1", "v1")]), DEFAULT_GUARD),
    ]
    for g, guard in larger:
        census, oracle = sector_census(g, guard=guard), prefix_census(g, guard=guard)
        assert dict(census.counts) == dict(oracle.counts)
        assert census.total == oracle.total


def test_census_counts_states():
    assert sector_census(complete_graph(5)).states == 466
    assert sector_census(complete_graph(5, [(0, 1), (2, 3)]), guard=12).states == 1029
    # the loops are dead from the start: the empty forest on levels 0-7
    # and each one-edge forest on levels 1-8
    assert sector_census(looped_triangle()).states == 32
    single = Multigraph.build(["v1"], [("s1", "v1", "v1")])
    assert sector_census(single).states == 0
    edge = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert sector_census(edge).states == 1


def test_census_matches_partition_route_beyond_the_guard():
    for g in (complete_graph(6), complete_graph(6, [(0, 1)]), complete_graph(7)):
        census = sector_census(g, guard=len(g.edges))
        assert census_weights(census) == report_weights(symmetric_via_partition(g))


def test_spanning_trees_match_contraction_deletion():
    graphs = [g for g, _ in kernel_cases()] + list(multigraph_pool())
    graphs.extend(complete_graph(k) for k in (5, 6, 7))
    graphs.append(looped_k5())
    for g in graphs:
        assert g.spanning_trees() == contraction_deletion_trees(g)


def test_edge_table_is_in_id_order():
    for g in (*multigraph_pool(), *edge_reversed_graphs()):
        table = g._edge_table
        assert [eid for eid, _, _ in table] == sorted(e.id for e in g.edges)
        for eid, a, b in table:
            assert (g.vertices[a], g.vertices[b]) == g.edge(eid).ends
        assert g._edge_table is table


def test_ordered_trees_match_depth_first_search():
    # edges listed out of id order: the walk must still take them by id
    cases = sweep_cases() + [
        (g, part)
        for g in edge_reversed_graphs() + [complete_graph(5), complete_graph(6)]
        for part in (Partition.singletons(g.vertices), Partition.of([["v1"], g.vertices[1:]]))
    ]
    rows = []
    for g, part in cases:
        walked = list(ordered_trees(g, part))
        assert walked == sorted(depth_first_ordered_trees(g, part))
        rows.append(len(walked))
        index = edge_index(g)
        for (order, denom), (order2, positions, mask, denom2) in zip(
            walked, _ordered_tree_walk(g, part)
        ):
            assert (order2, denom2) == (order, denom)
            assert positions == tuple(index[eid] for eid in order)
            assert mask == sum(1 << p for p in positions)
    # K5 and K6, each with singletons and then rooted at v1
    assert rows[-4:] == [3000, 576, 155520, 14400]


def one_table_cases():
    """fig1 and fig2 with every non-trivial partition; the two seeded
    pools, K6 and K7 with singletons, consecutive pairs and the first
    vertex against the rest."""
    cases = [(g, part) for g in (fig1(), fig2()) for part in nontrivial_partitions(g)]
    for g in (*multigraph_pool(), *pool_lemma5(), complete_graph(6), complete_graph(7)):
        v = list(g.vertices)
        shapes = [
            Partition.singletons(v),
            Partition.of([v[i:i + 2] for i in range(0, len(v), 2)]),
            Partition.of([v[:1], v[1:]]),
        ]
        cases.extend((g, part) for part in shapes if not part.is_trivial)
    return cases


def test_sums_sweep_matches_one_table():
    for g, part in one_table_cases():
        trees, denom = _forest_sums(g, part)
        _, expected, expected_denom = reference_ordering_states(g, part)
        # numerators and ordering counts, tree by tree and in the same order
        assert list(trees.items()) == list(expected.items())
        assert denom == expected_denom


def test_walk_sweep_matches_one_table():
    orderings = 0
    for g, part in one_table_cases():
        root, trees, _ = reference_ordering_states(g, part)
        walked = _ordered_tree_walk(g, part)
        expected = walk_ordering_states(root)
        if sum(count for _, count in trees.values()) > 2 * 10**5:
            # K7: a prefix of the walk
            walked, expected = islice(walked, 10**5), islice(expected, 10**5)
        # orderings in walk order, edge positions, tree bitmasks and k products
        for row, reference_row in zip(walked, expected, strict=True):
            assert row == reference_row
            orderings += 1
    assert orderings > 5 * 10**5


def test_walk_builds_labelings_only(monkeypatch):
    k6 = complete_graph(6)
    v = k6.vertices
    rooted = Partition.of([v[:1], v[1:]])
    # a first walk fills the graph's cached indexes, so the traced one
    # measures the walk alone; a deque of length 0 drops each row
    deque(_ordered_tree_walk(k6, rooted), maxlen=0)
    tracemalloc.start()
    try:
        assert sum(1 for _ in _ordered_tree_walk(k6, rooted)) == 14400
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the walk holds its labelings and one stack of prefixes, no forest states
    assert peak < 0.1 * 2**20
    built = []
    labeling = partitions._Labeling

    def counted(*args):
        built.append(args[0])
        return labeling(*args)

    monkeypatch.setattr(partitions, "_Labeling", counted)
    for part, labelings in ((Partition.singletons(v), 202), (rooted, 31)):
        built.clear()
        deque(_ordered_tree_walk(k6, part), maxlen=0)
        assert len(built) == len(set(built)) == labelings


def mixed_id_graph(k, rng):
    """K_k with edge ids of one to three characters, drawn so that their
    id order is not the order of the edges."""
    g = complete_graph(k)
    ids = rng.sample([c * n for c in "abcdefghij" for n in (1, 2, 3)], len(g.edges))
    return Multigraph.build(g.vertices, [(eid, *e.ends) for eid, e in zip(ids, g.edges)])


def test_walk_builds_orders_from_pieces():
    # the pieces of the CLI writers, a table cell's and a JSON leaf's: no
    # piece has length 1, so a prefix's length is not its depth
    text_pieces = (lambda eid: "," + eid, lambda eid: ",\n        " + json.dumps(eid))
    rng = random.Random(22)
    cases = [(g, part) for g in pool_lemma5() for part in nontrivial_partitions(g)]
    for k in (5, 6):
        g = mixed_id_graph(k, rng)
        assert [e.id for e in g.edges] != sorted(e.id for e in g.edges)
        v = g.vertices
        cases.append((g, Partition.of([v[:1], v[1:]])))
        if k == 5:
            cases.append((g, Partition.singletons(v)))
    walked = 0
    for g, part in cases:
        plain = list(_ordered_tree_walk(g, part))
        # each default order holds the ids of its edge-table positions
        table = g._edge_table
        assert all(
            order == tuple(table[p][0] for p in positions) for order, positions, _, _ in plain
        )
        for piece in text_pieces:
            made = []

            def counted(eid):
                made.append(eid)
                return piece(eid)

            # each order is the join of the default walk's edge ids, with
            # the same positions, mask and k product, in the same place
            assert list(_ordered_tree_walk(g, part, counted, "")) == [
                ("".join(map(piece, order)), positions, mask, denom)
                for order, positions, mask, denom in plain
            ]
            # one piece per edge, loops and parallel edges included
            assert sorted(made) == sorted(e.id for e in g.edges)
        walked += len(plain)
    assert walked > 2 * 10**4


def tree_states(g):
    """The states built for g's tree walk; each is a successor, so all are reachable."""
    root = g._tree_states(lambda eid: (eid,))
    seen, stack = {id(root): root}, [root]
    while stack:
        for child in stack.pop()[1:]:
            if isinstance(child, list) and id(child) not in seen:
                seen[id(child)] = child
                stack.append(child)
    return list(seen.values())


def bridged_k4(bridges, prefix="b"):
    """A path of bridges <prefix><i> ending at a vertex of K4: 16 spanning
    trees. Ids after the K4 edges' k<a><b> (say prefix "z") put the
    bridges last in the edge table."""
    path = [f"u{i:03d}" for i in range(bridges + 1)]
    k4 = [path[-1], "w1", "w2", "w3"]
    edges = [(f"{prefix}{i:03d}", path[i], path[i + 1]) for i in range(bridges)]
    edges.extend(
        (f"k{a}{b}", k4[a], k4[b]) for a in range(4) for b in range(a + 1, 4)
    )
    return Multigraph.build(path + k4[1:], edges)


def test_tree_states_all_lead_to_trees():
    # a state is built only if the walk from it reaches a tree
    assert len(tree_states(complete_graph(6))) == 527
    assert len(tree_states(complete_graph(7))) == 2569
    for g in (complete_graph(6), looped_k5(), bridged_k4(3)):
        assert all(take is not None or skip is not None for _, take, skip in tree_states(g))
    # no bridge is skipped: one state per bridge, then those of K4 alone
    k4 = bridged_k4(0)
    g = bridged_k4(30)
    assert g.spanning_trees() == contraction_deletion_trees(g)
    assert len(g.spanning_trees()) == g.complexity() == 16
    assert len(tree_states(g)) == 30 + len(tree_states(k4))


def assert_tree_states_list_the_trees(g):
    """g's tree walk equals the subset enumeration, order included, and
    every state it builds leads to a tree."""
    trees = g.spanning_trees()
    assert trees == sorted(brute_force_spanning_trees(g), key=sorted)
    assert len(trees) == g.complexity()
    assert all(take is not None or skip is not None for _, take, skip in tree_states(g))


def test_late_bridges_run_the_skip_test():
    # with the bridges last, no K4 edge is joined by the later edges
    # alone, so every K4 skip that the forest does not decide is tested
    for bridges in (1, 3, 30):
        g = bridged_k4(bridges, "z")
        assert [eid for eid, _, _ in g._edge_table][-bridges:] == [
            f"z{i:03d}" for i in range(bridges)
        ]
        assert g.spanning_trees() == contraction_deletion_trees(g)
        assert g.complexity() == 16
        assert_tree_states_list_the_trees(g)


def test_tree_walk_matches_subset_enumeration():
    rng = random.Random(2602)
    inventories = []
    for _ in range(200):
        g = random_connected_multigraph(rng, min_vertices=2, max_vertices=7, max_edges=11)
        ids = [e.id for e in g.edges]
        rng.shuffle(ids)
        g = Multigraph.build(g.vertices, [(eid, *e.ends) for eid, e in zip(ids, g.edges)])
        assert_tree_states_list_the_trees(g)
        inventories.append((len(g.vertices), *loops_and_parallels(g)))
    assert {n for n, _, _ in inventories} == set(range(2, 8))
    assert any(loops for _, loops, _ in inventories)
    assert any(parallels for _, _, parallels in inventories)


def test_trees_and_psd_output_match_contraction_deletion(monkeypatch, tmp_path):
    paths = [FIG1, FIG2]
    for name, g in (("k6", complete_graph(6)), ("looped", looped_k5())):
        path = tmp_path / f"{name}.json"
        path.write_text(to_json(g))
        paths.append(str(path))
    configs = [
        RunConfig(command="trees", graph_path=path, output_format=fmt)
        for path in paths
        for fmt in ("table", "json", "csv")
    ]
    # psd seeds each ordered tree's points by its index, so the tree
    # order reaches its float columns
    configs.extend(
        RunConfig(command="psd", graph_path=path, output_format="json", seed=7)
        for path in (FIG1, FIG2)
    )
    walked = run_configs(configs)
    assert [code for code, _, _ in walked] == [0] * len(configs)
    monkeypatch.setattr(Multigraph, "spanning_trees", contraction_deletion_trees)

    # trees reads the walk's text, the private method under spanning_trees:
    # empty plus the piece of each edge of a tree, in id order
    listed = []

    def sorted_trees(g, piece=lambda eid: (eid,), empty=()):
        listed.append(g)
        out = []
        for t in contraction_deletion_trees(g):
            text = empty
            for eid in sorted(t):
                text += piece(eid)
            out.append(text)
        return out

    monkeypatch.setattr(Multigraph, "_sorted_trees", sorted_trees)
    assert run_configs(configs) == walked
    assert len(listed) == len(paths) * 3


def test_ten_edge_census_at_default_guard():
    k5 = complete_graph(5)
    census = sector_census(k5)
    assert census.total == 3628800
    assert len(census.counts) == 125
    assert census_weights(census) == report_weights(symmetric_via_partition(k5))


def test_symmetric_output_matches_prefix_walk(monkeypatch, tmp_path):
    corners = [f"v{i}" for i in range(8)]
    cube = Multigraph.build(
        corners,
        [
            (f"l{a}{a | bit}", corners[a], corners[a | bit])
            for a in range(8)
            for bit in (1, 2, 4)
            if not a & bit
        ],
    )
    paths = [FIG1, FIG2]
    for name, g in (("k5", complete_graph(5)), ("cube", cube)):
        path = tmp_path / f"{name}.json"
        path.write_text(to_json(g))
        paths.append(str(path))
    configs = [
        RunConfig(command="symmetric", graph_path=path, output_format=fmt)
        for path in paths
        for fmt in ("table", "json", "csv")
    ]
    states = run_configs(configs)
    assert [code for code, _, _ in states] == [0] * 9 + [4] * 3
    for _, out, err in states[9:]:
        assert out == "" and err.startswith("error[guard-exceeded]: 12 edges")
    monkeypatch.setattr(cli, "sector_census", prefix_census)
    assert run_configs(configs) == states


def test_tree_weights_never_list_orderings(monkeypatch):
    fixture_parts = [
        (FIG1, fig1_root_first().format()),
        (FIG1, fig1_root_second().format()),
        (FIG2, fig2_double_rooted().format()),
        (FIG2, "v1|v2|v3|v4"),
    ]
    configs = [
        RunConfig(command="weights", graph_path=path, partition=spec, output_format=fmt)
        for path, spec in fixture_parts
        for fmt in ("table", "json", "csv")
    ]
    configs.extend(
        RunConfig(command="symmetric", graph_path=path, output_format=fmt)
        for path in (FIG1, FIG2)
        for fmt in ("table", "json", "csv")
    )

    def run_all():
        outputs = []
        for config in configs:
            out, err = io.StringIO(), io.StringIO()
            assert cli.run(config, out=out, err=err) == 0, err.getvalue()
            outputs.append(out.getvalue())
        return outputs

    # the bytes of the replaced routes
    with monkeypatch.context() as patched:
        patched.setattr(cli, "weight_distribution", grouped_weight_distribution)
        patched.setattr(cli, "sector_census", lambda g, guard: permutation_census(g))
        expected = run_all()

    g, part = Multigraph.from_json(Path(FIG2).read_text()), fig2_double_rooted()
    counts = [len(row.orderings) for row in grouped_weight_distribution(g, part).rows]

    def refuse(*args, **kwargs):
        raise RuntimeError("an ordering was listed")

    for module, name in (
        (partitions, "ordered_trees"),
        (partitions, "_ordered_tree_walk"),
        (weights, "_ordered_tree_walk"),
        (psd, "_ordered_tree_walk"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert run_all() == expected
    report = weight_distribution(g, part)
    assert [len(row.orderings) for row in report.rows] == counts
    with pytest.raises(RuntimeError, match="an ordering was listed"):
        list(report.rows[0].orderings)


def test_each_route_builds_only_the_sweep_it_reads(monkeypatch, tmp_path):
    k6 = tmp_path / "k6.json"
    k6.write_text(to_json(complete_graph(6)))
    v = complete_graph(6).vertices
    k6_parts = [
        Partition.singletons(v).format(),
        Partition.of([v[i:i + 2] for i in range(0, 6, 2)]).format(),
        Partition.of([v[:1], v[1:]]).format(),
    ]
    fixture_parts = [
        (FIG1, fig1_root_first().format()),
        (FIG1, fig1_root_second().format()),
        (FIG2, fig2_double_rooted().format()),
        (FIG2, "v1|v2|v3|v4"),
    ]
    formats = ("table", "json", "csv")
    # plain weights and symmetric read the sums sweep alone
    sums_only = [
        RunConfig(command="weights", graph_path=path, partition=spec, output_format=fmt)
        for path, spec in fixture_parts + [(str(k6), spec) for spec in k6_parts]
        for fmt in formats
    ]
    sums_only.extend(
        RunConfig(command="symmetric", graph_path=path, output_format=fmt, guard=15)
        for path in (FIG1, FIG2, str(k6))
        for fmt in formats
    )
    # verify and psd read the walk alone
    walk_only = [
        RunConfig(command=command, graph_path=path, partition=spec, output_format=fmt)
        for command in ("verify", "psd")
        for path, spec in fixture_parts
        for fmt in formats
    ]
    walk_only.extend(
        RunConfig(command="verify", graph_path=str(k6), partition=k6_parts[2], output_format=fmt)
        for fmt in formats
    )
    walk_only.append(
        RunConfig(command="psd", graph_path=str(k6), partition=k6_parts[2],
                  output_format="json", samples=1)
    )

    def refuse(*args):
        raise RuntimeError("a sweep the route does not read was built")

    # a refused sweep would exit 5 with an internal-fault line
    with monkeypatch.context() as patched:
        for module in (partitions, weights, psd):
            patched.setattr(module, "_ordered_tree_walk", refuse)
        assert {(code, err) for code, _, err in run_configs(sums_only)} == {(0, "")}
    with monkeypatch.context() as patched:
        for module in (partitions, weights):
            patched.setattr(module, "_forest_sums", refuse)
        assert {(code, err) for code, _, err in run_configs(walk_only)} == {(0, "")}


def test_breakdown_is_listed_once_per_report(monkeypatch):
    g = Multigraph.from_json(Path(FIG2).read_text())
    part = Partition.singletons(g.vertices)
    calls: dict[str, list] = {"_forest_sums": [], "_ordered_tree_walk": []}

    def counted(name):
        route = getattr(weights, name)

        def run(*args):
            calls[name].append(args)
            return route(*args)
        return run

    for name in calls:
        monkeypatch.setattr(weights, name, counted(name))
    report = weight_distribution(g, part)
    # one sums sweep, and no walk until a breakdown is read
    assert [len(made) for made in calls.values()] == [1, 0]
    listed = [list(row.orderings) for row in report.rows]
    # then one walk for every row
    assert [len(made) for made in calls.values()] == [1, 1]
    listed_again = [list(row.orderings) for row in report.rows]
    assert [len(made) for made in calls.values()] == [1, 1]
    assert listed == listed_again
    assert list(map(len, listed)) == [len(row.orderings) for row in report.rows]


def test_breakdown_output_builds_no_pairs(monkeypatch, tmp_path):
    k5 = tmp_path / "k5.json"
    k5.write_text(to_json(mixed_id_graph(5, random.Random(5))))
    cases = [
        (FIG1, fig1_root_first().format()),
        (FIG2, fig2_double_rooted().format()),
        (FIG2, "v1|v2|v3|v4"),
        (str(k5), "v1|v2,v3,v4,v5"),
    ]
    configs = [
        RunConfig(command="weights", graph_path=path, partition=spec, output_format=fmt,
                  breakdown=True)
        for path, spec in cases
        for fmt in ("table", "json", "csv")
    ]
    with monkeypatch.context() as patched:
        patched.setitem(cli.COMMANDS, "weights", reference_cmd_weights)
        expected = run_configs(configs)
    assert {code for code, _, _ in expected} == {0}

    def refuse(*args, **kwargs):
        raise RuntimeError("an (order, weight) pair was built")

    # the writers build their text along the walk, never row.orderings
    monkeypatch.setattr(weights._Listing, "by_tree", property(refuse))
    assert run_configs(configs) == expected
    report = weight_distribution(Multigraph.from_json(Path(FIG2).read_text()), fig2_double_rooted())
    with pytest.raises(RuntimeError, match="pair was built"):
        list(report.rows[0].orderings)
