"""The state sweeps against the routes they replaced.

weight_distribution sweeps forests, sector_census sweeps (placed
edges, greedy forest) states, spanning_trees walks (position, forest)
states and ordered_trees walks forest states; each must equal, bit for
bit, the routes kept in helpers: the grouping of every ordered tree,
the census that walks every sector prefix and the one over every
permutation, the contraction-deletion recursion and the depth-first
ordering search, order included. Printing tree weights must never list
an ordering, and the symmetric, trees and psd commands must print the
same bytes with the replaced routes.
"""

import io
import random
from functools import lru_cache
from pathlib import Path

import pytest

from treeweights import cli, partitions, psd, weights
from treeweights.cli import RunConfig
from treeweights.graph import Multigraph
from treeweights.partitions import Partition, _ordered_tree_walk, ordered_trees
from treeweights.sectors import DEFAULT_GUARD, sector_census
from treeweights.weights import symmetric_via_partition, weight_distribution

from helpers import (
    contraction_deletion_trees,
    depth_first_ordered_trees,
    fig1_root_first,
    fig1_root_second,
    fig2_double_rooted,
    grouped_weight_distribution,
    nontrivial_partitions,
    permutation_census,
    prefix_census,
    random_connected_multigraph,
)
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
    audits = [g.validate() for g in pool]
    assert any(a.self_loops for a in audits)
    assert any(a.parallel_classes for a in audits)
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
        assert report.total == oracle.total == 1
        orderings += sum(len(row.orderings) for row in report.rows)
    assert orderings > 10000


def complete_graph(k, parallel=()):
    """K_k with edges l<a><b>, plus one edge p<i> per (a, b) in parallel."""
    vertices = [f"v{i}" for i in range(1, k + 1)]
    edges = [
        (f"l{a}{b}", vertices[a], vertices[b]) for a in range(k) for b in range(a + 1, k)
    ]
    edges.extend(
        (f"p{i}", vertices[a], vertices[b]) for i, (a, b) in enumerate(parallel)
    )
    return Multigraph.build(vertices, edges)


def test_state_census_matches_prefix_walk_and_permutations():
    graphs = [g for g, _ in kernel_cases()] + list(multigraph_pool())
    for g in graphs:
        census = sector_census(g)
        for oracle in (prefix_census(g), permutation_census(g)):
            assert dict(census.counts) == dict(oracle.counts)
            assert census.total == oracle.total
    triangle = [("l1", "v1", "v2"), ("l2", "v2", "v3"), ("l3", "v1", "v3")]
    loops = [(f"s{i}", f"v{i % 3 + 1}", f"v{i % 3 + 1}") for i in range(7)]
    larger = [
        (complete_graph(5), DEFAULT_GUARD),
        (complete_graph(5, [(0, 1), (2, 3)]), 12),
        (Multigraph.build(["v1", "v2", "v3"], triangle + loops), DEFAULT_GUARD),
        (Multigraph.build(["v1"], [("s1", "v1", "v1"), ("s2", "v1", "v1")]), DEFAULT_GUARD),
    ]
    for g, guard in larger:
        census, oracle = sector_census(g, guard=guard), prefix_census(g, guard=guard)
        assert dict(census.counts) == dict(oracle.counts)
        assert census.total == oracle.total


def test_census_counts_states():
    assert sector_census(complete_graph(5)).states == 786
    assert sector_census(complete_graph(5, [(0, 1), (2, 3)]), guard=12).states == 3155
    single = Multigraph.build(["v1"], [("s1", "v1", "v1")])
    assert sector_census(single).states == 0
    edge = Multigraph.build(["v1", "v2"], [("l1", "v1", "v2")])
    assert sector_census(edge).states == 1


def looped_k5():
    """K5 plus two parallel edges, and a loop whose id sorts between theirs."""
    k5 = complete_graph(5, [(0, 1), (2, 3)])
    edges = [(e.id, *e.ends) for e in k5.edges] + [("m1", "v3", "v3")]
    return Multigraph.build(k5.vertices, edges)


def test_spanning_trees_match_contraction_deletion():
    graphs = [g for g, _ in kernel_cases()] + list(multigraph_pool())
    graphs.extend(complete_graph(k) for k in (5, 6, 7))
    graphs.append(looped_k5())
    for g in graphs:
        assert g.spanning_trees() == contraction_deletion_trees(g)


def test_ordered_trees_match_depth_first_search():
    fig2 = Multigraph.from_json(Path(FIG2).read_text())
    # edges listed out of id order: the walk must still take them by id
    shuffled = [
        Multigraph(fig2.vertices, fig2.edges[::-1]),
        Multigraph(looped_k5().vertices, looped_k5().edges[::-1]),
    ]
    cases = sweep_cases() + [
        (g, part)
        for g in shuffled + [complete_graph(5), complete_graph(6)]
        for part in (Partition.singletons(g.vertices), Partition.of([["v1"], g.vertices[1:]]))
    ]
    rows = []
    for g, part in cases:
        walked = list(ordered_trees(g, part))
        assert walked == sorted(depth_first_ordered_trees(g, part))
        rows.append(len(walked))
        index = g._edge_index
        for (order, denom), (order2, indices, mask, denom2) in zip(
            walked, _ordered_tree_walk(g, part)
        ):
            assert (order2, denom2) == (order, denom)
            assert indices == tuple(index[eid] for eid in order)
            assert mask == sum(1 << i for i in indices)
    # K5 and K6, each with singletons and then rooted at v1
    assert rows[-4:] == [3000, 576, 155520, 14400]


def tree_states(g):
    """The states built for g's tree walk; each is a successor, so all are reachable."""
    root = g._tree_states()
    seen, stack = {id(root): root}, [root]
    while stack:
        for child in stack.pop()[1:]:
            if isinstance(child, list) and id(child) not in seen:
                seen[id(child)] = child
                stack.append(child)
    return list(seen.values())


def bridged_k4(bridges):
    """A path of bridges b<i> ending at a vertex of K4: 16 spanning trees."""
    path = [f"u{i:03d}" for i in range(bridges + 1)]
    k4 = [path[-1], "w1", "w2", "w3"]
    edges = [(f"b{i:03d}", path[i], path[i + 1]) for i in range(bridges)]
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


def test_trees_and_psd_output_match_contraction_deletion(monkeypatch, tmp_path):
    paths = [FIG1, FIG2]
    for name, g in (("k6", complete_graph(6)), ("looped", looped_k5())):
        path = tmp_path / f"{name}.json"
        path.write_text(g.to_json())
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
    # trees reads the walk's sorted tuples, the private method under spanning_trees
    monkeypatch.setattr(
        Multigraph, "_sorted_trees",
        lambda g: [tuple(sorted(t)) for t in contraction_deletion_trees(g)],
    )
    assert run_configs(configs) == walked


def test_ten_edge_census_at_default_guard():
    k5 = complete_graph(5)
    census = sector_census(k5)
    assert census.total == 3628800
    assert len(census.counts) == 125
    assert census.weights() == symmetric_via_partition(k5).weights()


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
        path.write_text(g.to_json())
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
        (weights, "_walk_states"),
        (psd, "_ordered_tree_walk"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert run_all() == expected
    report = weight_distribution(g, part)
    assert [len(row.orderings) for row in report.rows] == counts
    with pytest.raises(RuntimeError, match="an ordering was listed"):
        list(report.rows[0].orderings)


def test_breakdown_is_listed_once_per_report(monkeypatch):
    g = Multigraph.from_json(Path(FIG2).read_text())
    part = Partition.singletons(g.vertices)
    builds, searches = [], []
    build, walk = weights._ordering_states, weights._walk_states

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def counted(*args):
        searches.append(args)
        return walk(*args)

    monkeypatch.setattr(weights, "_ordering_states", counted_build)
    monkeypatch.setattr(weights, "_walk_states", counted)
    report = weight_distribution(g, part)
    assert len(builds) == 1
    assert searches == []
    listed = [list(row.orderings) for row in report.rows]
    listed_again = [list(row.orderings) for row in report.rows]
    assert len(searches) == 1
    # the breakdown walks the table the weights were summed on
    assert len(builds) == 1
    assert listed == listed_again
    assert list(map(len, listed)) == [len(row.orderings) for row in report.rows]
