"""The state sweeps against the routes they replaced.

weight_distribution sweeps forests and sector_census walks sector
prefixes; both must equal, bit for bit, the grouping of every ordered
tree and the census over every permutation kept in helpers. Printing
tree weights must never list an ordering.
"""

import io
import random
from functools import lru_cache
from pathlib import Path

import pytest

from treeweights import cli, partitions, psd, weights
from treeweights.cli import RunConfig
from treeweights.fixtures import fig1_root_first, fig1_root_second, fig2_double_rooted
from treeweights.graph import Multigraph
from treeweights.partitions import Partition
from treeweights.sectors import sector_census
from treeweights.weights import symmetric_via_partition, weight_distribution

from helpers import (
    grouped_weight_distribution,
    nontrivial_partitions,
    permutation_census,
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


def test_prefix_census_matches_permutations():
    graphs = [g for g, _ in kernel_cases()] + list(multigraph_pool())
    for g in graphs:
        census, oracle = sector_census(g), permutation_census(g)
        assert dict(census.counts) == dict(oracle.counts)
        assert census.total == oracle.total


def test_ten_edge_census_at_default_guard():
    vertices = [f"v{i}" for i in range(1, 6)]
    k5 = Multigraph.build(
        vertices,
        [
            (f"l{a}{b}", vertices[a], vertices[b])
            for a in range(5)
            for b in range(a + 1, 5)
        ],
    )
    census = sector_census(k5)
    assert census.total == 3628800
    assert len(census.counts) == 125
    assert census.weights() == symmetric_via_partition(k5).weights()


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

    for module in (partitions, weights, psd):
        monkeypatch.setattr(module, "ordered_trees", refuse)
    assert run_all() == expected
    report = weight_distribution(g, part)
    assert [len(row.orderings) for row in report.rows] == counts
    with pytest.raises(RuntimeError, match="an ordering was listed"):
        list(report.rows[0].orderings)


def test_breakdown_is_listed_once_per_report(monkeypatch):
    g = Multigraph.from_json(Path(FIG2).read_text())
    part = Partition.singletons(g.vertices)
    searches = []
    original = weights.ordered_trees

    def counted(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(weights, "ordered_trees", counted)
    report = weight_distribution(g, part)
    assert searches == []
    listed = [list(row.orderings) for row in report.rows]
    listed_again = [list(row.orderings) for row in report.rows]
    assert len(searches) == 1
    assert listed == listed_again
    assert list(map(len, listed)) == [len(row.orderings) for row in report.rows]
