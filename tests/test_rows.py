"""Rows read straight off the state walks, against the per-row routes.

weight_distribution shares one Fraction per distinct weight and reads
each tree's key off its mask, WeightReport.total sums one Fraction per
distinct weight, cmd_symmetric checks census against partition route
in integers, verify_constructive checks each tree's normalization in
integers, cmd_trees writes the text the tree walk builds along each
tree, and cmd_weights writes its rows from each distinct weight's
shared text. Each must equal, bit for bit, the route kept in helpers
that it replaced: rows, weights, totals, verdicts, tree lists and their
order, and the bytes, stderr and exit code of every command. The
replaced trees and weights commands write through the reference
writer.
"""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeweights import cli
from treeweights.cli import RunConfig
from treeweights.errors import TrivialPartitionError
from treeweights.graph import Multigraph
from treeweights.partitions import Partition
from treeweights.psd import _sums_to_one, verify_constructive
from treeweights.weights import TreeRow, WeightReport, weight_distribution

from helpers import (
    complete_graph,
    looped_k5,
    reference_cmd_symmetric,
    reference_cmd_trees,
    reference_cmd_weights,
    reference_measure_normalized,
    reference_total,
    reference_weight_distribution,
    to_json,
)
from test_acceptance import pool_lemma5
from test_kernel import kernel_cases
from test_sweeps import multigraph_pool

FORMATS = ("table", "json", "csv")


def shaped_partitions(g):
    """Singletons, consecutive pairs and the first vertex against the
    rest; a shape with one block is kept, to be refused alike."""
    v = list(g.vertices)
    return [
        Partition.singletons(v),
        Partition.of([v[i:i + 2] for i in range(0, len(v), 2)]),
        Partition.of([block for block in (v[:1], v[1:]) if block]),
    ]


def weight_cases():
    cases = [(g, part) for g, parts in kernel_cases() for part in parts]
    graphs = (*multigraph_pool(), *pool_lemma5(), looped_k5(), complete_graph(5), complete_graph(6))
    for g in graphs:
        cases.extend((g, part) for part in shaped_partitions(g))
    return cases


def row_bits(report, orderings):
    return [
        (
            row.tree,
            row.weight.numerator,
            row.weight.denominator,
            len(row.orderings),
            tuple(row.orderings) if orderings else None,
        )
        for row in report.rows
    ]


def test_rows_match_per_tree_fractions():
    refused = 0
    for g, part in weight_cases():
        if part.is_trivial:
            for route in (weight_distribution, reference_weight_distribution):
                with pytest.raises(TrivialPartitionError):
                    route(g, part)
            refused += 1
            continue
        report, oracle = weight_distribution(g, part), reference_weight_distribution(g, part)
        # listing K6's orderings adds nothing the pools do not check
        small = len(g.edges) <= 10
        assert row_bits(report, small) == row_bits(oracle, small)
        total = report.total
        assert type(total) is Fraction
        assert (total.numerator, total.denominator) == (1, 1)
        assert total == reference_total(report) == reference_total(oracle)
        # equal weights share one Fraction
        distinct = {(row.weight.numerator, row.weight.denominator) for row in report.rows}
        assert len({id(row.weight) for row in report.rows}) == len(distinct)
    assert refused > 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-(2**70), max_value=2**70),
            st.integers(min_value=1, max_value=2**40),
        ),
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_total_matches_fraction_sum_on_any_rows(pairs):
    report = WeightReport(
        tuple(TreeRow((f"e{i}",), Fraction(n, d), ()) for i, (n, d) in enumerate(pairs))
    )
    total, expected = report.total, reference_total(report)
    assert (type(total), total.numerator, total.denominator) == (
        Fraction, expected.numerator, expected.denominator
    )


def split_to_one(rng, parts):
    """Denominators whose reciprocals sum to exactly 1: a 1 split into
    d equal parts, some of them split again."""
    denoms = [1]
    for _ in range(parts):
        d = denoms.pop(rng.randrange(len(denoms)))
        k = rng.randint(2, 4)
        denoms.extend([d * k] * k)
    return denoms


def test_integer_normalization_matches_fraction_sum():
    rng = random.Random(13)
    for _ in range(300):
        denoms = split_to_one(rng, rng.randint(0, 6))
        rng.shuffle(denoms)
        assert _sums_to_one(denoms) and sum(Fraction(1, d) for d in denoms) == 1
        # one denominator one larger, or one reciprocal too many
        broken = list(denoms)
        broken[rng.randrange(len(broken))] += 1
        for wrong in (broken, denoms + denoms[:1]):
            assert not _sums_to_one(wrong) and sum(Fraction(1, d) for d in wrong) != 1


def test_psd_normalization_matches_fraction_sum():
    cases = [(g, part) for g, parts in kernel_cases() for part in parts]
    for g in (*multigraph_pool(), complete_graph(5)):
        cases.extend((g, part) for part in shaped_partitions(g)[1:] if not part.is_trivial)
    for g, part in cases:
        report = verify_constructive(g, part, samples=1, seed=0)
        assert report.measure_normalized is reference_measure_normalized(g, part) is True


def graph_paths(tmp_path, graphs):
    paths = []
    for index, g in enumerate(graphs):
        path = tmp_path / f"g{index}.json"
        path.write_text(to_json(g))
        paths.append(str(path))
    return paths


def outcomes(configs):
    results = []
    for config in configs:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(config, out=out, err=err)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def small_graphs():
    one_vertex = Multigraph.build(["v1"], [("s1", "v1", "v1"), ("s2", "v1", "v1")])
    bare_vertex = Multigraph.build(["v1"], [])
    two_vertex = Multigraph.build(
        ["v1", "v2"], [("l2", "v1", "v2"), ("l1", "v2", "v1"), ("s1", "v2", "v2")]
    )
    disconnected = Multigraph.build(["v1", "v2", "v3"], [("l1", "v1", "v2")])
    graphs = [g for g, _ in kernel_cases()] + list(multigraph_pool())
    return graphs + [one_vertex, bare_vertex, two_vertex, disconnected, looped_k5()]


def test_symmetric_output_matches_fraction_comparison(monkeypatch, tmp_path):
    paths = graph_paths(tmp_path, small_graphs() + [complete_graph(5)])
    configs = [
        RunConfig(command="symmetric", graph_path=path, output_format=fmt)
        for path in paths
        for fmt in FORMATS
    ]
    walked = outcomes(configs)
    # the looped K5 has 13 edges, above the census guard
    assert {code for code, _, _ in walked} == {0, 2, 4}
    monkeypatch.setitem(cli.COMMANDS, "symmetric", reference_cmd_symmetric)
    assert outcomes(configs) == walked


def test_trees_output_matches_sorted_frozensets(monkeypatch, tmp_path):
    graphs = small_graphs() + [complete_graph(k) for k in (5, 6, 7)]
    for g in graphs:
        if g.is_connected():
            tuples = g._sorted_trees()
            assert [list(t) for t in tuples] == [sorted(t) for t in g.spanning_trees()]
            assert g.spanning_trees() == [frozenset(t) for t in tuples]
    paths = graph_paths(tmp_path, graphs)
    configs = [
        RunConfig(command="trees", graph_path=path, output_format=fmt)
        for path in paths
        for fmt in FORMATS
    ]
    walked = outcomes(configs)
    assert {code for code, _, _ in walked} == {0, 2}
    monkeypatch.setitem(cli.COMMANDS, "trees", reference_cmd_trees)
    assert outcomes(configs) == walked


def test_weights_output_matches_per_row_formatting(monkeypatch, tmp_path):
    graphs = small_graphs() + [complete_graph(5)]
    paths = graph_paths(tmp_path, graphs)
    configs = [
        RunConfig(
            command="weights", graph_path=path, partition=part.format(),
            output_format=fmt, breakdown=breakdown,
        )
        for g, path in zip(graphs, paths)
        for part in shaped_partitions(g)
        for fmt in FORMATS
        for breakdown in (False, True)
    ]
    walked = outcomes(configs)
    assert {code for code, _, _ in walked} == {0, 2}
    monkeypatch.setitem(cli.COMMANDS, "weights", reference_cmd_weights)
    assert outcomes(configs) == walked
