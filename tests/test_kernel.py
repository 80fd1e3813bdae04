"""The integer contraction kernel against the object-level walk it replaced.

The kernel's k values and contact indices must equal, bit for bit, those
read off the replayed graphs and partitions; the engine routes must run
without contracting a single graph; and no invariant may hide in an
`assert` that `python -O` strips.
"""

import ast
import io
from pathlib import Path

import pytest

from treeweights import cli
from treeweights.cli import RunConfig
from treeweights.errors import InvariantError
from treeweights.fixtures import fig1, fig1_root_first, fig1_root_second, fig2, fig2_double_rooted
from treeweights.graph import Multigraph
from treeweights.partitions import (
    Partition,
    admissible_orderings,
    build_trace,
    contact_indices,
    ordered_trees,
)

from helpers import replayed_k_values, scan_contact_indices
from test_acceptance import pool_normalization

ROOT = Path(__file__).resolve().parent.parent
FIG2 = str(ROOT / "fixtures" / "fig2.json")


def kernel_cases():
    """The ordering cases of acceptance criterion 9."""
    cases = [
        (fig1(), [fig1_root_first(), fig1_root_second()]),
        (fig2(), [fig2_double_rooted(), Partition.singletons(fig2().vertices)]),
    ]
    cases.extend((g, list(parts[:6])) for g, parts in pool_normalization()[:30])
    return cases


def test_kernel_matches_replayed_scan():
    traces = 0
    for g, parts in kernel_cases():
        for part in parts:
            for tree in g.spanning_trees():
                for order in admissible_orderings(g, part, tree):
                    trace = build_trace(g, part, order)
                    assert trace.k_values == replayed_k_values(trace)
                    for v in g.vertices:
                        for w in g.vertices:
                            assert contact_indices(trace, v, w) == (
                                scan_contact_indices(trace, v, w)
                            )
                    traces += 1
    assert traces > 1000


def test_engine_routes_never_contract(monkeypatch):
    commands = [
        ["weights", "v1|v2|v3,v4"],
        ["weights", "v1|v2|v3|v4"],
        ["verify", "v1|v2|v3,v4"],
        ["verify", None],
        ["psd", "v1|v2|v3,v4"],
        ["psd", None],
    ]

    def run_all():
        outputs = []
        for command, partition in commands:
            out, err = io.StringIO(), io.StringIO()
            config = RunConfig(command=command, graph_path=FIG2, partition=partition)
            assert cli.run(config, out=out, err=err) == 0, err.getvalue()
            outputs.append(out.getvalue())
        return outputs

    expected = run_all()

    def refuse(*args, **kwargs):
        raise RuntimeError("an engine route contracted an object graph")

    monkeypatch.setattr(Multigraph, "contract", refuse)
    monkeypatch.setattr(Partition, "contract_pair", refuse)
    assert run_all() == expected


def test_search_invariant_raises_a_real_error():
    # a disconnected graph leaves an interior state without a
    # trans-block edge, which the search reports instead of skipping
    g = Multigraph.build(["v1", "v2", "v3"], [("l1", "v1", "v2")])
    with pytest.raises(InvariantError) as err:
        list(ordered_trees(g, Partition.singletons(g.vertices)))
    assert err.value.code == "invariant-violated"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted((ROOT / "src" / "treeweights").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert found == []
