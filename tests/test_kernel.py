"""The integer contraction kernel against the object-level walk it replaced.

The kernel's k values and contact indices must equal, bit for bit, those
read off the graphs and partitions that the test oracles replay by
contracting objects; the batched kernel must equal the single-trace
routes row by row, and the checks built on it the per-ordering loops
they replaced; no invariant may hide in an `assert` that `python -O`
strips; and the package exports exactly the names it defines.
"""

import ast
import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest

import treeweights
from treeweights import psd, weights
from treeweights.errors import InvariantError, NotAdmissibleError
from treeweights.graph import Multigraph
from treeweights.partitions import (
    Partition,
    admissible_orderings,
    batch_contact_indices,
    build_trace,
    contact_indices,
    forest_trace,
    ordered_trees,
    trace_batch,
)
from treeweights.psd import verify_constructive
from treeweights.weights import edge_exponents, edge_monomials, verify_exact

from helpers import (
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    nontrivial_partitions,
    per_tree_verify_constructive,
    per_tree_verify_exact,
    random_connected_multigraph,
    replay_trace,
    replayed_k_values,
    scan_contact_indices,
)
from test_acceptance import pool_normalization

ROOT = Path(__file__).resolve().parent.parent


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
                    replay = replay_trace(trace)
                    assert trace.k_values == replayed_k_values(replay)
                    for v in g.vertices:
                        for w in g.vertices:
                            assert contact_indices(trace, v, w) == (
                                scan_contact_indices(replay, v, w)
                            )
                    traces += 1
    assert traces > 1000


def batch_cases():
    """The criterion-9 cases and 40 seeded multigraphs with loops and
    parallel edges, one partition each."""
    cases = [(g, part) for g, parts in kernel_cases() for part in parts]
    rng = random.Random(6006)
    for _ in range(40):
        g = random_connected_multigraph(rng, min_vertices=2, max_vertices=5, max_edges=8)
        cases.append((g, rng.choice(nontrivial_partitions(g, rng))))
    return cases


def test_batch_kernel_matches_single_traces():
    rows = 0
    for g, part in batch_cases():
        walks = list(ordered_trees(g, part))
        index = g._edge_index
        batch = trace_batch(g, part, [[index[eid] for eid in order] for order, _ in walks])
        i, j = batch_contact_indices(batch)
        exps = edge_exponents(g, batch, (i, j))
        verts = g.vertices
        for row, (order, _) in enumerate(walks):
            trace = forest_trace(g, part, order)
            assert tuple(batch.k[row].tolist()) == trace.k_values
            assert tuple(map(tuple, batch.merge_steps[row].tolist())) == trace.merge_steps
            assert tuple(batch.start_blocks.tolist()) == trace.start_blocks
            assert [
                [(int(i[row, a, b]), int(j[row, a, b])) for b in range(len(verts))]
                for a in range(len(verts))
            ] == [[contact_indices(trace, v, w) for w in verts] for v in verts]
            assert tuple(exps[row].tolist()) == edge_monomials(g, trace).exponents
            rows += 1
    assert rows > 5000


@lru_cache(maxsize=1)
def per_tree_reports():
    return [
        (per_tree_verify_exact(g, part), per_tree_verify_constructive(g, part, 2, 1e-10, 5))
        for g, part in batch_cases()
    ]


@pytest.mark.parametrize("block", [None, 3], ids=["default-blocks", "blocks-of-3"])
def test_batched_checks_equal_per_tree_loops(monkeypatch, block):
    if block is not None:
        for module in (weights, psd):
            monkeypatch.setattr(module, "BLOCK_ORDERINGS", block)
    for (g, part), (exact, positivity) in zip(batch_cases(), per_tree_reports()):
        assert verify_exact(g, part) == exact
        assert verify_constructive(g, part, samples=2, seed=5) == positivity


def test_batch_kernel_refuses_like_forest_trace():
    g, part = fig2(), fig2_double_rooted()
    index = g._edge_index
    rows, refused = [], []
    for tree in g.spanning_trees():
        for order in itertools.permutations(sorted(tree)):
            rows.append([index[eid] for eid in order])
            try:
                forest_trace(g, part, order)
            except NotAdmissibleError as expected:
                with pytest.raises(NotAdmissibleError) as err:
                    trace_batch(g, part, rows[-1:])
                assert (err.value.step, str(err.value)) == (expected.step, str(expected))
                refused.append(expected.step)
            else:
                assert len(trace_batch(g, part, rows[-1:])) == 1
    assert 0 < len(refused) < len(rows)
    # a batch stops at the first step at which any row is refused
    with pytest.raises(NotAdmissibleError) as err:
        trace_batch(g, part, rows)
    assert err.value.step == min(refused)


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


def test_all_names_are_exported_once():
    assert len(set(treeweights.__all__)) == len(treeweights.__all__)
    assert [name for name in treeweights.__all__ if not hasattr(treeweights, name)] == []
