"""The integer contraction kernel against the object-level walk it replaced.

The kernel's k values and contact indices must equal, bit for bit, those
read off the graphs and partitions that the test oracles replay by
contracting objects; the batched kernel must equal the single-trace
routes row by row, with int8 arrays up to 63 vertices and int16 from
64, and the checks built on it the per-ordering loops they replaced; one
vertex and an empty batch keep their pinned arrays; no invariant may
hide in an `assert` that `python -O` strips; and the package exports
exactly the names it defines.
"""

import ast
import itertools
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import treeweights
from treeweights import psd
from treeweights.errors import InvariantError, NotAdmissibleError
from treeweights.graph import Multigraph
from treeweights.partitions import (
    Partition,
    admissible_orderings,
    build_trace,
    contact_indices,
    forest_trace,
    ordered_trees,
)
from treeweights.psd import (
    _row_products,
    edge_exponents,
    trace_batch,
    verify_constructive,
    verify_exact,
)
from treeweights.weights import edge_monomials

from helpers import (
    edge_index,
    edge_reversed_graphs,
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    looped_k5,
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
        index = edge_index(g)
        batch = trace_batch(g, part, [[index[eid] for eid in order] for order, _ in walks])
        i, j = batch.i, batch.j
        exps = edge_exponents(batch)
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


def test_batch_ends_are_in_edge_table_order():
    # ends[:, p] are the ends of the edge at table position p, which on
    # the edge-reversed graphs is not its place in g.edges; the tree
    # edges of the exponents and of the tree-only k are found through them
    for g in (fig2(), looped_k5(), *edge_reversed_graphs()):
        part = Partition.singletons(g.vertices)
        walks = list(itertools.islice(ordered_trees(g, part), 300))
        index = edge_index(g)
        batch = trace_batch(g, part, [[index[eid] for eid in order] for order, _ in walks])
        assert [(g.vertices[a], g.vertices[b]) for a, b in batch.ends.T] == [
            g.edge(eid).ends for eid in sorted(index)
        ]
        exps, tree_k = edge_exponents(batch), psd._tree_k(batch)
        for row, (order, _) in enumerate(walks):
            assert tuple(exps[row].tolist()) == (
                edge_monomials(g, forest_trace(g, part, order)).exponents
            )
            tree = Multigraph(g.vertices, tuple(map(g.edge, order)))
            assert tuple(tree_k[row].tolist()) == forest_trace(tree, part, order).k_values


def chorded_path(n):
    """The path v1 - v2 - ... - v<n> with the chord v1 - v4."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"p{i:02d}", vertices[i], vertices[i + 1]) for i in range(n - 1)]
    edges.append(("chord", vertices[0], vertices[3]))
    return Multigraph.build(vertices, edges)


@pytest.mark.parametrize("n, small", [(63, np.int8), (64, np.int16)])
def test_batch_kernel_at_its_dtype_boundary(n, small):
    # odd against even vertices: every edge of every tree is trans-block
    # until its ends merge, so every ordering is admissible
    g = chorded_path(n)
    part = Partition.of([g.vertices[0::2], g.vertices[1::2]])
    rng = random.Random(n)
    index = edge_index(g)
    orders = []
    for dropped in ("p00", "p01", "p02", "chord"):
        tree = sorted(set(index) - {dropped})
        orders.extend(rng.sample(tree, len(tree)) for _ in range(3))
    batch = trace_batch(g, part, [[index[eid] for eid in order] for order in orders])
    assert batch.k.dtype == np.int64
    assert {a.dtype for a in (batch.merge_steps, batch.start_blocks, batch.i, batch.j)} == {
        np.dtype(small)
    }
    verts = g.vertices
    for row, order in enumerate(orders):
        trace = forest_trace(g, part, order)
        assert tuple(batch.k[row].tolist()) == trace.k_values
        assert tuple(map(tuple, batch.merge_steps[row].tolist())) == trace.merge_steps
        assert [
            [(int(batch.i[row, a, b]), int(batch.j[row, a, b])) for b in range(n)]
            for a in range(n)
        ] == [[contact_indices(trace, v, w) for w in verts] for v in verts]


def test_batch_kernel_on_one_vertex_and_no_rows():
    # one vertex: no step, so its one state is the one after the last
    # step, in which it keeps its block label: its first merge reads |V|
    g = Multigraph.build(["v"], [("loop", "v", "v")])
    batch = trace_batch(g, Partition.of([["v"]]), [()])
    assert batch.orders.shape == batch.k.shape == (1, 0)
    assert batch.merge_steps.tolist() == [[[1]]]
    assert batch.i.tolist() == [[[-1]]]
    assert batch.j.tolist() == [[[0]]]
    assert batch.ends.tolist() == [[0], [0]]
    # no rows: every per-row array is empty, with the dtypes of a full batch
    for g, part in ((g, Partition.of([["v"]])), (fig2(), fig2_double_rooted())):
        n = len(g.vertices)
        empty = trace_batch(g, part, [])
        assert len(empty) == 0 and empty.orders.shape == empty.k.shape == (0, n - 1)
        for a in (empty.merge_steps, empty.i, empty.j):
            assert a.shape == (0, n, n) and a.dtype == np.int8
        assert empty.k.dtype == np.int64 and empty.orders.dtype == np.intp


@lru_cache(maxsize=1)
def per_tree_reports():
    return [
        (per_tree_verify_exact(g, part), per_tree_verify_constructive(g, part, 2, 1e-10, 5))
        for g, part in batch_cases()
    ]


@pytest.mark.parametrize("block", [None, 3], ids=["default-blocks", "blocks-of-3"])
def test_batched_checks_equal_per_tree_loops(monkeypatch, block):
    sizes: list[int] = []
    if block is not None:
        monkeypatch.setattr(psd, "BLOCK_ORDERINGS", block)
        build = psd.trace_batch

        def recorded(g, part, orders):
            sizes.append(len(orders))
            return build(g, part, orders)

        monkeypatch.setattr(psd, "trace_batch", recorded)
    split = 0
    for (g, part), (exact, positivity) in zip(batch_cases(), per_tree_reports()):
        assert verify_exact(g, part) == exact
        exact_sizes = sizes[:]
        sizes.clear()
        if block is not None:
            # psd's blocks hold STACK_ENTRIES // ((samples + 2) * |V|**2) ordered trees
            monkeypatch.setattr(psd, "STACK_ENTRIES", block * 4 * len(g.vertices) ** 2)
        assert verify_constructive(g, part, samples=2, seed=5) == positivity
        if block is not None:
            # both checks take their traces in blocks of at most 3
            assert sum(exact_sizes) == exact.ordered and max(exact_sizes) <= 3
            assert sum(sizes) == len(positivity.checks) and max(sizes) <= 3
            split += len(exact_sizes) > 1 and len(sizes) > 1
        sizes.clear()
    assert block is None or split > 0


def test_row_products_are_exact_beyond_int64():
    # 2**31 * 2**31 * 4 wraps to 0 in int64; the rows fall back to ints
    assert _row_products(np.array([[2**31, 2**31, 4]])) == [2**64]


def assert_batch_refuses_like_forest_trace(g, part):
    """trace_batch refuses each ordering of each tree of g that
    forest_trace refuses, at the same step and naming the same edge."""
    index = edge_index(g)
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


def test_batch_kernel_refuses_like_forest_trace():
    assert_batch_refuses_like_forest_trace(fig2(), fig2_double_rooted())


def test_batch_kernel_refuses_like_forest_trace_on_reversed_edges():
    # a row's positions are in id order, not indices into g.edges, so the
    # refused edge must be named through the edge table
    for g in edge_reversed_graphs():
        assert_batch_refuses_like_forest_trace(g, Partition.of([["v1"], ["v2"], g.vertices[2:]]))


def test_search_invariant_raises_a_real_error():
    # a disconnected graph leaves an interior state without a
    # trans-block edge, which the search reports instead of skipping
    g = Multigraph.build(["v1", "v2", "v3"], [("l1", "v1", "v2")])
    with pytest.raises(InvariantError) as err:
        list(ordered_trees(g, Partition.singletons(g.vertices)))
    assert err.value.code == "invariant-violated"


def test_package_has_no_assert_statements():
    # internal invariants raise real errors: python -O strips assert
    paths = sorted((ROOT / "src" / "treeweights").rglob("*.py"))
    assert {"graph.py", "partitions.py", "psd.py"} <= {path.name for path in paths}
    found = []
    for path in paths:
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
