import io
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treeweights import cli, psd
from treeweights.errors import BadDimensionError, OutOfRangeError
from treeweights.graph import Edge, Multigraph
from treeweights.partitions import Partition, admissible_orderings, build_trace, ordered_trees
from treeweights.psd import (
    contact_matrix_direct,
    contact_matrix_recursion,
    min_eigenvalue,
    trace_batch,
    verify_constructive,
    verify_exact,
)

from helpers import (
    edge_index,
    fig1,
    fig1_root_first,
    fig1_root_second,
    fig2,
    fig2_double_rooted,
    nontrivial_partitions,
    one_row_batch,
    pointwise_verify_constructive,
    random_connected_multigraph,
    reference_measure_normalized,
    trace_matrix_direct,
    trace_matrix_recursion,
)
from test_acceptance import pool_lemma5
from test_sweeps import multigraph_pool

FIXTURE_CASES = [
    (fig1(), fig1_root_first()),
    (fig1(), fig1_root_second()),
    (fig1(), Partition.singletons(fig1().vertices)),
    (fig2(), fig2_double_rooted()),
    (fig2(), Partition.singletons(fig2().vertices)),
]


def multigraph_cases():
    """Seeded multigraphs with loops and parallel edges, one partition each."""
    rng = random.Random(4004)
    cases = []
    for _ in range(12):
        g = random_connected_multigraph(rng, min_vertices=2, max_vertices=5, max_edges=7)
        cases.append((g, rng.choice(nontrivial_partitions(g, rng))))
    return cases


def all_trace_batches(g, part):
    """Every ordered tree's trace, each as a one-row batch."""
    for tree in g.spanning_trees():
        for order in admissible_orderings(g, part, tree):
            yield one_row_batch(build_trace(g, part, order))


def test_direct_entry_examples():
    batch = one_row_batch(build_trace(fig1(), fig1_root_first(), ("l1", "l2")))
    m = contact_matrix_direct(batch, [[0.5, 1 / 3]])[0]
    assert m[1, 2] == 1 / 3
    assert list(np.diag(m)) == [1.0, 1.0, 1.0]

    batch = one_row_batch(build_trace(fig2(), fig2_double_rooted(), ("l1", "l2", "l5")))
    m = contact_matrix_direct(batch, [[1.0, 0.0, 1.0]])[0]
    assert m[2, 3] == 1.0


def test_endpoint_matrices_exact():
    for g, part in FIXTURE_CASES:
        n = len(g.vertices)
        for batch in all_trace_batches(g, part):
            for build in (contact_matrix_direct, contact_matrix_recursion):
                assert np.array_equal(build(batch, np.ones((1, n - 1)))[0], np.ones((n, n)))
                assert np.array_equal(build(batch, np.zeros((1, n - 1)))[0], np.eye(n))


def test_constructions_agree_and_stay_in_range():
    rng = np.random.default_rng(99)
    for g, part in FIXTURE_CASES:
        n = len(g.vertices)
        for batch in all_trace_batches(g, part):
            for _ in range(50):
                u = rng.uniform(size=(1, n - 1))
                direct = contact_matrix_direct(batch, u)[0]
                recursed = contact_matrix_recursion(batch, u)[0]
                assert np.abs(direct - recursed).max() <= 1e-12
                assert np.array_equal(np.diag(direct), np.ones(n))
                assert direct.min() >= 0.0 and direct.max() <= 1.0
                assert min_eigenvalue(direct) >= -1e-10


def test_point_validation():
    batch = one_row_batch(build_trace(fig1(), fig1_root_first(), ("l1", "l2")))
    with pytest.raises(BadDimensionError):
        contact_matrix_direct(batch, [[0.5]])
    with pytest.raises(OutOfRangeError):
        contact_matrix_direct(batch, [[0.5, 1.5]])
    with pytest.raises(OutOfRangeError):
        contact_matrix_recursion(batch, [[-0.1, 0.5]])
    for build in (contact_matrix_direct, contact_matrix_recursion):
        with pytest.raises(OutOfRangeError):
            build(batch, [[np.nan, 0.5]])
        with pytest.raises(OutOfRangeError):
            build(batch, [[[0.5, 0.5], [0.5, np.nan]]])
        with pytest.raises(BadDimensionError):
            build(batch, np.full((1, 2, 2, 2), 0.5))


def test_verify_constructive_bounds_samples_per_ordered_tree():
    # one construction stacks (samples + 2) matrices of |V| x |V| per
    # ordered tree: fig1 (3 vertices) admits 466 031 samples, and the
    # default 20 samples fit up to 436 vertices
    bound = psd.MAX_TREE_ENTRIES
    assert (466_031 + 2) * 3**2 <= bound < (466_032 + 2) * 3**2
    assert (psd.DEFAULT_SAMPLES + 2) * 436**2 <= bound < (psd.DEFAULT_SAMPLES + 2) * 437**2
    part = Partition.singletons(fig1().vertices)
    for samples in (466_032, 10**15):
        with pytest.raises(OutOfRangeError, match="samples"):
            verify_constructive(fig1(), part, samples=samples)
    # refused before any work, even before the connectivity check
    apart = Multigraph(("a", "b", "c"), (Edge("e", ("a", "b")),))
    with pytest.raises(OutOfRangeError):
        verify_constructive(apart, Partition.singletons(apart.vertices), samples=466_032)


def test_stacked_builds_equal_pointwise_builds():
    rng = np.random.default_rng(17)
    for g, part in FIXTURE_CASES + multigraph_cases():
        n = len(g.vertices)
        for batch in all_trace_batches(g, part):
            sampled = rng.uniform(size=(7, n - 1))
            points = np.vstack((sampled, np.ones(n - 1), np.zeros(n - 1)))
            for build in (contact_matrix_direct, contact_matrix_recursion):
                stack = build(batch, points[None])[0]
                assert np.array_equal(stack, np.stack([build(batch, u[None])[0] for u in points]))
                assert min_eigenvalue(stack) == min(min_eigenvalue(m) for m in stack)


def test_batch_builds_equal_per_trace_builds():
    rng = np.random.default_rng(23)
    for g, part in FIXTURE_CASES + multigraph_cases():
        n = len(g.vertices)
        orders = [order for order, _ in ordered_trees(g, part)]
        index = edge_index(g)
        batch = trace_batch(g, part, [[index[eid] for eid in order] for order in orders])
        points = rng.uniform(size=(len(orders), 4, n - 1))
        traces = [build_trace(g, part, order) for order in orders]
        for build, oracle in (
            (contact_matrix_direct, trace_matrix_direct),
            (contact_matrix_recursion, trace_matrix_recursion),
        ):
            expected = np.stack([oracle(t, p) for t, p in zip(traces, points)])
            assert np.array_equal(build(batch, points), expected)
            assert np.array_equal(build(batch, points[:, 0]), expected[:, 0])
            with pytest.raises(BadDimensionError):
                build(batch, points[1:])
            with pytest.raises(BadDimensionError):
                build(batch, points[..., 1:])


@pytest.mark.parametrize(
    "g,part,expected_traces",
    [
        (fig2(), fig2_double_rooted(), 54),
        (fig1(), fig1_root_second(), 7),
        (fig1(), Partition.singletons(fig1().vertices), 10),
    ],
)
def test_verify_constructive_fixtures(g, part, expected_traces):
    report = verify_constructive(g, part, samples=20, tol=1e-10, seed=0)
    assert report.passed
    assert report.measure_normalized
    assert len(report.checks) == expected_traces
    assert report.max_discrepancy <= 1e-12
    assert report.min_eigenvalue >= -1e-10


def test_verify_constructive_deterministic():
    a = verify_constructive(fig1(), fig1_root_first(), samples=5, seed=42)
    b = verify_constructive(fig1(), fig1_root_first(), samples=5, seed=42)
    assert a == b


# the oracle seeds default_rng([seed, index]) itself; verify_constructive
# builds the same entropy words, one for seeds below 2**32 and more above
SEEDS = [0, 31, 2**32 - 1, 2**32, 2**64 + 5]


# the seeds of one word run at 20 samples too; the draws fill rows alike
@pytest.mark.parametrize(
    "seed,samples",
    [(seed, samples) for seed in SEEDS[:2] for samples in (1, 5, 20)]
    + [(seed, samples) for seed in SEEDS[2:] for samples in (1, 5)],
)
def test_verify_constructive_equals_pointwise_loop(seed, samples):
    for g, part in FIXTURE_CASES + multigraph_cases():
        report = verify_constructive(g, part, samples=samples, seed=seed)
        assert report == pointwise_verify_constructive(g, part, samples, 1e-10, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_indices_run_on_across_blocks(monkeypatch, seed):
    """With blocks of a few ordered trees, each block seeds its rows
    from its first index on, as one block does."""
    build = psd.trace_batch
    sizes: list[int] = []

    def recorded(g, part, orders):
        sizes.append(len(orders))
        return build(g, part, orders)

    monkeypatch.setattr(psd, "trace_batch", recorded)
    for g, part in FIXTURE_CASES:
        # three ordered trees of (2 + 2) matrices of |V| x |V| a block
        monkeypatch.setattr(psd, "STACK_ENTRIES", 3 * 4 * len(g.vertices) ** 2)
        sizes.clear()
        report = verify_constructive(g, part, samples=2, seed=seed)
        assert report == pointwise_verify_constructive(g, part, 2, 1e-10, seed)
        assert sizes[:-1] == [3] * (len(sizes) - 1) and len(sizes) > 1


def _drop_second_ordering(walk):
    def dropped(*args):
        rows = list(walk(*args))
        return rows[:1] + rows[2:]
    return dropped


def _drop_first_tree(walk):
    def dropped(*args):
        rows = list(walk(*args))
        return [row for row in rows if row[2] != rows[0][2]]
    return dropped


def _first_k_off_by_one(tree_k):
    def broken(batch):
        k = tree_k(batch)
        k[0, 0] += 1
        return k
    return broken


# the walk psd reads its ordered trees from, and the tree-only k of the
# normalization check
@pytest.mark.parametrize(
    "name,broken",
    [
        ("_ordered_tree_walk", _drop_second_ordering),
        ("_ordered_tree_walk", _drop_first_tree),
        ("_tree_k", _first_k_off_by_one),
    ],
    ids=["ordering-dropped", "tree-dropped", "k-off-by-one"],
)
def test_psd_reports_a_broken_normalization(monkeypatch, name, broken):
    monkeypatch.setattr(psd, name, broken(getattr(psd, name)))
    report = verify_constructive(fig2(), fig2_double_rooted(), samples=2, seed=0)
    assert not report.measure_normalized
    assert reference_measure_normalized(fig2(), fig2_double_rooted()) is False
    assert not report.passed
    assert report.checks and all(c.passed for c in report.checks)
    graph = str(Path(__file__).resolve().parent.parent / "fixtures" / "fig2.json")
    for fmt in ("table", "json"):
        out, err = io.StringIO(), io.StringIO()
        config = cli.RunConfig(
            command="psd", graph_path=graph, partition=fig2_double_rooted().format(),
            samples=2, output_format=fmt,
        )
        assert cli.run(config, out=out, err=err) == cli.EXIT_CHECK == 3
        assert err.getvalue() == "error[check-failure]: positivity verification failed\n"
        if fmt == "json":
            assert '"measure_normalized": false' in out.getvalue()


@pytest.mark.parametrize("broken", [None, _drop_second_ordering], ids=["whole", "ordering-dropped"])
def test_exact_total_equals_fraction_sum(monkeypatch, broken):
    """verify_exact sums the 1/d of its walk in integers, over the lcm
    of the distinct d: the same value, and so the same text, as the
    Fraction sum over the walk, on singletons and a rooted partition of
    every pool graph; with an ordering dropped the sum is not 1."""
    if broken is not None:
        monkeypatch.setattr(psd, "_ordered_tree_walk", broken(psd._ordered_tree_walk))
    short = 0
    for g in (*pool_lemma5(), *multigraph_pool()):
        vertices = sorted(g.vertices)
        for part in (
            Partition.singletons(vertices),
            Partition.of([vertices[:1], vertices[1:]]),
        ):
            walked = psd._ordered_tree_walk(g, part, lambda eid: (), ())
            expected = sum((Fraction(1, denom) for *_, denom in walked), Fraction(0))
            total = verify_exact(g, part).total
            assert total == expected and str(total) == str(expected), (g, part)
            short += total != 1
    # 250 of the 280 walks hold two or more orderings
    assert short == (250 if broken else 0)
