"""The CLI's one-pass writers against json.dumps and the writers they replaced.

cli._json_text must return exactly json.dumps(value, indent=2,
allow_nan=False), and cli._emit must write the same bytes as the
reference writer in tests/helpers.py for every command and format.
Four commands hand _emit JSON laid out as text with edge ids escaped
by hand, which the reference writer cannot take: weights, whose rows
are written from each distinct weight's shared text, trees, whose tree
list is built along the tree walk, psd, whose checks are laid out with
each edge id quoted once, and symmetric, whose rows are laid out from
the census counts. Their stdout must equal that of
reference_cmd_weights, reference_cmd_trees, reference_cmd_psd and
reference_cmd_symmetric, which build the rows, trees and checks as
dicts and lists and write them through the reference writer.
"""

import io
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treeweights import cli
from treeweights.cli import RunConfig
from treeweights.graph import Multigraph
from treeweights.partitions import Partition
from treeweights.weights import _Listing, _tree_sums, weight_distribution

from helpers import (
    fig1,
    fig2,
    reference_cmd_psd,
    reference_cmd_symmetric,
    reference_cmd_trees,
    reference_cmd_weights,
    reference_emit,
    reference_table,
    reference_weight_items,
    to_json,
)
from test_acceptance import pool_lemma5
from test_sweeps import multigraph_pool

characters = st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff", "😀"]
)
strings = st.text(characters, max_size=8)
scalars = (
    strings
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, True, False, None])
)
# a list of str takes the writer's quote-only path; a list of such
# lists takes the generic path around it
string_lists = st.lists(strings, max_size=4) | st.lists(
    st.lists(strings, max_size=3) | st.tuples(strings, strings), max_size=4
)
values = st.recursive(
    scalars | string_lists,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_json_text_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=False)


def test_json_text_empty_and_nested_containers():
    for value in ({}, [], (), [[]], [[], ["a"]], {"a": {}, "b": [()]}, [("a",), ["b", "c"]]):
        assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_text_numpy_float_prints_like_float():
    assert cli._json_text(np.float64(0.1)) == "0.1" == json.dumps(0.1)
    assert cli._json_text({"x": [np.float64(-2.5e-17)]}) == json.dumps({"x": [-2.5e-17]}, indent=2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"), [1.0, math.inf]])
def test_json_text_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        cli._json_text(value)


@pytest.mark.parametrize("value", [np.int64(3), {"a"}, {1: "a"}, {("a",): 1}, [object()]])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def _table(writer, headers, rows) -> str:
    out = io.StringIO()
    writer(headers, rows, out)
    return out.getvalue()


@pytest.mark.parametrize(
    "headers,rows",
    [
        (["tree", "weight"], []),
        (["tree"], [["{"], ["}"], ["{0}"], ["{x:>9}"], ["a{}b"]]),
        (["{0}", "}{"], [["1", "{"], ["{{", ""]]),
        (["a much wider header", "w"], [["x", "1/2"], ["", "1"]]),
        (
            ["tree", "weight", "decimal", "orderings"],
            [["l1,l2", "1/3", "0.333333", "2"], ["  l1,l2", "1/6", "0.166667", ""],
             ["  l2,l1", "1/6", "0.166667", ""]],
        ),
        (["a", "b"], [["", ""], ["x", ""]]),
        ([""], []),
        (["", "x"], [["", "y"]]),
    ],
)
def test_table_matches_reference(headers, rows):
    assert _table(cli._emit_table, headers, rows) == _table(reference_table, headers, rows)


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_emit_writes_once(fmt):
    out = _Writes()
    config = RunConfig(command="trees", graph_path="", output_format=fmt)
    cli._emit(config, lambda: {"trees": [["a", "b"], ["c"]]}, ["tree"],
              lambda: [["a,b"], ["c"]], out)
    assert out.calls == 1
    assert out.getvalue().endswith("\n") and not out.getvalue().endswith("\n\n")


def _command_lines(g) -> list[list[str]]:
    """Every command on g, with a rooted partition and --breakdown for weights."""
    vertices = sorted(g.vertices)
    partitions = []
    if len(vertices) >= 2:
        partitions.append(Partition.singletons(vertices).format())
        partitions.append(vertices[0] + "|" + ",".join(vertices[1:]))
    lines = [["trees"], ["symmetric"], ["verify"], ["psd", "--samples", "2", "--seed", "3"]]
    for spec in partitions:
        lines.append(["weights", "--partition", spec])
        lines.append(["weights", "--partition", spec, "--breakdown"])
        lines.append(["verify", "--partition", spec])
    return lines


def _stdout(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(RunConfig(**vars(cli.build_parser().parse_args(args))), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


FORMATS = ("json", "table", "csv")


def _reference_stdout(args) -> tuple[int, str, str]:
    """_stdout with the reference writer and the reference trees,
    symmetric, weights and psd commands."""
    with mock.patch.object(cli, "_emit", reference_emit), mock.patch.dict(
        cli.COMMANDS, trees=reference_cmd_trees, symmetric=reference_cmd_symmetric,
        weights=reference_cmd_weights, psd=reference_cmd_psd,
    ):
        return _stdout(args)


@pytest.mark.parametrize("g", [fig1(), fig2()], ids=["fig1", "fig2"])
def test_stdout_matches_reference_writer(tmp_path, g):
    path = tmp_path / "g.json"
    path.write_text(to_json(g))
    for line in _command_lines(g):
        for fmt in FORMATS:
            args = [line[0], "--graph", str(path), *line[1:], "--format", fmt]
            expected = _reference_stdout(args)
            assert expected[0] == 0 and expected[1]
            assert _stdout(args) == expected, args


def test_writers_match_reference_on_acceptance_pool(monkeypatch, tmp_path):
    """verify runs once; its _emit call is written in every format by
    both writers, from the same payload and rows. trees, symmetric,
    weights and psd run in every format, their whole stdout against
    reference_cmd_trees, reference_cmd_symmetric, reference_cmd_weights
    and reference_cmd_psd."""
    emit = cli._emit
    written = []
    whole = ("trees", "symmetric", "weights", "psd")

    def both(config, payload, headers, rows, out):
        written.append(config.command)
        if config.command in whole:
            emit(config, payload, headers, rows, out)
            return
        for fmt in FORMATS:
            each = replace(config, output_format=fmt)
            new, old = io.StringIO(), io.StringIO()
            emit(each, payload, headers, rows, new)
            reference_emit(each, payload, headers, rows, old)
            assert new.getvalue() == old.getvalue(), (config, fmt)

    monkeypatch.setattr(cli, "_emit", both)
    compared = []
    for i, g in enumerate(pool_lemma5()):
        path = tmp_path / f"g{i}.json"
        path.write_text(to_json(g))
        for line in _command_lines(g):
            args = [line[0], "--graph", str(path), *line[1:]]
            if line[0] not in whole:
                _stdout(args)
                continue
            for fmt in FORMATS:
                expected = _reference_stdout([*args, "--format", fmt])
                assert expected[0] == 0 and expected[1]
                assert _stdout([*args, "--format", fmt]) == expected, (args, fmt)
            compared.append(line[0])
    assert {c: written.count(c) for c in cli.COMMANDS} == {
        "trees": 300, "symmetric": 300, "weights": 1200, "verify": 300, "psd": 300,
    }
    assert {c: compared.count(c) for c in whole} == {
        "trees": 100, "symmetric": 100, "weights": 400, "psd": 100,
    }


# Edge ids take any character the JSON quoter must escape, and the
# braces and comma that table cells and formats treat specially;
# vertex ids stay plain, as "," and "|" split a partition spec.
edge_ids = st.text(characters | st.sampled_from(["{", "}", ","]), max_size=4)
vertex_names = st.lists(
    st.text("abvw019_", min_size=1, max_size=3), min_size=2, max_size=4, unique=True
)


@st.composite
def id_graphs(draw):
    """A connected multigraph on 2-4 plain vertices, its edge ids drawn
    from edge_ids: a path, then up to three more edges, loops and
    parallel edges among them."""
    vertices = draw(vertex_names)
    ends = list(zip(vertices, vertices[1:]))
    ends += draw(st.lists(st.tuples(*[st.sampled_from(vertices)] * 2), max_size=3))
    ids = draw(st.lists(edge_ids, min_size=len(ends), max_size=len(ends), unique=True))
    edges = [(eid, a, b) for eid, (a, b) in zip(ids, draw(st.permutations(ends)))]
    return Multigraph.build(vertices, edges)


@pytest.mark.parametrize("command", ["trees", "symmetric", "weights", "psd"])
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(g=id_graphs(), rooted=st.booleans())
def test_escapes_edge_ids_like_reference(tmp_path, command, g, rooted):
    """trees, symmetric, weights with and without --breakdown, and
    psd, on a singleton or rooted partition, in every format."""
    path = tmp_path / "g.json"
    path.write_text(to_json(g))
    vertices = list(g.vertices)
    spec = vertices[0] + "|" + ",".join(vertices[1:]) if rooted else "|".join(vertices)
    lines = [[]]
    if command == "weights":
        lines = [["--partition", spec], ["--partition", spec, "--breakdown"]]
    elif command == "psd":
        lines = [["--partition", spec, "--samples", "2"]]
    for fmt in FORMATS:
        for line in lines:
            args = [command, "--graph", str(path), *line, "--format", fmt]
            expected = _reference_stdout(args)
            assert expected[0] == 0
            assert _stdout(args) == expected, args


@pytest.mark.parametrize("field", ["min_eigenvalue", "max_discrepancy"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_psd_json_refuses_non_finite_floats(monkeypatch, tmp_path, field, value):
    """A non-finite float in one check raises ValueError in JSON, as the
    reference writer does, but with nothing written, where json.dump
    has written the text before it; the table writes it."""
    path = tmp_path / "g.json"
    path.write_text(to_json(fig1()))
    verify = cli.verify_constructive

    def broken(*args, **kwargs):
        report = verify(*args, **kwargs)
        first = replace(report.checks[0], **{field: value})
        return replace(report, checks=(first, *report.checks[1:]))

    monkeypatch.setattr(cli, "verify_constructive", broken)
    args = ["psd", "--graph", str(path), "--samples", "2"]
    config = RunConfig(**vars(cli.build_parser().parse_args([*args, "--format", "json"])))
    written = []
    for command in (cli.cmd_psd, reference_cmd_psd):
        out = io.StringIO()
        with mock.patch.dict(cli.COMMANDS, psd=command), pytest.raises(
            ValueError, match="not JSON compliant"
        ):
            cli.run(config, out=out)
        written.append(out.getvalue())
    assert written[0] == "" and written[1].endswith(f'"{field}": ')
    code, out, _ = _stdout([*args, "--format", "table"])
    assert code == 0 and f"{value:.3e}" in out.splitlines()[1]


WEIGHT_HEADERS = ["tree", "weight", "decimal", "orderings"]


def _weight_tables(g, spec: str, breakdown: bool) -> tuple[str, str, str]:
    """The weights table of (g, spec) as _weight_table writes it, as
    _emit_table pads the cells of _weight_lines, and as the reference
    writer writes reference_weight_items."""
    part = Partition.parse(spec, g.vertices)
    report = weight_distribution(g, part)
    rows, denom = _tree_sums(g, part)
    listing = _Listing(g, part, {mask: count for _, mask, _, count in rows}) if breakdown else None
    text = cli._weight_table(WEIGHT_HEADERS, rows, denom, listing)
    padded = _table(cli._emit_table, WEIGHT_HEADERS, cli._weight_lines(rows, denom, listing))
    items = reference_weight_items(report, breakdown, table=True)
    return text, padded, _table(reference_table, WEIGHT_HEADERS, items)


def _singletons_and_rooted(g) -> list[str]:
    vertices = sorted(g.vertices)
    return [Partition.singletons(vertices).format(), vertices[0] + "|" + ",".join(vertices[1:])]


def test_weight_table_matches_padded_cells_on_seeded_pools():
    """The finished table text equals the padded cells and the
    reference writer, with and without breakdown; no line ends in a
    blank."""
    tables = 0
    for g in (*pool_lemma5(), *multigraph_pool()):
        for spec in _singletons_and_rooted(g):
            for breakdown in (False, True):
                text, padded, reference = _weight_tables(g, spec, breakdown)
                assert text == padded == reference, (to_json(g), spec, breakdown)
                assert not any(line.endswith(" ") for line in text.splitlines())
                tables += 1
    assert tables == 4 * 140


@settings(max_examples=60, deadline=None)
@given(g=id_graphs(), rooted=st.booleans(), breakdown=st.booleans())
def test_weight_table_matches_padded_cells_on_any_ids(g, rooted, breakdown):
    """Ids with blanks, braces, commas and wide characters."""
    spec = _singletons_and_rooted(g)[rooted]
    text, padded, reference = _weight_tables(g, spec, breakdown)
    assert text == padded == reference
