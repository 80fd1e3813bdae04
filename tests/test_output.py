"""The CLI's one-pass writers against json.dumps and the writers they replaced.

cli._json_text must return exactly json.dumps(value, indent=2,
allow_nan=False), and cli._emit must write the same bytes as the
reference writer in tests/helpers.py for every command and format.
The weights command hands _emit rows written from each distinct
weight's shared text, its JSON rows as laid-out text with edge ids
escaped by hand, which the reference writer cannot take; its stdout
must equal that of reference_cmd_weights, which builds the rows as
dicts and cell lists and writes them through the reference writer.
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

from helpers import fig1, fig2, reference_cmd_weights, reference_emit, reference_table
from test_acceptance import pool_lemma5

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
# lists of str and lists of such lists take the writer's quote-only paths
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
    """_stdout with the reference writer and the reference weights command."""
    with mock.patch.object(cli, "_emit", reference_emit), mock.patch.dict(
        cli.COMMANDS, weights=reference_cmd_weights
    ):
        return _stdout(args)


@pytest.mark.parametrize("g", [fig1(), fig2()], ids=["fig1", "fig2"])
def test_stdout_matches_reference_writer(tmp_path, g):
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    for line in _command_lines(g):
        for fmt in FORMATS:
            args = [line[0], "--graph", str(path), *line[1:], "--format", fmt]
            expected = _reference_stdout(args)
            assert expected[0] == 0 and expected[1]
            assert _stdout(args) == expected, args


def test_writers_match_reference_on_acceptance_pool(monkeypatch, tmp_path):
    """Each command but weights runs once; its _emit call is written in
    every format by both writers, from the same payload and rows.
    weights runs in every format, its whole stdout against
    reference_cmd_weights."""
    emit = cli._emit
    written = []

    def both(config, payload, headers, rows, out):
        written.append(config.command)
        if config.command == "weights":
            emit(config, payload, headers, rows, out)
            return
        for fmt in FORMATS:
            each = replace(config, output_format=fmt)
            new, old = io.StringIO(), io.StringIO()
            emit(each, payload, headers, rows, new)
            reference_emit(each, payload, headers, rows, old)
            assert new.getvalue() == old.getvalue(), (config, fmt)

    monkeypatch.setattr(cli, "_emit", both)
    weights = 0
    for i, g in enumerate(pool_lemma5()):
        path = tmp_path / f"g{i}.json"
        path.write_text(g.to_json())
        for line in _command_lines(g):
            args = [line[0], "--graph", str(path), *line[1:]]
            if line[0] != "weights":
                _stdout(args)
                continue
            for fmt in FORMATS:
                expected = _reference_stdout([*args, "--format", fmt])
                assert expected[0] == 0 and expected[1]
                assert _stdout([*args, "--format", fmt]) == expected, (args, fmt)
            weights += 1
    assert {c: written.count(c) for c in cli.COMMANDS} == {
        "trees": 100, "symmetric": 100, "weights": 1200, "verify": 300, "psd": 100,
    }
    assert weights == 400


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


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(id_graphs(), st.booleans())
def test_weights_escapes_edge_ids_like_reference(tmp_path, g, rooted):
    path = tmp_path / "g.json"
    path.write_text(g.to_json())
    vertices = list(g.vertices)
    spec = vertices[0] + "|" + ",".join(vertices[1:]) if rooted else "|".join(vertices)
    for fmt in FORMATS:
        for breakdown in ([], ["--breakdown"]):
            args = ["weights", "--graph", str(path), "--partition", spec, "--format", fmt]
            args += breakdown
            expected = _reference_stdout(args)
            assert expected[0] == 0
            assert _stdout(args) == expected, args
