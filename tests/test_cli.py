import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from treeweights import cli
from treeweights.cli import RunConfig, parse_graph, parse_partition
from treeweights.errors import DuplicateVertexError, ParseError
from treeweights.fixtures import fig1, fig2
from treeweights.weights import WeightReport

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    parser = cli.build_parser()
    ns = parser.parse_args(args)
    config = RunConfig(
        command=ns.command,
        graph_path=ns.graph,
        partition=ns.partition,
        output_format=ns.output_format,
        guard=ns.guard,
        seed=ns.seed,
        samples=ns.samples,
        tolerance=ns.tol,
        breakdown=ns.breakdown,
    )
    code = cli.run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_graph_fixtures():
    g1 = parse_graph(str(FIXTURES / "fig1.json"))
    assert len(g1.vertices) == 3 and len(g1.edges) == 4
    assert g1 == fig1()
    g2 = parse_graph(str(FIXTURES / "fig2.json"))
    assert len(g2.vertices) == 4 and len(g2.edges) == 6
    assert g2 == fig2()


def test_parse_graph_missing_file():
    with pytest.raises(ParseError):
        parse_graph("/nonexistent/graph.json")


def test_parse_partition_examples():
    part = parse_partition("v1|v2|v3,v4", fig2())
    assert part.format() == "v1|v2|v3,v4"
    part = parse_partition("v1|v2,v3", fig1())
    assert part.format() == "v1|v2,v3"
    with pytest.raises(DuplicateVertexError):
        parse_partition("v1|v1,v2", fig1())


def test_trees_command():
    code, out, err = run_cli(["trees", "--graph", str(FIXTURES / "fig1.json")])
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["l1,l2", "l1,l3", "l1,l4", "l2,l3", "l2,l4"]


def test_weights_command_table():
    code, out, _ = run_cli(
        [
            "weights",
            "--graph", str(FIXTURES / "fig2.json"),
            "--partition", "v1|v2|v3,v4",
        ]
    )
    assert code == 0
    assert "l1,l2,l5  7/80" in out.replace("   ", "  ")
    assert "l1,l5,l6  17/400" in out


def test_weights_command_json_sums_to_one():
    code, out, _ = run_cli(
        [
            "weights",
            "--graph", str(FIXTURES / "fig2.json"),
            "--partition", "v1|v2|v3,v4",
            "--format", "json",
            "--breakdown",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == 1
    assert doc["sum"] == "1"
    total = sum(Fraction(r["weight"]) for r in doc["rows"])
    assert total == 1
    t125 = next(r for r in doc["rows"] if r["tree"] == ["l1", "l2", "l5"])
    breakdown = sorted(Fraction(b["weight"]) for b in t125["breakdown"])
    assert breakdown == [
        Fraction(1, 100), Fraction(1, 100), Fraction(1, 100),
        Fraction(1, 80), Fraction(1, 50), Fraction(1, 40),
    ]


def test_weights_requires_partition():
    code, _, err = run_cli(["weights", "--graph", str(FIXTURES / "fig2.json")])
    assert code == 2
    assert "error[parse-error]" in err


def test_weights_trivial_partition_is_input_error():
    code, _, err = run_cli(
        [
            "weights",
            "--graph", str(FIXTURES / "fig1.json"),
            "--partition", "v1,v2,v3",
        ]
    )
    assert code == 2
    assert "error[trivial-partition]" in err


def test_symmetric_command_matches_census():
    code, out, _ = run_cli(
        ["symmetric", "--graph", str(FIXTURES / "fig2.json"), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sectors_total"] == 720
    weights = {tuple(r["tree"]): Fraction(r["weight"]) for r in doc["rows"]}
    light = {("l1", "l2", "l5"), ("l1", "l2", "l6"), ("l1", "l5", "l6"), ("l2", "l5", "l6")}
    for tree, w in weights.items():
        assert w == (Fraction(1, 15) if tree in light else Fraction(11, 120))
    assert sum(weights.values()) == 1


def test_symmetric_guard_exceeded():
    code, _, err = run_cli(
        ["symmetric", "--graph", str(FIXTURES / "fig2.json"), "--guard", "3"]
    )
    assert code == 4
    assert "error[guard-exceeded]" in err


def test_guard_must_be_positive():
    code, _, err = run_cli(
        ["symmetric", "--graph", str(FIXTURES / "fig2.json"), "--guard", "0"]
    )
    assert code == 2
    assert "error[parse-error]" in err


def test_verify_command():
    code, out, _ = run_cli(
        [
            "verify",
            "--graph", str(FIXTURES / "fig2.json"),
            "--partition", "v1|v2|v3,v4",
        ]
    )
    assert code == 0
    assert "normalization" in out and "ok" in out


def test_psd_command_json():
    code, out, _ = run_cli(
        [
            "psd",
            "--graph", str(FIXTURES / "fig1.json"),
            "--partition", "v2|v1,v3",
            "--samples", "5",
            "--seed", "7",
            "--format", "json",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["seed"] == 7
    assert len(doc["checks"]) == 7


def test_invalid_graph_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["v1"], "edges": [{"id": "l1", "ends": ["v1", "v2"]}]}')
    code, _, err = run_cli(["trees", "--graph", str(bad)])
    assert code == 2
    assert "error[dangling-endpoint]" in err


def test_csv_format():
    code, out, _ = run_cli(
        [
            "weights",
            "--graph", str(FIXTURES / "fig1.json"),
            "--partition", "v1|v2,v3",
            "--format", "csv",
        ]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tree,weight,decimal,orderings"
    assert '"l1,l2",1/3,0.333333,2' in lines


def test_output_deterministic():
    args = [
        "psd",
        "--graph", str(FIXTURES / "fig2.json"),
        "--partition", "v1|v2|v3,v4",
        "--samples", "3",
        "--seed", "11",
        "--format", "json",
    ]
    first = run_cli(args)
    second = run_cli(args)
    assert first == second


def test_check_failure_exit_code(monkeypatch):
    # force an impossible distribution to confirm exit code 3
    def broken(g, part):
        return WeightReport(rows=())

    monkeypatch.setattr(cli, "weight_distribution", broken)
    code, _, err = run_cli(
        [
            "weights",
            "--graph", str(FIXTURES / "fig1.json"),
            "--partition", "v1|v2,v3",
        ]
    )
    assert code == 3
    assert "error[check-failure]" in err


def test_main_entry_point(capsys):
    code = cli.main(["trees", "--graph", str(FIXTURES / "fig1.json")])
    assert code == 0
    assert "l1,l2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--samples", "0"),
        ("--samples", "-3"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--seed", "-1"),
    ],
)
def test_psd_rejects_vacuous_settings(flag, value):
    for fmt in ("table", "json"):
        code, out, err = run_cli(
            [
                "psd",
                "--graph", str(FIXTURES / "fig1.json"),
                flag, value,
                "--format", fmt,
            ]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error[out-of-range]")


def test_json_output_is_strict():
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out, _ = run_cli(
        ["psd", "--graph", str(FIXTURES / "fig1.json"), "--samples", "1", "--format", "json"]
    )
    assert code == 0
    json.loads(out, parse_constant=reject)
    config = RunConfig(command="psd", graph_path="", output_format="json")
    with pytest.raises(ValueError):
        cli._emit(config, {"min_eigenvalue": float("inf")}, [], [], io.StringIO())


def test_deeply_nested_graph_json_is_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(["trees", "--graph", str(deep)])
    assert code == 2
    assert out == ""
    assert err.startswith("error[parse-error]")
