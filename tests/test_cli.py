import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from treeweights import cli, weights
from treeweights.cli import RunConfig, parse_graph, parse_partition
from treeweights.errors import DuplicateVertexError, ParseError
from treeweights.graph import Multigraph
from treeweights.sectors import SectorCensus, sector_census
from treeweights.weights import WeightReport, verify_exact

from helpers import fig1, fig2, fig2_double_rooted, reference_cmd_symmetric, reference_total

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    config = RunConfig(**vars(cli.build_parser().parse_args(args)))
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


def test_trees_of_many_parallel_edges(tmp_path):
    # one tree per edge, listed without recursing once per edge
    g = Multigraph.build(["v1", "v2"], [(f"p{i:04d}", "v1", "v2") for i in range(1500)])
    assert len(g.spanning_trees()) == g.complexity() == 1500
    path = tmp_path / "parallel.json"
    path.write_text(g.to_json())
    code, out, err = run_cli(["trees", "--graph", str(path), "--format", "csv"])
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1501


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


def test_symmetric_sum_check_failure(monkeypatch, tmp_path):
    # a census whose counts miss its total by one fails the sum check; on
    # one vertex there is no partition route to disagree with it first
    def miscounted(g, guard):
        census = sector_census(g, guard)
        tree, count = next(iter(census.counts.items()))
        return SectorCensus({**census.counts, tree: count + 1}, census.total)

    loops = Multigraph.build(["v1"], [(f"s{i}", "v1", "v1") for i in range(3)])
    path = tmp_path / "loops.json"
    path.write_text(loops.to_json())
    monkeypatch.setattr(cli, "sector_census", miscounted)
    code, out, err = run_cli(["symmetric", "--graph", str(path)])
    assert (code, out, err) == (3, "", "error[check-failure]: weights sum to 7/6, not 1\n")


def _off_by_one(f):
    def broken(g, batch, contacts):
        exponents = f(g, batch, contacts)
        exponents[:, 0] += 1
        return exponents
    return broken


# verify_exact builds its traces in batches: the monomial route reads
# edge_exponents, and both it and the contact check read
# batch_contact_indices
@pytest.mark.parametrize(
    "name,broken,failing",
    [
        ("edge_exponents", _off_by_one, {"dual-route", "exponent-law"}),
        (
            "batch_contact_indices",
            lambda f: lambda batch: f(batch)[::-1],
            {"dual-route", "exponent-law", "contact-indices"},
        ),
        ("_ordered_tree_walk", lambda f: lambda *args: list(f(*args))[1:], {"normalization"}),
    ],
    ids=["edge_monomials", "contact_indices", "ordered_trees"],
)
def test_verify_reports_a_broken_route(monkeypatch, name, broken, failing):
    monkeypatch.setattr(weights, name, broken(getattr(weights, name)))
    report = verify_exact(fig2(), fig2_double_rooted())
    checks = ("normalization", "dual-route", "exponent-law", "contact-indices")
    flags = (report.total == 1, report.routes_agree, report.exponent_law, report.contact_order)
    assert {check for check, ok in zip(checks, flags) if not ok} == failing
    graph = str(FIXTURES / "fig2.json")
    code, out, err = run_cli(["verify", "--graph", graph, "--partition", "v1|v2|v3,v4"])
    assert code == 3 and err.startswith("error[check-failure]")
    statuses = dict(line.split()[:2] for line in out.splitlines()[1:])
    assert {check for check, status in statuses.items() if status == "FAIL"} == failing


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
        ("--tol", "-1"),
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
        cli._emit(config, lambda: {"min_eigenvalue": float("inf")}, [], list, io.StringIO())


def test_deeply_nested_graph_json_is_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(["trees", "--graph", str(deep)])
    assert code == 2
    assert out == ""
    assert err.startswith("error[parse-error]")


@pytest.mark.parametrize(
    "args,code",
    [
        (["psd", "--graph", "GRAPH", "--tol", "abc"], "parse-error"),
        (["psd", "--graph", "GRAPH", "--tol", "-1e-12"], "out-of-range"),
        (["psd", "--graph", "GRAPH", "--tol", "-inf"], "out-of-range"),
        (["psd", "--graph", "GRAPH", "--seed", "-1"], "out-of-range"),
        (["psd", "--graph", "GRAPH", "--samples", "-3"], "out-of-range"),
        (["psd", "--graph", "GRAPH", "--samples", "many"], "parse-error"),
        (["psd", "--graph"], "parse-error"),
        (["trees", "--graph", "GRAPH", "--bogus"], "parse-error"),
        (["trees"], "parse-error"),
        (["nope"], "parse-error"),
        ([], "parse-error"),
        (["weights", "--graph", "GRAPH", "--partition", "v1,v1|v2,v3"], "duplicate-vertex"),
        (["symmetric", "--graph", "GRAPH", "--partition", "v1|v2,v3"], "parse-error"),
        (["trees", "--graph", "GRAPH", "--partition", "v1|v2,v3"], "parse-error"),
        (["verify", "--graph", "GRAPH", "--seed", "2"], "parse-error"),
        (["psd", "--graph", "GRAPH", "--breakdown"], "parse-error"),
        (["weights", "--graph", "GRAPH", "--partition", "v1|v2", "--guard", "3"], "parse-error"),
        (["trees", "--graph", "GRAPH", "--tol", "1e-9"], "parse-error"),
    ],
)
def test_argument_errors_print_one_error_line(capsys, args, code):
    graph = str(FIXTURES / "fig1.json")
    assert cli.main([graph if a == "GRAPH" else a for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[{code}]: ")
    assert captured.err.count("\n") == 1


def test_each_command_declares_only_the_options_it_reads():
    values = {
        "--partition": ["v1|v2,v3"],
        "--format": ["json"],
        "--guard": ["3"],
        "--seed": ["2"],
        "--samples": ["2"],
        "--tol": ["1e-9"],
        "--breakdown": [],
    }
    reads = {
        "trees": set(),
        "symmetric": {"--guard"},
        "weights": {"--partition", "--breakdown"},
        "verify": {"--partition"},
        "psd": {"--partition", "--seed", "--samples", "--tol"},
    }
    parser = cli.build_parser()
    accepted = 0
    for command, flags in reads.items():
        for flag, value in values.items():
            argv = [command, "--graph", "g.json", flag, *value]
            if flag == "--format" or flag in flags:
                parser.parse_args(argv)
                accepted += 1
            else:
                with pytest.raises(ParseError, match="unrecognized arguments"):
                    parser.parse_args(argv)
    # with --graph on every command
    assert accepted + len(reads) == 18


@pytest.mark.parametrize("args", [["--help"], ["psd", "--help"]])
def test_help_exits_zero(capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: treeweights") and captured.err == ""


def test_symmetric_help_names_the_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["symmetric", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--guard GUARD max edge count for the symmetric census (default 10)" in out


def test_internal_fault_exit_code(monkeypatch):
    # a walk of the state table that drops a row disagrees with the
    # ordering counts summed while the table was built, which the
    # breakdown reports as an InvariantError
    walk = weights._walk_states
    monkeypatch.setattr(weights, "_walk_states", lambda *args: list(walk(*args))[1:])
    for fmt in ("table", "json"):
        code, out, err = run_cli(
            [
                "weights",
                "--graph", str(FIXTURES / "fig2.json"),
                "--partition", "v1|v2|v3,v4",
                "--breakdown",
                "--format", fmt,
            ]
        )
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err.startswith("error[invariant-violated]")


def test_emit_builds_only_what_the_format_writes():
    def refuse():
        raise AssertionError("built output that --format does not write")

    for fmt in ("table", "csv"):
        out = io.StringIO()
        cli._emit(RunConfig(command="trees", graph_path="", output_format=fmt),
                  refuse, ["tree"], lambda: [["l1"]], out)
        assert "l1" in out.getvalue()
    out = io.StringIO()
    cli._emit(RunConfig(command="trees", graph_path="", output_format="json"),
              lambda: {"count": 1}, ["tree"], refuse, out)
    assert json.loads(out.getvalue()) == {"format": 1, "count": 1}


def test_cells_join_tuples_like_lists():
    item = {"tree": ("e1", "e2"), "listed": ["e3", "e4"], "empty": (), "count": 3, "w": "1/2"}
    assert cli._cells(item) == ["e1,e2", "e3,e4", "", "3", "1/2"]
    rows = [cli._cells({"tree": ("e1", "e2")}), cli._cells({"tree": ["e1", "e2"]})]
    out = io.StringIO()
    cli._emit_table(["tree"], rows, out)
    assert out.getvalue() == "tree\ne1,e2\ne1,e2\n"


def _census_changed(change):
    """sector_census with its counts passed through change."""
    def changed(g, guard):
        census = sector_census(g, guard)
        return SectorCensus(change(dict(census.counts)), census.total, census.states)
    return changed


def _first_count_off(delta):
    def change(counts):
        tree = next(iter(counts))
        return {**counts, tree: counts[tree] + delta}
    return change


def _first_tree_dropped(counts):
    return dict(list(counts.items())[1:])


def _first_tree_swapped(counts):
    # the same number of trees and the same count sum, but one edge set
    # that is not a spanning tree in place of one that is
    (tree, count), *rest = counts.items()
    return {tree | {"absent"}: count, **dict(rest)}


def _report_row_dropped(route):
    def dropped(g, part):
        return WeightReport(route(g, part).rows[1:])
    return dropped


# the census side: one count off by one either way, or one tree missing
# from it or traded for an edge set the partition route never gives;
# the partition side: one tree missing from the report
@pytest.mark.parametrize(
    "name,broken",
    [
        ("sector_census", lambda f: _census_changed(_first_count_off(1))),
        ("sector_census", lambda f: _census_changed(_first_count_off(-1))),
        ("sector_census", lambda f: _census_changed(_first_tree_dropped)),
        ("sector_census", lambda f: _census_changed(_first_tree_swapped)),
        ("weight_distribution", _report_row_dropped),
    ],
    ids=["count-plus-one", "count-minus-one", "census-tree-missing", "census-tree-swapped",
         "report-tree-missing"],
)
def test_symmetric_reports_a_broken_route(monkeypatch, name, broken):
    monkeypatch.setattr(cli, name, broken(getattr(cli, name)))
    expected = (3, "", "error[check-failure]: sector census and partition route disagree\n")
    for graph in ("fig1.json", "fig2.json"):
        for fmt in ("table", "json"):
            args = ["symmetric", "--graph", str(FIXTURES / graph), "--format", fmt]
            assert run_cli(args) == expected
            with monkeypatch.context() as old:
                old.setitem(cli.COMMANDS, "symmetric", reference_cmd_symmetric)
                assert run_cli(args) == expected


def test_weights_reports_a_numerator_off_by_one(monkeypatch):
    build = weights._ordering_states

    def broken(g, part):
        root, trees, denom = build(g, part)
        mask, (num, count) = next(iter(trees.items()))
        return root, {**trees, mask: [num + 1, count]}, denom

    monkeypatch.setattr(weights, "_ordering_states", broken)
    g, part = fig2(), fig2_double_rooted()
    report = weights.weight_distribution(g, part)
    total = report.total
    assert total == reference_total(report) != 1
    for fmt in ("table", "json"):
        code, out, err = run_cli(
            [
                "weights",
                "--graph", str(FIXTURES / "fig2.json"),
                "--partition", part.format(),
                "--format", fmt,
            ]
        )
        assert (code, out) == (3, "")
        assert err == f"error[check-failure]: weights sum to {total}, not 1\n"
