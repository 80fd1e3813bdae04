"""Command-line front end.

    treeweights trees     --graph g.json
    treeweights symmetric --graph g.json [--guard N]
    treeweights weights   --graph g.json --partition "v1|v2|v3,v4" [--breakdown]
    treeweights verify    --graph g.json [--partition SPEC]
    treeweights psd       --graph g.json [--partition SPEC] [--seed N] [--samples N] [--tol X]

Every command takes --format table|json|csv and refuses any option it
does not read. Exit codes: 0 success, 2 input error (a bad graph,
partition or argument), 3 check failure, 4 enumeration guard exceeded, 5
internal fault (an invariant of the program failed: a bug, not bad
input). Every error writes one `error[<code>]: ...` line to stderr;
output that stdout cannot encode gives `error[unencodable-output]`.
Output is deterministic for a fixed config and seed. JSON output is
exactly `json.dumps(payload, indent=2)` (ASCII-escaped, strict: no NaN
or Infinity) plus one newline; a table is left-justified columns joined
by two spaces, trailing blanks stripped. Either is written in one piece.
Two outputs enter the JSON payload as `_Verbatim` text, already laid
out, which `_json_text` writes as it is: the rows of `weights`, which
formats each distinct weight once and shares the text among the rows of
that weight, and the tree list of `trees`, whose text is built along
the tree walk. The orderings of `weights --breakdown`, in every format,
are built along the ordering walk in the same way.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    EnumerationGuardExceededError,
    InvariantError,
    ParseError,
    TreeWeightsError,
    UnencodableOutputError,
)
from .graph import Multigraph
from .partitions import Partition
from .psd import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, verify_constructive, verify_exact
from .sectors import DEFAULT_GUARD, sector_census
from .weights import WeightReport, weight_distribution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5

FORMAT_VERSION = 1


@dataclass
class RunConfig:
    command: str
    graph_path: str
    partition: str | None = None
    output_format: str = "table"
    guard: int = DEFAULT_GUARD
    seed: int = 0
    samples: int = DEFAULT_SAMPLES
    tolerance: float = DEFAULT_TOLERANCE
    breakdown: bool = False


class CheckFailure(Exception):
    """An exact or numerical verification did not hold."""


def parse_graph(path: str) -> Multigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return Multigraph.from_json(text)


def parse_partition(spec: str, g: Multigraph) -> Partition:
    return Partition.parse(spec, g.vertices)


def _partition_or_singletons(config: RunConfig, g: Multigraph) -> Partition:
    """The --partition of verify and psd, all singletons when omitted."""
    if config.partition is None:
        return Partition.singletons(g.vertices)
    return parse_partition(config.partition, g)


def _decimal_str(x: Fraction) -> str:
    return f"{float(x):.6g}"


class _Verbatim(str):
    """JSON text that _json_text writes as it is, already laid out for
    its place in the payload."""

    __slots__ = ()


_STR = {str}


def _json_text(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, indent=2, allow_nan=False).

    indent is the line break and indent before value's closing bracket.
    A non-str dict key raises TypeError (in the quoter). A list of str
    is quoted without a call per item. A _Verbatim value is written as
    it is: its maker lays it out for its place, as _weight_rows_json
    does the rows of a weights payload and cmd_trees its tree list.
    """
    if isinstance(value, str):
        return value if type(value) is _Verbatim else _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if _STR.issuperset(map(type, value)):
            items = map(_quote, value)
        else:
            items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit_table(headers: list[str], rows: list[list[str]], out) -> None:
    """Pad each column but the last, whose padding the strip would take
    off, a column at a time, then join the lines."""
    *columns, last = zip(headers, *rows)
    padded = [map(str.ljust, col, repeat(max(map(len, col)))) for col in columns]
    out.write("\n".join(map(str.rstrip, map("  ".join, zip(*padded, last)))) + "\n")


def _emit_csv(headers: list[str], rows: list[list[str]], out) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    out.write(buf.getvalue())


def _emit(config: RunConfig, payload, headers: list[str], rows, out) -> None:
    """Write the JSON payload or the table rows, whichever --format asks for.

    payload and rows are callables; only the one written is built. Text
    that out cannot encode, which it encodes whole before writing any,
    raises UnencodableOutputError with nothing written.
    """
    try:
        if config.output_format == "json":
            out.write(_json_text({"format": FORMAT_VERSION, **payload()}) + "\n")
        elif config.output_format == "csv":
            _emit_csv(headers, rows(), out)
        else:
            _emit_table(headers, rows(), out)
    except UnicodeEncodeError as exc:
        raise UnencodableOutputError(f"{exc}; --format json escapes it") from exc


def _cells(item: dict) -> list[str]:
    """A JSON item's values, in key order, as table cells; lists and
    tuples joined by commas."""
    return [",".join(v) if isinstance(v, (list, tuple)) else str(v) for v in item.values()]


def _weight_rows_json(report: WeightReport, breakdown: bool, indent: str) -> _Verbatim:
    """The "rows" of a weights payload, laid out as _json_text lays out
    a value before whose closing bracket comes indent.

    Each distinct tree weight is formatted once, keyed by its numerator
    and denominator (hashing a Fraction costs a modular inverse), into
    the text that follows the edge ids in every row of that weight.
    With breakdown, each ordering's text is built along the ordering
    walk (WeightReport.breakdowns): its edge ids, each quoted once per
    graph on its own line, between a head shared by every ordering and
    a tail shared by every ordering of its k product d, whose weight
    1/d is formatted once. Weight texts need no escaping, and no tree
    or ordering of a weighable graph is empty.
    """
    row_in = indent + "  "
    key_in = row_in + "  "
    id_in = "," + key_in + "  "
    before = "{" + key_in + '"tree": [' + id_in[1:]
    after: dict[tuple[int, int], str] = {}
    listed = repeat(None)
    if breakdown:
        entry_in = key_in + "  "
        field_in = entry_in + "  "
        leaf_in = "," + field_in + "  "
        head = "{" + field_in + '"order": ['
        tails: dict[int, str] = {}

        def ordering(order: str, d: int) -> str:
            tail = tails.get(d) or tails.setdefault(
                d, f'{field_in}],{field_in}"weight": "{Fraction(1, d)}"{entry_in}}}'
            )
            return head + order[1:] + tail

        listed = report.breakdowns(lambda eid: leaf_in + _quote(eid), "", ordering)
        between = "," + entry_in
    rows = []
    for row, items in zip(report.rows, listed):
        w = row.weight
        key = (w.numerator, w.denominator)
        shared = after.get(key) or after.setdefault(key, (
            f'{key_in}],{key_in}"weight": "{w}",{key_in}"decimal": "{_decimal_str(w)}",'
            f'{key_in}"orderings": '
        ))
        text = before + id_in.join(map(_quote, row.tree)) + shared + str(len(row.orderings))
        if breakdown:
            text += f',{key_in}"breakdown": [{entry_in}{between.join(items)}{key_in}]'
        rows.append(text + row_in + "}")
    return _Verbatim("[" + row_in + ("," + row_in).join(rows) + indent + "]")


def _weight_lines(report: WeightReport, breakdown: bool) -> list[tuple[str, ...]]:
    """The cells of a weights table, a line per tree and, with
    breakdown, one under it per ordering: its edge ids, the weight and
    decimal it shares with every line of its weight, and its ordering
    count ("" on a breakdown line). Each distinct tree weight is
    formatted once, keyed as in _weight_rows_json. An ordering's line
    is built along the ordering walk (WeightReport.breakdowns): its
    edge ids, each after a comma, then the cells of its k product d,
    formatted once per d."""
    shown: dict[tuple[int, int], tuple[str, str]] = {}
    listed = repeat(())
    if breakdown:
        cells: dict[int, tuple[str, str, str]] = {}

        def line(order: str, d: int) -> tuple[str, str, str, str]:
            shared = cells.get(d)
            if shared is None:
                w = Fraction(1, d)
                shared = cells[d] = (str(w), _decimal_str(w), "")
            return ("  " + order[1:], *shared)

        listed = report.breakdowns(lambda eid: "," + eid, "", line)
    lines = []
    for row, under in zip(report.rows, listed):
        w = row.weight
        key = (w.numerator, w.denominator)
        text, decimal = shown.get(key) or shown.setdefault(key, (str(w), _decimal_str(w)))
        lines.append((",".join(row.tree), text, decimal, str(len(row.orderings))))
        lines.extend(under)
    return lines


def cmd_trees(config: RunConfig, g: Multigraph, out) -> int:
    """The spanning trees in sorted order, each as text the tree walk
    builds from one piece per edge it takes: in JSON the quoted id on
    its own line, in a table or CSV the id after a comma. Each id is
    quoted once per graph, each prefix shared by many trees is built
    once, and only the format written is built. The JSON tree list
    enters the payload as _Verbatim text; the one tree of a one-vertex
    graph is empty."""

    def payload():
        trees = g._sorted_trees(lambda eid: ",\n      " + _quote(eid), "")
        items = ["[" + t[1:] + "\n    ]" if t else "[]" for t in trees]
        # _emit writes the payload's keys one level under its top-level dict
        text = _Verbatim("[\n    " + ",\n    ".join(items) + "\n  ]")
        return {"command": "trees", "count": len(trees), "trees": text}

    def rows():
        return [[t[1:]] for t in g._sorted_trees(lambda eid: "," + eid, "")]

    _emit(config, payload, ["tree"], rows, out)
    return EXIT_OK


def cmd_symmetric(config: RunConfig, g: Multigraph, out) -> int:
    """The census weights, checked against the partition route.

    On two or more vertices both routes must give the same trees, and
    each tree's census count c must equal its partition weight w in
    integers: c * w.denominator == w.numerator * census.total. The rows
    follow the report's sorted trees; each distinct count is formatted
    once.
    """
    census = sector_census(g, guard=config.guard)
    counts, total = census.counts, census.total
    if len(g.vertices) >= 2:
        report = weight_distribution(g, Partition.singletons(g.vertices))
        found = [(row.tree, counts.get(frozenset(row.tree)), row) for row in report.rows]
        if len(counts) != len(found) or not all(
            c is not None and c * row.weight.denominator == row.weight.numerator * total
            for _, c, row in found
        ):
            raise CheckFailure("sector census and partition route disagree")
    else:
        found = sorted((tuple(sorted(t)), c, None) for t, c in counts.items())
    shown: dict[int, tuple[str, str]] = {}
    items = []
    for tree, c, row in found:
        text = shown.get(c)
        if text is None:
            w = Fraction(c, total)
            text = shown[c] = (str(w), _decimal_str(w))
        items.append({
            "tree": tree,
            "weight": text[0],
            "decimal": text[1],
            "sectors": c,
            "orderings": 0 if row is None else len(row.orderings),
        })
    # every weight is a count over census.total, so the counts must sum to it
    counted = sum(counts.values())
    if counted != total:
        raise CheckFailure(f"weights sum to {Fraction(counted, total)}, not 1")
    payload = {
        "command": "symmetric",
        "sectors_total": total,
        "rows": items,
        "sum": "1",
    }
    headers = ["tree", "weight", "decimal", "sectors", "orderings"]
    _emit(config, lambda: payload, headers, lambda: [_cells(item) for item in items], out)
    return EXIT_OK


def cmd_weights(config: RunConfig, g: Multigraph, out) -> int:
    """The weight report, its rows written from each distinct weight's
    shared text: in JSON as _Verbatim text, in a table or CSV as the
    cells of _weight_lines. With --breakdown either writer walks the
    orderings once, building their text along the walk."""
    if config.partition is None:
        raise ParseError("the weights command requires --partition")
    part = parse_partition(config.partition, g)
    report = weight_distribution(g, part)
    total = report.total
    if total != 1:
        raise CheckFailure(f"weights sum to {total}, not 1")

    def payload():
        return {
            "command": "weights",
            "partition": part.format(),
            # _emit writes the payload's keys one level under its top-level dict
            "rows": _weight_rows_json(report, config.breakdown, "\n  "),
            "sum": str(total),
        }

    headers = ["tree", "weight", "decimal", "orderings"]
    _emit(config, payload, headers, lambda: _weight_lines(report, config.breakdown), out)
    return EXIT_OK


def cmd_verify(config: RunConfig, g: Multigraph, out) -> int:
    part = _partition_or_singletons(config, g)
    report = verify_exact(g, part)
    lines: list[tuple[str, bool, str]] = [
        ("normalization", report.total == 1, f"sum = {report.total}"),
        (
            "dual-route",
            report.routes_agree,
            f"{report.ordered} ordered trees, count vs integral",
        ),
        ("exponent-law", report.exponent_law, "monomial exponents equal k - 1"),
        ("contact-indices", report.contact_order, "i < j for every vertex pair"),
    ]
    ok = all(flag for _, flag, _ in lines)
    rows = [[name, "ok" if flag else "FAIL", detail] for name, flag, detail in lines]
    payload = {
        "command": "verify",
        "partition": part.format(),
        "checks": [
            {"check": name, "ok": flag, "detail": detail}
            for name, flag, detail in lines
        ],
        "passed": ok,
    }
    _emit(config, lambda: payload, ["check", "status", "detail"], lambda: rows, out)
    if not ok:
        raise CheckFailure("verification failed")
    return EXIT_OK


def cmd_psd(config: RunConfig, g: Multigraph, out) -> int:
    part = _partition_or_singletons(config, g)
    report = verify_constructive(
        g, part, samples=config.samples, tol=config.tolerance, seed=config.seed
    )

    def rows():
        return [
            [
                ",".join(c.tree),
                ",".join(c.order),
                f"{c.min_eigenvalue:.3e}",
                f"{c.max_discrepancy:.3e}",
                "ok" if c.passed else "FAIL",
            ]
            for c in report.checks
        ] + [
            [
                "(all)",
                f"seed={report.seed} samples={report.samples}",
                f"{report.min_eigenvalue:.3e}",
                f"{report.max_discrepancy:.3e}",
                "ok" if report.passed else "FAIL",
            ]
        ]

    def payload():
        return {
            "command": "psd",
            "partition": part.format(),
            "seed": report.seed,
            "samples": report.samples,
            "tolerance": report.tolerance,
            "measure_normalized": report.measure_normalized,
            "checks": [
                {
                    "tree": list(c.tree),
                    "order": list(c.order),
                    "min_eigenvalue": c.min_eigenvalue,
                    "max_discrepancy": c.max_discrepancy,
                    "passed": c.passed,
                }
                for c in report.checks
            ],
            "passed": report.passed,
        }

    headers = ["tree", "order", "min_eigenvalue", "max_discrepancy", "status"]
    _emit(config, payload, headers, rows, out)
    if not report.passed:
        raise CheckFailure("positivity verification failed")
    return EXIT_OK


COMMANDS = {
    "trees": cmd_trees,
    "symmetric": cmd_symmetric,
    "weights": cmd_weights,
    "verify": cmd_verify,
    "psd": cmd_psd,
}


def run(config: RunConfig, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        if config.guard < 1:
            raise ParseError("--guard must be at least 1")
        g = parse_graph(config.graph_path)
        return COMMANDS[config.command](config, g, out)
    except TreeWeightsError as exc:
        err.write(f"error[{exc.code}]: {exc}\n")
        if isinstance(exc, EnumerationGuardExceededError):
            return EXIT_GUARD
        return EXIT_INTERNAL if isinstance(exc, InvariantError) else EXIT_INPUT
    except CheckFailure as exc:
        err.write(f"error[check-failure]: {exc}\n")
        return EXIT_CHECK


class _Parser(argparse.ArgumentParser):
    """argparse that raises ParseError instead of printing the usage and
    exiting, and takes any negative number (-1e-12, -inf) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring only the options it reads,
    so any other option is a parse error."""
    parser = _Parser(
        prog="treeweights",
        description="Exact probability measures on the spanning trees of multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--partition": dict(help='blocks separated by "|", members by "," (e.g. "v1|v2,v3")'),
        "--format": dict(choices=["table", "json", "csv"], default="table", dest="output_format"),
        "--guard": dict(
            type=int, default=DEFAULT_GUARD,
            help=f"max edge count for the symmetric census (default {DEFAULT_GUARD})",
        ),
        "--seed": dict(type=int, default=0, help="random seed of the sample points"),
        "--samples": dict(
            type=int, default=DEFAULT_SAMPLES,
            help=f"sampled points per ordered tree (default {DEFAULT_SAMPLES})",
        ),
        "--tol": dict(
            type=float, default=DEFAULT_TOLERANCE, dest="tolerance", metavar="TOL",
            help=f"psd fails an eigenvalue below -TOL (default {DEFAULT_TOLERANCE:g})",
        ),
        "--breakdown": dict(
            action="store_true", help="list each admissible ordering and its weight"
        ),
    }
    # each command's options besides --graph and --format
    specs = {
        "trees": ("list the spanning trees", []),
        "symmetric": ("symmetric weights by sector census, cross-checked", ["--guard"]),
        "weights": ("partition weight table", ["--partition", "--breakdown"]),
        "verify": ("exact structural checks for a partition", ["--partition"]),
        "psd": (
            "positivity of contact matrices at sampled points",
            ["--partition", "--seed", "--samples", "--tol"],
        ),
    }
    for name, (help_text, flags) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--graph", required=True, dest="graph_path", metavar="GRAPH",
            help="path to a graph JSON file",
        )
        for flag in ("--format", *flags):
            p.add_argument(flag, **options[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ParseError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return EXIT_INPUT
    # the parser's destinations are RunConfig fields; an option a command
    # does not declare keeps its default
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
