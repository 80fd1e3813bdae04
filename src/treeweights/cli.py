"""Command-line front end.

    treeweights trees     --graph g.json
    treeweights symmetric --graph g.json
    treeweights weights   --graph g.json --partition "v1|v2|v3,v4"
    treeweights verify    --graph g.json [--partition SPEC]
    treeweights psd       --graph g.json [--partition SPEC] [--seed N]

Exit codes: 0 success, 2 input error, 3 check failure, 4 enumeration
guard exceeded. Output is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EnumerationGuardExceededError,
    ParseError,
    TreeWeightsError,
)
from .graph import Multigraph
from .partitions import Partition, build_trace, contact_indices, ordered_trees
from .psd import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, verify_constructive
from .sectors import DEFAULT_GUARD, sector_census
from .weights import (
    WeightReport,
    edge_monomials,
    ordered_weight_from_trace,
    require_weighable,
    weight_distribution,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
EXIT_GUARD = 4

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
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return Multigraph.from_json(text)


def parse_partition(spec: str, g: Multigraph) -> Partition:
    return Partition.parse(spec, g.vertices)


def _fraction_str(x: Fraction) -> str:
    return str(x)


def _decimal_str(x: Fraction) -> str:
    return f"{float(x):.6g}"


def _tree_str(tree) -> str:
    return ",".join(sorted(tree))


def _emit_table(headers: list[str], rows: list[list[str]], out) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _emit_csv(headers: list[str], rows: list[list[str]], out) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    out.write(buf.getvalue())


def _emit(config: RunConfig, payload: dict, headers: list[str], rows: list[list[str]], out) -> None:
    if config.output_format == "json":
        json.dump({"format": FORMAT_VERSION, **payload}, out, indent=2, allow_nan=False)
        out.write("\n")
    elif config.output_format == "csv":
        _emit_csv(headers, rows, out)
    else:
        _emit_table(headers, rows, out)


def _weight_rows(report: WeightReport, breakdown: bool):
    headers = ["tree", "weight", "decimal", "orderings"]
    rows = []
    for row in report.rows:
        rows.append(
            [
                _tree_str(row.tree),
                _fraction_str(row.weight),
                _decimal_str(row.weight),
                str(len(row.orderings)),
            ]
        )
        if breakdown:
            for order, w in row.orderings:
                rows.append(
                    ["  " + ",".join(order), _fraction_str(w), _decimal_str(w), ""]
                )
    return headers, rows


def _weight_payload(report: WeightReport, breakdown: bool) -> list[dict]:
    out = []
    for row in report.rows:
        item = {
            "tree": list(row.tree),
            "weight": _fraction_str(row.weight),
            "decimal": _decimal_str(row.weight),
            "orderings": len(row.orderings),
        }
        if breakdown:
            item["breakdown"] = [
                {"order": list(order), "weight": _fraction_str(w)}
                for order, w in row.orderings
            ]
        out.append(item)
    return out


def cmd_trees(config: RunConfig, g: Multigraph, out) -> int:
    trees = g.spanning_trees()
    headers = ["tree"]
    rows = [[_tree_str(t)] for t in trees]
    payload = {
        "command": "trees",
        "count": len(trees),
        "trees": [sorted(t) for t in trees],
    }
    _emit(config, payload, headers, rows, out)
    return EXIT_OK


def cmd_symmetric(config: RunConfig, g: Multigraph, out) -> int:
    census = sector_census(g, guard=config.guard)
    census_weights = census.weights()
    if len(g.vertices) >= 2:
        report = weight_distribution(g, Partition.singletons(g.vertices))
        if census_weights != report.weights():
            raise CheckFailure("sector census and partition route disagree")
        order_counts = {frozenset(r.tree): len(r.orderings) for r in report.rows}
    else:
        order_counts = {}
    headers = ["tree", "weight", "decimal", "sectors", "orderings"]
    rows = []
    items = []
    for tree in sorted(census_weights, key=lambda t: tuple(sorted(t))):
        w = census_weights[tree]
        rows.append(
            [
                _tree_str(tree),
                _fraction_str(w),
                _decimal_str(w),
                str(census.counts[tree]),
                str(order_counts.get(tree, 0)),
            ]
        )
        items.append(
            {
                "tree": sorted(tree),
                "weight": _fraction_str(w),
                "decimal": _decimal_str(w),
                "sectors": census.counts[tree],
                "orderings": order_counts.get(tree, 0),
            }
        )
    total = sum(census_weights.values(), Fraction(0))
    if total != 1:
        raise CheckFailure(f"weights sum to {total}, not 1")
    payload = {
        "command": "symmetric",
        "sectors_total": census.total,
        "rows": items,
        "sum": _fraction_str(total),
    }
    _emit(config, payload, headers, rows, out)
    return EXIT_OK


def cmd_weights(config: RunConfig, g: Multigraph, out) -> int:
    if config.partition is None:
        raise ParseError("the weights command requires --partition")
    part = parse_partition(config.partition, g)
    report = weight_distribution(g, part)
    total = report.total
    if total != 1:
        raise CheckFailure(f"weights sum to {total}, not 1")
    headers, rows = _weight_rows(report, config.breakdown)
    payload = {
        "command": "weights",
        "partition": part.format(),
        "rows": _weight_payload(report, config.breakdown),
        "sum": _fraction_str(total),
    }
    _emit(config, payload, headers, rows, out)
    return EXIT_OK


def cmd_verify(config: RunConfig, g: Multigraph, out) -> int:
    part = (
        parse_partition(config.partition, g)
        if config.partition is not None
        else Partition.singletons(g.vertices)
    )
    require_weighable(g, part)

    total = Fraction(0)
    routes_ok = True
    exponents_ok = True
    contacts_ok = True
    ordered = 0
    # the search runs to completion before the checks: interleaving it
    # with the trace work measured slower
    for order, denom in list(ordered_trees(g, part)):
        w = Fraction(1, denom)
        total += w
        trace = build_trace(g, part, order)
        ordered += 1
        mono = edge_monomials(g, trace)
        if not (ordered_weight_from_trace(trace) == w and mono.integral() == w):
            routes_ok = False
        if any(
            e != k - 1 for e, k in zip(mono.exponents, trace.k_values)
        ):
            exponents_ok = False
        verts = g.vertices
        for a in range(len(verts)):
            for b in range(a, len(verts)):
                i, j = contact_indices(trace, verts[a], verts[b])
                if not i < j:
                    contacts_ok = False
                if a == b and (i, j) != (-1, 0):
                    contacts_ok = False
    lines: list[tuple[str, bool, str]] = [
        ("normalization", total == 1, f"sum = {total}")
    ]
    lines.append(
        ("dual-route", routes_ok, f"{ordered} ordered trees, count vs integral")
    )
    lines.append(
        ("exponent-law", exponents_ok, "monomial exponents equal k - 1")
    )
    lines.append(
        ("contact-indices", contacts_ok, "i < j for every vertex pair")
    )

    ok = all(flag for _, flag, _ in lines)
    headers = ["check", "status", "detail"]
    rows = [
        [name, "ok" if flag else "FAIL", detail] for name, flag, detail in lines
    ]
    payload = {
        "command": "verify",
        "partition": part.format(),
        "checks": [
            {"check": name, "ok": flag, "detail": detail}
            for name, flag, detail in lines
        ],
        "passed": ok,
    }
    _emit(config, payload, headers, rows, out)
    if not ok:
        raise CheckFailure("verification failed")
    return EXIT_OK


def cmd_psd(config: RunConfig, g: Multigraph, out) -> int:
    part = (
        parse_partition(config.partition, g)
        if config.partition is not None
        else Partition.singletons(g.vertices)
    )
    report = verify_constructive(
        g, part, samples=config.samples, tol=config.tolerance, seed=config.seed
    )
    headers = ["tree", "order", "min_eigenvalue", "max_discrepancy", "status"]
    rows = [
        [
            _tree_str(c.tree),
            ",".join(c.order),
            f"{c.min_eigenvalue:.3e}",
            f"{c.max_discrepancy:.3e}",
            "ok" if c.passed else "FAIL",
        ]
        for c in report.checks
    ]
    rows.append(
        [
            "(all)",
            f"seed={report.seed} samples={report.samples}",
            f"{report.min_eigenvalue:.3e}",
            f"{report.max_discrepancy:.3e}",
            "ok" if report.passed else "FAIL",
        ]
    )
    payload = {
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
    except EnumerationGuardExceededError as exc:
        err.write(f"error[{exc.code}]: {exc}\n")
        return EXIT_GUARD
    except TreeWeightsError as exc:
        err.write(f"error[{exc.code}]: {exc}\n")
        return EXIT_INPUT
    except CheckFailure as exc:
        err.write(f"error[check-failure]: {exc}\n")
        return EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeweights",
        description="Exact probability measures on the spanning trees of multigraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "trees": "list the spanning trees",
        "symmetric": "symmetric weights by sector census, cross-checked",
        "weights": "partition weight table",
        "verify": "exact structural checks for a partition",
        "psd": "positivity of contact matrices at sampled points",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="path to a graph JSON file")
        p.add_argument(
            "--partition",
            help='blocks separated by "|", members by "," (e.g. "v1|v2,v3")',
        )
        p.add_argument(
            "--format",
            choices=["table", "json", "csv"],
            default="table",
            dest="output_format",
        )
        p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--breakdown", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        graph_path=args.graph,
        partition=args.partition,
        output_format=args.output_format,
        guard=args.guard,
        seed=args.seed,
        samples=args.samples,
        tolerance=args.tol,
        breakdown=args.breakdown,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
