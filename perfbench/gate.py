"""The correctness gate applied to every case's output.

Three checks, in order of strength:

* digest: at the default seed, the sha256 of stdout must equal the one
  recorded at the seed commit, so stdout stays byte-identical
  (the float columns of `psd` included);
* fingerprint: for workloads whose seed only relabels fixed graphs, a
  sha256 of the label-free content of stdout (weights, counts, check
  verdicts) must equal the recorded one at every seed;
* structure, at every seed: the exit code is the expected one, JSON
  `sum` is exactly "1", every `passed`/`ok` is true, the output lists
  as many distinct trees as the matrix-tree theorem counts, a
  table's tree weights add up to exactly 1, and where the benchmark
  counted the admissible ordered trees itself the output agrees.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

# Keys whose values name vertices or edges, and the float columns of psd
# whose sampled points depend on the order trees are enumerated in.
LABEL_KEYS = frozenset({"tree", "order", "trees", "partition"})
SAMPLED_KEYS = frozenset({"min_eigenvalue", "max_discrepancy"})
ORDERED_TREES = re.compile(r"^(\d+) ordered trees")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _label_free(value):
    if isinstance(value, dict):
        return {
            k: _label_free(v) for k, v in value.items()
            if k not in LABEL_KEYS and k not in SAMPLED_KEYS
        }
    if isinstance(value, list):
        items = [_label_free(v) for v in value]
        return sorted(items, key=lambda v: json.dumps(v, sort_keys=True))
    return value


def fingerprint(case: dict, stdout: str) -> str:
    """sha256 of stdout with every vertex and edge label dropped.

    Relabeling a graph permutes rows and renames ids but keeps the
    multiset of label-free rows, so this is the same for every seed of
    a relabeling workload.
    """
    if not stdout:
        canonical = ""
    elif case["output_format"] == "json":
        canonical = json.dumps(_label_free(json.loads(stdout)), sort_keys=True)
    else:
        canonical = "\n".join(sorted(" ".join(line.split()[1:]) for line in stdout.splitlines()))
    return sha256(canonical)


def _tree_rows(stdout: str) -> list[list[str]]:
    """The tree rows of a `weights` table; breakdown rows are indented."""
    return [line.split() for line in stdout.splitlines()[1:] if not line.startswith(" ")]


def _distinct(trees) -> int:
    """The number of distinct trees, each given as its edge ids."""
    return len({frozenset(tree) for tree in trees})


def ordered_trees(case: dict, stdout: str) -> int | None:
    """The ordered-tree count the output reports, where it reports one."""
    command = case["command"]
    if command == "trees" or not stdout:
        return None
    if case["output_format"] != "json":
        return sum(int(row[3]) for row in _tree_rows(stdout))
    doc = json.loads(stdout)
    if command in ("weights", "symmetric"):
        return sum(row["orderings"] for row in doc["rows"])
    if command == "verify":
        for check in doc["checks"]:
            match = ORDERED_TREES.match(check["detail"])
            if match:
                return int(match.group(1))
        return None
    return len(doc["checks"])


def structure(case: dict, rc: int, stdout: str, stderr: str) -> list[str]:
    """Seed-independent checks; returns the problems found."""
    if rc != case["expect_exit"]:
        return [f"exit code {rc}, expected {case['expect_exit']}: {stderr.strip()[:200]}"]
    if rc != 0:
        if stdout or not stderr.startswith("error[guard-exceeded]"):
            return ["a refused case must print only an error[guard-exceeded] line"]
        return []
    trees = case["size"]["trees"]
    if case["output_format"] != "json":
        rows = _tree_rows(stdout)
        problems = []
        if len({frozenset(row[0].split(",")) for row in rows}) != len(rows) or len(rows) != trees:
            problems.append(f"{len(rows)} tree rows, expected {trees} distinct ones")
        if sum((Fraction(row[1]) for row in rows), Fraction(0)) != 1:
            problems.append("table weights do not sum to 1")
        return problems
    problems = []
    expected = case.get("ordered_trees")
    if expected is not None and ordered_trees(case, stdout) != expected:
        problems.append(f"{ordered_trees(case, stdout)} ordered trees, expected {expected}")
    doc = json.loads(stdout)
    if doc.get("command") != case["command"]:
        problems.append(f"command field is {doc.get('command')!r}")
    if "sum" in doc and doc["sum"] != "1":
        problems.append(f"sum is {doc['sum']!r}")
    if doc.get("passed") is False:
        problems.append("passed is false")
    for check in doc.get("checks", []):
        if check.get("ok") is False or check.get("passed") is False:
            problems.append(f"check failed: {check}")
    if case["command"] == "trees":
        if doc["count"] != trees or _distinct(doc["trees"]) != trees:
            problems.append(f"{doc['count']} trees, expected {trees} distinct ones")
    if case["command"] in ("weights", "symmetric"):
        if _distinct(row["tree"] for row in doc["rows"]) != trees or len(doc["rows"]) != trees:
            problems.append(f"{len(doc['rows'])} weighted trees, expected {trees} distinct ones")
        if any(Fraction(row["weight"]) <= 0 for row in doc["rows"]):
            problems.append("a spanning tree has no positive weight")
    return problems
