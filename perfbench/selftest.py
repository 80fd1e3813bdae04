"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in a few minutes:

* one short run of each workload, untraced and traced, at the default
  seed and at one other seed, prints every metric BENCHMARK.json names,
  with its unit, and has fail_ratio 0;
* with one stored digest corrupted, in a copy of the benchmark and of
  `src/`, the gate fails the run (fail_ratio above 0, a non-zero exit),
  so it cannot pass vacuously;
* a case above the size fence is refused before anything runs;
* without the program's sources next to it, the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench-out")
OTHER_SEED = 7


def bench(args: list[str], root: str = ROOT) -> tuple[int, dict | None, dict | None]:
    """Run the benchmark in `root`; return its exit code, metadata and result lines."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, meta, result


def copy_benchmark(name: str, with_src: bool) -> str:
    """A fresh copy of the benchmark, and of `src/` if asked, under OUT."""
    root = os.path.join(OUT, name)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"), ignore=ignore)
    return root


def declared() -> dict[int, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_metrics(expected: dict[int, dict[str, str]]) -> list[str]:
    problems = []
    for seed in (workloads.DEFAULT_SEED, OTHER_SEED):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                label = f"{workload} seed {seed} trace {trace}"
                before = len(problems)
                rc, meta, result = bench(
                    ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)]
                )
                if result is None:
                    problems.append(f"{label}: no result (exit {rc})")
                    continue
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if rc != 0 or not result["correct"] or meta["fail_ratio"] != 0:
                    problems.append(f"{label}: exit {rc}, fail_ratio {meta['fail_ratio']}")
                if printed != expected[trace]:
                    problems.append(f"{label}: metrics {printed} differ from BENCHMARK.json")
                if any(v["value"] <= 0 for v in result["metrics"].values()
                       if trace == 0 or v["unit"] == "s"):
                    problems.append(f"{label}: a metric reads 0")
                print(f"{label}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    return problems


def check_corrupted_digest() -> list[str]:
    root = copy_benchmark("corrupted", with_src=True)
    path = os.path.join(root, "perfbench", "digests.json")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    digests = stored["digests"]["pool-verify"]
    victim = sorted(digests)[0]
    digests[victim] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    rc, meta, result = bench(
        ["--workload", "pool-verify", "--seed", str(workloads.DEFAULT_SEED),
         "--seconds", "1", "--trace", "0"],
        root,
    )
    shutil.rmtree(root)
    if rc == 0 or result is None or result["correct"] or not meta["fail_ratio"] > 0:
        return [f"a corrupted digest for {victim} was not caught"]
    return []


def check_fence() -> list[str]:
    case = workloads.Case("weights-k7", "weights", "k7", workloads.SINGLETONS)
    try:
        workloads.check_fence(case, workloads.K7)
    except workloads.FenceError:
        return []
    return ["weights on K7 passed the size fence"]


def check_bare_directory() -> list[str]:
    bare = copy_benchmark("bare", with_src=False)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without src/ the benchmark did not fail cleanly"]
    return []


def main() -> int:
    problems = check_fence() + check_bare_directory() + check_corrupted_digest()
    problems += check_metrics(declared())
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
