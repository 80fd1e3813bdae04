"""The treeweights benchmark: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload dense-weights --seed 1 --seconds 38 --trace 0

Run from the root of a checkout. The program is used from `src/`
as it stands; nothing is installed. One untimed set-up (import
treeweights, generate the seed's graphs, write them as JSON) writes the
inputs; the workload then runs in one more fresh, single-threaded
process that calls `treeweights.cli.run` case after case, in passes over
the fixed case list, until the time is spent, and times one fresh
set-up process after each untraced pass. Every output goes through the
correctness gate.

Host speed on a shared machine swings by up to 2x, in phases of seconds
to minutes. So every timing is scaled to a fixed host speed: it is
multiplied by REFERENCE_CALIBRATION_S over the time of a fixed
pure-Python loop run just before and just after it, raised to
CALIBRATION_EXPONENT. A case's time is
the median of its scaled times over the run's passes, and a metric sums
them over the cases it covers; `setup_s` is the median scaled set-up.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of traced passes, which
alternate with untraced ones so their ratio gives the tracing overhead.
The full results, case sizes, run metadata and trace spans are written
under `.perfbench-out/`. The exit code is 0 only if every output
passed the gate.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")
DIGESTS = os.path.join(HERE, "digests.json")
# One BLAS thread, and a fixed string hash seed so that set and dict
# iteration order, and with it the work done, repeat from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# The calibration loop's time (100 000 turns, see worker.calibrate) at
# full speed on a 2-vCPU Intel Xeon virtual machine. Scaled timings read
# in seconds at that speed.
REFERENCE_CALIBRATION_S = 0.008
# On a contended host the program slows down more than the loop does, so
# the loop's slowdown is raised to this power. Over four sets of 4-10
# runs, 1.25 left the least spread between runs (1.0 and 1.5 were
# tried too).
CALIBRATION_EXPONENT = 1.25

# per-layer metric -> (traced name, what is read)
LAYER_METRICS = {
    "graph.spanning_trees_s": ("graph.spanning_trees", "self_s"),
    "graph.spanning_trees_calls": ("graph.spanning_trees", "calls"),
    "graph.trees": ("graph.trees", "count"),
    "graph.from_json_s": ("graph.from_json", "self_s"),
    "graph.from_json_calls": ("graph.from_json", "calls"),
    "sectors.census_s": ("sectors.census", "self_s"),
    "sectors.census_calls": ("sectors.census", "calls"),
    "sectors.sectors": ("sectors.sectors", "count"),
    "weights.distribution_s": ("weights.distribution", "self_s"),
    "weights.distribution_calls": ("weights.distribution", "calls"),
    "weights.ordered_trees": ("weights.ordered_trees", "count"),
    "weights.monomials_s": ("weights.monomials", "self_s"),
    "weights.monomials_calls": ("weights.monomials", "calls"),
    "partitions.build_trace_s": ("partitions.build_trace", "self_s"),
    "partitions.traces": ("partitions.build_trace", "calls"),
    "partitions.orderings_s": ("partitions.orderings", "self_s"),
    "partitions.orderings_calls": ("partitions.orderings", "calls"),
    "partitions.contact_indices_s": ("partitions.contact_indices", "self_s"),
    "partitions.contact_pairs": ("partitions.contact_indices", "calls"),
    "psd.verify_constructive_s": ("psd.verify_constructive", "self_s"),
    "psd.matrix_direct_s": ("psd.matrix_direct", "self_s"),
    "psd.matrix_recursion_s": ("psd.matrix_recursion", "self_s"),
    "psd.eigvalsh_s": ("psd.eigvalsh", "self_s"),
    "psd.eigvalsh_calls": ("psd.eigvalsh", "calls"),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, **PINNED_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"child process timed out: {argv[0]}")
    if proc.returncode != 0:
        fail(f"child process {argv[0]} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc


def deadline_s(seconds: float) -> float:
    """Time allowed for a whole run: a margin plus twice the measuring
    time, so 166 s at the declared --seconds 38."""
    return 90 + 2 * seconds


def scaled(seconds: float, calibration_s: float) -> float:
    """A time in seconds at the reference host speed."""
    return seconds * (REFERENCE_CALIBRATION_S / calibration_s) ** CALIBRATION_EXPONENT


def case_seconds(result: dict, cases: list[dict], traced: bool) -> dict[str, float]:
    """Each case's median scaled time over its runs in the run's
    (un)traced passes, by case id: a case listed more than once in a
    pass counts once, with every run of it as a sample."""
    runs: dict[str, list[float]] = {}
    for p in result["passes"]:
        if p["traced"] == traced:
            for case, ns, cal in zip(cases, p["case_ns"], p["case_calibration_s"]):
                runs.setdefault(case["id"], []).append(scaled(ns / 1e9, cal))
    return {case_id: median(times) for case_id, times in runs.items()}


def end_to_end(result: dict, cases: list[dict]) -> dict:
    seconds = case_seconds(result, cases, traced=False)
    command = {case["id"]: case["command"] for case in cases}
    metrics = {
        "setup_s": (median(scaled(s, cal) for s, cal in result["setups"]), "s"),
        "pass_s": (sum(seconds.values()), "s"),
    }
    for name in workloads.COMMANDS:
        metrics[f"cmd.{name}_s"] = (
            sum(s for case_id, s in seconds.items() if command[case_id] == name), "s"
        )
    metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024, "MB")
    return metrics


def per_layer(result: dict, cases: list[dict]) -> dict:
    layers = result["layers"]

    def read(name: str, kind: str):
        if kind == "self_s":
            return median(p["self_ns"][name] for p in layers) / 1e9
        if kind == "calls":
            return median(p["calls"][name] for p in layers)
        return median(p["counts"][name] for p in layers)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median(p["layer_self_ns"][layer] for p in layers) / 1e9, "s")
    for metric, (name, kind) in LAYER_METRICS.items():
        metrics[metric] = (read(name, kind), "s" if kind == "self_s" else "count")
    metrics["psd.matrices"] = (
        median(p["calls"]["psd.matrix_direct"] + p["calls"]["psd.matrix_recursion"] for p in layers),
        "count",
    )
    metrics["cli.stdout_bytes"] = (median(p["stdout_bytes"] for p in layers), "bytes")
    traced = sum(case_seconds(result, cases, True).values())
    untraced = sum(case_seconds(result, cases, False).values())
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + deadline_s(args.seconds)
    if not os.path.isfile(os.path.join(ROOT, "src", "treeweights", "cli.py")):
        fail(f"no treeweights sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(DIGESTS):
        fail(f"no reference digests at {DIGESTS}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    directory = os.path.join(OUT, f"work-{args.workload}")
    shutil.rmtree(directory, ignore_errors=True)
    shutil.rmtree(directory + "-setup", ignore_errors=True)
    # an untimed set-up writes the inputs and the bytecode caches
    run_child(["setup", "--workload", args.workload, "--seed", str(args.seed), "--dir", directory],
              deadline)
    with open(os.path.join(directory, "cases.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    spans = os.path.join(OUT, f"spans-{tag}.jsonl") if args.trace else None
    proc = run_child(
        [
            "measure", "--workload", args.workload, "--seed", str(args.seed),
            "--dir", directory, "--seconds", str(args.seconds), "--trace", str(args.trace),
            *(["--spans", spans] if spans else []),
        ],
        deadline,
    )
    result = json.loads(proc.stdout)

    attempted = sum(len(p["case_ns"]) for p in result["passes"])
    failures = [f for p in result["passes"] for f in p["failed"]]
    failed = len(failures)
    metrics = per_layer(result, cases) if args.trace else end_to_end(result, cases)
    for case in cases:
        case["size"]["ordered_trees"] = result["ordered_trees"].get(case["id"])
    meta = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **result["meta"],
        "calibration_s": result["calibration_s"],
        "passes": sum(not p["traced"] for p in result["passes"]),
        "traced_passes": sum(p["traced"] for p in result["passes"]),
        "setup_runs_s": [s for s, _ in result["setups"]],
        "fail_ratio": failed / attempted,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "meta": meta, "cases": cases, "failures": failures,
             "metrics": metrics, "raw": result},
            fh, indent=1,
        )
    print(json.dumps({"meta": meta}))
    for case_id, problems in failures[:20]:
        print(f"FAIL {case_id}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
