"""The benchmark's fresh processes: `setup` and `measure`.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D
    python3 perfbench/worker.py measure --dir D --seconds S --trace 0|1
                                        --workload W --seed N

`setup` imports treeweights, generates the workload's graphs from the
seed, validates them with the library's parser and writes them, with
the case manifest, into D. `measure` runs passes over the case list
through `treeweights.cli.run` until the time is spent, gates every
output, and prints one JSON document with the timings, counters and
gate results, with the digests in perfbench/digests.json as the
reference. Between untraced passes it times one fresh `setup` process,
so the set-ups are spread over the run like the passes. Every timing is
bracketed by short runs of a fixed calibration loop, whose times are
reported with it (see run.py). Both import treeweights from the
checkout's `src/` only.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# The calibration loop runs between cases whenever this long has passed
# since it last ran, and once more at the end of a pass, so every case
# has a run of it just before and one soon after.
CALIBRATE_EVERY_S = 0.2


def import_treeweights():
    sys.path.insert(0, SRC)
    import treeweights
    import treeweights.cli

    if not os.path.abspath(treeweights.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"treeweights imported from {treeweights.__file__}, not {SRC}")
    return treeweights


def setup(args) -> None:
    treeweights = import_treeweights()
    docs, cases = workloads.build(args.workload, args.seed)
    for doc in docs.values():
        treeweights.Multigraph.from_json_dict(doc)
    workloads.write_files(args.dir, docs, cases)


class Pass:
    """Timings and gate results of one pass over the case list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.case_ns: list[int] = []  # aligned with the case list
        self.calibration_s: list[float] = []  # the loop's runs in the pass
        self.case_calibration: list[int] = []  # the loop's last run before each case
        self.stdout_bytes = 0
        self.failed: list[tuple[str, list[str]]] = []

    @property
    def ns(self) -> int:
        return sum(self.case_ns)

    def case_calibration_s(self) -> list[float]:
        """For each case, the mean of the loop's runs just before and after it."""
        cal = self.calibration_s
        return [(cal[i] + cal[i + 1]) / 2 for i in self.case_calibration]


def run_case(cli, case, directory) -> tuple[int, str, str, int]:
    """One CLI invocation; returns exit code, stdout, stderr and its time in ns."""
    config = cli.RunConfig(
        command=case["command"],
        graph_path=os.path.join(directory, f"{case['graph']}.json"),
        partition=case["partition"],
        output_format=case["output_format"],
        seed=case["seed"],
        breakdown=case["breakdown"],
    )
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter_ns()
    rc = cli.run(config, out=out, err=err)
    elapsed = time.perf_counter_ns() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def run_pass(cli, cases, directory, tracer, traced, gate_state, number) -> Pass:
    result = Pass(traced)
    if traced:
        tracer.install()
    last = -math.inf
    try:
        for position, case in enumerate(cases):
            if time.perf_counter() - last > CALIBRATE_EVERY_S:
                result.calibration_s.append(calibrate())
                last = time.perf_counter()
            result.case_calibration.append(len(result.calibration_s) - 1)
            tracer.request = f"{number}/{position}/{case['id']}"
            rc, stdout, stderr, elapsed = run_case(cli, case, directory)
            result.case_ns.append(elapsed)
            result.stdout_bytes += len(stdout.encode("utf-8"))
            problems = gate_state.check(case, rc, stdout, stderr)
            if problems:
                result.failed.append((case["id"], problems))
    finally:
        if traced:
            tracer.uninstall()
    result.calibration_s.append(calibrate())
    return result


class GateState:
    """Applies the gate. The first output of a case is checked in full;
    a later run of the case gets the same verdict if it repeats that
    output byte for byte, and fails otherwise."""

    def __init__(self, workload, seed):
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            stored = json.load(fh)
        self.digests = stored["digests"][workload] if seed == stored["seed"] else None
        self.fingerprints = stored["fingerprints"].get(workload)
        self.seen: dict[str, tuple[int, str, list[str]]] = {}
        self.ordered_trees: dict[str, int | None] = {}

    def check(self, case, rc, stdout, stderr) -> list[str]:
        digest = gate.sha256(stdout)
        if case["id"] in self.seen:
            first_rc, first_digest, verdict = self.seen[case["id"]]
            if (first_rc, first_digest) != (rc, digest):
                return ["output differs from the first run of the case"]
            return verdict
        problems = []
        self.seen[case["id"]] = (rc, digest, problems)
        if self.digests is not None and self.digests.get(case["id"]) != digest:
            problems.append("stdout digest differs from the recorded one")
        try:
            problems += gate.structure(case, rc, stdout, stderr)
            if self.fingerprints is not None and self.fingerprints.get(case["id"]) != gate.fingerprint(case, stdout):
                problems.append("label-free fingerprint differs from the recorded one")
            if rc == 0:
                self.ordered_trees[case["id"]] = gate.ordered_trees(case, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
        return problems


def blas_info() -> dict:
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibrate(iterations: int = 100_000) -> float:
    """The time of a fixed pure-Python loop: the host's speed just now."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def timed_setup(args) -> tuple[float, float]:
    """Wall time of one fresh `setup` process, writing beside args.dir,
    and the mean time of the calibration loop just before and after it."""
    before = calibrate()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", "--workload", args.workload,
         "--seed", str(args.seed), "--dir", args.dir + "-setup"],
        capture_output=True, check=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    return elapsed, (before + calibrate()) / 2


def measure(args) -> None:
    # One CPU for this process and the set-ups it starts, so that the
    # calibration loop measures the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_treeweights()
    cli = sys.modules["treeweights.cli"]
    with open(os.path.join(args.dir, "cases.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    gate_state = GateState(args.workload, args.seed)
    tracer = Tracer()
    # The collection before each case then scans only what was made
    # after this point, not the modules and the case list.
    gc.collect()
    gc.freeze()
    calibration = [calibrate(1_000_000)]
    passes: list[Pass] = []
    setups: list[tuple[float, float]] = []
    begin = time.perf_counter()
    layer_passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(cli, cases, args.dir, tracer, traced, gate_state, len(passes))
        passes.append(p)
        if not args.trace:
            setups.append(timed_setup(args))
        if traced:
            layer_passes.append(
                {
                    "self_ns": dict(tracer.self_ns),
                    "calls": dict(tracer.calls),
                    "counts": dict(tracer.counts),
                    "layer_self_ns": tracer.layer_self_ns(),
                    "stdout_bytes": p.stdout_bytes,
                }
            )
        # Another pass starts while it is expected to end no later than
        # half a pass after --seconds, so a run measures about --seconds;
        # but a run makes at least two passes.
        elapsed = time.perf_counter() - begin
        typical = statistics.median(q.ns for q in passes) / 1e9 + (setups[-1][0] if setups else 0)
        kinds_done = len({q.traced for q in passes}) == (2 if args.trace else 1)
        if len(passes) >= 2 and kinds_done and elapsed + typical / 2 > args.seconds:
            break
    calibration.append(calibrate(1_000_000))
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    json.dump(
        {
            "passes": [
                {
                    "traced": p.traced,
                    "case_ns": p.case_ns,
                    "case_calibration_s": p.case_calibration_s(),
                    "stdout_bytes": p.stdout_bytes,
                    "failed": p.failed,
                }
                for p in passes
            ],
            "layers": layer_passes,
            "setups": setups,
            "spans": len(tracer.spans),
            "ordered_trees": gate_state.ordered_trees,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calibration_s": calibration,
            "meta": blas_info(),
        },
        sys.stdout,
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.mode == "setup":
        try:
            setup(args)
        except workloads.FenceError as exc:
            raise SystemExit(f"refused before any case ran: {exc}") from None
    else:
        measure(args)


if __name__ == "__main__":
    main()
