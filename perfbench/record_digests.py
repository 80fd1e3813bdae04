"""Record the gate's reference digests into perfbench/digests.json.

    python3 perfbench/record_digests.py

Runs every case of every workload once at the default seed and stores
the sha256 of each stdout, plus the label-free fingerprint for the
workloads whose seed only relabels fixed graphs. Run it only on a
commit whose output is known to be right: the stored digests are the
reference every later run is held to.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import gate
import workloads
import worker

RELABELING = ("dense-weights", "census")


def main() -> None:
    worker.import_treeweights()
    cli = sys.modules["treeweights.cli"]
    seed = workloads.DEFAULT_SEED
    record = {"seed": seed, "digests": {}, "fingerprints": {}}
    out = os.path.join(worker.ROOT, ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as directory:
        for name in workloads.WORKLOADS:
            docs, cases = workloads.build(name, seed)
            workloads.write_files(directory, docs, cases)
            digests, prints = {}, {}
            for case in cases:
                if case["id"] in digests:
                    continue
                rc, stdout, stderr, _ = worker.run_case(cli, case, directory)
                problems = gate.structure(case, rc, stdout, stderr)
                if problems:
                    raise SystemExit(f"{name}/{case['id']}: {problems}")
                digests[case["id"]] = gate.sha256(stdout)
                prints[case["id"]] = gate.fingerprint(case, stdout)
            record["digests"][name] = digests
            if name in RELABELING:
                record["fingerprints"][name] = prints
            print(f"{name}: {len(cases)} cases recorded", file=sys.stderr)
    path = os.path.join(worker.HERE, "digests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
