"""The benchmark's tracer finds every traced name and puts each one back."""

import importlib.util
import sys
from pathlib import Path

import treeweights.cli  # noqa: F401 (the tracer wraps the loaded modules)
from treeweights.graph import Multigraph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def bindings():
    spaces = {n: vars(m) for n, m in sys.modules.items() if n.startswith("treeweights")}
    spaces["Multigraph"] = vars(Multigraph)
    return {(n, key): value for n, ns in spaces.items() for key, value in ns.items()}


def test_tracer_wraps_every_target_and_unwraps_it():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    homes = {
        tuple(attr.split(".")) if "." in attr else (f"treeweights.{module}", attr)
        for module, attr, _, _ in tracing.TARGETS
    }
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rebound = {key for key, value in bindings().items() if value is not before[key]}
        assert homes <= rebound
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
