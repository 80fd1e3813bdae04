"""Spans around the calls into each treeweights module, from outside it.

The tracer wraps public functions of the package's modules and
rebinds every module attribute that refers to the original function, so
calls from inside the package (for example `contact_indices` as bound in
`weights`, `psd` and `cli`) are traced too. Methods are patched on the
class. Helpers a wrapped function calls without a wrapper count toward
its self time.

A span holds an id, its parent's id, the request id, the traced name and
start and end in `perf_counter_ns`. Calls made once per vertex pair or
per sampled point are aggregated: they add to their name's count and
time and to the parent's child time, but record no span. Self time is
a call's duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (module, attribute, traced name, records a span)
TARGETS = (
    ("graph", "Multigraph.from_json", "graph.from_json", True),
    ("graph", "Multigraph.spanning_trees", "graph.spanning_trees", True),
    ("sectors", "sector_census", "sectors.census", True),
    ("weights", "weight_distribution", "weights.distribution", True),
    ("weights", "edge_monomials", "weights.monomials", True),
    ("partitions", "admissible_orderings", "partitions.orderings", True),
    ("partitions", "build_trace", "partitions.build_trace", True),
    ("partitions", "contact_indices", "partitions.contact_indices", False),
    ("psd", "verify_constructive", "psd.verify_constructive", True),
    ("psd", "contact_matrix_direct", "psd.matrix_direct", False),
    ("psd", "contact_matrix_recursion", "psd.matrix_recursion", False),
    ("psd", "min_eigenvalue", "psd.eigvalsh", False),
    ("cli", "run", "cli.run", True),
)

# work counters read from return values
COUNTERS = {
    "graph.spanning_trees": ("graph.trees", len),
    "sectors.census": ("sectors.sectors", lambda census: census.total),
    "weights.distribution": (
        "weights.ordered_trees",
        lambda report: sum(len(row.orderings) for row in report.rows),
    ),
}

LAYERS = ("graph", "sectors", "weights", "partitions", "psd", "cli")


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.request = None
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def reset_totals(self) -> None:
        self.self_ns = {name: 0 for _, _, name, _ in TARGETS}
        self.calls = {name: 0 for _, _, name, _ in TARGETS}
        self.counts = {counter: 0 for counter, _ in COUNTERS.values()}

    def _wrap(self, fn, name: str, span: bool):
        stack = self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = [0, -1]
            parent = stack[-1][1] if stack else -1
            if span:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.self_ns[name] += duration - frame[0]
                self.calls[name] += 1
                if span:
                    self.spans.append((frame[1], parent, self.request, name, start, end))
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target on every treeweights namespace that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.reset_totals()
        modules = [
            mod for modname, mod in list(sys.modules.items())
            if modname == "treeweights" or modname.startswith("treeweights.")
        ]
        for modname, attr, name, span in TARGETS:
            home = sys.modules[f"treeweights.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, span))
                else:
                    wrapped = self._wrap(raw, name, span)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, span)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns
        return out
