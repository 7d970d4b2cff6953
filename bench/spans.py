"""Span recorder that times the planner's layers from outside the package.

Each layer function is replaced, under every name by which a ``windubins``
module binds it, with a wrapper that records one span: layer, start, end,
parent span and, for functions that return a collection, its size.  Rebinding
every alias means a change of import style inside the package loses no span.
Spans stay in memory (flat arrays, 40 bytes each) until the caller writes
them out.
"""

from __future__ import annotations

import sys
import time
from array import array

#: (module, function, span name) for every measured layer function
LAYERS = (
    ("geometry", "normalize", "geometry.normalize"),
    ("geometry", "integrate", "geometry.integrate"),
    ("geometry", "state_at", "geometry.state_at"),
    ("rootfind", "solve_quadcos", "rootfind.quadcos"),
    ("rootfind", "solve_sinusoid", "rootfind.sinusoid"),
    ("rootfind", "solve_envelope", "rootfind.envelope"),
    ("families", "solve_sc", "families.sc"),
    ("families", "solve_cc", "families.cc"),
    ("families", "solve_ccc", "families.ccc"),
    ("families", "solve_csc", "families.csc"),
    ("families", "solve_all", "families.all"),
    ("planner", "plan", "planner.plan"),
    ("planner", "sample", "planner.sample"),
    ("cli", "run", "cli"),
)

#: span names whose return value is sized: roots, candidates, sampled rows
SIZED = {
    "rootfind.quadcos", "rootfind.sinusoid", "rootfind.envelope",
    "families.sc", "families.cc", "families.ccc", "families.csc", "families.all",
    "planner.sample",
}

#: span names whose single-call durations are kept, for call percentiles
KEEP_DURATIONS = {"rootfind.envelope"}

#: the harness's own span around each operation; it roots every tree
OP = "op"


class SpanRecorder:
    def __init__(self) -> None:
        self.names = [OP] + [name for _, _, name in LAYERS]
        self._id = {name: i for i, name in enumerate(self.names)}
        self._restore: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._open: list[int] = []

    def _begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self.size.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def traced_op(self, op):
        """``op`` wrapped in a root span, so spans of one operation share it."""
        nid = self._id[OP]

        def run(x):
            idx = self._begin(nid)
            try:
                return op(x)
            finally:
                self._finish(idx)

        return run

    def _wrap(self, fn, name: str):
        nid = self._id[name]
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            idx = self._begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if sized:
                self.size[idx] = len(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every layer function at each binding in the runtime modules.

        The test-only ``windubins.oracle`` is not measured and is skipped."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "windubins" or key.startswith("windubins."))
            and key != "windubins.oracle"
        ]
        for mod_name, attr, name in LAYERS:
            original = getattr(sys.modules["windubins." + mod_name], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed duration, summed self time (duration
        minus the time its child spans cover) and summed size, plus the list
        of single-call durations for the names in KEEP_DURATIONS; all times
        in ns."""
        n = len(self.name)
        child = [0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "total": 0, "self": 0, "size": 0, "durations": [],
                   "keep": name in KEEP_DURATIONS}
            for name in self.names
        }
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["total"] += dur[i]
            agg["self"] += dur[i] - child[i]
            agg["size"] += self.size[i]
            if agg["keep"]:
                agg["durations"].append(dur[i])
        return out

    def write(self, path: str) -> None:
        """Spans as CSV: index, name, parent index, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_ns,end_ns,size\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i]},{self.end[i]},{self.size[i]}\n"
                )
