"""Span tracing of gfmatroids from outside the package.

`Tracer.install()` wraps every public module-level function of the traced
modules and rebinds the wrapper wherever the package binds the original:
in the defining module and in every module that imported it by name (for
example `pipeline.has_minor` and `cli.girth`).  `uninstall()` puts the
originals back, so untraced rounds run the unmodified program.

Each wrapped call is a span with a name, start, end, parent span and task
id.  Self time is the span's duration minus the time its child spans
cover; it is accumulated on the fly, so the aggregate stays exact even
when the stored span list is capped.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

TRACED_MODULES = ("gf", "gfmatrix", "matroid", "setsystem", "generators", "pipeline", "cli")

# Leaf functions called hundreds of thousands of times per round inside the
# pair scans: counting them is what the benchmark needs, and timing them
# would add more overhead than the work they do.
COUNT_ONLY = {"setsystem.sym_diff_size", "setsystem.hamming_distance"}

# Spans kept for the spans file; aggregates are exact regardless.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.task_id = None
        self.task_self = 0.0  # sum of self times of the current task's spans
        self._stack: list[list] = []
        self._next_id = 0
        self._rebound: list[tuple[object, str, object]] = []

    # -- per-task bookkeeping ------------------------------------------------

    def begin_task(self, task_id: str) -> None:
        self.task_id = task_id
        self.task_self = 0.0

    def _stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "errors": 0, "hits": 0}
        return st

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn, hit):
        stack = self._stack
        st = self._stat(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                st["calls"] += 1
                st["self_s"] += own
                st["incl_s"] += dur
                self.task_self += own
                if not ok:
                    st["errors"] += 1
                elif hit is not None and hit(result):
                    st["hits"] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((name, frame[0], end, sid, parent, self.task_id))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        # no span: the caller's self time includes this call
        st = self._stat(name)

        def wrapper(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self, hits: dict) -> None:
        """Wrap the public functions; `hits` maps a span name to a predicate
        on its return value whose true count is reported as `<name>.hits`."""
        package = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "gfmatroids" or name.startswith("gfmatroids.")
        }
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = package["gfmatroids." + short]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[id(fn)] = self._counted(name, fn)
                else:
                    wrappers[id(fn)] = self._timed(name, fn, hits.get(name))
        for mod in package.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and inspect.isfunction(val):
                    self._rebound.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()
        self._stack.clear()

    def snapshot(self) -> dict:
        """Copy of the aggregates, to diff one round against the next."""
        return {k: dict(v) for k, v in self.stats.items()}


def round_delta(before: dict, after: dict) -> dict:
    out = {}
    for name, st in after.items():
        prev = before.get(name, {})

        out[name] = {k: st[k] - prev.get(k, 0) for k in st}
    return out
