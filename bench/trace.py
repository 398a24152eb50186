"""Span recording from outside the program, for the benchmark's traced runs.

:class:`Recorder` wraps a fixed list of public entry points of ``repro``.
Each wrapper is installed where the callee is looked up: on the class for
methods (so ``self.method()`` calls from inside the program are seen too),
and on the importing module's global for functions.  Wrappers are built
once; :meth:`Recorder.install` and :meth:`Recorder.uninstall` only swap
attributes, so the benchmark can trace every other timed call and compare
traced against untraced calls of the same run to measure the overhead.

A span is ``(name, start, end, parent, req)``: ``parent`` is the index of
the enclosing span (from a call stack, -1 at top level) and ``req`` the
index of the timed call (``"setup"`` for set-up).  The layer is the first
component of the name.  Spans stay in memory until :meth:`write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

__all__ = ["Recorder", "TARGETS"]

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class; a bare name names a module-level function, wrapped in
#: the module that calls it.
TARGETS = (
    ("repro.gridfile.gridfile", "GridFile.batch_query_buckets", "gridfile.resolve"),
    ("repro.gridfile.gridfile", "GridFile.query_buckets", "gridfile.query"),
    ("repro.gridfile.gridfile", "GridFile.insert_point", "gridfile.write"),
    ("repro.gridfile.gridfile", "GridFile.delete_record", "gridfile.write"),
    ("repro.datasets.loader", "bulk_load", "gridfile.build"),
    ("repro.sql.plan", "gridfile_knn", "gridfile.knn"),
    ("repro.sql.plan", "rtree_knn", "rtree.knn"),
    ("repro.rtree.rtree", "RTree.bulk_load", "rtree.build"),
    ("repro.rtree.rtree", "RTree.query_leaves", "rtree.query"),
    ("repro.core.placement", "RoundRobinLeastLoaded.place", "core.placement"),
    ("repro.core.placement", "RoundRobinLeastLoaded.maintain", "core.placement"),
    ("repro.sim.diskmodel", "response_times", "sim.response"),
    ("repro.parallel.engine.runners", "ParallelGridFile.run_queries", "parallel.run"),
    ("repro.parallel.online", "OnlineCluster.run", "parallel.online"),
    ("repro.parallel.coordinator", "Coordinator.plan", "parallel.plan"),
    ("repro.parallel.des", "Simulator.run", "parallel.des"),
    ("repro.storage.gridstore", "DurableGridFile.create", "storage.create"),
    ("repro.storage.gridstore", "DurableGridFile.commit_op", "storage.commit"),
    ("repro.storage.gridstore", "DurableGridFile.checkpoint", "storage.checkpoint"),
    ("repro.storage.wal", "WriteAheadLog.sync", "storage.fsync"),
    ("repro.sql.engine", "plan_select", "sql.plan"),
    ("repro.sql.engine", "SqlEngine.execute", "sql.execute"),
)

_MISSING = object()


class Recorder:
    """In-memory span recorder over :data:`TARGETS` (see module docstring)."""

    def __init__(self, targets=TARGETS):
        self.spans: list = []
        self._stack: list = []
        self.req = None
        self.installed = False
        self._patches = []  # (owner, attr, original own attribute, wrapper)
        for module_name, path, name in targets:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapper = self._wrap(raw, name)
            self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING), wrapper))

    def _open(self) -> tuple:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, perf_counter()

    def _close(self, name: str, idx: int, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.req)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)

        return wrapper

    @contextmanager
    def _bench_span(self, name: str):
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    def install(self, req) -> None:
        """Start recording spans of timed call ``req``."""
        self.req = req
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was."""
        for owner, attr, original, _ in self._patches:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.installed = False

    def span(self, name: str):
        """Context manager recording one span of the benchmark's own code."""
        return self._bench_span(name) if self.installed else nullcontext()

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, req in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for name, start, end, parent, req in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": name.split(".")[0],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "req": req,
                        }
                    )
                    + "\n"
                )
