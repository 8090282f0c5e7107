"""Span tracing of the coxstrata package from outside the package.

`Tracer.install` wraps every public function and public method defined in
each coxstrata module, found at run time, and rebinds each wrapped name in
every coxstrata module that imported it by name.  A call to a wrapped
function records one span: name, start, end, parent span and run id.
Spans stay in memory; `write` stores them at the end, and `summary` turns
them into per-module and per-function self time and call counts.

Time is attributed to the module that defines the function.  Work done in
private helpers, in constructors and in library code (numpy, fractions,
json) counts as self time of the nearest enclosing public function.  A
generator function is timed only while it builds the generator; its body
runs under whichever span consumes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict


PACKAGE = "coxstrata"


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name table, "module.qualname"
        self.runs: list[str] = []  # run id table
        self.run = -1
        # One tuple per span: (name index, start, end, parent span or -1, run).
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self._stack: list[int] = []
        # Name -> function of a call's result giving counts to sum per run;
        # set before install().
        self.watch: dict[str, callable] = {}
        self.tallies: dict[tuple[int, str], list[int]] = {}

    def start_run(self, run_id: str) -> None:
        self.runs.append(run_id)
        self.run = len(self.runs) - 1

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tally = self.watch.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (idx, start, end, parent, self.run)
            if tally is not None:
                values = tally(result)
                sums = self.tallies.setdefault((self.run, name), [0] * len(values))
                for k, v in enumerate(values):
                    sums[k] += v
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public callables and rebind their aliases."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        replaced: dict[int, tuple[object, object]] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        # Rebind every imported-by-name alias, including the package namespace.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self._wrap(name, member.__func__)))
            elif isinstance(member, property) and member.fget is not None:
                setattr(
                    cls,
                    attr,
                    property(self._wrap(name, member.fget), member.fset, member.fdel, member.__doc__),
                )
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]

    def summary(self, run_id: str) -> dict:
        """Per-name and per-module self seconds and calls for one run id."""
        run = self.runs.index(run_id)
        own = self.self_times()
        per_name: dict[str, list] = defaultdict(lambda: [0.0, 0])
        parents_of: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i, (idx, _, _, parent, r) in enumerate(self.spans):
            if r != run:
                continue
            name = self.names[idx]
            per_name[name][0] += own[i]
            per_name[name][1] += 1
            if parent >= 0:
                parents_of[name][self.names[self.spans[parent][0]]] += 1
        per_module: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, (secs, calls) in per_name.items():
            mod = per_module[name.split(".", 1)[0]]
            mod[0] += secs
            mod[1] += calls
        return {
            "functions": {k: {"self_s": v[0], "calls": v[1]} for k, v in per_name.items()},
            "modules": {k: {"self_s": v[0], "calls": v[1]} for k, v in per_module.items()},
            "parents": {k: dict(v) for k, v in parents_of.items()},
            "tallies": {
                name: counts for (r, name), counts in self.tallies.items() if r == run
            },
        }

    def write(self, path) -> None:
        """Store every span as one JSON document of parallel columns."""
        cols = list(zip(*self.spans)) if self.spans else [[], [], [], [], []]
        doc = {
            "names": self.names,
            "runs": self.runs,
            "name": cols[0],
            "start": cols[1],
            "end": cols[2],
            "parent": cols[3],
            "run": cols[4],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
