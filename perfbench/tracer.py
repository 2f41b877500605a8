"""In-memory span tracer that wraps bvp3's public names from outside.

Each target is a (module, attribute) pair naming a function where the
calling layer looks it up at call time, so patching the attribute puts a
span around every call that layer makes.  The package source is never
edited.  A target that no longer exists (a later refactor removed or renamed
it) is skipped and recorded in ``missing``; metrics that depend on it are
then reported as null with a note instead of failing the run.

Spans are kept in memory as records of request id, span id, parent span id,
name, start, end and an optional count, and written out once at the end.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time

import numpy as np

# (module, attribute, span name, count taken from the call's result)
TARGETS = (
    ("bvp3.cli", "main", "cli", None),
    ("bvp3.cli", "solve", "picard.solve", "sweeps"),
    ("bvp3.picard", "solve", "picard.solve", "sweeps"),
    ("bvp3.picard", "residual", "picard.residual", None),
    ("bvp3.picard", "kernel_row_matrix", "quadrature.assemble", "nbytes"),
    ("bvp3.picard", "kernel_catalog", "greens.catalog", None),
    ("bvp3.picard", "build_general_kernel", "greens.build", None),
    ("bvp3.greens", "build_general_kernel", "greens.build", None),
    ("bvp3.cli", "verdict", "conditions.verdict", None),
    ("bvp3.conditions", "estimate_sup_f", "conditions.sup", None),
    ("bvp3.conditions", "estimate_lipschitz", "conditions.lipschitz", None),
)

# cli resolves corpus names here; the wrapper hands back the entry with its
# f wrapped, so every evaluation of the generated problem's f is a span
F_HOOK = ("bvp3.cli", "get_problem")


def _count(kind, result):
    if kind == "sweeps":
        return result[1].iterations
    if kind == "nbytes":
        return int(result.nbytes)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.request_id = None
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, count_kind=None, points=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [self.request_id, len(spans), stack[-1] if stack else None,
                   name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[1])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                rec[4] = t0
                stack.pop()
            if points:
                rec[6] = int(np.size(args[0]))
            elif count_kind is not None:
                rec[6] = _count(count_kind, result)
            return result

        return wrapper

    def wrap_f(self, f):
        """Wrap a right-hand side f(t, x, y, z); the count is its point count."""
        return self._wrap(f, "f", points=True)

    def _patch(self, modname, attr, replacement_for):
        module = importlib.import_module(modname)
        original = getattr(module, attr, None)
        if original is None:
            if "%s.%s" % (modname, attr) not in self.missing:
                self.missing.append("%s.%s" % (modname, attr))
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, replacement_for(original))

    def install(self):
        for modname, attr, name, kind in TARGETS:
            self._patch(modname, attr,
                        lambda fn, name=name, kind=kind: self._wrap(fn, name, kind))

        def entry_with_traced_f(get_problem):
            def lookup(name):
                entry = get_problem(name)
                problem = dataclasses.replace(entry.problem,
                                              f=self.wrap_f(entry.problem.f))
                return dataclasses.replace(entry, problem=problem)
            return lookup

        self._patch(*F_HOOK, entry_with_traced_f)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @staticmethod
    def _targets(span_name):
        if span_name == "f":
            return ["%s.%s" % F_HOOK]
        return ["%s.%s" % (m, a) for m, a, n, _ in TARGETS if n == span_name]

    def missing_for(self, span_name):
        """Missing targets that would have produced spans of this name."""
        return [t for t in self._targets(span_name) if t in self.missing]

    def untraced(self, span_name):
        """True when every target producing this span name is missing."""
        return len(self.missing_for(span_name)) == len(self._targets(span_name))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rid, sid, parent, name, t0, t1, count in self.spans:
                fh.write(json.dumps({"request": rid, "span": sid,
                                     "parent": parent, "name": name,
                                     "start": t0, "end": t1,
                                     "count": count}) + "\n")


def request_profiles(spans):
    """Per request: {span name: (total duration, total self time, calls,
    summed count)} plus the summed duration of top-level spans.

    Self time is a span's duration minus that of its direct children; calls
    are sequential, so children never overlap.
    """
    child_time = {}
    for rid, sid, parent, name, t0, t1, count in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {}
    for rid, sid, parent, name, t0, t1, count in spans:
        prof = out.setdefault(rid, {"_top": 0.0})
        dur = t1 - t0
        if parent is None:
            prof["_top"] += dur
        tot, own, calls, cnt = prof.get(name, (0.0, 0.0, 0, 0))
        prof[name] = (tot + dur, own + dur - child_time.get(sid, 0.0),
                      calls + 1, cnt + (count or 0))
    return out
