"""Spans around the public functions of the squaretriads modules.

A Tracer wraps functions from outside the program: the program itself is
not changed.  Each wrapped call, while the tracer is active, records one
span (name, start, end, parent span, op id) in flat in-memory arrays;
aggregate() then derives per-name call counts, self time and the longest
single call.  Self time is a span's wall time minus the time covered by
its wrapped children.

A module that did `from .multipoly import poly_sqrt` holds its own
reference to the function, so patching only `multipoly.poly_sqrt` would
miss its calls.  install() therefore replaces the function in every
namespace under the traced package that holds it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "squaretriads"
# The layers of the package, in dependency order.  `cli` (argument parsing)
# and `errors` (types only) are not layers.
LAYERS = ("exactnum", "multipoly", "triads", "quartic", "families", "pipeline", "ecurve", "search")

# RatFunc operators (+ - * / **) share one span name.
RATFUNC_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)


def _gcd_kind(args, result):
    a, b = args
    names = set(a.vars) | set(b.vars)
    if len(names) <= 1:
        return "univar"
    if len(names) == 2 and a.is_homogeneous() and b.is_homogeneous():
        return "bivar_hom"
    return "general"


# Sub-labels computed from a call's arguments and result; the counts per
# label give the ratios and splits the benchmark reports.
TAGS = {
    "exactnum.is_perfect_square": lambda args, result: "miss" if result is None else "hit",
    "multipoly.poly_sqrt": lambda args, result: "none" if result is None else "root",
    "multipoly.poly_gcd": _gcd_kind,
}


class Tracer:
    """Span recorder; inactive (pass-through) until `active` is set."""

    def __init__(self):
        self.active = False
        self.op = 0
        self.names: list[tuple[str, str]] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # Spans recorded in a forked child would be lost with the child, and
        # recording them would only slow it down.
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self):
        self.active = False

    def name_id(self, name: str, tag: str = "") -> int:
        key = (name, tag)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def span_count(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str, tag=None):
        """fn wrapped so that each call while active records a span named `name`."""
        nid = self.name_id(name)
        tag_ids: dict[str, int] = {}
        start, end, parent, names, op_id, stack = (
            self.start, self.end, self.parent, self.name, self.op_id, self._stack
        )
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if tag is not None:
                label = tag(args, result)
                tid = tag_ids.get(label)
                if tid is None:
                    tid = tag_ids[label] = tracer.name_id(name, label)
                names[idx] = tid
            return result

        return wrapper

    def install(self):
        """Wrap the public functions of every layer and the RatFunc operators.

        Every module of the package that holds a reference to a wrapped
        function gets the wrapper in its place.
        """
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = "%s.%s" % (layer, attr)
                    replacements[id(fn)] = self.wrap(fn, name, TAGS.get(name))
        prefix = PACKAGE + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        ratfunc = sys.modules[prefix + "multipoly"].RatFunc
        wrapped_ops: dict[int, object] = {}
        for attr in RATFUNC_OPS:
            fn = ratfunc.__dict__[attr]
            if id(fn) not in wrapped_ops:
                wrapped_ops[id(fn)] = self.wrap(fn, "multipoly.RatFunc.arith")
            self._restore.append((ratfunc, attr, fn))
            setattr(ratfunc, attr, wrapped_ops[id(fn)])

    def uninstall(self):
        """Put every original function back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """{(name, tag): {calls, self_s, total_s, max_s}} over all recorded spans."""
        n = len(self.start)
        k = len(self.names)
        if n == 0:
            return {key: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0} for key in self.names}
        if self._stack:
            raise RuntimeError("aggregate() called while spans are still open")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - covered
        calls = np.bincount(names, minlength=k)
        self_sum = np.bincount(names, weights=self_t, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        longest = np.zeros(k)
        np.maximum.at(longest, names, dur)
        return {
            key: {
                "calls": int(calls[i]),
                "self_s": float(self_sum[i]),
                "total_s": float(total[i]),
                "max_s": float(longest[i]),
            }
            for i, key in enumerate(self.names)
        }


def totals(agg: dict[tuple[str, str], dict[str, float]], name: str, tag: str | None = None) -> dict[str, float]:
    """Sum of the stats for `name`, over all its tags or for one tag."""
    out = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0}
    for (n, t), stats in agg.items():
        if n != name or (tag is not None and t != tag):
            continue
        out["calls"] += stats["calls"]
        out["self_s"] += stats["self_s"]
        out["total_s"] += stats["total_s"]
        out["max_s"] = max(out["max_s"], stats["max_s"])
    return out
