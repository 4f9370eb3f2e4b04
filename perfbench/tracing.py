"""Spans around calls into choqlab's public functions, recorded from outside.

A `Tracer` replaces every public function that a choqlab module looks up
by name (its own functions and the ones it imported from sibling modules)
with a wrapper that records a span, then puts the originals back.  The
package's source is never touched; the wrappers live only in module
namespaces of the running process while `installed()` is active.

A span is `[name, start, end, parent, op, value]`: `name` is
`<layer>.<function>` with the layer taken from the module that defines the
function, `parent` the index of the enclosing span (or -1), `op` the id of
the benchmark operation it belongs to, and `value` an optional count that a
hook extracts from the call (iterations of a solve, bytes a writer put on
disk).  Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "exponents", "kernels", "operators", "solver",
          "asymptotics", "serialize", "verify")

# `reference` is only measured through the import cost it adds to `cli`, so
# its calls are left unwrapped and their time lands in the calling layer.
_UNWRAPPED_MODULES = ("choqlab.reference",)

# methods looked up on instances rather than through a module namespace
_METHODS = (("choqlab.operators", "OperatorMatrix", "origin_column"),
            ("choqlab.operators", "OperatorMatrix", "tail_column"))


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# name -> function(args, result) giving the span's value; the sidecar that
# write_profile writes goes through write_json and is counted there
_VALUE_HOOKS = {
    "solver.solve_minimal": lambda args, out: out.iterations,
    "serialize.write_profile": lambda args, out: _file_size(args[0]),
    "serialize.write_json": lambda args, out: _file_size(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._saved: list = []

    # -- recording

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, None])

    def _wrap(self, fn, name: str):
        hook = _VALUE_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            record = [name, time.perf_counter(), None,
                      tracer._stack[-1] if tracer._stack else -1,
                      tracer.op, None]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                record[2] = time.perf_counter()
            if hook is not None:
                record[5] = hook(args, out)
            return out

        return traced

    # -- installing the wrappers

    @contextlib.contextmanager
    def installed(self, only=None):
        """Wrap every public choqlab function at each name it is looked up by.

        `only`, a set of span names, restricts the wrapping to those.
        """
        wrappers: dict = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "choqlab"
                                      or mod_name.startswith("choqlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if not home.startswith("choqlab.") or home in _UNWRAPPED_MODULES:
                    continue
                name = f"{home.split('.')[1]}.{value.__name__}"
                if only is not None and name not in only:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, name)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        for mod_name, cls_name, meth in _METHODS:
            name = f"{mod_name.split('.')[1]}.{meth}"
            if only is not None and name not in only:
                continue
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- output

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]


def layer_self_seconds(spans: list) -> dict:
    """Total self time per layer; spans outside LAYERS are ignored."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        if layer in totals:
            totals[layer] += own
    return totals
