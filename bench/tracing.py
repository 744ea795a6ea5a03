"""In-memory spans at qaction's layer boundaries, recorded from outside the package.

A Tracer wraps every public function of the layer modules and rebinds the
wrapper under each name that refers to the original in any loaded qaction
module, so a call made through a name imported into another module (for
example ``transition_amplitude`` as looked up inside ``qaction.variational``)
is recorded too. The package's source is never touched, and uninstall()
restores every binding.

A span is ``[id, name, start, end, parent, op]``: times are
``time.perf_counter`` seconds, ``parent`` is the id of the enclosing span (or
None) and ``op`` names the benchmark operation the span belongs to.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

LAYERS = ("cli", "variational", "propagation", "stationary", "gaussian_phase",
          "spectrum")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:  # cli has no __all__: its own non-underscore functions
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        """Record one span; passing ``op`` starts a new operation."""
        prev_op = self._op
        if op is not None:
            self._op = op
        sid = len(self.spans)
        record = [sid, name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self._op]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            self._op = prev_op

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qaction.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qaction" and not mod_name.startswith("qaction."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def as_dicts(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]
