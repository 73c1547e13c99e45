"""Per-layer tracing from outside the program.

The tracer replaces public names at their call sites with wrappers that
time each call. Two kinds of name are wrapped:

- every public function of a ``chernlab`` module, in every ``chernlab``
  module namespace that holds it (its defining module and each module
  that imported it), so a span is named after the defining module:
  ``finite_volume.restrict_periodic``, ``bloch.band_structure``;
- the dense and sparse solver entry points of numpy and scipy. A solver
  span is named ``bloch.eigensolve`` when the innermost enclosing
  ``chernlab`` span is in ``bloch`` and ``finite_volume.eigensolve``
  otherwise.

Spans nest on a per-thread stack. A span's self time is its duration
minus the durations of its direct children. Only aggregates are kept:
calls, self seconds and raised exceptions per span name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# (module, attribute) pairs of solver entry points; missing ones are skipped
SOLVERS = (
    ("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("numpy.linalg", "solve"),
    ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"), ("scipy.linalg", "solve"),
    ("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu_solve"),
    ("scipy.sparse.linalg", "splu"), ("scipy.sparse.linalg", "spsolve"),
    ("scipy.sparse.linalg", "factorized"), ("scipy.sparse.linalg", "eigsh"),
)

LAYERS = ("lattice", "model", "bloch", "disorder", "finite_volume",
          "topology", "bounds", "probes", "cli")


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Aggregating span recorder; records only while ``enabled`` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.stats: dict[str, Stat] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, fn, args, kwargs):
        stack = self._stack()
        frame = [name, 0.0]  # name, time covered by child spans
        stack.append(frame)
        failed = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.self_s += dur - frame[1]
            stat.errors += failed
            if stack:
                stack[-1][1] += dur

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._run(name, fn, args, kwargs)
        return traced

    def solver(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            layer = stack[-1][0].split(".", 1)[0] if stack else ""
            name = "bloch.eigensolve" if layer == "bloch" else "finite_volume.eigensolve"
            return self._run(name, fn, args, kwargs)
        return traced

    def install_solvers(self) -> None:
        """Wrap solver entry points; call before importing chernlab so
        that ``from scipy.linalg import eigh`` picks up the wrapper."""
        for modname, attr in SOLVERS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is not None:
                setattr(mod, attr, self.solver(fn))

    def install_chernlab(self) -> None:
        """Wrap every public chernlab function in every layer namespace."""
        for layer in LAYERS:
            mod = importlib.import_module(f"chernlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("chernlab."):
                    continue
                name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                setattr(mod, attr, self.span(name, obj))

    def total(self, field: str, names=(), prefix: str | None = None) -> float:
        """Sum of one Stat field over the given span names, or over every
        span whose name starts with ``prefix``."""
        return sum(getattr(stat, field) for name, stat in self.stats.items()
                   if name in names or (prefix is not None and name.startswith(prefix)))
