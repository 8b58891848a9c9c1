"""Span recording around the package's public callables, from outside.

``Tracer.install`` replaces each function in ``metrics.TRACED`` by a
wrapper: on the class for methods, and on every ``prefixpq`` module that
holds the same function object for module-level functions, so names that
``cli``, ``paths`` and ``mst`` imported by name are wrapped too.  Spans are
kept in flat arrays as (name, start_ns, end_ns, parent) and reduced once the
traced section ends.

A wrapped call made while a span of the same layer is open records no span
of its own: it is an internal step of that span and counts toward its self
time.  ``PTrie.delete_min`` calling ``PTrie.remove`` is the case that
matters; a direct unlink in ``delete_min`` shows as a drop in
``ptrie.delete_min.*`` with no metric renamed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from typing import Any, Callable

from metrics import TRACED

# Methods after which ``last_op_stats`` describes exactly one queue
# operation; delete_min reads the stats of the remove it delegates to.
_STEP_METHODS = ("ptrie.insert", "ptrie.delete_min", "ptrie.remove", "ptrie.search")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._open = [-1]
        self._open_layer = [""]
        self._patched: list[tuple[Any, str, Any]] = []
        # primitive step counts of queue operations, while record_steps is set
        self.record_steps = False
        self.steps: list[int] = []

    # ----------------------------------------------------------- wrapping

    def _wrap(self, prefix: str, fn: Callable) -> Callable:
        ix = self._index.get(prefix)
        if ix is None:
            ix = self._index[prefix] = len(self.names)
            self.names.append(prefix)
        layer = prefix.split(".", 1)[0]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, layers = self._open, self._open_layer
        perf = time.perf_counter_ns
        tracer = self
        steps = prefix in _STEP_METHODS

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            layers.append(layer)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
                layers.pop()
            if steps and tracer.record_steps and result is not None:
                tracer.steps.append(args[0].last_op_stats.primitive_steps)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced callable of the modules imported so far."""
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "prefixpq" or n.startswith("prefixpq."))]
        for modname, path, prefix in TRACED:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(prefix, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(prefix, orig)
            for m in package:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, orig, wrapper)

    def _patch(self, owner: Any, attr: str, orig: Any, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ---------------------------------------------------------- reduction

    def summary(self) -> dict[str, tuple[int, int, float]]:
        """Per wrapped function: (calls, self ns, median inclusive ns)."""
        n = len(self._start)
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0] * n
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[int, list[int]] = {}
        self_ns: dict[int, int] = {}
        for i, ix in enumerate(self._name):
            by_name.setdefault(ix, []).append(dur[i])
            self_ns[ix] = self_ns.get(ix, 0) + dur[i] - child[i]
        return {
            self.names[ix]: (len(d), self_ns[ix], float(statistics.median(d)))
            for ix, d in by_name.items()
        }

    def span_metrics(self, traced_ns: int) -> dict[str, float]:
        """Calls, self time and median time per wrapped function, plus the
        share of the traced wall time spent inside ``ptrie`` itself."""
        out: dict[str, float] = {}
        ptrie_self = 0
        for prefix, (calls, self_ns, p50) in self.summary().items():
            out[f"{prefix}.self_s"] = self_ns / 1e9
            if not prefix.startswith("analysis."):
                out[f"{prefix}.calls"] = calls
                out[f"{prefix}.ns_p50"] = p50
            if prefix.startswith("ptrie."):
                ptrie_self += self_ns
        if traced_ns > 0:
            out["ptrie.self_share"] = ptrie_self / traced_ns
        if self.steps:
            out["ptrie.steps.mean"] = sum(self.steps) / len(self.steps)
            out["ptrie.steps.max"] = max(self.steps)
        return out
