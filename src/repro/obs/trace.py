"""Hierarchical tracing spans with near-zero disabled overhead.

The tracer is the timing backbone of :mod:`repro.obs`: every layer of
the stack opens named spans (``with span("matvec.top_down"): ...``)
that nest into a tree, carry per-span counters (elements, FLOPs,
bytes) and metadata, and are exported by :mod:`repro.obs.report` into
machine-readable run artifacts.

Design constraints, in order:

* **Near-zero overhead when disabled.**  ``span()`` on the disabled
  path is one attribute check and returns a shared no-op context
  manager — no allocation, no clock read.  Hot loops (the per-leaf
  traversal MATVEC, per-message SimComm accounting) stay instrumented
  unconditionally.

* **Merge accumulation.**  Phases that run thousands of times per
  parent (per-leaf elemental applies, per-child bucketing steps) use
  ``span(name, merge=True)``: all invocations under the same parent
  fold into a single child span whose ``duration`` accumulates and
  whose ``count`` records the number of invocations.  This is the
  replacement for the old ad-hoc ``TraversalTimers`` struct.

* **Thread safety.**  The span stack is thread-local; the root-span
  registry and the enable flag live behind a lock.  Spans themselves
  are only mutated by the thread that opened them.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = ["Span", "Tracer", "TRACER", "span", "record", "set_enabled",
           "is_enabled"]


class Span:
    """One node of the trace tree.

    ``duration`` is accumulated wall time (seconds), ``count`` the
    number of enter/exit cycles folded into this span (>1 only for
    merge spans), ``counters`` monotonic per-span tallies and ``meta``
    free-form metadata (e.g. residual histories).
    """

    __slots__ = ("name", "attrs", "t_start", "duration", "count",
                 "counters", "meta", "children", "_merged")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.t_start = 0.0
        self.duration = 0.0
        self.count = 0
        self.counters: dict[str, float] = {}
        self.meta: dict = {}
        self.children: list[Span] = []
        self._merged: dict[str, Span] = {}

    def add(self, counter: str, value: float = 1) -> None:
        """Accumulate a per-span counter (numpy scalars are coerced so
        the artifact stays JSON-serialisable)."""
        if hasattr(value, "item"):
            value = value.item()
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, key: str, value) -> None:
        """Attach free-form metadata to the span."""
        self.meta[key] = value

    def event(self, name: str, **data) -> None:
        """Append a point-in-time event to the span (``meta["events"]``).

        Events are how exceptional occurrences — injected faults,
        recoveries, dt backoffs — are pinned to the span in whose scope
        they happened, without opening a child span."""
        ev = {"name": name}
        for k, v in data.items():
            ev[k] = v.item() if hasattr(v, "item") else v
        self.meta.setdefault("events", []).append(ev)

    def to_dict(self, timing: bool = True) -> dict:
        """Serialise the subtree; ``timing=False`` drops clock fields
        (the canonical form compared by the determinism tests)."""
        d: dict = {"name": self.name}
        if self.attrs:
            d["attrs"] = self.attrs
        if timing:
            d["t_start"] = self.t_start
            d["duration"] = self.duration
        d["count"] = self.count
        if self.counters:
            d["counters"] = self.counters
        if self.meta and timing:  # meta may hold timing-adjacent data
            d["meta"] = self.meta
        if self.children:
            d["children"] = [c.to_dict(timing) for c in self.children]
        return d


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, counter: str, value: float = 1) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass

    def event(self, name: str, **data) -> None:
        pass


_NULL = _NullSpan()


class _ActiveSpan:
    """Context manager driving one enter/exit cycle of a real span."""

    __slots__ = ("_tracer", "_name", "_merge", "_attrs", "_span", "_t0")

    def __init__(self, tracer: "Tracer", name: str, merge: bool, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._merge = merge
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        sp = None
        if self._merge and parent is not None:
            sp = parent._merged.get(self._name)
        if sp is None:
            sp = Span(self._name, self._attrs)
            if parent is not None:
                parent.children.append(sp)
                if self._merge:
                    parent._merged[self._name] = sp
            else:
                with tracer._lock:
                    tracer.roots.append(sp)
        now = time.perf_counter()
        if sp.count == 0:
            sp.t_start = now - tracer.epoch
        sp.count += 1
        self._t0 = now
        stack.append(sp)
        self._span = sp
        return sp

    def __exit__(self, *exc) -> bool:
        self._span.duration += time.perf_counter() - self._t0
        self._tracer._stack().pop()
        return False


class Tracer:
    """Thread-safe registry of trace trees for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.roots: list[Span] = []
        self.enabled = False
        self.epoch = time.perf_counter()

    def _stack(self) -> list[Span]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def span(self, name: str, merge: bool = False, **attrs):
        """Open a span under the current one (or a new root).

        Disabled path: returns the shared no-op span, cost of one
        attribute check.
        """
        if not self.enabled:
            return _NULL
        return _ActiveSpan(self, name, merge, attrs)

    def record(self, name: str, seconds: float, merge: bool = True,
               **counters) -> Span | None:
        """Attach a completed span of a known duration (e.g. modelled
        phase times) under the current span without running a clock."""
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = parent._merged.get(name) if (merge and parent is not None) else None
        if sp is None:
            sp = Span(name)
            if parent is not None:
                parent.children.append(sp)
                if merge:
                    parent._merged[name] = sp
            else:
                with self._lock:
                    self.roots.append(sp)
            sp.t_start = time.perf_counter() - self.epoch
        sp.count += 1
        sp.duration += seconds
        for k, v in counters.items():
            sp.add(k, v)
        return sp

    def current(self) -> Span | None:
        """The innermost open span of this thread, if any."""
        st = self._stack()
        return st[-1] if st else None

    def reset(self) -> None:
        """Drop all recorded trees (open spans keep working but detach)."""
        with self._lock:
            self.roots = []
            self.epoch = time.perf_counter()
        self._tls.stack = []


TRACER = Tracer()
TRACER.enabled = os.environ.get("REPRO_TRACE", "") not in ("", "0")


def span(name: str, merge: bool = False, **attrs):
    """Module-level shortcut for :meth:`Tracer.span` on the global tracer."""
    if not TRACER.enabled:
        return _NULL
    return _ActiveSpan(TRACER, name, merge, attrs)


def record(name: str, seconds: float, merge: bool = True, **counters) -> Span | None:
    """Module-level shortcut for :meth:`Tracer.record`."""
    return TRACER.record(name, seconds, merge=merge, **counters)


def set_enabled(flag: bool) -> None:
    TRACER.enabled = bool(flag)


def is_enabled() -> bool:
    return TRACER.enabled
