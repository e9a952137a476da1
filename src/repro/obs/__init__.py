"""repro.obs — unified tracing, counters and machine-readable artifacts.

The observability subsystem every layer of the stack reports into:

* :mod:`repro.obs.trace` — hierarchical spans with per-span counters
  and merge accumulation for hot loops;
* :mod:`repro.obs.counters` — named global counters/gauges (the
  per-rank communication tallies of :class:`repro.parallel.SimComm`
  publish here);
* :mod:`repro.obs.report` — JSON run artifacts (span tree + flat
  metrics dump), text reports and Chrome-trace timelines;
* :mod:`repro.obs.regress` — per-span deltas between two artifacts;
* :mod:`repro.obs.events` — the request-scoped flight recorder: a
  typed, digest-chained event log on the virtual clock;
* :mod:`repro.obs.reqtrace` — per-request timeline reconstruction and
  exact stage attribution from a flight-recorder stream;
* :mod:`repro.obs.slo` — deterministic SLO evaluation and fleet
  health snapshots.

Off by default; enable with the ``REPRO_TRACE=1`` environment variable
or :func:`enable`.  Disabled-mode calls cost one attribute check, so
instrumentation stays in place permanently::

    from repro import obs

    obs.enable()
    with obs.span("solve") as sp:
        sp.add("iterations", it)
    obs.write_artifact("run.json", "my-run")
"""

from .counters import (
    REGISTRY,
    Histogram,
    add,
    get_counter,
    get_gauge,
    get_histogram,
    get_value,
    observe,
    set_gauge,
    snapshot,
)
from .events import (
    EVENT_KINDS,
    EVENTS_SCHEMA_ID,
    Event,
    EventLog,
    EventStreamCorruption,
    load_events,
    save_events,
)
from .report import collect, summary, write_artifact
from .trace import TRACER, is_enabled, record, set_enabled, span

__all__ = [
    "span",
    "record",
    "add",
    "set_gauge",
    "observe",
    "get_value",
    "get_counter",
    "get_gauge",
    "get_histogram",
    "Histogram",
    "snapshot",
    "Event",
    "EventLog",
    "EventStreamCorruption",
    "EVENT_KINDS",
    "EVENTS_SCHEMA_ID",
    "save_events",
    "load_events",
    "enable",
    "disable",
    "set_enabled",
    "is_enabled",
    "reset",
    "collect",
    "write_artifact",
    "summary",
    "TRACER",
    "REGISTRY",
]


def enable() -> None:
    """Turn tracing + counter publishing on."""
    set_enabled(True)


def disable() -> None:
    set_enabled(False)


def reset() -> None:
    """Drop all recorded spans and metrics (the enable flag is kept)."""
    TRACER.reset()
    REGISTRY.reset()
