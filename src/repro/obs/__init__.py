"""``repro.obs`` — unified observability: metrics, tracing, event log.

The archive is pitched as an *active* archive serving a distributed
community; its operational claims (transfer times, operations savings,
bandwidth budgets) are measurement claims.  This package is the single
instrumentation substrate every layer reports through:

* :mod:`repro.obs.metrics` — counters, gauges, histograms with quantile
  summaries, in a :class:`MetricsRegistry`;
* :mod:`repro.obs.tracing` — context-managed spans with parent/child
  propagation and an in-memory ring-buffer exporter;
* :mod:`repro.obs.events` — structured events plus a threshold-driven
  slow-query log.

One :class:`Observability` object bundles the three.  A module-global
default starts **disabled**: its tracer and event log are null objects
and nothing pushes per-event metrics, so the hot paths
(``Database.execute``, servlet dispatch, token issue) pay only an
attribute check until someone opts in.  Its registry is a live one that
only receives pulls: ``/metrics`` binds the components' own counters to
whichever registry it renders, enabled or not::

    import repro.obs as obs

    handle = obs.enable(slow_query_seconds=0.01)   # install a live default
    ... run the workload ...
    print(handle.metrics.render_text())
    print(handle.tracer.snapshot()[-1])
    obs.disable()                                   # back to no-op

Components accept an explicit ``Observability`` instance where isolation
matters (tests, multi-archive processes); everything else picks up the
global default at call time via :func:`get_observability`.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.events import (
    DEFAULT_SLOW_QUERY_SECONDS,
    EventLog,
    NullEventLog,
    NullSlowQueryLog,
    SlowQueryLog,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import NullTracer, Span, Tracer

__all__ = [
    "Observability",
    "get_observability",
    "set_observability",
    "enable",
    "disable",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "EventLog",
    "SlowQueryLog",
]


class Observability:
    """Bundle of one metrics registry, one tracer and one event log.

    ``enabled=False`` builds the null tracer and event log; the flag is
    the hot-path guard every per-event push, span and event checks first.
    The registry is live either way, so pull instruments bound to it
    (components' own counters) render with observability off.
    """

    def __init__(
        self,
        enabled: bool = True,
        slow_query_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
        time_source: Callable[[], float] | None = None,
        span_capacity: int = 512,
        event_capacity: int = 1024,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        if enabled:
            self.tracer = Tracer(capacity=span_capacity)
            self.events = EventLog(
                capacity=event_capacity,
                time_source=time_source or time.time,
            )
            self.slow_query = SlowQueryLog(self.events, slow_query_seconds)
        else:
            self.tracer = NullTracer()
            self.events = NullEventLog()
            self.slow_query = NullSlowQueryLog()

    def reset(self) -> None:
        """Drop all collected data (instrument definitions included)."""
        self.metrics.reset()
        self.tracer.reset()
        self.events.reset()

    def snapshot(self) -> dict[str, Any]:
        """One plain-data view of everything collected so far."""
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.snapshot(),
            "events": self.events.events(),
            "slow_queries": self.slow_query.entries(),
        }

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "no-op"
        return f"Observability({state})"


#: the process-wide default; starts as a shared no-op
_NULL = Observability(enabled=False)
_default: Observability = _NULL


def get_observability() -> Observability:
    """The current process-wide default (no-op until :func:`enable`)."""
    return _default


def set_observability(obs: Observability | None) -> Observability:
    """Install ``obs`` as the process-wide default (None restores the
    no-op); returns the previous default so callers can restore it."""
    global _default
    previous = _default
    _default = obs if obs is not None else _NULL
    return previous


def enable(**kwargs: Any) -> Observability:
    """Install (and return) a live default; kwargs as for Observability."""
    obs = Observability(enabled=True, **kwargs)
    set_observability(obs)
    return obs


def disable() -> None:
    """Restore the no-op default."""
    set_observability(None)
