"""Metrics primitives: counters, gauges and histograms in a registry.

Design constraints, in order:

1. **Cheap on hot paths.**  A counter increment is one attribute add; a
   histogram observation is a few float operations plus a bounded-deque
   append.  Per-event pushes happen only while observability is enabled;
   components that already keep exact counts are read on demand instead
   (``set_function``), so every event is counted in one place.
2. **Quantiles without dependencies.**  Histograms keep a sliding window
   of recent observations (bounded ``deque``) and compute quantiles over
   it on demand — exact for small workloads, a recency-weighted estimate
   for long-running ones, and fully deterministic either way.
3. **Introspectable.**  ``MetricsRegistry.snapshot()`` returns plain
   dictionaries and ``render_text()`` emits the Prometheus text
   exposition, which the web layer's ``/metrics`` endpoint and the
   ``repro obs`` CLI command serve verbatim.

Instruments are keyed by name plus optional labels::

    registry.counter("sql.statements", kind="SELECT").inc()
    registry.histogram("http.request_seconds", path="/search").observe(dt)
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Any, Callable, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: histogram sliding-window size (recent observations kept for quantiles)
DEFAULT_WINDOW = 1024

#: quantiles a histogram reports (snapshot ``pNN`` fields, summary lines)
QUANTILES = (0.5, 0.9, 0.99)

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", '"': '\\"'})


def _metric_key(name: str, labels: Iterable[tuple[str, Any]]) -> str:
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}" if inner else name


class _Instrument:
    """Name, sorted labels and registry key shared by every instrument."""

    __slots__ = ("name", "labels", "key")

    kind = ""

    def __init__(self, name: str, labels: dict[str, Any] | None = None) -> None:
        self.name = name
        self.labels = tuple(sorted((labels or {}).items()))
        self.key = _metric_key(name, self.labels)


class _Valued(_Instrument):
    """A single value, pushed or pulled from ``fn()`` at read time."""

    __slots__ = ("_value", "_fn")

    def __init__(self, name: str, labels: dict[str, Any] | None = None) -> None:
        super().__init__(name, labels)
        self._value: int | float = 0
        self._fn: Callable[[], int | float] | None = None

    def set_function(self, fn: Callable[[], int | float]) -> None:
        """Pull-style instrument: ``fn()`` is evaluated at read time, so a
        component that already counts an event is read, not re-counted."""
        self._fn = fn

    @property
    def value(self) -> int | float:
        return self._value if self._fn is None else self._fn()

    def inc(self, amount: int | float = 1) -> None:
        self._value += amount

    def describe(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def samples(self) -> list[tuple[str, tuple, int | float]]:
        """``(name suffix, labels, value)`` of each exposition line."""
        return [("", self.labels, self.value)]


class Counter(_Valued):
    """Monotonically increasing count."""

    __slots__ = ()

    kind = "counter"


class Gauge(_Valued):
    """A value that can go up and down (or be computed on read)."""

    __slots__ = ()

    kind = "gauge"

    def set(self, value: float) -> None:
        self._value = value

    def dec(self, amount: float = 1) -> None:
        self._value -= amount


class Histogram(_Instrument):
    """Running aggregates plus a sliding window for quantile summaries."""

    __slots__ = ("count", "total", "min", "max", "_window")

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, Any] | None = None,
                 window: int = DEFAULT_WINDOW) -> None:
        super().__init__(name, labels)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._window.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile over the retained window (nearest-rank, linear
        interpolation); 0.0 when nothing has been observed."""
        if not self._window:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        ordered = sorted(self._window)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1 - fraction) + ordered[high] * fraction

    def summary(self, quantiles: Iterable[float] = QUANTILES) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if self.count == 0 else self.min,
            "max": 0.0 if self.count == 0 else self.max,
        }
        for q in quantiles:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    def describe(self) -> dict[str, Any]:
        return {"type": self.kind, **self.summary()}

    def samples(self) -> list[tuple[str, tuple, int | float]]:
        """A Prometheus summary: quantile lines, then ``_sum``, ``_count``."""
        return [
            ("", self.labels + (("quantile", q),), self.quantile(q))
            for q in QUANTILES
        ] + [("_sum", self.labels, self.total), ("_count", self.labels, self.count)]


# -- Prometheus text exposition ---------------------------------------------------


def _exposed_name(metric: _Instrument) -> str:
    """The family name: dots become underscores, counters end in _total."""
    name = _INVALID_NAME_CHARS.sub("_", metric.name)
    if metric.kind == "counter" and not name.endswith("_total"):
        name += "_total"
    return name


def _label_text(labels: Iterable[tuple[str, Any]]) -> str:
    """``{k="v",...}`` with quotes, backslashes and newlines escaped."""
    pairs = ",".join(
        f'{k}="{str(v).translate(_LABEL_ESCAPES)}"' for k, v in labels
    )
    return f"{{{pairs}}}" if pairs else ""


def _value_text(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isfinite(value):
        return repr(float(value))
    return "NaN" if math.isnan(value) else ("+Inf" if value > 0 else "-Inf")


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Registration is lock-guarded so concurrent first-touches of the same
    key resolve to one instrument.  Updates on the instruments themselves
    are plain attribute arithmetic — individually atomic enough under the
    GIL for monitoring data, and kept lock-free to stay cheap on hot
    paths (a lost increment under extreme contention skews a statistic,
    never correctness).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()
        #: keys of the pull instruments installed by :meth:`bind`
        self._pulled: set[str] = set()

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = _metric_key(name, sorted(labels.items()))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, labels)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def bind(self, pulls: Iterable[tuple]) -> None:
        """Make ``pulls`` the registry's pull instruments.

        Each ``(Counter or Gauge, name, labels, fn)`` reads a count its
        component already keeps.  Pull instruments bound earlier and not
        listed now are dropped, so a component that is gone stops
        reporting instead of showing its last value.
        """
        bound = set()
        for cls, name, labels, fn in pulls:
            metric = self._get(cls, name, labels)
            metric.set_function(fn)
            bound.add(metric.key)
        with self._lock:
            for key in self._pulled - bound:
                self._metrics.pop(key, None)
            self._pulled = bound

    def _instruments(self) -> list[Any]:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every instrument's current state, keyed by full metric key."""
        return {
            metric.key: metric.describe()
            for metric in sorted(self._instruments(), key=lambda m: m.key)
        }

    def render_text(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the whole registry:
        one ``# TYPE`` line per family, histograms as summaries."""
        lines: list[str] = []
        family = None
        for name, metric in sorted(
            ((_exposed_name(m), m) for m in self._instruments()),
            key=lambda pair: (pair[0], pair[1].key),
        ):
            if name != family:
                family = name
                kind = "summary" if metric.kind == "histogram" else metric.kind
                lines.append(f"# TYPE {name} {kind}")
            lines.extend(
                f"{name}{suffix}{_label_text(labels)} {_value_text(value)}"
                for suffix, labels, value in metric.samples()
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._pulled = set()

    def __len__(self) -> int:
        return len(self._metrics)
