"""Metrics registry: counters, gauges, and latency histograms.

Complements the tracer with aggregate numbers — how many DSE points were
sampled / illegal / unfit / valid, the per-point estimation-latency
distribution (p50/p95/max), per-pass timing totals. Instruments are
created on demand by name; a disabled registry hands out shared no-op
instruments so instrumentation in hot loops costs one flag check.

All instruments are thread-safe. Histograms keep raw observations (a DSE
run records one float per point — tens of kilobytes at paper scale), so
percentiles are exact, not approximated.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge:
    """Last-write-wins value (e.g. current points/sec)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Distribution of observations with exact percentile summaries."""

    __slots__ = ("name", "_lock", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._values.append(float(value))
            self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._values)

    @property
    def mean(self) -> float:
        with self._lock:
            return sum(self._values) / len(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return max(self._values) if self._values else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return min(self._values) if self._values else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile (nearest-rank with linear interpolation)."""
        with self._lock:
            if not self._values:
                return 0.0
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            vals = self._values
            if len(vals) == 1:
                return vals[0]
            rank = (p / 100.0) * (len(vals) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(vals) - 1)
            frac = rank - lo
            low, high = vals[lo], vals[hi]
            if frac == 0.0:
                return low
            # low + (high - low) * frac is exact for equal neighbours and
            # monotone in p; the clamp keeps rounding (or an overflowing
            # high - low) inside [low, high].
            return min(max(low + (high - low) * frac, low), high)

    def summary(self) -> Dict[str, float]:
        """count / total / mean / p50 / p95 / max in one dict."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for a disabled registry."""

    __slots__ = ()
    name = "<disabled>"
    count = 0
    total = 0.0
    mean = 0.0
    max = 0.0
    min = 0.0
    value = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "total": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "max": 0.0}


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter``/``gauge``/``histogram`` return live instruments when the
    registry is enabled and shared no-ops otherwise, so callers never
    branch on the enabled flag themselves.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Fetch/create the named counter (no-op when disabled)."""
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        """Fetch/create the named gauge (no-op when disabled)."""
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> Histogram:
        """Fetch/create the named histogram (no-op when disabled)."""
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name)
            return inst

    def reset(self) -> None:
        """Forget every instrument and its data."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __bool__(self) -> bool:
        """True when any instrument holds data."""
        return bool(self._counters or self._gauges or self._histograms)

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every instrument."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
        }

    def summary_table(self, title: Optional[str] = "metrics") -> str:
        """Human-readable table of every instrument (CLI ``--metrics``)."""
        lines: List[str] = []
        if title:
            lines.append(f"-- {title} " + "-" * max(1, 58 - len(title)))
        snap = self.to_dict()
        if snap["counters"]:
            lines.append(f"{'counter':40s} {'value':>14s}")
            for name, value in snap["counters"].items():
                lines.append(f"{name:40s} {value:>14,}")
        if snap["gauges"]:
            lines.append(f"{'gauge':40s} {'value':>14s}")
            for name, value in snap["gauges"].items():
                lines.append(f"{name:40s} {value:>14,.3f}")
        if snap["histograms"]:
            lines.append(
                f"{'histogram':28s} {'count':>8s} {'mean':>10s} "
                f"{'p50':>10s} {'p95':>10s} {'max':>10s}"
            )
            for name, s in snap["histograms"].items():
                lines.append(
                    f"{name:28s} {s['count']:8,d} {_fmt(s['mean'])} "
                    f"{_fmt(s['p50'])} {_fmt(s['p95'])} {_fmt(s['max'])}"
                )
        if len(lines) <= 1:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)


def _fmt(seconds: float) -> str:
    """Render a (usually sub-second) value with an adaptive unit."""
    if seconds == 0:
        return f"{'0':>10s}"
    if seconds < 1e-3:
        return f"{seconds * 1e6:>8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:>8.2f}ms"
    return f"{seconds:>9.3f}s"
