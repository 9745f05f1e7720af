"""Process-wide metrics registry: counters, gauges, histograms.

A zero-dependency, Prometheus-shaped metrics layer.  A
:class:`MetricsRegistry` owns named instruments — :class:`Counter`,
:class:`Gauge`, :class:`Histogram` — each optionally split by label values,
and exports the whole collection two ways:

* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` comments, cumulative ``_bucket{le=…}``
  histogram series, escaped label values), scrapeable as-is;
* :meth:`MetricsRegistry.snapshot` / :meth:`~MetricsRegistry.to_json` — a
  point-in-time JSON document for dashboards and tests.

Instrument registration is get-or-create: asking twice for the same name
returns the same instrument (so independent modules can share counters),
while re-registering a name with a different type or label set raises —
that is always a bug.  :data:`the module-level default registry
<get_registry>` plays the role of Prometheus' global registry; every
serving tier (:class:`~repro.service.engine.QueryService`) records into a
private registry by default and can be pointed at the global one.

:class:`HistogramState` is the single-series histogram engine (log-bucketed
counts with interpolated percentiles).
"""

from __future__ import annotations

import json
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricsRegistry",
    "default_latency_bounds",
    "get_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def default_latency_bounds() -> List[float]:
    """1 µs .. ~100 s in half-decade steps.

    Wide enough for cache hits (microseconds) and pure-Python refinement
    of large trees (seconds).
    """
    bounds: List[float] = []
    value = 1e-6
    while value < 100.0:
        bounds.append(value)
        bounds.append(value * 3.1623)  # half a decade
        value *= 10.0
    return bounds


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


class _Instrument:
    """Shared machinery: name/help/labels bookkeeping and locking."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if not labels and not self.labelnames:
            return ()
        if labels.keys() != self._labelset:
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _header(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Instrument):
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of the labelled series (0 when never incremented)."""
        return self._values.get(self._key(labels), 0.0)

    def values(self) -> Dict[Tuple[str, ...], float]:
        """Every labelled series, keyed by label-value tuple."""
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def expose(self) -> List[str]:
        lines = self._header()
        with self._lock:
            series = sorted(self._values.items()) or (
                [((), 0.0)] if not self.labelnames else []
            )
            for labelvalues, value in series:
                lines.append(
                    f"{self.name}{_format_labels(self.labelnames, labelvalues)} "
                    f"{_format_value(value)}"
                )
        return lines

    def snapshot_value(self):
        values = self.values()
        if not self.labelnames:
            return values.get((), 0.0)
        return {",".join(key): value for key, value in sorted(values.items())}


class Gauge(Counter):
    """A value that can go up and down (current sizes, rates, flags)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)


class HistogramState:
    """One histogram series: fixed buckets, interpolated percentiles.

    Buckets are upper-bound-inclusive like Prometheus histograms; the last
    bucket is implicit ``+Inf``.  Percentile estimates interpolate linearly
    inside the winning bucket, which is accurate to within a bucket width —
    plenty for serving dashboards (exact percentiles belong to the workload
    driver, which keeps raw samples).
    """

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: List[float] = sorted(bounds) if bounds else default_latency_bounds()
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float) -> None:
        """Fold one observation into the histogram."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observation (0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def quantile(self, p: float) -> float:
        """Interpolated ``p``-th percentile (0 when empty)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.total == 0:
            return 0.0
        target = p / 100 * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= target:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min if previous == 0 else lower)
                upper = min(upper, self.max)
                if upper <= lower:
                    return upper
                fraction = (target - previous) / count
                return lower + fraction * (upper - lower)
        return self.max

    def to_dict(self) -> Dict[str, object]:
        """Snapshot: count / sum / min / max / mean and key percentiles."""
        return {
            "count": self.total,
            "sum_seconds": self.sum,
            "min_seconds": self.min if self.total else 0.0,
            "max_seconds": self.max,
            "mean_seconds": self.mean,
            "p50_seconds": self.quantile(50),
            "p90_seconds": self.quantile(90),
            "p99_seconds": self.quantile(99),
        }


class Histogram(_Instrument):
    """A registry instrument holding one :class:`HistogramState` per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.bounds = sorted(bounds) if bounds else default_latency_bounds()
        self._states: Dict[Tuple[str, ...], HistogramState] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled series."""
        state = self.state(**labels)
        with self._lock:
            state.record(value)

    def state(self, **labels) -> HistogramState:
        """The labelled series' state, created on first access."""
        key = self._key(labels)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = HistogramState(self.bounds)
            return state

    def states(self) -> Dict[Tuple[str, ...], HistogramState]:
        """Every labelled series, keyed by label-value tuple."""
        with self._lock:
            return dict(self._states)

    def reset(self) -> None:
        with self._lock:
            self._states.clear()

    def expose(self) -> List[str]:
        lines = self._header()
        for labelvalues, state in sorted(self.states().items()):
            cumulative = 0
            for bound, count in zip(state.bounds, state.counts):
                cumulative += count
                labels = _format_labels(
                    self.labelnames + ("le",),
                    labelvalues + (_format_value(bound),),
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(
                self.labelnames + ("le",), labelvalues + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{labels} {state.total}")
            plain = _format_labels(self.labelnames, labelvalues)
            lines.append(f"{self.name}_sum{plain} {_format_value(state.sum)}")
            lines.append(f"{self.name}_count{plain} {state.total}")
        return lines

    def snapshot_value(self):
        states = self.states()
        if not self.labelnames:
            state = states.get(())
            return state.to_dict() if state is not None else HistogramState(self.bounds).to_dict()
        return {
            ",".join(key): state.to_dict() for key, state in sorted(states.items())
        }


class MetricsRegistry:
    """A named collection of instruments with text/JSON exposition.

    Registration is get-or-create and thread-safe; a name clash with a
    different instrument type or label set raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter."""
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create a histogram (``bounds`` only applies on creation)."""
        return self._register(Histogram, name, help, labelnames, bounds=bounds)

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name``, if any."""
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> List[_Instrument]:
        """Every registered instrument in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for instrument in self.instruments():
            instrument.reset()

    def prometheus_text(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for instrument in self.instruments():
            lines.extend(instrument.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time JSON-serialisable view of every instrument."""
        return {
            instrument.name: {
                "type": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.labelnames),
                "value": instrument.snapshot_value(),
            }
            for instrument in self.instruments()
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """:meth:`snapshot` serialised as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: The process-wide default registry (Prometheus' "global registry" role).
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
