"""Metrics registry: counters, gauges, histograms, and exporters.

A deliberately small, stdlib-only re-implementation of the Prometheus
client model: a :class:`MetricsRegistry` owns named instruments, each
optionally distinguished by a frozen label set, and renders itself as
Prometheus text exposition format or JSON.  The event
:class:`~repro.obs.tracer.Tracer` is the one producer in ``repro``: its
registry is what ``repro trace --metrics-out`` and ``repro obs metrics``
export.  One :class:`Histogram` serves both the registry's fixed ``le``
buckets and the log-linear latency buckets behind the serving
percentiles.

Instrument names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (the Prometheus
rule); label values are arbitrary strings.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "DEFAULT_QUANTILES",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

LabelPairs = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelPairs) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing count.

    Thread-safe: ``inc`` holds a per-instrument lock, because Python's
    ``self.value += n`` is a read-modify-write that can lose updates under
    concurrent writers (the GIL does not make it atomic).  The lock is
    uncontended in the common single-writer case, so the cost is one
    acquire/release per increment.
    """

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def as_json(self):
        return self.value


class Gauge:
    """A value that can go up and down.  Thread-safe (see :class:`Counter`)."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def as_json(self):
        return self.value


#: The quantiles every latency surface (report, status, gauges) exposes.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99, 0.999)


class Histogram:
    """Exact, mergeable histogram: integer counts in sparse buckets.

    Only the bucket layout varies, and it decides only which bucket a
    value falls in and the highest value that bucket holds:

    * ``Histogram(bounds)`` — fixed Prometheus ``le`` buckets: bucket
      ``i`` holds values ``<= bounds[i]``, bucket ``len(bounds)`` is the
      implicit ``+Inf`` overflow.  Every registry histogram is one.
    * ``Histogram(unit=1e-9, sub_bits=5)`` (the default) — log-linear
      HDR buckets for non-negative, latency-shaped values: exact to one
      ``unit`` below ``2**sub_bits`` units, then ``2**sub_bits`` buckets
      per octave, a relative error of at most ``2**-sub_bits``.

    ``counts`` maps bucket index to count; ``count``, ``sum``,
    ``min_value`` and ``max_value`` track the observations exactly.
    Because counts are integers, merging per-shard histograms equals
    recording every value into one.

    Thread-safe: ``observe``/``merge`` hold a per-instrument lock (see
    :class:`Counter` for why the GIL is not enough).
    """

    kind = "histogram"

    __slots__ = ("bounds", "unit", "sub_bits", "counts", "count", "sum",
                 "min_value", "max_value", "_lock")

    def __init__(self, bounds: Optional[Sequence[float]] = None,
                 unit: float = 1e-9, sub_bits: int = 5):
        if bounds is None:
            if not unit > 0:
                raise ValueError(f"unit must be positive, got {unit}")
            if not 1 <= sub_bits <= 16:
                raise ValueError(
                    f"sub_bits must be in [1, 16], got {sub_bits}"
                )
            self.unit, self.sub_bits = float(unit), int(sub_bits)
        else:
            bounds = sorted(float(b) for b in bounds)
            if not bounds:
                raise ValueError("histogram needs at least one bucket bound")
            if len(set(bounds)) != len(bounds):
                raise ValueError("histogram bounds must be distinct")
            self.unit = self.sub_bits = None
        self.bounds = bounds
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def layout(self) -> dict:
        """``{"bounds": [...]}`` or ``{"unit": ..., "sub_bits": ...}``."""
        if self.bounds is not None:
            return {"bounds": list(self.bounds)}
        return {"unit": self.unit, "sub_bits": self.sub_bits}

    # -- layout: value -> bucket, bucket -> highest value ---------------
    def _index_of(self, value: float) -> int:
        if self.bounds is not None:
            return bisect_left(self.bounds, value)
        units = int(value / self.unit)
        sub = 1 << self.sub_bits
        if units < sub:
            return units
        shift = units.bit_length() - 1 - self.sub_bits
        return ((shift + 1) << self.sub_bits) + ((units >> shift) - sub)

    def _highest(self, index: int) -> float:
        """The highest value bucket ``index`` holds."""
        if self.bounds is not None:
            return self.bounds[index] if index < len(self.bounds) else math.inf
        sub = 1 << self.sub_bits
        if index < sub:
            return (index + 1) * self.unit - self.unit
        shift = (index >> self.sub_bits) - 1
        lo = (sub + (index & (sub - 1))) << shift
        return (lo + (1 << shift)) * self.unit - self.unit

    # -- recording -------------------------------------------------------
    def observe(self, value: float, weight: int = 1) -> None:
        """Record ``value``; ``weight`` observes it ``weight`` times at once.

        Weighted observation is how pre-aggregated counts (the columnar
        engine's hit-depth arrays, one engine batch of thousands of
        accesses at one amortized latency) flush in without a Python-level
        loop per event.  NaN values, NaN/negative weights and negative
        values in the log-linear layout are rejected loudly: binning them
        anywhere would corrupt every downstream percentile.  ``weight=0``
        is a no-op by design.
        """
        if value != value:
            raise ValueError("cannot observe NaN")
        if value < 0 and self.bounds is None:
            raise ValueError(f"log-linear values must be >= 0, got {value}")
        if not weight >= 0:  # catches negatives and NaN weights alike
            raise ValueError(f"observation weight must be >= 0, got {weight}")
        if weight == 0:
            return
        index = self._index_of(value)
        with self._lock:
            self.counts[index] = self.counts.get(index, 0) + weight
            self.count += weight
            self.sum += value * weight
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s exact counts; the layouts must be equal."""
        if other.layout != self.layout:
            raise ValueError(
                f"histogram merge: layout {other.layout} != {self.layout}"
            )
        with self._lock:
            for index, n in other.counts.items():
                self.counts[index] = self.counts.get(index, 0) + n
            self.count += other.count
            self.sum += other.sum
            if other.count:
                if self.min_value is None or other.min_value < self.min_value:
                    self.min_value = other.min_value
                if self.max_value is None or other.max_value > self.max_value:
                    self.max_value = other.max_value

    # -- quantiles -------------------------------------------------------
    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the exact bucket counts.

        Returns the highest value of the bucket holding rank
        ``ceil(q * count)`` (the HDR "highest equivalent value"), clamped
        to the observed min and max, so ``quantile(0.0)`` and
        ``quantile(1.0)`` are exact.  ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return None
            if q == 0.0:
                return self.min_value
            rank = max(1, math.ceil(q * self.count))
            cumulative = 0
            for index in sorted(self.counts):
                cumulative += self.counts[index]
                if cumulative >= rank:
                    value = self._highest(index)
                    return min(max(value, self.min_value), self.max_value)
        raise AssertionError("bucket counts inconsistent with count")

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p99": ...}`` for the given quantiles."""
        return {
            f"p{q * 100:g}".replace(".", "_"): self.quantile(q) for q in qs
        }

    # -- JSON ------------------------------------------------------------
    def as_json(self) -> dict:
        """The layout plus counts keyed by stringified bucket index."""
        with self._lock:
            return {
                **self.layout,
                "counts": {str(i): n for i, n in sorted(self.counts.items())},
                "count": self.count,
                "sum": self.sum,
                "min": self.min_value,
                "max": self.max_value,
            }

    @classmethod
    def from_json(cls, payload: dict) -> "Histogram":
        """Rebuild an :meth:`as_json` snapshot, validating it as input.

        Reports (a serving report's ``latency_histogram``) come from
        outside the process, so a missing layout, an out-of-range bucket
        index or a negative count raises instead of corrupting a merge.
        ``count`` is re-derived from the bucket counts.
        """
        if "bounds" in payload:
            hist = cls(payload["bounds"])
        elif "unit" in payload and "sub_bits" in payload:
            hist = cls(unit=payload["unit"], sub_bits=payload["sub_bits"])
        else:
            raise ValueError("histogram JSON names no bucket layout")
        top = len(hist.bounds) if hist.bounds is not None else math.inf
        for key, n in payload["counts"].items():
            index, n = int(key), int(n)
            if not 0 <= index <= top:
                raise ValueError(f"histogram JSON: bad bucket index {index}")
            if n < 0:
                raise ValueError(f"histogram JSON: negative count {n}")
            if n:
                hist.counts[index] = n
        hist.count = sum(hist.counts.values())
        if hist.count:
            hist.sum = float(payload["sum"])
            hist.min_value = float(payload["min"])
            hist.max_value = float(payload["max"])
        return hist


class MetricsRegistry:
    """A named collection of instruments.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name and labels returns the same instrument, so
    library code never needs to coordinate registration.  Asking for an
    existing name with a different instrument type raises.
    """

    def __init__(self, namespace: str = ""):
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metrics namespace {namespace!r}")
        self.namespace = namespace
        self._help: Dict[str, str] = {}
        self._kind: Dict[str, str] = {}
        self._instruments: Dict[Tuple[str, LabelPairs], object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _full_name(self, name: str) -> str:
        full = f"{self.namespace}_{name}" if self.namespace else name
        if not _NAME_RE.match(full):
            raise ValueError(f"invalid metric name {full!r}")
        return full

    def _get_or_create(self, factory, kind: str, name: str,
                       help: str, labels, *args):
        full = self._full_name(name)
        frozen = _freeze_labels(labels)
        with self._lock:
            existing_kind = self._kind.get(full)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {full!r} already registered as {existing_kind}"
                )
            key = (full, frozen)
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory(*args)
                self._instruments[key] = instrument
                self._kind[full] = kind
                if help:
                    self._help[full] = help
            return instrument

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, "counter", name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, "gauge", name, help, labels)

    def histogram(self, name: str, bounds: Sequence[float], help: str = "",
                  labels: Optional[Dict[str, str]] = None) -> Histogram:
        return self._get_or_create(
            Histogram, "histogram", name, help, labels, bounds
        )

    # ------------------------------------------------------------------
    def instruments(self) -> Iterable[Tuple[str, LabelPairs, object]]:
        """(name, labels, instrument) triples in registration order."""
        return [(n, l, i) for (n, l), i in self._instruments.items()]

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    # Exporters.
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        by_name: Dict[str, List[Tuple[LabelPairs, object]]] = {}
        for (name, labels), instrument in self._instruments.items():
            by_name.setdefault(name, []).append((labels, instrument))
        for name, entries in by_name.items():
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {self._kind[name]}")
            for labels, instrument in entries:
                if isinstance(instrument, Histogram):
                    cumulative = 0
                    for i, bound in enumerate(instrument.bounds):
                        cumulative += instrument.counts.get(i, 0)
                        le = _render_labels(labels + (("le", _fmt(bound)),))
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    le = _render_labels(labels + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{le} {instrument.count}")
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} {_fmt(instrument.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {instrument.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} {_fmt(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict:
        """JSON-ready nested snapshot of every instrument."""
        out: Dict[str, dict] = {}
        for (name, labels), instrument in self._instruments.items():
            entry = out.setdefault(
                name, {"type": self._kind[name], "help": self._help.get(name, ""),
                       "series": []}
            )
            entry["series"].append(
                {"labels": dict(labels), "value": instrument.as_json()}
            )
        return out

    def dump_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _fmt(value: float) -> str:
    """Render a number the way Prometheus expects (ints without '.0')."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(value)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+"
    r"(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def parse_prometheus(text: str) -> Dict[Tuple[str, LabelPairs], float]:
    """Parse Prometheus text format back into ``{(name, labels): value}``.

    Used by the smoke checks to prove exports are well-formed; raises
    ``ValueError`` on any line that is neither a comment nor a sample.
    """
    out: Dict[Tuple[str, LabelPairs], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: not a prometheus sample: {line!r}")
        labels = tuple(_LABEL_RE.findall(match.group("labels") or ""))
        raw = match.group("value")
        if raw == "+Inf":
            value = math.inf
        elif raw == "-Inf":
            value = -math.inf
        elif raw == "NaN":
            value = math.nan
        else:
            value = float(raw)
        out[(match.group("name"), labels)] = value
    return out
