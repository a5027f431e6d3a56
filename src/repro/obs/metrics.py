"""Metrics registry: counters, gauges, histograms, and exporters.

A deliberately small, stdlib-only re-implementation of the Prometheus
client model: a :class:`MetricsRegistry` owns named instruments, each
optionally distinguished by a frozen label set, and renders itself as
Prometheus text exposition format or JSON.  The parallel experiment
runner's :class:`repro.eval.parallel.RunnerMetrics` and the event
:class:`~repro.obs.tracer.Tracer` both feed instruments from one of these
registries, so every layer of the stack reports through the same pipe.
Next to the fixed-bucket :class:`Histogram` sits :class:`HdrHistogram`,
the log-bucketed latency histogram behind the serving percentiles.

Instrument names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*`` (the Prometheus
rule); label values are arbitrary strings.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "DEFAULT_QUANTILES",
    "HdrHistogram",
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


class Histogram:
    """Fixed-bucket histogram (Prometheus ``le`` semantics).

    ``bounds`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket catches the rest.  ``bucket_counts[i]`` is the
    *non-cumulative* count of observations in bucket ``i`` (the exporter
    cumulates, as the exposition format requires).

    Thread-safe: ``observe``/``merge_raw`` hold a per-instrument lock so
    concurrent observations never lose counts (see :class:`Counter`).

    ``retain`` keeps the first ``retain`` raw (value, weight) samples so
    :meth:`quantile` can answer with exact nearest-rank values; once the
    total count exceeds ``retain`` (or a cross-process ``merge_raw``
    lands, which carries no samples) the raw list is dropped and
    quantiles fall back to linear interpolation on the bucket bounds.
    """

    kind = "histogram"

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "_lock",
                 "_raw", "_retain")

    def __init__(self, bounds: Sequence[float], retain: int = 0):
        bounds = sorted(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be distinct")
        if retain < 0:
            raise ValueError(f"retain must be >= 0, got {retain}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self._retain = int(retain)
        self._raw: Optional[List[Tuple[float, int]]] = [] if retain else None
        self._lock = threading.Lock()

    def observe(self, value: float, weight: int = 1) -> None:
        """Record ``value``; ``weight`` observes it ``weight`` times at once.

        Weighted observation is how pre-aggregated counts (e.g. the
        columnar engine's hit-depth arrays) flush into a histogram without
        a Python-level loop per event.  NaN values and NaN/negative
        weights are rejected loudly: silently binning NaN into ``+Inf``
        (or subtracting counts) would corrupt every downstream
        percentile.  ``weight=0`` is a no-op by design.
        """
        if value != value:
            raise ValueError("cannot observe NaN")
        if not weight >= 0:  # catches negatives and NaN weights alike
            raise ValueError(f"observation weight must be >= 0, got {weight}")
        if weight == 0:
            return
        with self._lock:
            self.count += weight
            self.sum += value * weight
            if self._raw is not None:
                if self.count > self._retain:
                    self._raw = None
                else:
                    self._raw.append((value, weight))
            # Linear scan: bucket lists here are tiny (positions, distances).
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += weight
                    return
            self.bucket_counts[-1] += weight

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile of the observed distribution.

        Nearest-rank over the raw samples while they are retained (exact);
        otherwise linear interpolation on the bucket bounds, the
        ``histogram_quantile`` convention — observations in the overflow
        bucket resolve to the highest finite bound.  ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return None
            if self._raw is not None:
                rank = max(1, math.ceil(q * self.count))
                cumulative = 0
                for value, weight in sorted(self._raw):
                    cumulative += weight
                    if cumulative >= rank:
                        return value
                raise AssertionError("raw samples inconsistent with count")
            target = q * self.count
            cumulative = 0
            for i, bucket in enumerate(self.bucket_counts[:-1]):
                previous = cumulative
                cumulative += bucket
                if bucket and cumulative >= target:
                    hi = self.bounds[i]
                    lo = self.bounds[i - 1] if i else min(0.0, hi)
                    return lo + (hi - lo) * ((target - previous) / bucket)
            return self.bounds[-1]

    def merge_raw(
        self, bucket_counts: Sequence[int], count: int, total: float,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Add another histogram's raw buckets (cross-process merge).

        Used by :func:`repro.obs.shipping.merge_registry_payload` to sum a
        worker's histogram snapshot into the parent's.  The bucket layout
        must match — pass the source's ``bounds`` so disagreement raises
        rather than mis-binning (equal bucket *counts* with different
        bounds would otherwise merge silently).
        """
        if bounds is not None:
            incoming = sorted(float(b) for b in bounds)
            if incoming != self.bounds:
                raise ValueError(
                    f"histogram merge: bounds {incoming} != {self.bounds}"
                )
        if len(bucket_counts) != len(self.bucket_counts):
            raise ValueError(
                f"histogram merge: {len(bucket_counts)} buckets != "
                f"{len(self.bucket_counts)}"
            )
        with self._lock:
            self._raw = None  # merged counts carry no samples
            for i, n in enumerate(bucket_counts):
                self.bucket_counts[i] += int(n)
            self.count += int(count)
            self.sum += float(total)

    def as_json(self):
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }


#: The quantiles every latency surface (report, status, gauges) exposes.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99, 0.999)


class HdrHistogram:
    """Log-bucketed latency histogram with exact, mergeable counts.

    ``unit`` is the quantization step in the caller's value scale
    (default ``1e-9``: nanosecond resolution for values in seconds);
    ``sub_bits`` fixes the per-octave sub-bucket precision.  ``record``
    accepts a ``weight`` so pre-aggregated costs (one engine batch =
    thousands of accesses at one amortized per-access latency) flush in
    without a Python-level loop, mirroring
    :meth:`repro.obs.metrics.Histogram.observe`.

    Thread-safe: ``record``/``merge`` hold a per-instrument lock (see
    :class:`repro.obs.metrics.Counter` for why the GIL is not enough).
    """

    __slots__ = ("unit", "sub_bits", "counts", "count", "sum",
                 "min_value", "max_value", "_lock")

    def __init__(self, unit: float = 1e-9, sub_bits: int = 5):
        if not unit > 0:
            raise ValueError(f"unit must be positive, got {unit}")
        if not 1 <= sub_bits <= 16:
            raise ValueError(f"sub_bits must be in [1, 16], got {sub_bits}")
        self.unit = float(unit)
        self.sub_bits = int(sub_bits)
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None
        self._lock = threading.Lock()

    # -- indexing ------------------------------------------------------
    def _index_of(self, units: int) -> int:
        sub = 1 << self.sub_bits
        if units < sub:
            return units
        exp = units.bit_length() - 1          # 2**exp <= units
        shift = exp - self.sub_bits
        return ((shift + 1) << self.sub_bits) + ((units >> shift) - sub)

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[lo, hi)`` value range of bucket ``index`` (caller scale)."""
        if index < 0:
            raise ValueError(f"bucket index must be >= 0, got {index}")
        sub = 1 << self.sub_bits
        if index < sub:
            return index * self.unit, (index + 1) * self.unit
        shift = (index >> self.sub_bits) - 1
        lo = (sub + (index & (sub - 1))) << shift
        return lo * self.unit, (lo + (1 << shift)) * self.unit

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantization error of any recorded value."""
        return 2.0 ** -self.sub_bits

    # -- recording -----------------------------------------------------
    def record(self, value: float, weight: int = 1) -> None:
        """Record ``value`` (``weight`` times at once, like ``observe``)."""
        if value != value:
            raise ValueError("cannot record NaN")
        if value < 0:
            raise ValueError(f"latency values must be >= 0, got {value}")
        if not weight >= 0:  # catches negatives and NaN weights alike
            raise ValueError(f"record weight must be >= 0, got {weight}")
        if weight == 0:
            return
        index = self._index_of(int(value / self.unit))
        with self._lock:
            self.counts[index] = self.counts.get(index, 0) + weight
            self.count += weight
            self.sum += value * weight
            if self.min_value is None or value < self.min_value:
                self.min_value = value
            if self.max_value is None or value > self.max_value:
                self.max_value = value

    # -- quantiles -----------------------------------------------------
    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the exact bucket counts.

        Returns the upper edge of the bucket holding rank
        ``ceil(q * count)`` — the HDR "highest equivalent value"
        convention — clamped to the exactly-tracked observed min/max, so
        ``quantile(0.0)``/``quantile(1.0)`` are exact.  ``None`` when
        empty.
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
                    _, hi = self.bucket_bounds(index)
                    value = hi - self.unit  # highest representable in bucket
                    return min(max(value, self.min_value), self.max_value)
        raise AssertionError("bucket counts inconsistent with count")

    def percentiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p99": ...}`` for the given quantiles."""
        out = {}
        for q in qs:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = self.quantile(q)
        return out

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    # -- merging -------------------------------------------------------
    def merge(self, other: "HdrHistogram") -> None:
        """Add ``other``'s exact counts into this histogram."""
        self.merge_raw(
            other.counts, other.count, other.sum,
            min_value=other.min_value, max_value=other.max_value,
            unit=other.unit, sub_bits=other.sub_bits,
        )

    def merge_raw(
        self,
        counts: Dict[int, int],
        count: int,
        total: float,
        min_value: Optional[float] = None,
        max_value: Optional[float] = None,
        unit: Optional[float] = None,
        sub_bits: Optional[int] = None,
    ) -> None:
        """Cross-shard / cross-process merge of raw bucket counts.

        Pass the source's ``unit``/``sub_bits`` so layout disagreement
        raises instead of silently mis-binning (the
        ``Histogram.merge_raw`` contract).
        """
        if unit is not None and float(unit) != self.unit:
            raise ValueError(f"hdr merge: unit {unit} != {self.unit}")
        if sub_bits is not None and int(sub_bits) != self.sub_bits:
            raise ValueError(
                f"hdr merge: sub_bits {sub_bits} != {self.sub_bits}"
            )
        with self._lock:
            for index, n in counts.items():
                index = int(index)
                if index < 0:
                    raise ValueError(f"hdr merge: bad bucket index {index}")
                self.counts[index] = self.counts.get(index, 0) + int(n)
            self.count += int(count)
            self.sum += float(total)
            for bound, better in ((min_value, min), (max_value, max)):
                if bound is None:
                    continue
                current = self.min_value if better is min else self.max_value
                merged = bound if current is None else better(current, bound)
                if better is min:
                    self.min_value = merged
                else:
                    self.max_value = merged

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot (counts keyed by stringified index)."""
        return {
            "schema": "repro-hdr/1",
            "unit": self.unit,
            "sub_bits": self.sub_bits,
            "counts": {str(k): v for k, v in self.counts.items()},
            "count": self.count,
            "sum": self.sum,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HdrHistogram":
        if payload.get("schema") != "repro-hdr/1":
            raise ValueError(
                f"not an hdr snapshot: schema={payload.get('schema')!r}"
            )
        hist = cls(unit=payload["unit"], sub_bits=payload["sub_bits"])
        hist.merge_raw(
            {int(k): int(v) for k, v in payload["counts"].items()},
            payload["count"], payload["sum"],
            min_value=payload.get("min"), max_value=payload.get("max"),
        )
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HdrHistogram(count={self.count}, "
                f"buckets={len(self.counts)}, max={self.max_value})")


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
                  labels: Optional[Dict[str, str]] = None,
                  retain: int = 0) -> Histogram:
        return self._get_or_create(
            Histogram, "histogram", name, help, labels, bounds, retain
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
                    for bound, bucket in zip(
                        instrument.bounds, instrument.bucket_counts
                    ):
                        cumulative += bucket
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
