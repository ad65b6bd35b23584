"""Metrics registry: counters, gauges, and log-bucketed histograms.

The registry is the PCM/BPF-profiling stand-in's *aggregation* half: every
layer registers named instruments, and a run artifact snapshots them all at
once.  Design constraints, in order:

* **cheap when disabled** — a disabled registry hands out shared no-op
  instruments whose methods are empty; hot paths can call ``inc()`` /
  ``observe()`` unconditionally without a measurable cost;
* **bounded memory** — histograms are log-bucketed (geometric bucket
  growth), so a billion latency samples still occupy ~a hundred ints;
* **snapshottable** — every instrument renders to a plain dict (JSON-safe)
  and to the Prometheus text exposition format.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_COUNTER",
    "NOOP_GAUGE",
    "NOOP_HISTOGRAM",
]

#: Default geometric bucket growth: 2^(1/8) per bucket, ~9 % relative
#: error on any reported quantile — tighter than the paper's own error bars.
DEFAULT_BUCKET_GROWTH = 2.0 ** 0.125


class Counter:
    """A monotonically increasing count (packets, drops, events)."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, current rate)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Log-bucketed distribution, built for per-packet latency percentiles.

    Bucket ``i`` covers ``(growth^(i-1), growth^i]`` nanoseconds (bucket 0
    covers everything at or below 1.0).  Memory is proportional to the
    dynamic range, not the sample count.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "growth", "_log_growth", "buckets",
                 "count", "sum", "min", "max")

    def __init__(
        self, name: str, help: str = "", growth: float = DEFAULT_BUCKET_GROWTH
    ) -> None:
        if growth <= 1.0:
            raise ValueError("bucket growth factor must exceed 1")
        self.name = name
        self.help = help
        self.growth = growth
        self._log_growth = math.log(growth)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        if value <= 1.0:
            return 0
        return int(math.ceil(math.log(value) / self._log_growth))

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        i = self._index(value)
        self.buckets[i] = self.buckets.get(i, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Observe ``values`` in order, in bulk: the same buckets, count,
        min, max and (sequential, left-to-right) sum as looping
        :meth:`observe`."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        if not (np.isfinite(arr).all() and (arr >= 0).all()):
            # Let observe() raise exactly where the loop would.
            for value in arr.tolist():
                self.observe(value)
            return
        index = np.zeros(arr.size, dtype=np.int64)
        above = np.flatnonzero(arr > 1.0)
        if above.size:
            ratio = np.log(arr[above]) / self._log_growth
            index[above] = np.ceil(ratio)
            # np.log may differ from math.log in the last ulp; that can only
            # move the ceiling when the ratio sits on an integer, so decide
            # those few values with math.log as observe() does.
            for j in np.flatnonzero(np.abs(ratio - np.rint(ratio)) < 1e-9).tolist():
                index[above[j]] = self._index(float(arr[above[j]]))
        buckets, first, counts = np.unique(
            index, return_index=True, return_counts=True)
        for k in np.argsort(first).tolist():  # first-seen order, as observe()
            i = int(buckets[k])
            self.buckets[i] = self.buckets.get(i, 0) + int(counts[k])
        self.count += int(arr.size)
        self.sum = float(np.add.accumulate(np.concatenate(([self.sum], arr)))[-1])
        # First occurrences, as the loop keeps them (0.0 == -0.0).
        low, high = float(arr[arr.argmin()]), float(arr[arr.argmax()])
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    def bucket_upper_bound(self, index: int) -> float:
        return self.growth ** index

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's buckets into this one (same growth)."""
        if other.growth != self.growth:
            raise ValueError("cannot merge histograms with different growth")
        for i, n in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + n
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def merge_snapshot(self, data: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker process).

        Bucket indices are recovered from the stored upper bounds, so a
        snapshot merged here is equivalent to merging the histogram that
        produced it (same growth required).
        """
        if data.get("growth") != self.growth:
            raise ValueError("cannot merge snapshots with different growth")
        for upper, n in data.get("buckets", []):
            i = 0 if upper <= 1.0 else round(math.log(upper) / self._log_growth)
            self.buckets[i] = self.buckets.get(i, 0) + int(n)
        count = int(data.get("count", 0))
        self.count += count
        self.sum += float(data.get("sum", 0.0))
        if count:
            self.min = min(self.min, float(data["min"]))
            self.max = max(self.max, float(data["max"]))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (0..1); exact endpoints, ~±(growth-1)/2 inside.

        Returns the geometric midpoint of the bucket holding the quantile,
        clamped to the observed min/max so p0/p100 are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        seen = 0
        for i in sorted(self.buckets):
            seen += self.buckets[i]
            if seen > rank:
                lo = self.growth ** (i - 1) if i > 0 else 0.0
                hi = self.growth ** i
                mid = math.sqrt(lo * hi) if lo > 0 else hi
                return min(max(mid, self.min), self.max)
        return self.max

    def percentiles(self, qs: Iterable[float] = (0.5, 0.9, 0.99, 0.999)) -> dict:
        return {f"p{q * 100:g}".replace(".", "_"): self.percentile(q) for q in qs}

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "growth": self.growth,
            # [upper_bound, count] per occupied bucket, ascending.
            "buckets": [
                [self.bucket_upper_bound(i), self.buckets[i]]
                for i in sorted(self.buckets)
            ],
            "percentiles": self.percentiles(),
        }


class _NoopInstrument:
    """Shared sink for disabled registries: every method is a no-op."""

    __slots__ = ()
    name = ""
    help = ""
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def percentiles(self, qs=(0.5, 0.9, 0.99, 0.999)) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {"type": "noop"}


NOOP_COUNTER = _NoopInstrument()
NOOP_GAUGE = _NoopInstrument()
NOOP_HISTOGRAM = _NoopInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NoopInstrument]


class MetricsRegistry:
    """Named instruments with one-shot snapshot/Prometheus export.

    Instrument names may carry Prometheus-style labels inline:
    ``mlffr_mpps{technique="scr",cores="4"}`` — the registry treats the
    whole string as the key and the text exporter passes it through.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, factory, noop: _NoopInstrument, **kwargs):
        if not self.enabled:
            return noop
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory(name, **kwargs)
            self._instruments[name] = inst
        elif not isinstance(inst, factory):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, NOOP_COUNTER, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, NOOP_GAUGE, help=help)

    def histogram(
        self, name: str, help: str = "", growth: float = DEFAULT_BUCKET_GROWTH
    ) -> Histogram:
        return self._get(name, Histogram, NOOP_HISTOGRAM, help=help, growth=growth)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, dict]:
        """All instruments as a plain JSON-safe dict, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters accumulate, gauges take the snapshot's value, histograms
        bucket-merge.  The scenario executor uses this to aggregate
        per-worker telemetry deterministically (snapshots are applied in
        submission order, and within one snapshot by sorted name).
        """
        if not self.enabled:
            return
        for name in sorted(snapshot):
            data = snapshot[name]
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(float(data.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).set(float(data.get("value", 0.0)))
            elif kind == "histogram":
                self.histogram(
                    name, growth=data.get("growth", DEFAULT_BUCKET_GROWTH)
                ).merge_snapshot(data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format.

        Per the exposition spec: ``# HELP`` and ``# TYPE`` appear exactly
        once per base metric name, immediately before that metric's first
        sample (not once per labelled child), and label values escape
        backslash, double-quote, and newline.  HELP text escapes backslash
        and newline.
        """
        groups: Dict[str, List[Tuple[str, Instrument]]] = {}
        for name in sorted(self._instruments):
            base, labels = _split_labels(name)
            groups.setdefault(base, []).append((labels, self._instruments[name]))
        lines: List[str] = []
        for base in sorted(groups):
            members = groups[base]
            help_text = next((m.help for _, m in members if m.help), "")
            if help_text:
                lines.append(f"# HELP {base} {_escape_help(help_text)}")
            lines.append(f"# TYPE {base} {members[0][1].kind}")
            for raw_labels, inst in members:
                pairs = _parse_labels(raw_labels)
                labels = _render_labels(pairs)
                if isinstance(inst, Histogram):
                    cumulative = 0
                    for i in sorted(inst.buckets):
                        cumulative += inst.buckets[i]
                        le = _render_labels(
                            pairs + [("le", f"{inst.bucket_upper_bound(i):g}")]
                        )
                        lines.append(f"{base}_bucket{le} {cumulative}")
                    inf = _render_labels(pairs + [("le", "+Inf")])
                    lines.append(f"{base}_bucket{inf} {inst.count}")
                    lines.append(f"{base}_sum{labels} {_fmt(inst.sum)}")
                    lines.append(f"{base}_count{labels} {inst.count}")
                else:
                    lines.append(f"{base}{labels} {_fmt(inst.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _split_labels(name: str) -> Tuple[str, str]:
    if "{" in name and name.endswith("}"):
        base, _, rest = name.partition("{")
        return base, "{" + rest
    return name, ""


_VALUE_UNESCAPES = {"n": "\n", "\\": "\\", '"': '"'}


def _parse_labels(labels: str) -> List[Tuple[str, str]]:
    """Parse an inline ``{k="v",...}`` string into raw (key, value) pairs.

    Values may be quoted (commas and ``=`` allowed inside; a backslash
    escapes the next character) or bare.  Raw values come back unescaped;
    :func:`_render_labels` re-escapes them for the wire.
    """
    if not labels:
        return []
    body = labels[1:-1]
    pairs: List[Tuple[str, str]] = []
    i, n = 0, len(body)
    while i < n:
        eq = body.find("=", i)
        if eq < 0:
            break
        key = body[i:eq].strip()
        i = eq + 1
        if i < n and body[i] == '"':
            i += 1
            buf: List[str] = []
            while i < n:
                ch = body[i]
                if ch == "\\" and i + 1 < n:
                    buf.append(_VALUE_UNESCAPES.get(body[i + 1], body[i + 1]))
                    i += 2
                    continue
                if ch == '"':
                    i += 1
                    break
                buf.append(ch)
                i += 1
            value = "".join(buf)
        else:
            end = body.find(",", i)
            if end < 0:
                end = n
            value = body[i:end].strip()
            i = end
        pairs.append((key, value))
        if i < n and body[i] == ",":
            i += 1
    return pairs


_VALUE_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label_value(value: str) -> str:
    return "".join(_VALUE_ESCAPES.get(ch, ch) for ch in value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(pairs: List[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
