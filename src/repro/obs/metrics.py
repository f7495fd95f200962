"""Named metrics: counters, histograms, and last-value gauges.

One :class:`Metrics` registry is threaded through all three hot layers
(simulation engine, network transport, sweep runner) so a single run —
or a whole sweep — lands in one mergeable, JSON-able snapshot.

Design constraints, in priority order:

* **Zero cost when disabled** — instrumented code holds ``None`` instead
  of a registry and guards every record with one ``is not None`` check;
  nothing here runs at all.
* **Bounded memory when enabled** — :class:`Histogram` keeps streaming
  aggregates (count/sum/min/max) plus power-of-two bucket counts, and
  retains raw samples only up to a fixed cap, so tracing a
  multi-million-event simulation cannot exhaust memory.
* **Deterministic output** — snapshots sort every name; nothing reads
  the host clock or ``id()``.
* **Order-independent merges** — folding k histograms together yields
  the same :meth:`Histogram.summary` for every merge order: exact
  aggregates are commutative, and the moment raw retention cannot hold
  *every* observation the percentiles switch to the power-of-two bucket
  sketch (a pure count map, merged by addition) instead of answering
  from whichever raw prefix happened to survive.  ``summary()`` labels
  the provenance via ``percentile_source`` and flags lossy merges with
  ``merged_truncated``, so an estimated percentile is never silently
  reported as exact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Histogram", "Metrics", "RAW_SAMPLE_CAP"]

#: Raw observations a histogram retains verbatim (streaming aggregates
#: keep counting past the cap; ``truncated`` flags the overflow).
RAW_SAMPLE_CAP = 4096


class Histogram:
    """Streaming distribution of observed values.

    Exact count/sum/min/max always; raw values up to
    :data:`RAW_SAMPLE_CAP` for percentile queries on small samples;
    power-of-two magnitude buckets for a shape sketch at any scale.

    Percentiles are exact (nearest-rank over the full raw sample) while
    every observation is retained, and switch to a bucket-sketch
    estimate — deterministic and merge-order-independent — once raw
    retention has overflowed (:attr:`truncated`).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_raw", "_buckets",
                 "_merged_truncated")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._raw: List[float] = []
        self._buckets: Dict[int, int] = {}
        self._merged_truncated = False

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._raw) < RAW_SAMPLE_CAP:
            self._raw.append(value)
        bucket = _bucket_of(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of an empty histogram")
        # Clamp: float summation can drift a few ULPs outside [min, max].
        return min(max(self.total / self.count, self.minimum), self.maximum)

    @property
    def truncated(self) -> bool:
        """True when raw retention overflowed (aggregates stay exact)."""
        return self.count > len(self._raw)

    @property
    def merged_truncated(self) -> bool:
        """True when a merge could not retain every raw observation.

        Set when either merge side was already truncated or the combined
        raw samples overflowed :data:`RAW_SAMPLE_CAP`; from then on
        percentiles come from the bucket sketch, never from the
        (necessarily partial) raw retention.
        """
        return self._merged_truncated

    @property
    def percentile_source(self) -> str:
        """``"raw"`` (exact) or ``"buckets"`` (sketch estimate)."""
        return "buckets" if self.truncated else "raw"

    def values(self) -> List[float]:
        """Retained raw observations (all of them unless ``truncated``)."""
        return list(self._raw)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile.

        Exact over the full raw sample while every observation is
        retained; once :attr:`truncated`, answers with a bucket-sketch
        estimate (see :meth:`percentile_source`) instead of silently
        using whatever raw prefix survived.
        """
        if self.count == 0:
            raise ValueError("percentile of an empty histogram")
        if self.truncated:
            return self._bucket_percentile(q)
        ordered = sorted(self._raw)
        rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def _bucket_percentile(self, q: float) -> float:
        """Estimate a percentile from the power-of-two bucket counts.

        Buckets are scanned in ascending value order (bucket index order)
        to the one containing the nearest rank; the result interpolates
        linearly inside that bucket's range and is clamped into
        ``[minimum, maximum]``.  Depends only on the bucket count map and
        the exact aggregates, both of which merge commutatively — so the
        estimate is identical for every merge order.
        """
        rank = max(0, min(self.count - 1, math.ceil(q * self.count) - 1))
        seen = 0
        for bucket in sorted(self._buckets):
            n = self._buckets[bucket]
            if rank < seen + n:
                lo, hi = _bucket_bounds(bucket)
                span = hi - lo
                if not math.isfinite(span):
                    estimate = lo if math.isfinite(lo) else 0.0
                else:
                    estimate = lo + ((rank - seen) + 0.5) / n * span
                return min(max(estimate, self.minimum), self.maximum)
            seen += n
        # Unreachable unless bucket counts disagree with ``count``.
        return self.maximum

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram, order-independently.

        Aggregates and bucket counts add exactly.  Raw samples are kept
        in full while the combination fits :data:`RAW_SAMPLE_CAP`;
        otherwise each side contributes a deterministic, proportional
        stride-sample (for :meth:`values` inspection only) and
        :attr:`merged_truncated` is set — reported percentiles then come
        from the bucket sketch, which does not depend on merge order.
        """
        lossy = (
            self.truncated
            or other.truncated
            or len(self._raw) + len(other._raw) > RAW_SAMPLE_CAP
        )
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        if lossy:
            total_raw = len(self._raw) + len(other._raw)
            if total_raw > RAW_SAMPLE_CAP:
                quota_other = min(
                    len(other._raw),
                    round(RAW_SAMPLE_CAP * len(other._raw) / total_raw),
                )
                quota_self = min(
                    len(self._raw), RAW_SAMPLE_CAP - quota_other
                )
                self._raw = _stride_sample(self._raw, quota_self)
                self._raw.extend(_stride_sample(other._raw, quota_other))
            else:
                self._raw.extend(other._raw)
            self._merged_truncated = True
        else:
            self._raw.extend(other._raw)
        self._merged_truncated = self._merged_truncated or other._merged_truncated
        for bucket, n in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + n

    def summary(self) -> Dict[str, Any]:
        if self.count == 0:
            return {"count": 0}
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": round(self.total, 9),
            # Rounding can push the mean past an extreme; clamp after it.
            "mean": min(max(round(self.mean, 9), self.minimum), self.maximum),
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "percentile_source": self.percentile_source,
        }
        if self.truncated:
            out["truncated"] = True
        if self._merged_truncated:
            out["merged_truncated"] = True
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram(count={self.count})"


def _bucket_of(value: float) -> int:
    """Power-of-two magnitude bucket index; 0 holds [0, 1), negatives
    and non-finite values get sentinel buckets."""
    if value != value or value in (math.inf, -math.inf):
        return -(10 ** 6)
    if value < 0:
        return -1 - _bucket_of(-value)
    if value < 1.0:
        return 0
    return 1 + int(math.log2(value))


#: The sentinel bucket holding NaN/inf observations.
_NONFINITE_BUCKET = -(10 ** 6)


def _bucket_bounds(bucket: int) -> Tuple[float, float]:
    """The half-open value range ``[lo, hi)`` a bucket index covers.

    Mirrors :func:`_bucket_of`: bucket 0 is ``[0, 1)``, bucket ``b >= 1``
    is ``[2**(b-1), 2**b)``, and negative buckets are the mirrored
    negative ranges.  Exponents beyond float range degrade to ``inf``
    (callers clamp into ``[minimum, maximum]`` anyway).
    """
    if bucket == _NONFINITE_BUCKET:
        return -math.inf, math.inf
    if bucket == 0:
        return 0.0, 1.0
    if bucket >= 1:
        lo = 2.0 ** (bucket - 1) if bucket <= 1024 else math.inf
        hi = 2.0 ** bucket if bucket <= 1023 else math.inf
        return lo, hi
    lo, hi = _bucket_bounds(-1 - bucket)
    return -hi, -lo


def _stride_sample(values: List[float], k: int) -> List[float]:
    """``k`` evenly spaced elements of ``values`` (all of them if
    ``k >= len``); purely positional, so deterministic."""
    n = len(values)
    if k >= n:
        return list(values)
    if k <= 0:
        return []
    step = n / k
    return [values[min(n - 1, int((i + 0.5) * step))] for i in range(k)]


class Metrics:
    """The registry: flat ``inc``/``observe``/``set_gauge`` interface.

    Names are dotted strings, conventionally ``<layer>.<metric>``
    (``sim.events_fired``, ``net.rpc_latency_s``, ``sweep.cache_hits``).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, float] = {}

    # -- recording -------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for deltas")
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    # -- reading ---------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    def names(self) -> Iterator[Tuple[str, str]]:
        """All registered ``(kind, name)`` pairs, sorted."""
        for name in sorted(self._counters):
            yield "counter", name
        for name in sorted(self._gauges):
            yield "gauge", name
        for name in sorted(self._histograms):
            yield "histogram", name

    def merge(self, other: "Metrics") -> None:
        """Fold another registry into this one (sweep fan-in)."""
        for name, amount in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + amount
        for name, value in other._gauges.items():
            self._gauges[name] = value
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)

    def snapshot(self) -> Dict[str, Any]:
        """A sorted, JSON-able dump of everything recorded."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].summary()
                for k in sorted(self._histograms)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Metrics(counters={len(self._counters)},"
            f" histograms={len(self._histograms)},"
            f" gauges={len(self._gauges)})"
        )
