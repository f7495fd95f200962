"""Measurement helpers: counters, time-weighted gauges, and samplers.

Experiments record outcomes through these instead of ad-hoc lists so that
drivers and tests can interrogate results uniformly.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Sampler", "TimeWeightedGauge", "Monitor", "summarize"]


@dataclass
class _Summary:
    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile on a pre-sorted list."""
    if not sorted_values:
        raise ValueError("percentile of empty sample")
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def summarize(values: List[float]) -> _Summary:
    """Summary statistics (count/mean/stdev/min/max/p50/p90/p99)."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    # Float summation can drift the mean a few ULPs outside [min, max]
    # (e.g. three identical large values); clamp so the mathematical
    # invariant min <= mean <= max holds for downstream consumers.
    mean = min(max(sum(ordered) / n, ordered[0]), ordered[-1])
    var = sum((v - mean) ** 2 for v in ordered) / n
    return _Summary(
        count=n,
        mean=mean,
        stdev=math.sqrt(var),
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=_percentile(ordered, 0.50),
        p90=_percentile(ordered, 0.90),
        p99=_percentile(ordered, 0.99),
    )


class Counter:
    """A monotonically increasing named counter."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def increment(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Sampler for deltas")
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


class Sampler:
    """Collects raw observations per metric name."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = defaultdict(list)

    def record(self, name: str, value: float) -> None:
        self._samples[name].append(float(value))

    def values(self, name: str) -> List[float]:
        return list(self._samples.get(name, []))

    def count(self, name: str) -> int:
        return len(self._samples.get(name, ()))

    def mean(self, name: str) -> float:
        values = self._samples.get(name)
        if not values:
            raise ValueError(f"no samples recorded for {name!r}")
        return sum(values) / len(values)

    def summary(self, name: str) -> _Summary:
        return summarize(self.values(name))

    def names(self) -> List[str]:
        return sorted(self._samples)


class TimeWeightedGauge:
    """Tracks a piecewise-constant quantity and integrates it over time.

    Used for, e.g., "average number of online replicas": call
    ``set(now, value)`` at every change and read ``time_average(now)``.
    """

    def __init__(self, initial: float = 0.0, start_time: float = 0.0):
        self._value = float(initial)
        self._last_change = float(start_time)
        self._area = 0.0
        self._start = float(start_time)

    @property
    def value(self) -> float:
        return self._value

    def set(self, now: float, value: float) -> None:
        if now < self._last_change:
            raise ValueError(
                f"gauge updated backwards in time: {now} < {self._last_change}"
            )
        self._area += self._value * (now - self._last_change)
        self._value = float(value)
        self._last_change = now

    def add(self, now: float, delta: float) -> None:
        self.set(now, self._value + delta)

    def time_average(self, now: float) -> float:
        """Average value over [start_time, now]."""
        elapsed = now - self._start
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_change)
        return area / elapsed


class Monitor:
    """Bundles a counter, a sampler, and named gauges for one experiment."""

    def __init__(self, start_time: float = 0.0):
        self.counters = Counter()
        self.samples = Sampler()
        self._gauges: Dict[str, TimeWeightedGauge] = {}
        self._start_time = start_time

    def gauge(self, name: str, initial: float = 0.0) -> TimeWeightedGauge:
        g = self._gauges.get(name)
        if g is None:
            g = TimeWeightedGauge(initial, self._start_time)
            self._gauges[name] = g
        return g

    def gauges(self) -> Dict[str, TimeWeightedGauge]:
        return dict(self._gauges)

    def report(self, now: Optional[float] = None) -> Dict[str, object]:
        """A flat dict snapshot suitable for printing or asserting on."""
        out: Dict[str, object] = {}
        for name, count in sorted(self.counters.as_dict().items()):
            out[f"count.{name}"] = count
        for name in self.samples.names():
            out[f"sample.{name}"] = self.samples.summary(name).as_dict()
        if now is not None:
            for name, g in sorted(self._gauges.items()):
                out[f"gauge.{name}"] = g.time_average(now)
        return out
