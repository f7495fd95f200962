"""Latency models for the simulated network.

A latency model answers one question: how long does a message of ``size``
bytes take from node A to node B right now?  Total delay is propagation
(model-specific) plus serialization on the slower of the two access links.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import NetworkError
from repro.net.node import Node
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import numpy

__all__ = ["LatencyModel", "ConstantLatency", "LogNormalLatency"]


class LatencyModel:
    """Base class; subclasses implement :meth:`propagation_delay`.

    Models also expose :meth:`sample_propagation_delays`, the vectorized
    form used by the cohort engine: ``n`` delay draws for anonymous
    random node pairs, taken from a caller-supplied numpy generator
    (build it with :func:`repro.sim.rng.seeded_generator`) rather than
    the model's own scalar stream, so the batch path never perturbs the
    per-message draw sequence.
    """

    def propagation_delay(self, src: Node, dst: Node) -> float:
        raise NotImplementedError

    def sample_propagation_delays(
        self, generator: "numpy.random.Generator", n: int
    ) -> Any:
        """``n`` propagation delays for random pairs, as a numpy array."""
        raise NetworkError(
            f"{type(self).__name__} has no vectorized sampler"
        )

    def delay(self, src: Node, dst: Node, size_bytes: int) -> float:
        """Propagation + serialization delay for a message."""
        if not size_bytes >= 0:  # also rejects NaN
            raise NetworkError(f"negative message size: {size_bytes}")
        bottleneck_bps = min(src.upstream_bps, dst.downstream_bps)
        serialization = (size_bytes * 8) / bottleneck_bps if size_bytes else 0.0
        return self.propagation_delay(src, dst) + serialization


class ConstantLatency(LatencyModel):
    """Fixed one-way propagation delay; the simplest useful model."""

    def __init__(self, seconds: float = 0.05):
        if not seconds >= 0:  # also rejects NaN
            raise NetworkError(f"negative latency: {seconds}")
        self.seconds = float(seconds)

    def propagation_delay(self, src: Node, dst: Node) -> float:
        return self.seconds

    def sample_propagation_delays(
        self, generator: "numpy.random.Generator", n: int
    ) -> Any:
        import numpy

        return numpy.full(n, self.seconds)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed per-message delay, the shape WAN RTT studies report.

    Parameterized by the median delay and sigma of the underlying normal.
    """

    def __init__(
        self,
        streams: Optional[RngStreams] = None,
        median: float = 0.05,
        sigma: float = 0.5,
    ):
        if median <= 0:
            raise NetworkError(f"median latency must be positive: {median}")
        self.mu = math.log(median)
        self.sigma = float(sigma)
        self._rng = None if streams is None else streams.stream("latency.lognormal")

    def propagation_delay(self, src: Node, dst: Node) -> float:
        if self._rng is None:
            raise NetworkError(
                "LogNormalLatency built without streams supports only"
                " sample_propagation_delays"
            )
        return self._rng.lognormvariate(self.mu, self.sigma)

    def sample_propagation_delays(
        self, generator: "numpy.random.Generator", n: int
    ) -> Any:
        import numpy

        return numpy.exp(self.mu + self.sigma * generator.standard_normal(n))
