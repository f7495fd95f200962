"""Latency models for the simulated network.

A latency model answers one question: how long does a message of ``size``
bytes take from node A to node B right now?  Total delay is propagation
(model-specific) plus serialization on the slower of the two access links.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.net.node import Node
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import numpy

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "PlanetLatency",
]


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
        if size_bytes < 0:
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


class UniformLatency(LatencyModel):
    """Propagation delay drawn uniformly from [lo, hi] per message.

    ``streams`` may be ``None`` for cohort-only use (only the vectorized
    sampler works then; per-message draws need the scalar stream).
    """

    def __init__(
        self,
        streams: Optional[RngStreams] = None,
        lo: float = 0.01,
        hi: float = 0.1,
    ):
        if not 0 <= lo <= hi:
            raise NetworkError(f"invalid latency range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._rng = None if streams is None else streams.stream("latency.uniform")

    def propagation_delay(self, src: Node, dst: Node) -> float:
        if self._rng is None:
            raise NetworkError(
                "UniformLatency built without streams supports only"
                " sample_propagation_delays"
            )
        return self._rng.uniform(self.lo, self.hi)

    def sample_propagation_delays(
        self, generator: "numpy.random.Generator", n: int
    ) -> Any:
        # Inverse-CDF over the raw uniform doubles; see repro.sim.cohort
        # for why draws avoid the distribution-specific methods.
        return self.lo + (self.hi - self.lo) * generator.random(n)


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


class PlanetLatency(LatencyModel):
    """Pairwise-stable delays: each node gets a random 2-D coordinate and
    delay is proportional to Euclidean distance, plus a per-node access hop.

    This gives geographically-consistent delays (triangle-inequality-ish),
    which matters for experiments comparing nearby federation servers
    against a distant centralized provider.
    """

    def __init__(
        self,
        streams: RngStreams,
        diameter_seconds: float = 0.3,
        access_hop_seconds: float = 0.005,
    ):
        self.diameter_seconds = float(diameter_seconds)
        self.access_hop_seconds = float(access_hop_seconds)
        self._rng = streams.stream("latency.planet")
        self._coords: Dict[str, Tuple[float, float]] = {}

    def _coord(self, node: Node) -> Tuple[float, float]:
        coord = self._coords.get(node.node_id)
        if coord is None:
            coord = (self._rng.random(), self._rng.random())
            self._coords[node.node_id] = coord
        return coord

    def place(self, node: Node, x: float, y: float) -> None:
        """Pin a node to explicit coordinates in [0,1]^2 (e.g. to model a
        centralized datacenter far from a user cluster)."""
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise NetworkError(f"coordinates out of range: ({x}, {y})")
        self._coords[node.node_id] = (x, y)

    def propagation_delay(self, src: Node, dst: Node) -> float:
        if src.node_id == dst.node_id:
            return 0.0
        (x1, y1), (x2, y2) = self._coord(src), self._coord(dst)
        distance = math.hypot(x2 - x1, y2 - y1) / math.sqrt(2.0)
        return 2 * self.access_hop_seconds + distance * self.diameter_seconds

    def sample_propagation_delays(
        self, generator: "numpy.random.Generator", n: int
    ) -> Any:
        """Delays for ``n`` fresh random pairs on the unit square.

        The batch path has no stable node identities to pin coordinates
        to, so each sample is an independent pair — the same marginal
        distribution :meth:`propagation_delay` produces for previously
        unseen node pairs.
        """
        import numpy

        dx = generator.random(n) - generator.random(n)
        dy = generator.random(n) - generator.random(n)
        distance = numpy.hypot(dx, dy) / math.sqrt(2.0)
        return 2 * self.access_hop_seconds + distance * self.diameter_seconds
