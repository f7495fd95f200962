"""Named, seeded random-number streams.

Every stochastic component in the library draws from its own named stream so
that (a) whole experiments are reproducible from a single root seed, and
(b) adding randomness to one component does not perturb the draws another
component sees (the classic "common random numbers" discipline from the
simulation literature).

Example::

    streams = RngStreams(root_seed=42)
    churn_rng = streams.stream("churn")
    link_rng = streams.stream("links")
    # churn_rng draws never affect link_rng draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    import numpy

__all__ = [
    "RngStreams", "derive_seed", "graph_rng", "seeded_generator", "seeded_rng",
]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(root_seed: int, name: str) -> random.Random:
    """A standalone ``random.Random`` on the named stream.

    For free functions that take a ``seed`` argument but no
    :class:`RngStreams` (e.g. topology builders): the name keeps their
    draws decorrelated from every other consumer of the same root seed,
    exactly like :meth:`RngStreams.stream`.
    """
    return random.Random(derive_seed(root_seed, name))


def graph_rng(seed: int) -> random.Random:
    """A ``random.Random`` on the raw ``seed``, not a derived stream: the
    generator networkx seeds for its graph builders, so that
    :mod:`repro.net.topology` draws the graphs networkx draws."""
    return random.Random(seed)


def seeded_generator(root_seed: int, name: str) -> "numpy.random.Generator":
    """A ``numpy.random.Generator`` (PCG64) on the named stream.

    The vectorized sibling of :func:`seeded_rng`, used by the cohort
    engine (:mod:`repro.sim.cohort`) for whole-array draws.  The child
    seed comes from the same :func:`derive_seed` mapping, so scalar and
    vectorized consumers share one stream namespace without sharing (or
    perturbing) each other's draw sequences.

    This is the one sanctioned constructor for numpy generators: the
    DET004 lint rule flags ungoverned ``Generator``/``default_rng``
    construction anywhere else in the library.
    """
    import numpy

    return numpy.random.Generator(numpy.random.PCG64(derive_seed(root_seed, name)))


class RngStreams:
    """A factory for independent, named ``random.Random`` streams.

    Requesting the same name twice returns the same stream object, so
    components can share a stream by agreeing on its name.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}
        self._generators: Dict[str, "numpy.random.Generator"] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def generator(self, name: str) -> "numpy.random.Generator":
        """The vectorized (numpy) stream for ``name``, created on first use.

        Generators live in their own namespace-by-type: ``stream(n)`` and
        ``generator(n)`` share a child seed but never each other's state,
        so mixing scalar and array draws under one name stays safe.
        """
        gen = self._generators.get(name)
        if gen is None:
            gen = seeded_generator(self.root_seed, name)
            self._generators[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(root_seed={self.root_seed}, streams={len(self._streams)})"
