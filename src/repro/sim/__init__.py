"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — the event loop; spawn generator processes on it.
* :class:`Process` and what it waits on, one wait at a time:
  :class:`Signal`, :class:`Timeout`, :class:`AllOf`.
* :class:`RngStreams` — named deterministic randomness.
* :class:`Counter` — a component's own named tallies (transport and
  engine counters live in :mod:`repro.obs`).

The vectorized cohort engine for population-scale (10^5-10^6 device)
experiments, :class:`~repro.sim.cohort.DeviceCohort` and
:class:`~repro.sim.cohort.CohortEngine`, computes with numpy and is
imported from :mod:`repro.sim.cohort`.
"""

from repro.sim.engine import AllOf, Process, Signal, Simulator, Timeout
from repro.sim.monitor import Counter
from repro.sim.rng import (
    RngStreams, derive_seed, graph_rng, seeded_generator, seeded_rng,
)

__all__ = [
    "Simulator",
    "seeded_generator",
    "Process",
    "Signal",
    "Timeout",
    "AllOf",
    "RngStreams",
    "derive_seed",
    "graph_rng",
    "seeded_rng",
    "Counter",
]
