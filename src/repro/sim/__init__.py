"""Discrete-event simulation substrate.

Public surface:

* :class:`Simulator` — the event loop; spawn generator processes on it.
* :class:`Process` and what it waits on, one wait at a time:
  :class:`Signal`, :class:`Timeout`, :class:`AllOf`.
* :class:`RngStreams` — named deterministic randomness.
* :class:`DeviceCohort`, :class:`CohortEngine` — the vectorized batch
  engine for population-scale (10^5-10^6 device) experiments.
* :class:`Counter` — a component's own named tallies (transport and
  engine counters live in :mod:`repro.obs`).
"""

from repro.sim.cohort import CohortEngine, DeviceCohort
from repro.sim.engine import AllOf, Process, Signal, Simulator, Timeout
from repro.sim.monitor import Counter
from repro.sim.rng import RngStreams, derive_seed, seeded_generator, seeded_rng

__all__ = [
    "Simulator",
    "CohortEngine",
    "DeviceCohort",
    "seeded_generator",
    "Process",
    "Signal",
    "Timeout",
    "AllOf",
    "RngStreams",
    "derive_seed",
    "seeded_rng",
    "Counter",
]
