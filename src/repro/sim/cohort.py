"""Vectorized cohort simulation: whole-population array updates.

The per-process engine (:mod:`repro.sim.engine`) schedules one heap
event per device transition, which tops out around 10^2-10^3 nodes.
The paper's §4 feasibility argument is about *millions* of devices, so
this module provides the batch alternative: a :class:`DeviceCohort`
holds the state of N homogeneous devices as three numpy arrays (online
flag, renewal clock, departure flag) plus two scalar flip-time sums,
and advances them between coarse ticks driven by a
:class:`CohortEngine`.  A step costs one O(N) comparison plus work
proportional to the devices that actually flip.

Semantics mirror :class:`repro.net.churn.ChurnProcess` — an alternating
renewal process with exponential dwell times and per-departure
attrition — but draws are batched, so the two engines agree only in
*aggregate distribution*, not draw-for-draw.  The tolerance contract
between them is documented in ``docs/SCALING.md`` and enforced by the
hypothesis equivalence suite in ``tests/sim/test_cohort_equivalence.py``.

Determinism notes:

* All randomness comes from one ``numpy.random.Generator`` handed in by
  the caller (build it with :func:`repro.sim.rng.seeded_generator`).
* Exponential dwells are drawn by inverse-CDF from ``Generator.random``
  — the raw uniform double stream, which numpy keeps stable across
  versions — rather than ``Generator.exponential``, whose ziggurat
  tables are not covered by the stream-compatibility guarantee.
* Aggregate counters (flips, sessions, departures, per-tick online
  counts) are integers, so golden tests can pin them exactly.

Memory stays O(arrays) + O(histogram buckets): 10 bytes of array state
per device, no per-device Python objects, and results stream into the
bucket-sketch :class:`repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional

import numpy

from repro.errors import SimulationError
from repro.obs.metrics import Metrics
from repro.obs.runtime import active as _active_observation

__all__ = ["CohortEngine", "DeviceCohort"]


def _exponential_dwells(
    generator: "numpy.random.Generator", scales: Any, size: int
) -> Any:
    """Exponential draws via inverse-CDF over the uniform double stream.

    ``scales`` may be a scalar or a per-element array of means.  Using
    ``-scale * log1p(-U)`` instead of ``Generator.exponential`` pins the
    draw sequence to the bit-generator's uniform output, which is the
    part of numpy's RNG surface with a cross-version stability promise.
    Each step runs in place in the uniform buffer, so a draw of ``size``
    dwells allocates ``size`` floats and no temporaries; negation is
    exact and multiplication commutes, so every draw is bit-identical
    to the expression above.
    """
    draws = generator.random(size)
    numpy.negative(draws, out=draws)
    numpy.log1p(draws, out=draws)
    return numpy.multiply(draws, -scales, out=draws)


class DeviceCohort:
    """N homogeneous devices advanced by whole-array renewal steps.

    Parameters mirror :class:`repro.net.churn.ChurnProfile`: exponential
    mean uptime/downtime in seconds plus a per-departure ``attrition``
    probability of never returning.  All devices start online (matching
    ``ChurnProcess``) unless ``start_online=False``.

    The per-device state is three flat numpy arrays -- ``online`` and
    ``departed`` (bool) and ``next_flip`` (float64), 10 bytes a device.
    The online-time integral is two scalars: the times of every
    online->offline and every offline->online flip, summed.  Aggregate
    accessors (:meth:`online_count`, :meth:`sessions`, ...) return plain
    Python ints/floats so reports stay JSON-safe.
    """

    def __init__(
        self,
        name: str,
        size: int,
        mean_uptime: float,
        mean_downtime: float,
        attrition: float = 0.0,
        *,
        generator: "numpy.random.Generator",
        start_online: bool = True,
    ):
        if size < 1:
            raise SimulationError(f"cohort needs at least one device: {size}")
        if not all(
            math.isfinite(mean) and mean > 0
            for mean in (mean_uptime, mean_downtime)
        ):
            raise SimulationError(
                f"cohort needs finite positive dwell means, got"
                f" {mean_uptime}, {mean_downtime}"
            )
        if not 0 <= attrition <= 1:
            raise SimulationError(f"attrition must be in [0,1]: {attrition}")
        self.name = str(name)
        self.size = int(size)
        self.mean_uptime = float(mean_uptime)
        self.mean_downtime = float(mean_downtime)
        self.attrition = float(attrition)
        self._generator = generator
        self.now = 0.0
        self.online = numpy.full(self.size, bool(start_online))
        self.departed = numpy.zeros(self.size, dtype=bool)
        # Every online interval opens at 0 or at an on-flip and closes at
        # an off-flip or at ``now``, so these two sums plus the online
        # count give the online-time integral (availability_time_mean).
        self._off_time_sum = 0.0
        self._on_time_sum = 0.0
        first_scale = self.mean_uptime if start_online else self.mean_downtime
        self.next_flip = _exponential_dwells(generator, first_scale, self.size)
        #: Total state transitions (either direction) so far.
        self.flips = 0
        #: Offline->online transitions so far (the per-process engine's
        #: ``Node.sessions``, summed over the cohort).
        self._sessions = 0
        #: Uniform draws consumed, the first dwells included.
        self.draws = self.size

    # -- the batch step ---------------------------------------------------

    def advance_to(self, t: float) -> int:
        """Process every renewal transition up to time ``t``, vectorized.

        Devices whose next flip lands inside the window are toggled in
        batch; a device flipping several times before ``t`` is handled by
        the loop (each pass re-draws its dwell and re-checks the clock).
        Only the first pass scans the whole cohort: a departed device
        holds ``next_flip == inf`` and never falls due, and a later pass
        can only find devices the previous pass re-drew, in the same
        ascending order a full rescan would.  Returns the number of
        flips processed in this step.
        """
        if not math.isfinite(t):
            raise SimulationError(
                f"cohort {self.name!r} needs a finite time, got {t}"
            )
        if t < self.now:
            raise SimulationError(
                f"cohort {self.name!r} cannot rewind from {self.now} to {t}"
            )
        flips_before = self.flips
        due = numpy.flatnonzero(self.next_flip <= t)
        while due.size:
            flip_times = self.next_flip[due]
            was_online = self.online[due]
            going_off = due[was_online]
            self._off_time_sum += float(flip_times[was_online].sum())
            self._on_time_sum += float(flip_times[~was_online].sum())
            self.online[due] = ~was_online
            self.flips += int(due.size)
            self._sessions += int(due.size - going_off.size)
            if self.attrition > 0.0 and going_off.size:
                # Attrition draw on every going-offline flip, like
                # ChurnProcess._flip; departed devices never rejoin.
                draws = self._generator.random(going_off.size)
                self.draws += int(going_off.size)
                departing = going_off[draws < self.attrition]
                self.departed[departing] = True
                self.next_flip[departing] = numpy.inf
            stays = ~self.departed[due]
            alive = due[stays]
            scales = numpy.where(
                was_online[stays], self.mean_downtime, self.mean_uptime
            )
            self.next_flip[alive] = flip_times[stays] + _exponential_dwells(
                self._generator, scales, alive.size
            )
            self.draws += int(alive.size)
            due = alive[self.next_flip[alive] <= t]
        self.now = float(t)
        return self.flips - flips_before

    # -- aggregates (plain Python scalars, JSON-safe) ---------------------

    def online_count(self) -> int:
        """Devices currently online (departed devices are offline)."""
        return int(numpy.count_nonzero(self.online))

    def departed_count(self) -> int:
        return int(numpy.count_nonzero(self.departed))

    def sessions(self) -> int:
        """Total offline->online transitions, summed over the cohort."""
        return self._sessions

    def availability_time_mean(self) -> float:
        """Exact time-averaged online fraction over [0, now].

        Float-valued (unlike the tick-sampled integer counts), so golden
        tests should pin the integer aggregates and treat this as
        approximate.
        """
        if self.now <= 0:
            return 1.0 if bool(self.online.all()) else 0.0
        online_seconds = (
            self._off_time_sum - self._on_time_sum
            + self.now * self.online_count()
        )
        return online_seconds / (self.size * self.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeviceCohort({self.name!r}, size={self.size},"
            f" online={self.online_count()}, t={self.now})"
        )


class CohortEngine:
    """Advances cohorts in coarse fixed ticks and aggregates per tick.

    The array-world counterpart of :class:`repro.sim.engine.Simulator`:
    it owns the clock, adopts the ambient :mod:`repro.obs` metrics
    registry exactly like the event engine does, and between ticks hands
    control to an ``on_tick`` callback where experiment drivers sample
    whole-cohort aggregates (integer online counts, probe batches, ...).

    Metrics recorded when a registry is active: ``cohort.devices``,
    ``cohort.ticks``, ``cohort.flips``, ``cohort.draws`` counters and a
    ``cohort.online_fraction`` histogram sampled at each tick boundary.
    """

    def __init__(self, tick: float, metrics: Optional[Metrics] = None):
        if not (math.isfinite(tick) and tick > 0):
            raise SimulationError(f"tick must be finite and positive: {tick}")
        if metrics is None:
            observation = _active_observation()
            if observation is not None:
                metrics = observation.metrics
        self._metrics = metrics
        self.tick = float(tick)
        self.now = 0.0
        self.ticks = 0
        self.cohorts: List[DeviceCohort] = []

    def add(self, cohort: DeviceCohort) -> DeviceCohort:
        """Register a cohort; it must not have advanced past the engine."""
        if cohort.now != self.now:
            raise SimulationError(
                f"cohort {cohort.name!r} is at t={cohort.now}, engine at"
                f" t={self.now}"
            )
        self.cohorts.append(cohort)
        if self._metrics is not None:
            self._metrics.inc("cohort.devices", cohort.size)
        return cohort

    def run(
        self,
        until: float,
        on_tick: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Advance every cohort to ``until`` in ``tick``-sized steps.

        ``on_tick(t)`` fires after all cohorts reach each tick boundary
        (including a final partial tick landing exactly on ``until``), so
        sampling code sees a mutually consistent population snapshot.
        """
        if not math.isfinite(until):
            raise SimulationError(f"cannot run to a non-finite time: {until}")
        if until < self.now:
            raise SimulationError(
                f"cannot run backwards: now={self.now}, until={until}"
            )
        while self.now < until:
            t = min(self.now + self.tick, until)
            flips = 0
            draws_before = sum(c.draws for c in self.cohorts)
            for cohort in self.cohorts:
                flips += cohort.advance_to(t)
            self.now = t
            self.ticks += 1
            if self._metrics is not None:
                self._metrics.inc("cohort.ticks")
                if flips:
                    self._metrics.inc("cohort.flips", flips)
                draws = sum(c.draws for c in self.cohorts) - draws_before
                if draws:
                    self._metrics.inc("cohort.draws", draws)
                for cohort in self.cohorts:
                    self._metrics.observe(
                        "cohort.online_fraction",
                        cohort.online_count() / cohort.size,
                    )
            if on_tick is not None:
                on_tick(t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CohortEngine(tick={self.tick}, now={self.now},"
            f" cohorts={len(self.cohorts)})"
        )
