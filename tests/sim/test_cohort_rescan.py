"""The cohort step's restricted rescan, against a full-rescan reference.

``DeviceCohort.advance_to`` scans the whole cohort once per step, then
re-checks only the devices the previous pass re-drew, and keeps the
online-time integral as two scalar flip-time sums.  ``FullRescanCohort``
below is the plain algorithm: every pass rescans all devices, and every
device carries its own online-seconds integral.  Fed the same seed, the
two must consume the same draws in the same order, so the state arrays
agree bit for bit and the counters exactly.

Dwell means of 0.1-20 s against ~50 s steps make one step run dozens
to hundreds of passes, which is where a restricted rescan could drift.
"""

import os

import numpy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Metrics
from repro.sim.cohort import CohortEngine, DeviceCohort
from repro.sim.rng import seeded_generator

SETTINGS = settings(
    max_examples=10 if os.environ.get("CI") else 25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class FullRescanCohort:
    """Reference renewal step: a full rescan per pass, per-device time."""

    def __init__(self, size, mean_uptime, mean_downtime, attrition,
                 generator, start_online):
        self.size = size
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        self.attrition = attrition
        self.generator = generator
        self.now = 0.0
        self.online = numpy.full(size, start_online)
        self.departed = numpy.zeros(size, dtype=bool)
        self.last_update = numpy.zeros(size)
        self.online_seconds = numpy.zeros(size)
        first_scale = mean_uptime if start_online else mean_downtime
        self.next_flip = self._dwells(first_scale, size)
        self.flips = 0
        self.sessions = 0
        self.draws = size

    def _dwells(self, scales, size):
        return -scales * numpy.log1p(-self.generator.random(size))

    def advance_to(self, t):
        while True:
            due = numpy.nonzero(~self.departed & (self.next_flip <= t))[0]
            if due.size == 0:
                break
            flip_times = self.next_flip[due]
            was_online = self.online[due]
            going_off = due[was_online]
            self.online_seconds[going_off] += (
                flip_times[was_online] - self.last_update[going_off]
            )
            self.last_update[due] = flip_times
            self.online[due] = ~was_online
            self.flips += int(due.size)
            self.sessions += int(due.size - going_off.size)
            if self.attrition > 0.0 and going_off.size:
                draws = self.generator.random(going_off.size)
                self.draws += int(going_off.size)
                departing = going_off[draws < self.attrition]
                self.departed[departing] = True
                self.next_flip[departing] = numpy.inf
            stays = ~self.departed[due]
            alive = due[stays]
            if alive.size:
                scales = numpy.where(
                    self.online[alive], self.mean_uptime, self.mean_downtime
                )
                self.next_flip[alive] = (
                    flip_times[stays] + self._dwells(scales, alive.size)
                )
                self.draws += int(alive.size)
        still_on = numpy.nonzero(self.online)[0]
        self.online_seconds[still_on] += t - self.last_update[still_on]
        self.last_update[:] = t
        self.now = t

    def availability_time_mean(self):
        return float(self.online_seconds.sum() / (self.size * self.now))


populations = st.fixed_dictionaries({
    "size": st.integers(min_value=1, max_value=200),
    "mean_uptime": st.floats(min_value=0.1, max_value=20.0),
    "mean_downtime": st.floats(min_value=0.1, max_value=20.0),
    "attrition": st.sampled_from((0.0, 0.05, 0.5)),
    "start_online": st.booleans(),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
})

# Irregular advance_to times: repeated instants, sub-tick nudges, and
# steps around the 50 s tick.
steps = st.lists(
    st.one_of(
        st.just(0.0), st.just(50.0), st.floats(min_value=0.0, max_value=100.0)
    ),
    min_size=1,
    max_size=6,
)


class TestRestrictedRescanIsExact:
    @SETTINGS
    @given(population=populations, increments=steps)
    def test_matches_full_rescan_reference(self, population, increments):
        seed = population.pop("seed")
        cohort = DeviceCohort(
            "rescan", generator=seeded_generator(seed, "test.rescan"),
            **population,
        )
        reference = FullRescanCohort(
            population["size"], population["mean_uptime"],
            population["mean_downtime"], population["attrition"],
            seeded_generator(seed, "test.rescan"),
            population["start_online"],
        )
        t = 0.0
        for increment in increments:
            t += increment
            flips_before = reference.flips
            step_flips = cohort.advance_to(t)
            reference.advance_to(t)
            assert step_flips == reference.flips - flips_before
            assert cohort.online.tobytes() == reference.online.tobytes()
            assert cohort.departed.tobytes() == reference.departed.tobytes()
            assert cohort.next_flip.tobytes() == reference.next_flip.tobytes()
            assert cohort.flips == reference.flips
            assert cohort.sessions() == reference.sessions
            assert cohort.draws == reference.draws
            if t > 0:
                assert abs(
                    cohort.availability_time_mean()
                    - reference.availability_time_mean()
                ) <= 1e-12


class TestCohortStepCounters:
    def test_fifty_thousand_devices_forty_ticks(self):
        # Exact counts of one seeded run: any change to the step, the
        # dwell sampler or the draw order moves at least one of them.
        metrics = Metrics()
        engine = CohortEngine(tick=50.0, metrics=metrics)
        cohort = engine.add(DeviceCohort(
            "step", 50_000, mean_uptime=600.0, mean_downtime=300.0,
            attrition=0.01, generator=seeded_generator(7001, "bench.cohort"),
        ))
        engine.run(2000.0)
        assert metrics.snapshot()["counters"] == {
            "cohort.devices": 50_000,
            "cohort.draws": 328_509,  # excludes the 50k first dwells
            "cohort.flips": 214_033,
            "cohort.ticks": 40,
        }
        assert {
            "flips": cohort.flips,
            "sessions": cohort.sessions(),
            "departed": cohort.departed_count(),
            "draws": cohort.draws,
            "final_online": cohort.online_count(),
        } == {
            "flips": 214_033,
            "sessions": 98_387,
            "departed": 1170,
            "draws": 378_509,
            "final_online": 32_741,
        }
