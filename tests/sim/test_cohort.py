"""Unit coverage for the vectorized cohort engine (repro.sim.cohort)."""

import math
import tracemalloc

import numpy
import pytest

from repro.errors import SimulationError
from repro.obs.metrics import Metrics
from repro.obs.runtime import observe
from repro.sim.cohort import CohortEngine, DeviceCohort
from repro.sim.rng import seeded_generator


def make_cohort(size=50, up=600.0, down=300.0, attrition=0.0, seed=11,
                **kwargs):
    return DeviceCohort(
        "test", size, up, down, attrition,
        generator=seeded_generator(seed, "test.cohort"), **kwargs,
    )


class TestDeviceCohortValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(SimulationError):
            make_cohort(size=0)

    def test_dwell_means_must_be_positive(self):
        with pytest.raises(SimulationError):
            make_cohort(up=0.0)
        with pytest.raises(SimulationError):
            make_cohort(down=-1.0)

    def test_attrition_must_be_a_probability(self):
        with pytest.raises(SimulationError):
            make_cohort(attrition=1.5)
        with pytest.raises(SimulationError):
            make_cohort(attrition=-0.1)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_dwell_means_must_be_finite(self, mean):
        with pytest.raises(SimulationError):
            make_cohort(up=mean)
        with pytest.raises(SimulationError):
            make_cohort(down=mean)

    def test_rewind_rejected(self):
        cohort = make_cohort()
        cohort.advance_to(100.0)
        with pytest.raises(SimulationError):
            cohort.advance_to(50.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_advance_rejected(self, t):
        cohort = make_cohort()
        cohort.advance_to(100.0)
        with pytest.raises(SimulationError):
            cohort.advance_to(t)
        assert cohort.now == 100.0
        # The clock is untouched, so the rewind check still fires.
        with pytest.raises(SimulationError):
            cohort.advance_to(50.0)


class TestDeviceCohortMemory:
    def test_ten_bytes_of_array_state_per_device(self):
        # online and departed (bool) plus next_flip (float64); the
        # online-time integral is two scalars, not two arrays.
        size = 1000
        cohort = make_cohort(size=size, up=10.0, down=10.0, attrition=0.2)
        cohort.advance_to(500.0)
        arrays = {
            name: value for name, value in vars(cohort).items()
            if isinstance(value, numpy.ndarray)
        }
        assert sorted(arrays) == ["departed", "next_flip", "online"]
        assert sum(a.nbytes for a in arrays.values()) == 10 * size

    def test_construction_peaks_within_the_budget(self):
        # The first dwells are drawn in place in their uniform buffer,
        # so building a cohort allocates its 10 bytes a device and no
        # full-size temporaries (18 bytes a device when it made two).
        size = 1_000_000
        generator = seeded_generator(11, "test.cohort")
        tracemalloc.start()
        try:
            DeviceCohort("test", size, 600.0, 300.0, 0.2,
                         generator=generator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / size <= 11


class TestDeviceCohortDynamics:
    def test_all_start_online_by_default(self):
        cohort = make_cohort(size=30)
        assert cohort.online_count() == 30
        assert cohort.availability_time_mean() == 1.0

    def test_start_offline_option(self):
        cohort = make_cohort(size=30, start_online=False)
        assert cohort.online_count() == 0
        assert cohort.availability_time_mean() == 0.0

    def test_flip_session_identity(self):
        # Every device starts online and strictly alternates, so
        # flips == 2*sessions + currently-offline, exactly.
        cohort = make_cohort(size=200)
        cohort.advance_to(5000.0)
        offline_now = cohort.size - cohort.online_count()
        assert cohort.flips == 2 * cohort.sessions() + offline_now

    def test_availability_approaches_stationary_mean(self):
        # up/(up+down) = 2/3; long horizon, many devices.
        cohort = make_cohort(size=2000, up=600.0, down=300.0, seed=3)
        cohort.advance_to(20_000.0)
        assert abs(cohort.availability_time_mean() - 2 / 3) < 0.03

    def test_advance_returns_step_flips(self):
        cohort = make_cohort(size=100)
        first = cohort.advance_to(1000.0)
        second = cohort.advance_to(2000.0)
        assert first + second == cohort.flips
        assert first > 0 and second > 0

    def test_no_flips_in_zero_width_window(self):
        cohort = make_cohort()
        cohort.advance_to(500.0)
        assert cohort.advance_to(500.0) == 0

    def test_full_attrition_departs_everyone_for_good(self):
        cohort = make_cohort(size=80, up=10.0, down=10.0, attrition=1.0)
        cohort.advance_to(1000.0)
        assert cohort.departed_count() == 80
        assert cohort.online_count() == 0
        # One flip each: online -> offline, then departed forever.
        assert cohort.flips == 80
        assert cohort.sessions() == 0
        assert all(math.isinf(t) for t in cohort.next_flip)

    def test_zero_attrition_never_departs(self):
        cohort = make_cohort(size=80, up=10.0, down=10.0, attrition=0.0)
        cohort.advance_to(1000.0)
        assert cohort.departed_count() == 0

    def test_partial_attrition_is_monotone_and_bounded(self):
        cohort = make_cohort(size=500, up=20.0, down=20.0, attrition=0.3)
        cohort.advance_to(200.0)
        early = cohort.departed_count()
        cohort.advance_to(2000.0)
        late = cohort.departed_count()
        assert 0 < early <= late <= 500

    def test_time_mean_tracks_online_integral(self):
        # With no flips possible before t (dwells are positive), the
        # time mean over a tiny horizon stays ~1.
        cohort = make_cohort(size=10, up=1e9, down=1e9)
        cohort.advance_to(100.0)
        assert cohort.availability_time_mean() == pytest.approx(1.0)

    def test_draw_accounting_matches_flip_structure(self):
        # size initial dwells + one redraw per non-departing flip +
        # one attrition draw per going-offline flip.
        cohort = make_cohort(size=100, attrition=0.0)
        cohort.advance_to(3000.0)
        assert cohort.draws == 100 + cohort.flips


class TestCohortEngine:
    def test_tick_must_be_positive(self):
        with pytest.raises(SimulationError):
            CohortEngine(tick=0.0)

    @pytest.mark.parametrize("tick", [math.nan, math.inf])
    def test_tick_must_be_finite(self, tick):
        with pytest.raises(SimulationError):
            CohortEngine(tick=tick)

    @pytest.mark.parametrize("until", [math.nan, math.inf])
    def test_non_finite_until_rejected(self, until):
        engine = CohortEngine(tick=50.0)
        cohort = engine.add(make_cohort())
        with pytest.raises(SimulationError):
            engine.run(until)
        assert engine.now == 0.0 and engine.ticks == 0
        assert cohort.now == 0.0

    def test_add_rejects_advanced_cohort(self):
        engine = CohortEngine(tick=10.0)
        cohort = make_cohort()
        cohort.advance_to(5.0)
        with pytest.raises(SimulationError):
            engine.add(cohort)

    def test_run_backwards_rejected(self):
        engine = CohortEngine(tick=10.0)
        engine.run(100.0)
        with pytest.raises(SimulationError):
            engine.run(50.0)

    def test_partial_final_tick_lands_on_until(self):
        engine = CohortEngine(tick=30.0)
        cohort = engine.add(make_cohort())
        boundaries = []
        engine.run(100.0, on_tick=boundaries.append)
        assert boundaries == [30.0, 60.0, 90.0, 100.0]
        assert engine.now == 100.0
        assert cohort.now == 100.0
        assert engine.ticks == 4

    def test_cohorts_advance_in_lockstep(self):
        engine = CohortEngine(tick=25.0)
        a = engine.add(make_cohort(seed=1))
        b = engine.add(make_cohort(seed=2))
        seen = []
        engine.run(200.0, on_tick=lambda t: seen.append((a.now, b.now)))
        assert all(ta == tb for ta, tb in seen)

    def test_metrics_recorded_under_observation(self):
        metrics = Metrics()
        with observe(metrics=metrics):
            engine = CohortEngine(tick=50.0)
            cohort = engine.add(make_cohort(size=120))
            engine.run(1000.0)
        assert metrics.counter("cohort.devices") == 120
        assert metrics.counter("cohort.ticks") == 20
        assert metrics.counter("cohort.flips") == cohort.flips
        assert metrics.counter("cohort.draws") == cohort.draws - 120
        assert metrics.histogram("cohort.online_fraction").count == 20

    def test_no_observation_no_metrics(self):
        engine = CohortEngine(tick=50.0)
        engine.add(make_cohort())
        engine.run(500.0)
        assert engine._metrics is None

    def test_explicit_metrics_override(self):
        metrics = Metrics()
        engine = CohortEngine(tick=50.0, metrics=metrics)
        engine.add(make_cohort(size=10))
        engine.run(100.0)
        assert metrics.counter("cohort.devices") == 10
