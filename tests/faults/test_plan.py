"""FaultPlan construction, validation, and JSON round-trips."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    Corrupt,
    Crash,
    DropBurst,
    FaultPlan,
    LatencySpike,
    Partition,
)


class TestEventValidation:
    def test_partition_needs_nonempty_groups(self):
        with pytest.raises(FaultError):
            Partition((), at=1.0)
        with pytest.raises(FaultError):
            Partition(((), ()), at=1.0)

    def test_partition_heal_must_follow_at(self):
        with pytest.raises(FaultError):
            Partition((("a",),), at=10.0, heal_at=10.0)
        with pytest.raises(FaultError):
            Partition((("a",),), at=10.0, heal_at=5.0)

    def test_negative_times_rejected(self):
        with pytest.raises(FaultError):
            Crash("n", at=-1.0)
        with pytest.raises(FaultError):
            Partition((("a",),), at=-0.5)

    def test_nan_times_rejected(self):
        nan = float("nan")
        with pytest.raises(FaultError, match="must be >= 0"):
            Crash("n", at=nan)
        with pytest.raises(FaultError, match="must be >= 0"):
            Partition((("a",),), at=1.0, heal_at=nan)
        with pytest.raises(FaultError, match="must be >= 0"):
            DropBurst(window=(nan, 1.0), prob=0.5)

    def test_crash_restart_must_follow_at(self):
        with pytest.raises(FaultError):
            Crash("n", at=5.0, restart_at=5.0)

    def test_crash_needs_node_id(self):
        with pytest.raises(FaultError):
            Crash("", at=1.0)

    def test_window_must_be_ordered_pair(self):
        with pytest.raises(FaultError):
            DropBurst(window=(10.0, 10.0), prob=0.5)
        with pytest.raises(FaultError):
            DropBurst(window=(10.0,), prob=0.5)

    def test_probabilities_open_interval(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(FaultError):
                DropBurst(window=(0.0, 1.0), prob=bad)
            with pytest.raises(FaultError):
                Corrupt(window=(0.0, 1.0), prob=bad)

    def test_latency_factor_must_exceed_one(self):
        for bad in (1.0, 0.5, 0.0, -2.0, float("nan")):
            with pytest.raises(FaultError):
                LatencySpike(window=(0.0, 1.0), factor=bad)

    def test_booleans_are_not_numbers(self):
        with pytest.raises(FaultError):
            Crash("n", at=True)


class TestPlanConstruction:
    def test_events_sorted_by_start_time(self):
        plan = FaultPlan([
            Crash("b", at=20.0),
            Crash("a", at=10.0),
            DropBurst(window=(5.0, 15.0), prob=0.5),
        ])
        assert [e.at for e in plan] == [5.0, 10.0, 20.0]

    def test_rejects_non_events(self):
        with pytest.raises(FaultError):
            FaultPlan([{"kind": "crash"}])

    def test_rejects_empty_name(self):
        with pytest.raises(FaultError):
            FaultPlan([], name="")

    def test_node_ids_deduplicated_sorted(self):
        plan = FaultPlan([
            Crash("b", at=1.0),
            Crash("a", at=2.0),
            Partition((("a", "c"), ("b",)), at=3.0),
        ])
        assert plan.node_ids() == ["a", "b", "c"]

    def test_end_time_covers_heals_and_windows(self):
        plan = FaultPlan([
            Crash("a", at=10.0, restart_at=90.0),
            Partition((("a",),), at=5.0, heal_at=50.0),
            LatencySpike(window=(20.0, 95.0), factor=2.0),
        ])
        assert plan.end_time == 95.0

    def test_len_and_iter(self):
        plan = FaultPlan([Crash("a", at=1.0)])
        assert len(plan) == 1
        assert [e.kind for e in plan] == ["crash"]


class TestSerialization:
    def _full_plan(self):
        return FaultPlan(
            [
                Partition((("a",), ("b", "c")), at=5.0, heal_at=50.0),
                Crash("a", at=10.0, restart_at=40.0),
                Crash("b", at=12.0),
                DropBurst(window=(20.0, 30.0), prob=0.25),
                LatencySpike(window=(22.0, 28.0), factor=3.0),
                Corrupt(window=(24.0, 26.0), prob=0.125),
            ],
            name="full",
        )

    def test_round_trip_dict(self):
        plan = self._full_plan()
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert again.name == "full"

    def test_round_trip_json(self):
        plan = self._full_plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again.fingerprint() == plan.fingerprint()

    def test_fingerprint_stable_and_distinct(self):
        assert self._full_plan().fingerprint() == self._full_plan().fingerprint()
        other = FaultPlan([Crash("a", at=1.0)], name="full")
        assert other.fingerprint() != self._full_plan().fingerprint()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict(
                {"name": "x", "events": [{"kind": "meteor", "at": 1.0}]}
            )

    def test_from_dict_rejects_bad_shapes(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict([])
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"name": "x"})
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"name": "x", "events": ["crash"]})
        with pytest.raises(FaultError):
            FaultPlan.from_dict(
                {"name": "x", "events": [{"kind": "crash", "bogus": 1}]}
            )

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("{not json")

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(self._full_plan().to_json(), encoding="utf-8")
        assert FaultPlan.from_file(str(path)).fingerprint() == (
            self._full_plan().fingerprint()
        )

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(FaultError):
            FaultPlan.from_file(str(tmp_path / "absent.json"))

    def test_validation_applies_on_load(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({
                "name": "x",
                "events": [{"kind": "drop_burst", "prob": 2.0,
                            "window": [0.0, 1.0]}],
            })
