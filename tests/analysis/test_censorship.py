"""EC censorship sweep: shape, seed-1 goldens, runner integration."""

from repro.analysis import SweepRunner
from repro.analysis.censorship import (
    CENSOR_EXPERIMENTS,
    CENSOR_PRESETS,
    run_censorship_sweep,
)


class TestCensorshipSweep:
    def test_full_matrix_shape(self):
        rows = run_censorship_sweep(
            seed=1, experiments=("E5C",), presets=CENSOR_PRESETS
        )
        assert [row["preset"] for row in rows] == list(CENSOR_PRESETS)
        assert all(row["experiment"] == "E5C" for row in rows)
        assert all(row["violations"] == 0 for row in rows)

    def test_static_campaign_is_pure_collateral(self):
        (row,) = run_censorship_sweep(
            seed=1, experiments=("E5C",), presets=("border-block",)
        )
        # Without DPI the relays survive, so reachability holds and
        # every hard kill the censor paid for was collateral damage.
        assert row["reachability"] == 1.0
        assert row["relays_reblocked"] == 0
        assert row["time_to_reblock"] is None
        assert row["blocked_flows"] == row["collateral_flows"] == 64

    def test_probing_campaign_golden(self):
        (row,) = run_censorship_sweep(
            seed=1, experiments=("E5C",), presets=("border-block-probing",)
        )
        assert row["reachability"] == 0.85
        assert row["relays_reblocked"] == 4
        assert row["time_to_reblock"] == 15.0
        assert row["blocked_flows"] == 88
        assert row["collateral_flows"] == 24
        assert row["degraded_drops"] == 23

    def test_probing_beats_static_for_the_censor(self):
        rows = run_censorship_sweep(seed=1, presets=(
            "border-block", "border-block-probing",
        ))
        by_key = {(r["experiment"], r["preset"]): r for r in rows}
        for experiment in CENSOR_EXPERIMENTS:
            static = by_key[(experiment, "border-block")]
            probing = by_key[(experiment, "border-block-probing")]
            # DPI always lowers reachability and always lowers the
            # collateral fraction of what the censor kills.
            assert probing["reachability"] < static["reachability"]
            assert (probing["collateral_flows"] / probing["blocked_flows"]
                    < static["collateral_flows"] / static["blocked_flows"])

    def test_sweep_is_deterministic_through_runner(self):
        first = run_censorship_sweep(
            seed=1, experiments=("E9C",), runner=SweepRunner()
        )
        second = run_censorship_sweep(
            seed=1, experiments=("E9C",), runner=SweepRunner()
        )
        assert first == second
