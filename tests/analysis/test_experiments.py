"""Shape tests for every experiment driver (small parameters)."""

import pytest

from repro.analysis import render_kv, render_table
from repro.analysis.experiments import (
    naming_attack_curve,
    run_federation_availability,
    run_feasibility,
    run_moderation_comparison,
    run_partial_federation_sweep,
    run_proof_economics,
    run_quality_vs_quantity,
    run_social_tradeoff,
    run_swarm_availability,
)


class TestTableRendering:
    def test_render_table_alignment(self):
        out = render_table([{"a": 1, "bb": "xy"}, {"a": 100, "bb": "z"}])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "100" in lines[3]
        assert len(lines) == 4

    def test_render_table_empty(self):
        assert render_table([]) == "(empty table)"

    def test_render_table_explicit_columns(self):
        out = render_table([{"a": 1, "b": 2}], columns=["b", "a"])
        assert out.splitlines()[0].startswith("b")

    def test_render_kv(self):
        out = render_kv({"x": 1, "long_key": 2}, title="T")
        assert out.splitlines()[0] == "T"
        assert "long_key : 2" in out


class TestDriverShapes:
    def test_feasibility_shape(self):
        result = run_feasibility()
        assert {r["resource"] for r in result["table3"]} == {
            "Bandwidth", "Cores", "Storage"
        }
        assert set(result["sufficient"]) == {"bandwidth", "cores", "storage"}

    def test_federation_driver_rows(self):
        rows = run_federation_availability(
            seed=2, n_servers=3, n_users=6, n_messages=3
        )
        assert [row["model"] for row in rows] == [
            "single_home", "replicated", "replicated_failover"
        ]
        for row in rows:
            assert 0.0 <= row["read_availability"] <= 1.0

    def test_social_tradeoff_rows(self):
        rows = run_social_tradeoff(seed=2, n_users=10, n_posts=4, n_probes=10,
                                   horizon=1500.0)
        systems = [row["system"] for row in rows]
        assert "centralized" in systems and "socially_aware_p2p" in systems
        for row in rows:
            assert 0.0 <= row["availability"] <= 1.0
            assert 0.0 <= row["operator_exposure"] <= 1.0

    def test_attack_curve_monotone(self):
        rows = naming_attack_curve(shares=(0.1, 0.3, 0.5))
        probs = [row["rewrite_probability"] for row in rows]
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    def test_proof_economics_rows(self):
        rows = run_proof_economics(seed=2, epochs=4, blob_chunks=8)
        assert {row["behaviour"] for row in rows} >= {
            "honest", "drop_half", "dedup_sybil"
        }
        honest = next(r for r in rows if r["behaviour"] == "honest")
        assert honest["epochs_paid"] == 4

    def test_swarm_rows(self):
        rows = run_swarm_availability(
            seed=2, offered_loads=(0.2, 16.0), horizon=1000.0
        )
        assert rows[0]["availability"] <= rows[1]["availability"]

    def test_quality_rows(self):
        rows = run_quality_vs_quantity(
            seed=2, replication_factors=(1, 3), n_providers=8,
            horizon=1500.0, n_probes=8, blob_kib=2,
        )
        assert len(rows) == 4  # 2 grades x 2 factors
        grades = {row["infrastructure"] for row in rows}
        assert grades == {"datacenter", "device"}

    def test_moderation_rows(self):
        rows = run_moderation_comparison(seed=2)
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row["spam_pass_rate"] <= 1.0
            assert 0.0 <= row["collateral_block_rate"] <= 1.0


class TestShapesAcrossParameters:
    """Claims across a parameter the claims table's calls hold fixed."""

    def test_single_home_loses_exactly_the_failed_share(self):
        # E4: each dead server cuts off its own users; failover keeps
        # everyone reading until no server is left.
        for failed in (0, 1, 2, 3):
            availability = {
                row["model"]: row["read_availability"]
                for row in run_federation_availability(
                    seed=11, n_servers=5, n_users=20, failed_servers=failed,
                )
            }
            assert availability["single_home"] == pytest.approx(1 - failed / 5)
            assert availability["replicated_failover"] == 1.0

    def test_heavy_device_churn_costs_p2p_availability(self):
        from repro.net import ChurnProfile

        p2p, central = {}, {}
        for label, downtime in (("mild", 50.0), ("heavy", 400.0)):
            availability = {
                row["system"]: row["availability"]
                for row in run_social_tradeoff(
                    seed=5, device_profile=ChurnProfile(
                        mean_uptime=400.0, mean_downtime=downtime
                    ),
                )
            }
            p2p[label] = availability["socially_aware_p2p"]
            central[label] = availability["centralized"]
        # The server-backed design only needs the reader online.
        assert p2p["heavy"] <= p2p["mild"]
        assert central["heavy"] >= p2p["heavy"]

    def test_an_author_who_stays_keeps_an_unpopular_site_up(self):
        # E8: the always-on author is exactly the centralized crutch.
        availability = {
            label: run_swarm_availability(
                seed=8, offered_loads=(0.5,), author_leaves_at=leaves_at,
            )[0]["availability"]
            for leaves_at, label in ((30.0, "early"), (2800.0, "stays"))
        }
        assert availability["stays"] > 0.9
        assert availability["early"] < 0.3


class TestPartialFederationSweep:
    """E4P: availability/exposure across the trust spectrum, seed-pinned.

    The acceptance curve: read availability after one hub failure is
    monotone none -> filtered -> full at every trust level, and the
    metadata-exposure cost rises with it (the paper's walled-garden
    tension restated as a federation-policy dial).
    """

    @pytest.fixture(scope="class")
    def rows(self):
        return run_partial_federation_sweep(seed=1)

    def test_grid_shape(self, rows):
        assert [(r["policy"], r["trust"]) for r in rows] == [
            (policy, trust)
            for policy in ("none", "filtered", "full")
            for trust in (0.2, 0.5, 0.9)
        ]
        assert all(r["strategy"] == "lww" for r in rows)

    def test_availability_monotone_in_policy(self, rows):
        by_policy = {}
        for row in rows:
            by_policy.setdefault(row["trust"], {})[row["policy"]] = (
                row["read_availability"]
            )
        for trust, curve in by_policy.items():
            assert curve["none"] <= curve["filtered"] <= curve["full"]
            # The spectrum's endpoints genuinely differ: isolation loses
            # data to the failure, full federation rides it out.
            assert curve["none"] < curve["full"]

    def test_exposure_tracks_availability(self, rows):
        for row in rows:
            if row["policy"] == "none":
                assert row["metadata_exposure"] < 0.5
            if row["policy"] == "full":
                assert row["metadata_exposure"] == 1.0

    def test_filtered_trust_dial_pinned(self, rows):
        filtered = {
            row["trust"]: row for row in rows if row["policy"] == "filtered"
        }
        assert filtered[0.2]["read_availability"] == pytest.approx(2 / 3)
        assert filtered[0.5]["read_availability"] == pytest.approx(2 / 3)
        assert filtered[0.9]["read_availability"] == 1.0
        assert filtered[0.2]["metadata_exposure"] == 0.625
        assert filtered[0.9]["metadata_exposure"] == 1.0

    def test_golden_none_and_full_rows(self, rows):
        for row in rows:
            assert row["divergent_keys"] == 0
            assert row["conflicts_pending"] == 0
            assert row["failed"] == 1
            if row["policy"] == "none":
                assert row["read_availability"] == 0.0
                assert row["metadata_exposure"] == 0.25
            if row["policy"] == "full":
                assert row["read_availability"] == 1.0
