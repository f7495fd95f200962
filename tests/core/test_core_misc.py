"""Tests for axes, taxonomy, properties, agenda, and unit formatting."""

import pytest

from repro.core import (
    AGENDA,
    Control,
    Distribution,
    ERA_PROFILES,
    NetworkModel,
    PAPER_SCORECARDS,
    PROJECTS,
    Problem,
    Scorecard,
    SystemProfile,
    classify,
    items_by_difficulty,
    projects_for,
    table1_rows,
    trajectory,
)
from repro.core.agenda import Difficulty, experiments_informing
from repro.core.units import (
    format_bandwidth,
    format_cores,
    format_storage,
)
from repro.errors import FeasibilityError, ReproError


class TestUnits:
    def test_bandwidth_formats(self):
        assert format_bandwidth(200e12) == "200 Tbps"
        assert format_bandwidth(5e15) == "5000 Tbps"
        assert format_bandwidth(1e6) == "1 Mbps"
        assert format_bandwidth(500.0) == "500 bps"

    def test_storage_formats(self):
        assert format_storage(80e18) == "80 EB"
        assert format_storage(210e18) == "210 EB"
        assert format_storage(100e9) == "100 GB"

    def test_cores_formats(self):
        assert format_cores(400e6) == "400 M"
        assert format_cores(4e9) == "4 B"
        assert format_cores(500) == "500"

    def test_fractional_rendering(self):
        assert format_storage(1.5e18) == "1.5 EB"

    def test_negative_rejected(self):
        with pytest.raises(FeasibilityError):
            format_bandwidth(-1)


class TestAxes:
    def test_paper_trajectory(self):
        rows = trajectory()
        assert rows[0]["distribution"] == Distribution.PARTIALLY_CENTRALIZED
        assert rows[0]["control"] == Control.SEMI_DEMOCRATIC
        assert rows[1]["distribution"] == Distribution.DISTRIBUTED
        assert rows[1]["control"] == Control.FEUDAL
        assert rows[2]["distribution"] == Distribution.DISTRIBUTED
        assert rows[2]["control"] == Control.DEMOCRATIC

    def test_classify_quadrant_label(self):
        assert classify(ERA_PROFILES["internet_today"]) == "distributed/feudal"

    def test_axes_are_orthogonal(self):
        # Many operators with one site, and one operator with many sites.
        coop = SystemProfile("coop_mainframe", operators=100_000, resource_sites=1)
        cdn = SystemProfile("mono_cdn", operators=1, resource_sites=100_000)
        assert coop.control == Control.DEMOCRATIC
        assert coop.distribution == Distribution.CENTRALIZED
        assert cdn.control == Control.FEUDAL
        assert cdn.distribution == Distribution.DISTRIBUTED

    def test_invalid_profile_rejected(self):
        with pytest.raises(ReproError):
            SystemProfile("broken", operators=0, resource_sites=1)


class TestTaxonomy:
    def test_every_table1_category_nonempty(self):
        for row in table1_rows():
            assert row["projects"]

    def test_table1_matches_paper_rows(self):
        rows = {r["problem"]: r["projects"] for r in table1_rows()}
        assert rows["Naming"] == "Namecoin, Emercoin, Blockstack"
        for expected in ("Matrix", "Riot", "Mastodon", "GNU social"):
            assert expected in rows["Group Communication"]
        for expected in ("IPFS", "Filecoin", "Sia", "Storj", "Swarm"):
            assert expected in rows["Data storage"]
        assert rows["Web applications"] == "Beaker, ZeroNet, Freedom.js"

    def test_blockstack_spans_two_problems(self):
        blockstack = next(p for p in PROJECTS if p.name == "Blockstack")
        assert set(blockstack.problems) == {Problem.NAMING, Problem.DATA_STORAGE}

    def test_every_project_maps_to_simulated_family(self):
        import importlib

        for project in PROJECTS:
            assert project.simulated_by.startswith("repro.")
            module_name, attr = project.simulated_by.rsplit(".", 1)
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), project.simulated_by

    def test_unknown_problem_rejected(self):
        with pytest.raises(ReproError):
            projects_for("Quantum teleportation")

    def test_network_models_all_known(self):
        assert all(p.network_model in NetworkModel.ALL for p in PROJECTS)


class TestScorecards:
    def test_paper_scorecards_cover_all_families(self):
        assert set(PAPER_SCORECARDS) == {
            "centralized",
            "federated_single_home",
            "federated_replicated",
            "socially_aware_p2p",
            "blockchain",
        }

    def test_centralized_wins_convenience_loses_privacy(self):
        central = PAPER_SCORECARDS["centralized"]
        p2p = PAPER_SCORECARDS["socially_aware_p2p"]
        assert central.score("convenience") > p2p.score("convenience")
        assert central.score("privacy") < p2p.score("privacy")

    def test_set_score_validates(self):
        card = Scorecard("x")
        with pytest.raises(ReproError):
            card.set_score("nonsense", 0.5)
        with pytest.raises(ReproError):
            card.set_score("privacy", 1.5)

    def test_dominates(self):
        a, b = Scorecard("a"), Scorecard("b")
        for prop in ("privacy", "connectedness"):
            a.set_score(prop, 0.8)
            b.set_score(prop, 0.5)
        assert a.dominates(b, ["privacy", "connectedness"])
        assert not b.dominates(a, ["privacy"])

    def test_dominates_requires_scores(self):
        a, b = Scorecard("a"), Scorecard("b")
        a.set_score("privacy", 0.5)
        with pytest.raises(ReproError):
            a.dominates(b, ["privacy"])


class TestAgenda:
    def test_three_tiers_populated(self):
        assert len(items_by_difficulty(Difficulty.EASY)) == 3
        assert len(items_by_difficulty(Difficulty.MODERATE)) == 3
        assert len(items_by_difficulty(Difficulty.HARD)) == 3

    def test_nine_items_total(self):
        assert len(AGENDA) == 9

    def test_nontechnical_items_flagged(self):
        hard = items_by_difficulty(Difficulty.HARD)
        assert any(not item.technical for item in hard)

    def test_experiment_crossrefs_point_at_design_doc_ids(self):
        mapping = experiments_informing()
        assert set(mapping) <= {f"E{i}" for i in range(1, 10)}
        assert "E3" in mapping  # Table 3 informs quality-vs-quantity

    def test_unknown_difficulty_rejected(self):
        with pytest.raises(ReproError):
            items_by_difficulty("impossible")
