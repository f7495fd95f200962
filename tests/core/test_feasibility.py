"""Tests for the Table 3 feasibility model — the paper's only numbers."""

import pytest

from repro.core import (
    Capacity,
    CloudAssumptions,
    FeasibilityModel,
    paper_model,
)
from repro.core.units import EB, GB, MBPS, TBPS, MILLION
from repro.errors import FeasibilityError


class TestPaperNumbers:
    """Each assertion is a number printed in the paper's §4 / Table 3."""

    def test_cloud_bandwidth_200_tbps(self):
        assert paper_model().cloud_capacity().bandwidth_bps == pytest.approx(200 * TBPS)

    def test_cloud_cores_400_million(self):
        assert paper_model().cloud_capacity().cores == pytest.approx(400 * MILLION)

    def test_cloud_storage_80_eb(self):
        assert paper_model().cloud_capacity().storage_bytes == pytest.approx(80 * EB)

    def test_device_bandwidth_5000_tbps(self):
        assert paper_model().device_capacity().bandwidth_bps == pytest.approx(5000 * TBPS)

    def test_device_cores_500_million(self):
        assert paper_model().device_capacity().cores == pytest.approx(500 * MILLION)

    def test_device_storage_210_eb(self):
        assert paper_model().device_capacity().storage_bytes == pytest.approx(210 * EB)

    def test_table3_formatted_rows_match_paper(self):
        rows = paper_model().table3()
        assert rows == [
            {"resource": "Bandwidth", "cloud": "200 Tbps", "devices": "5000 Tbps"},
            {"resource": "Cores", "cloud": "400 M", "devices": "500 M"},
            {"resource": "Storage", "cloud": "80 EB", "devices": "210 EB"},
        ]

    def test_paper_conclusion_sufficient_capacity(self):
        # "Roughly speaking, there appears to be sufficient capacity."
        assert all(paper_model().sufficient().values())


class TestModelMechanics:
    def test_scale_factor_from_traffic_share(self):
        cloud = CloudAssumptions(google_traffic_share=0.25)
        assert cloud.scale_factor == 4.0

    def test_invalid_traffic_share_rejected(self):
        with pytest.raises(FeasibilityError):
            CloudAssumptions(google_traffic_share=0.0)

    def test_capacity_addition(self):
        a = Capacity(1.0, 2.0, 3.0)
        b = Capacity(10.0, 20.0, 30.0)
        total = a + b
        assert (total.bandwidth_bps, total.cores, total.storage_bytes) == (11.0, 22.0, 33.0)

    def test_capacity_covers(self):
        big = Capacity(10, 10, 10)
        small = Capacity(1, 1, 1)
        assert big.covers(small)
        assert not small.covers(big)

    def test_ratio_handles_zero_demand(self):
        supply = Capacity(1, 1, 1)
        assert supply.ratio_to(Capacity(0, 1, 1))["bandwidth"] == float("inf")

    def test_negative_capacity_rejected(self):
        with pytest.raises(FeasibilityError):
            Capacity(-1, 0, 0)

    def test_invalid_core_discount_rejected(self):
        with pytest.raises(FeasibilityError):
            FeasibilityModel(core_discount=0)


class TestSensitivity:
    def test_higher_core_discount_breaks_compute_sufficiency(self):
        model = paper_model()
        # Breakeven: 4e9 raw cores / 4e8 cloud cores = factor 10.
        assert model.breakeven_core_discount() == pytest.approx(10.0)
        assert model.with_core_discount(12.0).sufficient()["cores"] is False
        assert model.with_core_discount(9.0).sufficient()["cores"] is True

    def test_upstream_sweep_scales_bandwidth_linearly(self):
        model = paper_model()
        rows = model.sweep(
            lambda v: model.with_upstream_bps(v * MBPS), [0.01, 0.1, 1.0, 10.0]
        )
        assert rows[2]["bandwidth"] == pytest.approx(25.0)  # 5000/200
        assert rows[3]["bandwidth"] == pytest.approx(250.0)
        # Sufficiency survives down to 0.1 Mbps upstream (2.5x), but even
        # 10 kbps fails to match cloud bandwidth.
        assert rows[1]["bandwidth"] == 2.5
        assert rows[0]["bandwidth"] < 1.0

    def test_compute_crosses_parity_at_the_breakeven_discount(self):
        model = paper_model()
        cores = {row["value"]: row["cores"] for row in model.sweep(
            model.with_core_discount, [4.0, 8.0, 10.0, 16.0]
        )}
        assert cores[8.0] > 1.0 > cores[16.0]
        assert abs(cores[10.0] - 1.0) < 1e-9

    def test_population_scaling(self):
        model = paper_model().with_populations_scaled(0.5)
        assert model.device_capacity().storage_bytes == pytest.approx(105 * EB)

    def test_population_scale_rejects_negative(self):
        with pytest.raises(FeasibilityError):
            paper_model().with_populations_scaled(-1)

    def test_storage_sufficiency_robust_to_half_fleet(self):
        # The paper's storage margin (210 vs 80) survives halving devices.
        assert paper_model().with_populations_scaled(0.5).sufficient()["storage"]

    def test_compute_margin_is_thin(self):
        # 500 vs 400 M cores: a 25% fleet shrink breaks compute sufficiency —
        # the paper's "roughly speaking" hedge, quantified.
        assert not paper_model().with_populations_scaled(0.7).sufficient()["cores"]
