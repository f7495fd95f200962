"""Tests for the re-feudalization market model (§5.3)."""

import pytest

from repro.core.economics import (
    MarketParams,
    ProviderMarket,
    herfindahl_index,
    unit_cost,
)
from repro.errors import FeasibilityError
from repro.sim import RngStreams


class TestUnitCost:
    def test_decreasing_in_volume(self):
        costs = [unit_cost(v) for v in (0, 10, 100, 1000)]
        assert costs == sorted(costs, reverse=True)

    def test_floor_is_asymptote(self):
        assert unit_cost(1e12, floor_cost=0.2) == pytest.approx(0.2, abs=1e-3)

    def test_flat_when_no_advantage(self):
        assert unit_cost(1.0, scale_advantage=0.0) == unit_cost(
            1e6, scale_advantage=0.0
        )

    def test_validation(self):
        with pytest.raises(FeasibilityError):
            unit_cost(-1.0)
        with pytest.raises(FeasibilityError):
            unit_cost(1.0, scale_advantage=2.0)
        with pytest.raises(FeasibilityError):
            unit_cost(1.0, base_cost=0.1, floor_cost=0.5)


class TestHHI:
    def test_symmetric_market(self):
        assert herfindahl_index([1.0] * 10) == pytest.approx(0.1)

    def test_monopoly(self):
        assert herfindahl_index([5.0]) == 1.0

    def test_unnormalized_shares_ok(self):
        assert herfindahl_index([2.0, 2.0]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(FeasibilityError):
            herfindahl_index([0.0])


class TestMarketDynamics:
    def run_market(self, scale_advantage, rounds=300, n=20, seed=1):
        market = ProviderMarket(
            n, MarketParams(scale_advantage=scale_advantage), RngStreams(seed)
        )
        return market, market.run(rounds)

    def test_flat_costs_stay_fragmented(self):
        market, history = self.run_market(scale_advantage=0.0)
        final = history[-1]
        assert final["providers_alive"] == 20
        assert final["hhi"] == pytest.approx(1 / 20, abs=0.01)

    def test_scale_economies_concentrate(self):
        market, history = self.run_market(scale_advantage=0.25)
        final = history[-1]
        # Most providers exit; concentration several times the symmetric
        # baseline — the paper's re-feudalization pressure.
        assert final["providers_alive"] < 10
        assert final["hhi"] > 3 * (1 / 20)

    def test_concentration_is_monotone_over_time_under_scale(self):
        market, history = self.run_market(scale_advantage=0.25)
        early = history[10]["hhi"]
        late = history[-1]["hhi"]
        assert late >= early

    def test_concentration_locks_in_over_time(self):
        _, history = self.run_market(scale_advantage=0.25, seed=2)
        samples = [history[i] for i in (9, 49, 99, 199, 299)]
        assert samples[-1]["hhi"] >= samples[0]["hhi"]
        assert samples[-1]["providers_alive"] < samples[0]["providers_alive"]

    def test_shares_sum_to_one(self):
        market, _ = self.run_market(scale_advantage=0.25, rounds=50)
        assert sum(market.demand_shares().values()) == pytest.approx(1.0)

    def test_last_provider_never_exits(self):
        market = ProviderMarket(
            2,
            MarketParams(scale_advantage=0.9, price_sensitivity=20.0,
                         exit_share=0.45),
            RngStreams(3),
        )
        market.run(200)
        assert len(market.alive()) >= 1

    def test_single_provider_market(self):
        market = ProviderMarket(1, MarketParams(), RngStreams(4))
        market.run(10)
        assert market.concentration() == 1.0

    def test_validation(self):
        with pytest.raises(FeasibilityError):
            ProviderMarket(0)
        with pytest.raises(FeasibilityError):
            MarketParams(scale_advantage=1.5)
        with pytest.raises(FeasibilityError):
            MarketParams(volume_inertia=1.0)

    def test_deterministic_given_seed(self):
        _, h1 = self.run_market(0.25, rounds=100, seed=9)
        _, h2 = self.run_market(0.25, rounds=100, seed=9)
        assert h1 == h2
