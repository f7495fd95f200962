"""Tests for deals, the escrow ledger, the marketplace loop, and Table 2 profiles."""

import pytest

from repro.errors import ContractError, StorageError
from repro.net import ConstantLatency, Network
from repro.sim import RngStreams, Simulator
from repro.storage import (
    DealState,
    DirectLedger,
    ProofKind,
    StorageMarketplace,
    StorageProvider,
    TABLE2_SYSTEMS,
    make_random_blob,
    profile_for,
    table2_rows,
)


def setup_market(seed=1, n_providers=3, deadline=0.5):
    sim = Simulator()
    streams = RngStreams(seed)
    network = Network(sim, streams, latency=ConstantLatency(0.01))
    market = StorageMarketplace(network, streams, response_deadline=deadline)
    providers = []
    for i in range(n_providers):
        provider = StorageProvider(
            network, f"prov{i}", price_per_gb_epoch=0.01 * (i + 1)
        )
        market.register_provider(provider)
        providers.append(provider)
    network.create_node("consumer")
    market.ledger.credit("consumer", 1000.0)
    return sim, streams, network, market, providers


class TestDirectLedger:
    def test_escrow_lifecycle(self):
        ledger = DirectLedger()
        ledger.credit("alice", 100.0)
        ledger.open_escrow("d1", "alice", 30.0)
        assert ledger.balance("alice") == pytest.approx(70.0)
        assert ledger.escrowed("d1") == pytest.approx(30.0)
        ledger.pay_from_escrow("d1", "bob", 10.0)
        assert ledger.balance("bob") == pytest.approx(10.0)
        refunded = ledger.refund_escrow("d1", "alice")
        assert refunded == pytest.approx(20.0)
        assert ledger.total_supply() == pytest.approx(100.0)

    def test_insufficient_balance_rejected(self):
        ledger = DirectLedger()
        with pytest.raises(ContractError):
            ledger.open_escrow("d1", "poor", 5.0)

    def test_double_escrow_rejected(self):
        ledger = DirectLedger()
        ledger.credit("a", 100.0)
        ledger.open_escrow("d1", "a", 10.0)
        with pytest.raises(ContractError):
            ledger.open_escrow("d1", "a", 10.0)

    def test_overpay_from_escrow_rejected(self):
        ledger = DirectLedger()
        ledger.credit("a", 100.0)
        ledger.open_escrow("d1", "a", 10.0)
        with pytest.raises(ContractError):
            ledger.pay_from_escrow("d1", "b", 11.0)

    @pytest.mark.parametrize("amount", [-5.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("call", ["credit", "open_escrow", "pay_from_escrow"])
    def test_rejected_amount_moves_no_money(self, call, amount):
        ledger = DirectLedger()
        ledger.credit("a", 100.0)
        ledger.open_escrow("d1", "a", 10.0)
        args = {
            "credit": ("b", amount),
            "open_escrow": ("d2", "a", amount),
            "pay_from_escrow": ("d1", "b", amount),
        }[call]
        with pytest.raises(ContractError):
            getattr(ledger, call)(*args)
        assert ledger.total_supply() == 100.0
        assert ledger.escrowed("d1") == 10.0
        assert ledger.escrowed("d2") == 0.0


class TestMarketplace:
    def test_deal_lifecycle_honest_provider(self):
        sim, streams, network, market, providers = setup_market()
        blob = make_random_blob(streams, 10 * 1024, chunk_size=1024)

        def scenario():
            deal = yield from market.make_deal(
                "consumer", blob, epochs=3, proof_kind=ProofKind.STORAGE
            )
            for _ in range(3):
                yield from market.run_epoch()
            return deal

        deal = sim.run_process(scenario())
        assert deal.state == DealState.COMPLETED
        assert deal.epochs_paid == 3
        assert market.provider_earnings(deal.provider_id) == pytest.approx(
            deal.total_price
        )

    def test_cheapest_provider_selected(self):
        sim, streams, network, market, providers = setup_market()
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            return (yield from market.make_deal("consumer", blob, epochs=1))

        deal = sim.run_process(scenario())
        assert deal.provider_id == "prov0"  # lowest price

    def test_cheating_provider_slashed(self):
        sim, streams, network, market, providers = setup_market(seed=3)
        blob = make_random_blob(streams, 50 * 1024, chunk_size=1024)

        def scenario():
            deal = yield from market.make_deal(
                "consumer", blob, epochs=10, proof_kind=ProofKind.RETRIEVABILITY
            )
            # Provider drops most of the data after the deal opens.
            providers[0].drop_chunks(blob.merkle_root, 0.8, streams.stream("x"))
            results = yield from market.run_epoch()
            return deal, results

        deal, results = sim.run_process(scenario())
        assert results[deal.deal_id] is False
        assert deal.state == DealState.FAILED
        # Remaining escrow went back to the consumer, not the cheater.
        assert market.ledger.balance("consumer") == pytest.approx(1000.0)
        assert market.provider_earnings("prov0") == 0.0

    def test_offline_provider_fails_audit(self):
        sim, streams, network, market, providers = setup_market(seed=4)
        blob = make_random_blob(streams, 4096, chunk_size=1024)

        def scenario():
            deal = yield from market.make_deal("consumer", blob, epochs=5)
            network.node(deal.provider_id).set_online(False, sim.now)
            yield from market.run_epoch()
            return deal

        deal = sim.run_process(scenario())
        assert deal.state == DealState.FAILED

    def test_none_proof_always_pays(self):
        # IPFS-style: no audits; even a provider that dropped data is paid.
        sim, streams, network, market, providers = setup_market(seed=5)
        blob = make_random_blob(streams, 8 * 1024, chunk_size=1024)

        def scenario():
            deal = yield from market.make_deal(
                "consumer", blob, epochs=1, proof_kind=ProofKind.NONE
            )
            providers[0].drop_chunks(blob.merkle_root, 1.0, streams.stream("x"))
            yield from market.run_epoch()
            return deal

        deal = sim.run_process(scenario())
        assert deal.state == DealState.COMPLETED  # nothing checked!

    def test_insufficient_providers_raises(self):
        sim, streams, network, market, providers = setup_market(n_providers=1)
        network.node("prov0").set_online(False, 0.0)
        blob = make_random_blob(streams, 1024)

        def scenario():
            try:
                yield from market.make_deal("consumer", blob, epochs=1)
            except StorageError:
                return "no-providers"

        assert sim.run_process(scenario()) == "no-providers"

    def test_unknown_proof_kind_rejected(self):
        sim, streams, network, market, providers = setup_market()
        blob = make_random_blob(streams, 1024)

        def scenario():
            yield from market.make_deal(
                "consumer", blob, epochs=1, proof_kind="proof_of_vibes"
            )

        with pytest.raises(ContractError):
            sim.run_process(scenario())

    @pytest.mark.parametrize("balance", [0.0, 4.99])
    def test_unfunded_deal_uploads_nothing(self, balance):
        # The price (5 epochs at 1.0) is checked before any chunk ships:
        # an unfunded consumer must not fill the provider's disk.
        sim, streams, network, market, providers = setup_market()
        network.create_node("poor")
        market.ledger.credit("poor", balance)
        blob = make_random_blob(streams, 10 * 1024, chunk_size=1024)

        def scenario():
            yield from market.make_deal(
                "poor", blob, epochs=5, provider_id="prov0",
                price_per_epoch=1.0,
            )

        with pytest.raises(ContractError):
            sim.run_process(scenario())
        assert providers[0].used_bytes == 0
        assert network.node("poor").bytes_sent == 0
        assert market.ledger.balance("poor") == balance

    def test_duplicate_provider_registration_rejected(self):
        sim, streams, network, market, providers = setup_market()
        with pytest.raises(StorageError):
            market.register_provider(providers[0])


class TestTable2Profiles:
    def test_eight_systems_like_the_paper(self):
        # Table 2 lists 7 systems + Blockstack's special row = 7 rows; we
        # model all of them (IPFS, MaidSafe, Sia, Storj, Swarm, Filecoin,
        # Blockstack).
        assert len(TABLE2_SYSTEMS) == 7

    def test_rows_match_paper_columns(self):
        rows = {r["system"]: r for r in table2_rows()}
        assert rows["IPFS"]["blockchain_usage"] == "None"
        assert rows["IPFS"]["incentive_scheme"] == "Bitswap Ledgers"
        assert rows["Sia"]["incentive_scheme"] == "Proof-of-storage"
        assert "storjcoin" in rows["Storj"]["blockchain_usage"]
        assert "Proof-of-replication" in rows["Filecoin"]["incentive_scheme"]
        assert rows["Blockstack"]["incentive_scheme"] == "N/A"

    def test_profiles_runnable_in_marketplace(self):
        # Every non-chain profile's proof kind must be executable.
        sim, streams, network, market, providers = setup_market(seed=6)
        blob = make_random_blob(streams, 8 * 1024, chunk_size=1024)

        def scenario(kind):
            deal = yield from market.make_deal(
                "consumer", blob, epochs=1, proof_kind=kind
            )
            yield from market.run_epoch()
            return deal

        for profile in TABLE2_SYSTEMS:
            market2_deal = sim.run_process(scenario(profile.proof_kind))
            assert market2_deal.state in (DealState.COMPLETED, DealState.ACTIVE)

    def test_every_profile_pays_an_honest_provider(self):
        # Each Table 2 row's mechanism runs before the row is trusted: a
        # deal forms under the profile's proof kind, one audit epoch
        # runs, and the honest provider is paid for it.
        for profile in TABLE2_SYSTEMS:
            sim = Simulator()
            streams = RngStreams(42)
            network = Network(sim, streams, latency=ConstantLatency(0.01))
            market = StorageMarketplace(network, streams)
            market.register_provider(StorageProvider(network, "provider"))
            network.create_node("consumer")
            market.ledger.credit("consumer", 100.0)
            blob = make_random_blob(streams, 8 * 1024, chunk_size=1024)

            def scenario():
                deal = yield from market.make_deal(
                    "consumer", blob, epochs=1,
                    proof_kind=profile.proof_kind, price_per_epoch=1.0,
                )
                yield from market.run_epoch()
                return deal

            deal = sim.run_process(scenario())
            assert deal.state == DealState.COMPLETED, profile.name
            assert deal.epochs_paid == 1, profile.name

    def test_profile_lookup(self):
        assert profile_for("filecoin").name == "Filecoin"
        with pytest.raises(StorageError):
            profile_for("dropbox")


class TestMarketplaceEdges:
    def test_cheapest_skips_offline(self):
        sim = Simulator()
        streams = RngStreams(41)
        network = Network(sim, streams, latency=ConstantLatency(0.01))
        market = StorageMarketplace(network, streams)
        cheap = StorageProvider(network, "cheap", price_per_gb_epoch=0.001)
        pricey = StorageProvider(network, "pricey", price_per_gb_epoch=1.0)
        market.register_provider(cheap)
        market.register_provider(pricey)
        network.node("cheap").set_online(False, 0.0)
        [chosen] = market.cheapest_providers(100, 1)
        assert chosen.node_id == "pricey"

    def test_deal_lookup(self):
        sim = Simulator()
        streams = RngStreams(42)
        network = Network(sim, streams)
        market = StorageMarketplace(network, streams)
        with pytest.raises(ContractError):
            market.deal("ghost")

    def test_provider_lookup(self):
        sim = Simulator()
        streams = RngStreams(43)
        network = Network(sim, streams)
        market = StorageMarketplace(network, streams)
        with pytest.raises(StorageError):
            market.provider("ghost")
