"""Integration tests: the mining network, consensus, and attacks."""

import pytest

from repro.chain import (
    BlockchainNetwork,
    ConsensusParams,
    MajorityAttack,
    Mempool,
    TxKind,
    catch_up_probability,
    double_spend_success_probability,
    make_transaction,
)
from repro.chain.ledger import LedgerRules, LedgerState
from repro.crypto import generate_keypair
from repro.errors import ChainError, InvalidTransactionError
from repro.sim import RngStreams, Simulator

FAST = ConsensusParams(
    target_block_interval=10.0, retarget_interval=20, initial_difficulty=100.0
)


def make_network(seed=1, propagation_delay=0.5, **kwargs):
    sim = Simulator()
    streams = RngStreams(seed)
    network = BlockchainNetwork(
        sim, streams, params=FAST, propagation_delay=propagation_delay, **kwargs
    )
    return sim, network


class TestMempool:
    def test_add_and_select(self):
        alice = generate_keypair("mp-alice")
        state = LedgerState()
        state._credit(alice.public_key, 100.0)
        pool = Mempool()
        t1 = make_transaction(alice, TxKind.PAY, {"to": "b", "amount": 1.0}, 0, fee=0.1)
        t2 = make_transaction(alice, TxKind.PAY, {"to": "b", "amount": 1.0}, 1, fee=0.5)
        assert pool.add(t1)
        assert pool.add(t2)
        assert not pool.add(t1)  # duplicate
        selected = pool.select(state, 1, LedgerRules())
        # Both selected, nonce order respected despite t2's higher fee.
        assert [t.nonce for t in selected] == [0, 1]

    def test_select_skips_conflicting_registration(self):
        a = generate_keypair("mp-a")
        b = generate_keypair("mp-b")
        state = LedgerState()
        state._credit(a.public_key, 10.0)
        state._credit(b.public_key, 10.0)
        pool = Mempool()
        pool.add(make_transaction(a, TxKind.NAME_REGISTER, {"name": "n", "value": 1}, 0, fee=0.2))
        pool.add(make_transaction(b, TxKind.NAME_REGISTER, {"name": "n", "value": 2}, 0, fee=0.1))
        selected = pool.select(state, 1, LedgerRules())
        names = [t for t in selected if t.kind == TxKind.NAME_REGISTER]
        assert len(names) == 1
        assert names[0].sender == a.public_key  # higher fee wins

    def test_drop_invalid_evicts_stale_nonces(self):
        alice = generate_keypair("mp-alice2")
        state = LedgerState()
        state._credit(alice.public_key, 10.0)
        state.nonces[alice.public_key] = 5
        pool = Mempool()
        stale = make_transaction(alice, TxKind.PAY, {"to": "b", "amount": 1.0}, 2)
        pool.add(stale)
        assert pool.drop_invalid(state, 1, LedgerRules()) == 1
        assert len(pool) == 0

    def test_coinbase_not_admitted(self):
        from repro.chain.transaction import make_coinbase

        pool = Mempool()
        with pytest.raises(InvalidTransactionError):
            pool.add(make_coinbase("m", 50.0, 1))


class TestMiningNetwork:
    def test_miners_converge_to_consensus(self):
        sim, network = make_network(seed=3)
        for i in range(4):
            network.add_participant(f"miner{i}", hashrate=10.0)
        network.start()
        sim.run(until=2000.0)
        # Allow propagation to settle: stop mining, drain in-flight blocks.
        for p in network.participants():
            p.stop_mining()
        sim.run(until=sim.now + 10.0)
        assert network.in_consensus()
        heights = [p.chain.height for p in network.participants()]
        assert min(heights) > 50  # ~10s interval over 2000s

    def test_block_interval_tracks_difficulty(self):
        sim, network = make_network(seed=4)
        network.add_participant("solo", hashrate=10.0)
        network.start()
        sim.run(until=5000.0)
        solo = network.participant("solo")
        blocks = solo.chain.main_chain()
        spans = [
            b2.timestamp - b1.timestamp
            for b1, b2 in zip(blocks[1:], blocks[2:])
        ]
        mean_interval = sum(spans) / len(spans)
        # Initial difficulty 100 at hashrate 10 => 10s expected interval.
        assert 5.0 < mean_interval < 20.0

    def test_hashrate_share_predicts_block_share(self):
        sim, network = make_network(seed=5)
        network.add_participant("big", hashrate=30.0)
        network.add_participant("small", hashrate=10.0)
        network.start()
        sim.run(until=20000.0)
        big = network.participant("big").blocks_mined
        small = network.participant("small").blocks_mined
        share = big / (big + small)
        assert 0.65 < share < 0.85  # expected 0.75

    def test_transaction_gets_mined_and_confirmed(self):
        alice = generate_keypair("net-alice")
        sim, network = make_network(seed=6, premine={alice.public_key: 100.0})
        network.add_participant("m1", hashrate=10.0)
        network.add_participant("m2", hashrate=10.0)
        network.start()
        t = make_transaction(alice, TxKind.PAY, {"to": "bob", "amount": 5.0}, 0, fee=0.1)
        network.submit_transaction(t)
        sim.run(until=500.0)
        for p in network.participants():
            height = p.chain.find_transaction(t.txid)
            assert height is not None
            assert p.chain.state_at().balance("bob") == pytest.approx(5.0)

    def test_difficulty_retargets_upward_with_more_hashrate(self):
        sim, network = make_network(seed=7)
        network.add_participant("m", hashrate=100.0)  # 10x the calibrated rate
        network.start()
        sim.run(until=2000.0)
        tip = network.participant("m").chain.tip
        assert tip.difficulty > FAST.initial_difficulty

    def test_start_without_miners_raises(self):
        sim, network = make_network()
        network.add_participant("observer", hashrate=0.0)
        with pytest.raises(ChainError):
            network.start()

    def test_duplicate_participant_rejected(self):
        sim, network = make_network()
        network.add_participant("m")
        with pytest.raises(ChainError):
            network.add_participant("m")

    def test_natural_forks_with_high_propagation_delay(self):
        # Delay comparable to the block interval forces stale blocks.
        sim, network = make_network(seed=8, propagation_delay=5.0)
        for i in range(4):
            network.add_participant(f"m{i}", hashrate=10.0)
        network.start()
        sim.run(until=5000.0)
        assert network.stale_block_count() > 0


class TestConsensusCost:
    """§3.1: blockchains trade scalability and performance for consensus."""

    def test_name_registration_throughput_saturates_at_block_capacity(self):
        registered = {}
        for max_txs in (5, 20):
            sim = Simulator()
            users = [generate_keypair(f"tp-user-{i}") for i in range(300)]
            network = BlockchainNetwork(
                sim, RngStreams(8),
                params=ConsensusParams(
                    target_block_interval=10.0, retarget_interval=1000,
                    initial_difficulty=100.0,
                ),
                propagation_delay=0.2,
                premine={user.public_key: 10.0 for user in users},
                max_txs_per_block=max_txs,
            )
            network.add_participant("m", hashrate=10.0)
            network.start()
            for i, user in enumerate(users):
                network.submit_transaction(make_transaction(
                    user, TxKind.NAME_REGISTER,
                    {"name": f"name-{i}", "value": i}, 0, fee=0.01,
                ))
            sim.run(until=400.0)
            registered[max_txs] = len(
                network.participant("m").chain.state_at().names
            )
        # Small blocks cap registrations near 5 per block whatever the
        # demand; large blocks clear nearly all 300 in the same time.
        assert registered[5] < 0.85 * registered[20]
        assert registered[5] <= 5 * 55
        assert registered[20] >= 290

    def test_stale_fraction_rises_with_propagation_delay(self):
        stale_fraction = {}
        for delay in (0.1, 2.0, 8.0):
            sim = Simulator()
            network = BlockchainNetwork(
                sim, RngStreams(19),
                params=ConsensusParams(
                    target_block_interval=10.0, retarget_interval=10_000,
                    initial_difficulty=100.0,
                ),
                propagation_delay=delay,
            )
            for i in range(4):
                network.add_participant(f"m{i}", hashrate=2.5)
            network.start()
            sim.run(until=20_000.0)
            for participant in network.participants():
                participant.stop_mining()
            sim.run(until=sim.now + 10 * delay + 1)
            mined = network.counters.get("blocks_mined")
            stale_fraction[delay] = round(
                network.stale_block_count() / mined, 3
            )
        assert stale_fraction[0.1] <= stale_fraction[2.0] <= stale_fraction[8.0]
        assert stale_fraction[0.1] < 0.05
        assert stale_fraction[8.0] > 0.15


class TestMajorityAttack:
    def test_catch_up_probability_analytic(self):
        assert catch_up_probability(0.6, 5) == 1.0
        assert catch_up_probability(0.3, 0) == 1.0
        p = catch_up_probability(0.3, 6)
        assert p == pytest.approx((0.3 / 0.7) ** 6)

    def test_double_spend_probability_monotone(self):
        probs = [double_spend_success_probability(0.3, z) for z in range(1, 8)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert double_spend_success_probability(0.55, 6) == 1.0

    def test_majority_attacker_rewrites_history(self):
        alice = generate_keypair("atk-alice")
        sim, network = make_network(seed=9, premine={alice.public_key: 100.0})
        honest = network.add_participant("honest", hashrate=10.0)
        attacker = network.add_participant("attacker", hashrate=30.0)
        network.start()
        victim_tx = make_transaction(
            alice, TxKind.NAME_REGISTER, {"name": "victim.id", "value": "v"}, 0,
            fee=0.5,
        )
        network.submit_transaction(victim_tx, origin="honest")
        sim.run(until=300.0)  # let it confirm on the honest chain
        assert honest.chain.find_transaction(victim_tx.txid) is not None

        steal = make_transaction(
            attacker.keypair, TxKind.NAME_REGISTER,
            {"name": "victim.id", "value": "stolen"}, 0, fee=0.5,
        )
        attack = MajorityAttack(network, attacker)
        outcome = attack.run(
            victim_tx.txid, reference=honest, horizon=3000.0, release_lead=2,
            conflicting_tx=steal,
        )
        assert outcome.succeeded
        assert outcome.victim_tx_erased
        # The name now belongs to the attacker in consensus state.
        entry = honest.chain.state_at().live_name("victim.id", honest.chain.height)
        assert entry is not None
        assert entry.owner == attacker.keypair.public_key

    def test_minority_attacker_usually_fails(self):
        alice = generate_keypair("atk-alice2")
        sim, network = make_network(seed=10, premine={alice.public_key: 100.0})
        honest = network.add_participant("honest", hashrate=40.0)
        attacker = network.add_participant("attacker", hashrate=5.0)
        network.start()
        victim_tx = make_transaction(
            alice, TxKind.PAY, {"to": "bob", "amount": 1.0}, 0, fee=0.5
        )
        network.submit_transaction(victim_tx, origin="honest")
        sim.run(until=300.0)
        attack = MajorityAttack(network, attacker)
        outcome = attack.run(
            victim_tx.txid, reference=honest, horizon=2000.0, release_lead=3
        )
        assert not outcome.succeeded
        assert honest.chain.find_transaction(victim_tx.txid) is not None

    def test_withholding_blocks_stay_private_until_release(self):
        sim, network = make_network(seed=11)
        honest = network.add_participant("honest", hashrate=10.0)
        lurker = network.add_participant("lurker", hashrate=10.0)
        network.start()
        sim.run(until=200.0)
        lurker.begin_withholding()
        sim.run(until=400.0)
        assert lurker.private_chain_length > 0
        private_block_ids = [b.block_id for b in lurker._private_blocks]
        # Honest node has not seen any private block.
        assert not any(honest.chain.has_block(b) for b in private_block_ids)
        lurker.release_private_chain()
        sim.run(until=sim.now + 5.0)
        # After release, honest has received them all (adopted or not).
        assert all(honest.chain.has_block(b) for b in private_block_ids)


class TestMempoolIntrospection:
    def test_contains_and_pending_order(self):
        alice = generate_keypair("gap-alice")
        pool = Mempool()
        low = make_transaction(alice, TxKind.PAY, {"to": "x", "amount": 1}, 0, fee=0.1)
        high = make_transaction(alice, TxKind.PAY, {"to": "x", "amount": 1}, 1, fee=0.9)
        pool.add(low)
        pool.add(high)
        assert low.txid in pool
        assert len(pool) == 2
        assert pool.pending()[0].fee == 0.9  # fee-descending

    def test_full_pool_rejects(self):
        alice = generate_keypair("gap-alice2")
        pool = Mempool(max_size=1)
        t1 = make_transaction(alice, TxKind.PAY, {"to": "x", "amount": 1}, 0)
        t2 = make_transaction(alice, TxKind.PAY, {"to": "x", "amount": 1}, 1)
        assert pool.add(t1)
        assert not pool.add(t2)
        assert pool.rejected == 1

    def test_remove(self):
        alice = generate_keypair("gap-alice3")
        pool = Mempool()
        tx = make_transaction(alice, TxKind.PAY, {"to": "x", "amount": 1}, 0)
        pool.add(tx)
        pool.remove(tx.txid)
        assert tx.txid not in pool
