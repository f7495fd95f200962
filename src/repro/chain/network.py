"""The simulated blockchain peer-to-peer network.

:class:`BlockchainNetwork` runs a population of participants (full nodes,
some of them miners) on the discrete-event simulator.  Each miner is an
independent Poisson process with rate ``hashrate / difficulty`` against its
*local* tip — the standard continuous-time model of Nakamoto mining.  Found
blocks propagate to every other participant after ``propagation_delay``
seconds, so natural forks occur exactly when two miners find blocks within
a propagation window, and the 51%-attack (withheld private chains) is a
first-class behaviour rather than a bolt-on.

The paper (§3.1) leans on three blockchain facts this module makes
measurable: global consensus emerges without an authority; throughput is
limited by the block interval; and a majority of hashrate can rewrite
history.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chain.block import Block, make_block, make_genesis
from repro.chain.chainstate import ChainState
from repro.chain.consensus import ConsensusParams, required_difficulty
from repro.chain.ledger import LedgerRules
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction, make_coinbase
from repro.crypto.keys import KeyPair, generate_keypair
from repro.errors import ChainError, InvalidBlockError, InvalidTransactionError
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter
from repro.sim.rng import RngStreams

__all__ = ["BlockchainNetwork", "Participant"]


class Participant:
    """One full node: a chain view, a mempool, and optionally a miner.

    ``withholding=True`` turns the participant into a selfish/majority
    attacker: blocks it mines stay private until :meth:`release_private_chain`.
    """

    def __init__(
        self,
        name: str,
        network: "BlockchainNetwork",
        hashrate: float = 0.0,
        withholding: bool = False,
    ):
        self.name = name
        self.network = network
        self.hashrate = float(hashrate)
        self.withholding = withholding
        self.keypair: KeyPair = generate_keypair(f"miner:{name}")
        self.chain = ChainState(
            genesis=network.genesis,
            rules=network.rules,
            premine=network.premine,
        )
        self.mempool = Mempool()
        self.blocks_mined = 0
        self.censor_txids: set = set()
        self._private_blocks: List[Block] = []
        self._private_tip_id: Optional[str] = (
            self.chain.genesis.block_id if withholding else None
        )
        self._orphan_buffer: Dict[str, List[Block]] = {}
        self._mine_event = None

    # -- mining -------------------------------------------------------------

    def start_mining(self) -> None:
        if self.hashrate > 0:
            self._arm()

    def stop_mining(self) -> None:
        self.hashrate = 0.0
        if self._mine_event is not None:
            self._mine_event.cancel()
            self._mine_event = None

    def set_hashrate(self, hashrate: float) -> None:
        self.hashrate = float(hashrate)
        if self.hashrate > 0:
            self._arm()
        else:
            self.stop_mining()

    def _mining_parent(self) -> Block:
        """The block this participant extends: the private fork tip while
        withholding, otherwise the consensus tip."""
        if self.withholding and self._private_tip_id is not None:
            return self.chain.block(self._private_tip_id)
        return self.chain.tip

    def _arm(self) -> None:
        """(Re)sample the next block-find time against the mining parent.

        Re-arming on every tip change is statistically exact because the
        exponential distribution is memoryless.
        """
        if self._mine_event is not None:
            self._mine_event.cancel()
            self._mine_event = None
        if self.hashrate <= 0:
            return
        parent = self._mining_parent()
        difficulty = required_difficulty(self.chain, parent, self.network.params)
        rate = self.hashrate / difficulty
        dt = self.network.mining_rng.expovariate(rate)
        self._mine_event = self.network.sim.schedule(dt, self._found_block)

    def _found_block(self) -> None:
        self._mine_event = None
        sim = self.network.sim
        parent = self._mining_parent()
        difficulty = required_difficulty(self.chain, parent, self.network.params)
        state = self.chain.state_at(parent.block_id)
        selected = self.mempool.select(
            state, parent.height + 1, self.network.rules,
            max_txs=self.network.max_txs_per_block,
        )
        if self.censor_txids:
            selected = [tx for tx in selected if tx.txid not in self.censor_txids]
        coinbase = make_coinbase(
            self.keypair.public_key, self.network.rules.block_reward,
            parent.height + 1,
        )
        block = make_block(
            parent=parent,
            timestamp=sim.now,
            miner=self.name,
            difficulty=difficulty,
            transactions=[coinbase] + selected,
        )
        self.blocks_mined += 1
        self.network.counters.increment("blocks_mined")
        self.network.counters.increment(f"blocks_mined.{self.name}")
        self.chain.add_block(block)
        self.mempool.remove_mined(block.transactions)
        if self.withholding:
            self._private_blocks.append(block)
            self._private_tip_id = block.block_id
            self.network.counters.increment("blocks_withheld")
        else:
            self.network.broadcast_block(self.name, block)
        self._arm()

    def begin_withholding(self, fork_point_id: Optional[str] = None) -> None:
        """Start mining a private fork from ``fork_point_id`` (default: the
        current tip).  Found blocks stay private until
        :meth:`release_private_chain` — the setup step of a majority
        attack."""
        self.withholding = True
        self._private_tip_id = fork_point_id or self.chain.tip.block_id
        self._private_blocks = []
        self._arm()

    def release_private_chain(self) -> List[Block]:
        """Broadcast the withheld private chain (the attack's reveal step)
        and return to honest mining on the consensus tip."""
        released, self._private_blocks = self._private_blocks, []
        for block in released:
            self.network.broadcast_block(self.name, block)
        self.network.counters.increment(
            "private_chain_releases", 1 if released else 0
        )
        self.withholding = False
        self._private_tip_id = None
        self._arm()
        return released

    @property
    def private_chain_length(self) -> int:
        return len(self._private_blocks)

    @property
    def private_tip_height(self) -> int:
        if self._private_tip_id is None:
            return self.chain.height
        return self.chain.block(self._private_tip_id).height

    @property
    def private_tip_work(self) -> float:
        """Cumulative work of the private fork tip (consensus tip when not
        withholding)."""
        tip_id = self._private_tip_id or self.chain.tip.block_id
        return self.chain.cumulative_work(tip_id)

    # -- receiving ----------------------------------------------------------

    def receive_block(self, block: Block) -> None:
        """Validate and adopt a block; buffers orphans until parents arrive.

        A withholding participant still tracks the public chain (so it can
        measure its lead) but keeps mining on its private fork.
        """
        if self.chain.has_block(block.block_id):
            return
        if not self.chain.has_block(block.parent_id):
            self._orphan_buffer.setdefault(block.parent_id, []).append(block)
            self.network.counters.increment("orphans_buffered")
            return
        old_tip = self.chain.tip.block_id
        try:
            self.chain.add_block(block)
        except InvalidBlockError:
            self.network.counters.increment("blocks_rejected")
            return
        self._drain_orphans(block.block_id)
        if self.chain.tip.block_id != old_tip:
            tip_state = self.chain.state_at()
            self.mempool.remove_mined(block.transactions)
            self.mempool.drop_invalid(
                tip_state, self.chain.height + 1, self.network.rules
            )
            self._arm()

    def _drain_orphans(self, parent_id: str) -> None:
        waiting = self._orphan_buffer.pop(parent_id, [])
        for orphan in waiting:
            self.receive_block(orphan)

    def receive_transaction(self, tx: Transaction) -> None:
        try:
            self.mempool.add(tx)
        except InvalidTransactionError:
            self.network.counters.increment("txs_rejected")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Participant({self.name!r}, h={self.chain.height},"
            f" hashrate={self.hashrate})"
        )


class BlockchainNetwork:
    """Coordinates participants, block gossip, and transaction gossip."""

    def __init__(
        self,
        sim: Simulator,
        streams: RngStreams,
        params: Optional[ConsensusParams] = None,
        rules: Optional[LedgerRules] = None,
        propagation_delay: float = 2.0,
        tx_propagation_delay: float = 1.0,
        premine: Optional[Dict[str, float]] = None,
        max_txs_per_block: int = 1000,
    ):
        if propagation_delay < 0 or tx_propagation_delay < 0:
            raise ChainError("propagation delays must be non-negative")
        self.sim = sim
        self.params = params or ConsensusParams()
        self.rules = rules or LedgerRules()
        self.genesis = make_genesis(difficulty=self.params.initial_difficulty)
        self.propagation_delay = propagation_delay
        self.tx_propagation_delay = tx_propagation_delay
        self.premine = dict(premine or {})
        self.max_txs_per_block = max_txs_per_block
        self.mining_rng = streams.stream("chain.mining")
        self.counters = Counter()
        self._participants: Dict[str, Participant] = {}

    # -- membership -----------------------------------------------------------

    def add_participant(
        self, name: str, hashrate: float = 0.0, withholding: bool = False
    ) -> Participant:
        if name in self._participants:
            raise ChainError(f"duplicate participant {name!r}")
        participant = Participant(name, self, hashrate, withholding)
        self._participants[name] = participant
        return participant

    def participant(self, name: str) -> Participant:
        p = self._participants.get(name)
        if p is None:
            raise ChainError(f"unknown participant {name!r}")
        return p

    def participants(self) -> List[Participant]:
        return list(self._participants.values())

    def total_hashrate(self) -> float:
        return sum(p.hashrate for p in self._participants.values())

    def start(self) -> None:
        """Arm every miner; call once after adding participants."""
        if self.total_hashrate() <= 0:
            raise ChainError("no participant has positive hashrate")
        for p in self._participants.values():
            p.start_mining()

    # -- gossip -----------------------------------------------------------------

    def broadcast_block(self, origin: str, block: Block) -> None:
        self.counters.increment("blocks_broadcast")
        for name, participant in self._participants.items():
            if name == origin:
                continue
            self.sim.schedule(
                self.propagation_delay, participant.receive_block, block
            )

    def submit_transaction(self, tx: Transaction, origin: Optional[str] = None) -> None:
        """Gossip a transaction to every mempool (including the origin's,
        immediately)."""
        self.counters.increment("txs_submitted")
        for name, participant in self._participants.items():
            if name == origin:
                participant.receive_transaction(tx)
            else:
                self.sim.schedule(
                    self.tx_propagation_delay,
                    participant.receive_transaction,
                    tx,
                )

    # -- whole-network queries -----------------------------------------------

    def consensus_tip_ids(self) -> Dict[str, str]:
        return {
            name: p.chain.tip.block_id for name, p in self._participants.items()
        }

    def in_consensus(self) -> bool:
        """True when every participant agrees on the tip."""
        tips = set(self.consensus_tip_ids().values())
        return len(tips) == 1

    def stale_block_count(self) -> int:
        """Blocks mined that did not end on the (first participant's) main
        chain — the natural-fork waste measure."""
        if not self._participants:
            return 0
        reference = next(iter(self._participants.values()))
        main_ids = {b.block_id for b in reference.chain.main_chain()}
        mined = self.counters.get("blocks_mined")
        return mined - (len(main_ids) - 1)  # genesis isn't mined
