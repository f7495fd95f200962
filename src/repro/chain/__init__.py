"""Blockchain substrate: proof-of-work chain with payments and names.

Built from scratch for the naming (§3.1) and chain-attack experiments:
transactions and blocks, a ledger state machine (balances and names),
per-node chain views with heaviest-chain fork choice, a mining network
with Poisson miners and propagation delay, and 51%-attack tooling.
"""

from repro.chain.attacks import (
    AttackOutcome,
    MajorityAttack,
    catch_up_probability,
    double_spend_success_probability,
    selfish_mining_revenue,
)
from repro.chain.block import GENESIS_PARENT, Block, make_block, make_genesis
from repro.chain.chainstate import ChainState
from repro.chain.consensus import ConsensusParams, required_difficulty
from repro.chain.ledger import (
    LedgerRules,
    LedgerState,
    NameEntry,
    apply_transaction,
)
from repro.chain.mempool import Mempool
from repro.chain.network import BlockchainNetwork, Participant
from repro.chain.transaction import (
    COINBASE_SENDER,
    Transaction,
    TxKind,
    make_coinbase,
    make_transaction,
)

__all__ = [
    "Block",
    "GENESIS_PARENT",
    "make_block",
    "make_genesis",
    "ChainState",
    "ConsensusParams",
    "required_difficulty",
    "LedgerState",
    "LedgerRules",
    "NameEntry",
    "apply_transaction",
    "Mempool",
    "BlockchainNetwork",
    "Participant",
    "Transaction",
    "TxKind",
    "make_transaction",
    "make_coinbase",
    "COINBASE_SENDER",
    "MajorityAttack",
    "AttackOutcome",
    "catch_up_probability",
    "double_spend_success_probability",
    "selfish_mining_revenue",
]
