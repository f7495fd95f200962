"""Blockchain attacks: the 51% double-spend/history-rewrite machinery.

The paper (§3.1) names the 51% attack as the canonical blockchain weakness
that survives in the naming use case.  Two tools here:

* :func:`catch_up_probability` — Nakamoto's analytic success probability
  for an attacker starting ``z`` blocks behind with hashrate share ``q``.
* :class:`MajorityAttack` — an empirical attack driver for a
  :class:`~repro.chain.network.BlockchainNetwork`: mine a private fork
  from before a victim transaction, then release it once longer, erasing
  the transaction from the consensus chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.chain.network import BlockchainNetwork, Participant
from repro.errors import ChainError
from repro.sim.rng import seeded_rng

__all__ = [
    "catch_up_probability",
    "double_spend_success_probability",
    "MajorityAttack",
    "AttackOutcome",
    "selfish_mining_revenue",
]


def catch_up_probability(attacker_share: float, deficit: int) -> float:
    """Probability an attacker ever catches up from ``deficit`` blocks back.

    Nakamoto (2008): with attacker rate fraction ``q`` and honest ``p``,
    the catch-up probability from deficit z is ``1`` if q > p else
    ``(q/p)**z``.  ``deficit`` counts blocks the attacker must overtake.
    """
    if not 0 <= attacker_share <= 1:
        raise ChainError(f"attacker share must be in [0,1]: {attacker_share}")
    if deficit < 0:
        raise ChainError(f"deficit must be non-negative: {deficit}")
    q = attacker_share
    p = 1.0 - q
    if q >= p:
        return 1.0
    if deficit == 0:
        return 1.0
    return (q / p) ** deficit


def double_spend_success_probability(
    attacker_share: float, confirmations: int
) -> float:
    """Nakamoto's full double-spend probability after ``z`` confirmations.

    Accounts for the Poisson-distributed progress the attacker has already
    made while the victim waited for confirmations.
    """
    q = attacker_share
    p = 1.0 - q
    z = confirmations
    if q <= 0:
        return 0.0
    if q >= p:
        return 1.0
    lam = z * (q / p)
    total = 1.0
    for k in range(z + 1):
        poisson = math.exp(-lam) * lam**k / math.factorial(k)
        total -= poisson * (1.0 - (q / p) ** (z - k))
    return max(0.0, min(1.0, total))


@dataclass
class AttackOutcome:
    """Result of an empirical majority attack run."""

    succeeded: bool
    attacker_blocks: int
    honest_blocks: int
    sim_time: float
    victim_tx_erased: bool


class MajorityAttack:
    """Drive a withholding participant to rewrite recent history.

    Usage::

        attack = MajorityAttack(network, attacker)
        outcome = attack.run(victim_txid, horizon=...)

    ``run`` forks the attacker's private chain from the block *before* the
    one containing the victim transaction, censors the victim transaction
    from the attacker's blocks, optionally mines a conflicting transaction,
    and releases once the private fork leads the public chain.
    """

    def __init__(self, network: BlockchainNetwork, attacker: Participant):
        self.network = network
        self.attacker = attacker

    def lead(self, reference: Participant) -> float:
        """Attacker private-fork lead over the honest tip, measured in
        cumulative *work* and expressed in honest-difficulty block
        equivalents.  Fork choice is by work, so a longer-but-lighter
        private chain (possible across difficulty retargets) is not a
        lead."""
        honest_tip = reference.chain.tip
        honest_work = reference.chain.cumulative_work(honest_tip.block_id)
        return (
            self.attacker.private_tip_work - honest_work
        ) / honest_tip.difficulty

    def run(
        self,
        victim_txid: str,
        reference: Participant,
        horizon: float,
        check_interval: float = 60.0,
        release_lead: int = 1,
        conflicting_tx=None,
    ) -> AttackOutcome:
        """Run the simulation until the attacker leads by ``release_lead``
        blocks or ``horizon`` simulated seconds elapse, then release.

        The attacker censors the victim transaction from its own blocks.
        ``conflicting_tx`` (e.g. the attacker registering the victim's name
        to itself) is injected into the attacker's mempool only, so the
        rewrite permanently invalidates the victim transaction rather than
        merely delaying it.

        Returns the outcome, including whether the victim transaction is
        still on the reference participant's main chain afterwards.
        """
        sim = self.network.sim
        self.attacker.censor_txids.add(victim_txid)
        if conflicting_tx is not None:
            self.attacker.receive_transaction(conflicting_tx)
        victim_height = self.attacker.chain.find_transaction(victim_txid)
        fork_point_id = None
        if victim_height is not None and victim_height > 0:
            fork_block = self.attacker.chain.block_at_height(victim_height - 1)
            if fork_block is not None:
                fork_point_id = fork_block.block_id
        self.attacker.begin_withholding(fork_point_id)
        released = {"done": False}

        def watch() -> None:
            if released["done"]:
                return
            if self.lead(reference) >= release_lead:
                self.attacker.release_private_chain()
                released["done"] = True
                return
            sim.schedule(check_interval, watch)

        sim.schedule(check_interval, watch)
        sim.run(until=sim.now + horizon)
        if not released["done"]:
            # Horizon hit without overtaking: release anyway (attack fails).
            self.attacker.release_private_chain()
        # Let the release propagate.
        sim.run(until=sim.now + 10 * self.network.propagation_delay + 1)

        erased = reference.chain.find_transaction(victim_txid) is None
        return AttackOutcome(
            succeeded=released["done"] and erased,
            attacker_blocks=self.attacker.blocks_mined,
            honest_blocks=self.network.counters.get("blocks_mined")
            - self.attacker.blocks_mined,
            sim_time=sim.now,
            victim_tx_erased=erased,
        )


def selfish_mining_revenue(
    alpha: float,
    gamma: float = 0.0,
    blocks: int = 200_000,
    seed: int = 0,
) -> float:
    """Eyal-Sirer selfish mining: the attacker's long-run revenue share.

    ``alpha`` is the attacker's hashrate fraction; ``gamma`` the fraction
    of honest miners that build on the attacker's branch during a race.
    Runs the standard state machine over ``blocks`` block-discovery
    events and returns attacker revenue / total revenue.

    Known result this reproduces: with gamma = 0 selfish mining beats
    honest mining (revenue > alpha) once alpha > 1/3; with gamma = 1 the
    threshold drops to 0 — the §5.1 "performance and security of
    blockchain systems" analysis, runnable.

    Draws come from the named stream ``"attacks.selfish_mining"`` (see
    :func:`repro.sim.rng.seeded_rng`), so runs sharing a root seed with
    other components stay decorrelated; exact per-seed outputs are
    pinned in ``tests/chain/test_selfish_mining.py``.
    """
    if not 0 < alpha < 1:
        raise ChainError(f"alpha must be in (0,1): {alpha}")
    if not 0 <= gamma <= 1:
        raise ChainError(f"gamma must be in [0,1]: {gamma}")
    rng = seeded_rng(seed, "attacks.selfish_mining")
    lead = 0          # private-chain lead over the public chain
    fork = False      # a 1-vs-1 public race is in progress
    attacker_revenue = 0
    honest_revenue = 0

    for _ in range(blocks):
        if rng.random() < alpha:
            # -- attacker finds a block ----------------------------------
            previous_lead = lead
            lead += 1
            if previous_lead == 0 and fork:
                # Attacker extends its own racing branch: wins the race.
                attacker_revenue += 2
                lead = 0
                fork = False
        else:
            # -- honest network finds a block ------------------------------
            previous_lead = lead
            if previous_lead == 0:
                if fork:
                    # Race resolved by an honest block.
                    if rng.random() < gamma:
                        attacker_revenue += 1  # built on attacker branch
                        honest_revenue += 1
                    else:
                        honest_revenue += 2
                    fork = False
                else:
                    honest_revenue += 1
            elif previous_lead == 1:
                # Attacker publishes its one-block lead: a race begins.
                lead = 0
                fork = True
            elif previous_lead == 2:
                # Attacker publishes everything, orphaning the honest block.
                attacker_revenue += 2
                lead = 0
            else:
                # Attacker stays ahead; one private block becomes safe.
                attacker_revenue += 1
                lead -= 1

    total = attacker_revenue + honest_revenue
    return attacker_revenue / total if total else 0.0
