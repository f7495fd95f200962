"""The paper's claims, one table entry per experiment id.

Each :class:`Claim` names the paper section that makes the claim, the
driver call that measures it (the call ``python -m repro experiment``
prints) and a predicate over that call's rows.  Every command that runs
an experiment reads :data:`CLAIMS`:

* ``experiment <id>`` and ``trace <id>`` run the entry's call;
* ``sweep <id>`` runs its driver (or ``cohort`` driver) with
  ``--seed`` and a sweep runner; an entry is sweepable when its driver
  takes a ``runner``;
* ``verify`` runs every call and its predicate::

      python -m repro verify
"""

from __future__ import annotations

import inspect
import math
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.censorship import run_censorship_sweep
from repro.analysis.cohort import (
    run_feasibility_cohort,
    run_federation_availability_cohort,
    run_quality_vs_quantity_cohort,
    run_social_tradeoff_cohort,
)
from repro.analysis.experiments import (
    naming_attack_curve,
    run_endless_ledger,
    run_federation_availability,
    run_feasibility,
    run_moderation_comparison,
    run_name_theft,
    run_naming_comparison,
    run_partial_federation_sweep,
    run_proof_economics,
    run_quality_vs_quantity,
    run_refeudalization,
    run_selfish_mining,
    run_social_tradeoff,
    run_swarm_availability,
    run_usenet_collapse,
)
from repro.core import table1_rows
from repro.errors import ReproError
from repro.storage import table2_rows

__all__ = ["CLAIMS", "Claim", "accepts", "verify_reproduction"]

Rows = List[Dict[str, Any]]


def accepts(fn: Callable[..., Any], name: str) -> bool:
    """Whether ``fn`` takes a parameter called ``name``."""
    return name in inspect.signature(fn).parameters


@dataclass(frozen=True)
class Claim:
    """One paper claim and the experiment that checks it."""

    section: str
    statement: str
    driver: Callable[..., Any]
    kwargs: Mapping[str, Any]
    check: Callable[[Rows], None]
    # Projects the driver's result onto the printed rows.
    rows: Callable[[Any], Rows] = list
    # The vectorized cohort-engine variant (``sweep --engine cohort``).
    cohort: Optional[Callable[..., Any]] = None

    def run(self) -> Rows:
        """The entry's driver call, projected onto its printed rows."""
        return self.rows(self.driver(**self.kwargs))

    @property
    def sweepable(self) -> bool:
        return accepts(self.driver, "runner")


# ---------------------------------------------------------------------------
# Predicates: each asserts on the rows of its own entry's call
# ---------------------------------------------------------------------------

def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=1e-6, abs_tol=1e-12)


def _table1(rows: Rows) -> None:
    projects = {row["problem"]: row["projects"] for row in rows}
    assert projects["Naming"] == "Namecoin, Emercoin, Blockstack"
    assert projects["Web applications"] == "Beaker, ZeroNet, Freedom.js"
    assert len(projects["Group Communication"].split(", ")) >= 8
    assert len(projects["Data storage"].split(", ")) >= 7


def _table2(rows: Rows) -> None:
    systems = {row["system"]: row for row in rows}
    assert len(systems) == 7
    no_chain = [name for name, row in systems.items()
                if row["blockchain_usage"] == "None"]
    assert sorted(no_chain) == ["IPFS", "MaidSafe"]
    assert "Proof-of-replication" in systems["Filecoin"]["incentive_scheme"]


def _table3(rows: Rows) -> None:
    # Every device cell exceeds its cloud cell: the sufficiency verdict.
    assert rows == [
        {"resource": "Bandwidth", "cloud": "200 Tbps", "devices": "5000 Tbps"},
        {"resource": "Cores", "cloud": "400 M", "devices": "500 M"},
        {"resource": "Storage", "cloud": "80 EB", "devices": "210 EB"},
    ]


def _federation(rows: Rows) -> None:
    availability = {row["model"]: row["read_availability"] for row in rows}
    alive = 1 - rows[0]["failed"] / rows[0]["servers"]
    # Users homed on the dead server are cut off, with or without
    # replication; replication plus failover serves everyone.
    assert availability["single_home"] < 1.0
    assert _close(availability["single_home"], alive)
    assert _close(availability["replicated"], alive)
    assert availability["replicated_failover"] == 1.0


def _partial_federation(rows: Rows) -> None:
    curves: Dict[float, Dict[str, Any]] = {}
    for row in rows:
        curves.setdefault(row["trust"], {})[row["policy"]] = row
        assert row["divergent_keys"] == 0 and row["conflicts_pending"] == 0
    for curve in curves.values():
        none, filtered, full = curve["none"], curve["filtered"], curve["full"]
        assert (none["read_availability"] <= filtered["read_availability"]
                <= full["read_availability"])
        assert none["read_availability"] < full["read_availability"]
        assert none["metadata_exposure"] < 0.5
        assert full["metadata_exposure"] == 1.0


def _social_tradeoff(rows: Rows) -> None:
    systems = {row["system"]: row for row in rows}
    central = systems["centralized"]
    p2p = systems["socially_aware_p2p"]
    e2e = systems["federated_replicated_e2e"]
    assert central["availability"] >= p2p["availability"]
    assert central["operator_exposure"] == 1.0
    assert p2p["operator_exposure"] == 0.0
    assert 0.0 < e2e["operator_exposure"] < 1.0
    assert (central["operator_exposure"] >= e2e["operator_exposure"]
            > p2p["operator_exposure"])


def _naming_latency(rows: Rows) -> None:
    pki = next(row["registration_latency_s"] for row in rows
               if row["backend"] == "centralized_pki")
    chain = {row["confirmations"]: row["registration_latency_s"]
             for row in rows if row["backend"] == "blockchain"}
    assert pki < 1.0
    assert chain[6] > 30 * pki
    assert chain[6] > chain[1]


def _attack_curve(rows: Rows) -> None:
    rewrite = {row["attacker_share"]: row["rewrite_probability"]
               for row in rows}
    shares = sorted(rewrite)
    assert all(rewrite[a] <= rewrite[b] for a, b in zip(shares, shares[1:]))
    assert rewrite[0.1] < 0.001
    assert rewrite[0.2] < 0.05
    assert rewrite[0.45] < 1.0
    assert rewrite[0.5] == rewrite[0.6] == rewrite[0.7] == 1.0


def _name_theft(rows: Rows) -> None:
    (theft,) = rows
    assert theft["succeeded"]
    assert theft["victim_tx_erased"]
    assert theft["name_owner_is_attacker"]


def _proof_economics(rows: Rows) -> None:
    paid = {(row["behaviour"], row["audit"]): row for row in rows}
    honest = paid[("honest", "proof_of_storage")]
    unaudited = paid[("drop_half_no_audits", "none")]
    dropper = paid[("drop_half", "proof_of_storage")]
    por_dropper = paid[("drop_half", "proof_of_retrievability")]
    sybil = paid[("dedup_sybil", "proof_of_replication")]
    outsourcer = paid[("outsourcing_far", "proof_of_retrievability")]
    assert honest["epochs_paid"] == 10 and not honest["slashed"]
    # Without audits, dropping half the data still pays in full.
    assert unaudited["epochs_paid"] == 10 and not unaudited["slashed"]
    assert dropper["slashed"] and dropper["epochs_paid"] < 10
    assert por_dropper["epochs_paid"] <= dropper["epochs_paid"]
    assert sybil["slashed"] and sybil["epochs_paid"] == 0
    assert outsourcer["slashed"]
    for cheat in (dropper, por_dropper, sybil, outsourcer):
        assert cheat["earnings"] < honest["earnings"]


def _swarm(rows: Rows) -> None:
    availability = {row["offered_load"]: row["availability"] for row in rows}
    loads = sorted(availability)
    # Dead below load ~1 once the author leaves, saturated when popular,
    # and popularity never hurts (0.05 noise slack).
    assert availability[0.1] < 0.2
    assert availability[32.0] > 0.95
    assert all(availability[b] >= availability[a] - 0.05
               for a, b in zip(loads, loads[1:]))


def _quality(rows: Rows) -> None:
    grid = {(row["infrastructure"], row["replication_factor"]): row
            for row in rows}
    assert grid[("datacenter", 1)]["retrieval_availability"] == 1.0
    assert grid[("datacenter", 1)]["repair_bytes"] == 0
    assert grid[("device", 1)]["retrieval_availability"] < 1.0
    assert grid[("device", 3)]["retrieval_availability"] >= 0.95
    assert grid[("device", 3)]["repair_bytes"] > 0
    assert grid[("device", 4)]["repair_bytes"] >= grid[("device", 2)]["repair_bytes"]
    for factor in (1, 2, 3, 4):
        assert (grid[("datacenter", factor)]["repair_bytes"]
                <= grid[("device", 3)]["repair_bytes"])


def _moderation(rows: Rows) -> None:
    regimes = {row["regime"]: row for row in rows}
    none = regimes["none (pure P2P)"]
    keyword = regimes["central keyword filter"]
    reputation = regimes["report-driven reputation"]
    federated = regimes["per-instance federation"]
    assert none["spam_pass_rate"] == 1.0
    assert none["collateral_block_rate"] == 0.0
    # The central filter kills the spam and some legitimate speech.
    assert keyword["spam_pass_rate"] == 0.0
    assert keyword["collateral_block_rate"] > 0.0
    assert 0.0 < reputation["spam_pass_rate"] < 0.2
    assert reputation["collateral_block_rate"] == 0.0
    # Spam blocked on the strict instance stays reachable on the lax one.
    assert federated["spam_pass_rate"] == 1.0


def _usenet(rows: Rows) -> None:
    first, last = rows[0], rows[-1]
    growth = last["community_size"] / first["community_size"]
    federated_growth = (last["per_node_bytes_federated"]
                        / first["per_node_bytes_federated"])
    user_growth = (last["per_user_bytes_centralized"]
                   / first["per_user_bytes_centralized"])
    assert federated_growth > 0.6 * growth
    assert user_growth < federated_growth / 1.5
    assert last["server_bytes_centralized"] > first["server_bytes_centralized"]


def _endless_ledger(rows: Rows) -> None:
    chain = [row["chain_bytes"] for row in rows]
    live = [row["live_names"] for row in rows]
    registered = [row["total_registrations"] for row in rows]
    assert all(a < b for a, b in zip(chain, chain[1:]))
    assert registered[-1] > 3 * registered[0]
    assert max(live) < registered[0] * 2
    # Bytes per live name diverge: history grows, the name set does not.
    assert chain[-1] / max(1, live[-1]) > 2 * (chain[0] / max(1, live[0]))


def _selfish_mining(rows: Rows) -> None:
    revenue = {row["alpha"]: row for row in rows}
    assert revenue[0.30]["revenue(gamma=0.0)"] < 0.30
    assert revenue[0.35]["revenue(gamma=0.0)"] > 0.35
    assert revenue[0.40]["revenue(gamma=0.0)"] > 0.40
    for alpha, row in revenue.items():
        assert row["revenue(gamma=1.0)"] > alpha
        assert (row["revenue(gamma=0.0)"] <= row["revenue(gamma=0.5)"]
                <= row["revenue(gamma=1.0)"])


def _refeudalization(rows: Rows) -> None:
    markets = {row["scale_advantage"]: row for row in rows}
    flat, scaled = markets[0.0], markets[0.25]
    assert flat["providers_surviving"] == 20
    assert flat["hhi"] < 0.06
    assert scaled["providers_surviving"] <= flat["providers_surviving"] // 2
    assert scaled["hhi"] > 3 * flat["hhi"]


def _censorship(rows: Rows) -> None:
    runs = {(row["experiment"], row["preset"]): row for row in rows}
    assert all(row["violations"] == 0 for row in rows)
    for experiment in sorted({row["experiment"] for row in rows}):
        static = runs[(experiment, "border-block")]
        probing = runs[(experiment, "border-block-probing")]
        # Without DPI the relays survive and every kill is collateral.
        assert static["reachability"] == 1.0
        assert static["relays_reblocked"] == 0
        assert static["blocked_flows"] == static["collateral_flows"]
        # DPI costs reachability and makes the censor's kills targeted.
        assert probing["reachability"] < static["reachability"]
        assert (probing["collateral_flows"] / probing["blocked_flows"]
                < static["collateral_flows"] / static["blocked_flows"])


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

CLAIMS: Dict[str, Claim] = {
    "E1": Claim("Table 1", "Table 1 regenerates from the project registry",
                table1_rows, {}, _table1),
    "E2": Claim("Table 2", "Table 2 regenerates from the system profiles",
                table2_rows, {}, _table2),
    "E3": Claim("Table 3", "Table 3 cells match the paper exactly",
                run_feasibility, {}, _table3,
                rows=lambda result: result["table3"],
                cohort=run_feasibility_cohort),
    "E4": Claim("§3.2", "single-home federation loses a dead server's users",
                run_federation_availability, {"seed": 7}, _federation,
                cohort=run_federation_availability_cohort),
    "E4P": Claim("§3.2", "partial federation buys availability with exposure",
                 run_partial_federation_sweep, {"seed": 7},
                 _partial_federation),
    "E5": Claim("§3.2", "socially-aware P2P trades availability for privacy",
                run_social_tradeoff, {"seed": 3}, _social_tradeoff,
                cohort=run_social_tradeoff_cohort),
    "E6A": Claim("§3.1", "blockchain naming trades latency for consensus",
                 run_naming_comparison, {"seed": 2}, _naming_latency),
    "E6B": Claim("§3.1", "51% rewrite probability crosses over at 0.5",
                 naming_attack_curve, {}, _attack_curve),
    "E6C": Claim("§3.1", "a hashrate majority steals a registered name",
                 run_name_theft, {"seed": 9}, _name_theft,
                 rows=lambda row: [row]),
    "E7": Claim("§3.3", "storage proofs make every audited cheat unprofitable",
                run_proof_economics, {"seed": 4}, _proof_economics),
    "E8": Claim("§3.4", "visitor-seeded sites live only while popular",
                run_swarm_availability, {"seed": 6}, _swarm),
    "E9": Claim("§5.2", "device-grade storage needs replication and repair",
                run_quality_vs_quantity, {"seed": 2}, _quality,
                cohort=run_quality_vs_quantity_cohort),
    "E10": Claim("§3.2", "moderation is in tension with expression",
                 run_moderation_comparison, {"seed": 1}, _moderation),
    "E11": Claim("§3.2", "full-feed federation cost grows with the community",
                 run_usenet_collapse, {"seed": 3}, _usenet),
    "E12": Claim("§3.1", "the ledger grows while live names plateau",
                 run_endless_ledger, {"seed": 3}, _endless_ledger),
    "E13": Claim("§5.1", "selfish mining pays above a third of the hashrate",
                 run_selfish_mining, {"seed": 5}, _selfish_mining),
    "E14": Claim("§5.3", "economies of scale re-concentrate the market",
                 run_refeudalization, {}, _refeudalization),
    "EC": Claim("§4", "DPI re-blocks relays; a static border is collateral",
                run_censorship_sweep, {"seed": 1}, _censorship),
}


def _verdict(claim: Claim) -> Tuple[str, str]:
    """PASS, or FAIL/ERROR with a detail, for one claim."""
    if not __debug__:
        return "ERROR", "python -O strips the predicates' asserts"
    try:
        claim.check(claim.run())
    except AssertionError as exc:
        # A bare ``assert`` has no message: show its source line.
        return "FAIL", str(exc) or (
            traceback.extract_tb(exc.__traceback__)[-1].line or "")
    except (ReproError, ImportError, ArithmeticError, LookupError,
            TypeError, ValueError) as exc:
        # The concrete failure families a broken call or predicate
        # produces: library errors (ReproError), a renamed import, and
        # the data-shape errors of mis-built rows.  Anything else is a
        # harness bug and should crash loudly.
        return "ERROR", f"{type(exc).__name__}: {exc}"
    return "PASS", ""


def verify_reproduction() -> List[Dict[str, str]]:
    """Run every claim's call and predicate; one PASS/FAIL row per claim."""
    rows = []
    for claim_id, claim in CLAIMS.items():
        status, detail = _verdict(claim)
        rows.append({"id": claim_id, "section": claim.section,
                     "claim": claim.statement, "status": status,
                     "detail": detail.partition("\n")[0][:60]})
    return rows
