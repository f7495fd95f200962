"""Desirable-property scorecards (§2.1 and §3.2).

The paper enumerates why centralized systems win users (convenience,
homogeneity, cost) and operators (performance, security, financing), and
what group-communication systems must additionally provide (connectedness,
abuse prevention, privacy).  This module gives those checklists a typed
representation plus measured-score plumbing, so experiment drivers can
attach simulation results to the qualitative claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError

__all__ = [
    "UserProperty",
    "OperatorProperty",
    "CommProperty",
    "Scorecard",
    "PAPER_SCORECARDS",
]


class UserProperty:
    """§2.1: why users accept the feudal bargain."""

    CONVENIENCE = "convenience"
    HOMOGENEITY = "homogeneity"
    COST = "cost"

    ALL = (CONVENIENCE, HOMOGENEITY, COST)


class OperatorProperty:
    """§2.1: why designers/operators centralize."""

    PERFORMANCE = "performance"
    SECURITY = "security"
    FINANCING = "financing"

    ALL = (PERFORMANCE, SECURITY, FINANCING)


class CommProperty:
    """§3.2: extra requirements on group communication."""

    CONNECTEDNESS = "connectedness"
    ABUSE_PREVENTION = "abuse_prevention"
    PRIVACY = "privacy"

    ALL = (CONNECTEDNESS, ABUSE_PREVENTION, PRIVACY)


_KNOWN = set(UserProperty.ALL) | set(OperatorProperty.ALL) | set(CommProperty.ALL)


@dataclass
class Scorecard:
    """Qualitative scores in [0, 1] per property for one system family.

    ``evidence`` maps a property to the experiment id (DESIGN.md E-number)
    or measurement that backs the score.
    """

    system: str
    scores: Dict[str, float] = field(default_factory=dict)
    evidence: Dict[str, str] = field(default_factory=dict)

    def set_score(self, prop: str, score: float, evidence: str = "") -> None:
        if prop not in _KNOWN:
            raise ReproError(f"unknown property {prop!r}")
        if not 0.0 <= score <= 1.0:
            raise ReproError(f"score must be in [0,1]: {score}")
        self.scores[prop] = score
        if evidence:
            self.evidence[prop] = evidence

    def score(self, prop: str) -> Optional[float]:
        return self.scores.get(prop)

    def dominates(self, other: "Scorecard", props: List[str]) -> bool:
        """True when this system weakly beats ``other`` on every listed
        property (both must have scores)."""
        for prop in props:
            mine, theirs = self.scores.get(prop), other.scores.get(prop)
            if mine is None or theirs is None:
                raise ReproError(f"missing score for {prop!r}")
            if mine < theirs:
                return False
        return True


def _card(system: str, **scores: float) -> Scorecard:
    card = Scorecard(system)
    for prop, score in scores.items():
        card.set_score(prop, score, evidence="paper:qualitative")
    return card


# The paper's qualitative landscape, §2.1 + §3.2 prose.
PAPER_SCORECARDS: Dict[str, Scorecard] = {
    "centralized": _card(
        "centralized",
        convenience=0.9, homogeneity=0.9, cost=0.8,
        performance=0.9, security=0.7, financing=0.9,
        connectedness=0.9, abuse_prevention=0.8, privacy=0.2,
    ),
    "federated_single_home": _card(
        "federated_single_home",
        convenience=0.6, homogeneity=0.6, cost=0.6,
        performance=0.6, security=0.5, financing=0.4,
        connectedness=0.5, abuse_prevention=0.6, privacy=0.5,
    ),
    "federated_replicated": _card(
        "federated_replicated",
        convenience=0.6, homogeneity=0.6, cost=0.5,
        performance=0.6, security=0.6, financing=0.4,
        connectedness=0.8, abuse_prevention=0.6, privacy=0.6,
    ),
    "socially_aware_p2p": _card(
        "socially_aware_p2p",
        convenience=0.3, homogeneity=0.4, cost=0.7,
        performance=0.4, security=0.6, financing=0.3,
        connectedness=0.3, abuse_prevention=0.4, privacy=0.9,
    ),
    "blockchain": _card(
        "blockchain",
        convenience=0.4, homogeneity=0.5, cost=0.4,
        performance=0.2, security=0.8, financing=0.5,
        connectedness=0.7, abuse_prevention=0.3, privacy=0.5,
    ),
}
