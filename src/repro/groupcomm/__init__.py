"""Group communication (§3.2): centralized, federated (single-home,
replicated, and trust-gated partial), and socially-aware P2P models, plus
privacy auditing, moderation policies, and double-ratchet-style session
encryption."""

from repro.groupcomm.centralized import CentralizedPlatform
from repro.groupcomm.encryption import Ciphertext, RatchetSession, SessionCompromise
from repro.groupcomm.federated import (
    FederationBase,
    ReplicatedFederation,
    SingleHomeFederation,
    federation_homes,
)
from repro.groupcomm.messages import Audience, Message, Room
from repro.groupcomm.partial import (
    ConflictRecord,
    ConflictStrategy,
    FederationHub,
    FederationPeer,
    FederationPolicy,
    LastWriterWins,
    ManualQueue,
    PartialFederation,
    PartialReplicaStore,
    TrustWeighted,
    make_strategy,
)
from repro.groupcomm.moderation import (
    KeywordPolicy,
    ModerationOutcome,
    ModerationPolicy,
    NoModeration,
    PerInstancePolicy,
    ReputationPolicy,
    evaluate_policies,
)
from repro.groupcomm.privacy import (
    ExposureReport,
    audit_centralized,
    audit_replicated_federation,
    audit_social_p2p,
    exposure_score,
)
from repro.groupcomm.social_p2p import SocialP2PNetwork

__all__ = [
    "Message",
    "Audience",
    "Room",
    "CentralizedPlatform",
    "SingleHomeFederation",
    "ReplicatedFederation",
    "FederationBase",
    "federation_homes",
    "PartialFederation",
    "FederationHub",
    "FederationPeer",
    "FederationPolicy",
    "PartialReplicaStore",
    "ConflictRecord",
    "ConflictStrategy",
    "LastWriterWins",
    "TrustWeighted",
    "ManualQueue",
    "make_strategy",
    "SocialP2PNetwork",
    "RatchetSession",
    "Ciphertext",
    "SessionCompromise",
    "ExposureReport",
    "audit_centralized",
    "audit_replicated_federation",
    "audit_social_p2p",
    "exposure_score",
    "ModerationPolicy",
    "NoModeration",
    "KeywordPolicy",
    "ReputationPolicy",
    "PerInstancePolicy",
    "ModerationOutcome",
    "evaluate_policies",
]
