"""Exception hierarchy for the feudalsim reproduction library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly or reached an
    inconsistent state (e.g. scheduling into the past)."""


class NetworkError(ReproError):
    """A simulated-network operation failed (unknown node, no route,
    delivery to an offline node where the caller required liveness)."""


class NodeOfflineError(NetworkError):
    """A message or RPC was addressed to a node that is currently offline."""


class RpcTimeoutError(NetworkError):
    """An RPC did not receive a response within its timeout (lost request,
    lost response, or offline peer)."""


class RemoteError(NetworkError):
    """A handler on the remote node raised; carries the remote exception."""

    def __init__(self, remote_exception: Exception):
        super().__init__(f"remote handler raised: {remote_exception!r}")
        self.remote_exception = remote_exception


class CryptoError(ReproError):
    """A simulated cryptographic operation failed (bad signature,
    malformed key, Merkle proof mismatch)."""


class InvalidSignatureError(CryptoError):
    """Signature verification failed."""


class ChainError(ReproError):
    """Blockchain validation or state-transition failure."""


class InvalidBlockError(ChainError):
    """A block failed validation (bad proof-of-work, bad parent link,
    invalid transactions, wrong height)."""


class InvalidTransactionError(ChainError):
    """A transaction failed validation (bad signature, overspend,
    conflicting name operation)."""


class DHTError(ReproError):
    """A DHT lookup or store operation failed."""


class LookupFailedError(DHTError):
    """An iterative lookup terminated without finding the target value."""


class NamingError(ReproError):
    """Name registration or resolution failure."""


class NameTakenError(NamingError):
    """Attempted to register a name that is already owned."""


class NameNotFoundError(NamingError):
    """Attempted to resolve or update a name that does not exist."""


class NotNameOwnerError(NamingError):
    """Attempted to update or transfer a name the caller does not own."""


class StorageError(ReproError):
    """Decentralized-storage failure (missing blob, failed proof,
    contract violation)."""


class ContractError(StorageError):
    """A storage contract was violated or could not be formed."""


class ProofFailedError(StorageError):
    """A storage proof challenge was not answered correctly."""


class GroupCommError(ReproError):
    """Group-communication failure (unknown room, revoked access)."""


class AccessDeniedError(GroupCommError):
    """The platform operator or peer refused service (the 'feudal' failure
    mode: access unilaterally revoked)."""


class WebAppError(ReproError):
    """Hostless-web-application failure (unverifiable bundle, dead swarm)."""


class FeasibilityError(ReproError):
    """Invalid input to the infrastructure feasibility model."""


class FaultError(ReproError):
    """A fault plan was malformed or could not be applied to a simulation
    (unknown node id, overlapping partitions, bad window)."""


class InvariantViolation(ReproError):
    """A registered runtime invariant failed during a chaos run.

    Carries structured context so violations can be reported and traced
    rather than only stringified: the invariant ``name``, the simulated
    time ``at`` of the failing check, and a ``details`` mapping of
    whatever state the predicate chose to expose.
    """

    def __init__(self, name: str, message: str, at: float, details=None):
        super().__init__(f"invariant {name!r} violated at t={at:g}: {message}")
        self.name = name
        self.message = message
        self.at = at
        self.details = dict(details or {})
