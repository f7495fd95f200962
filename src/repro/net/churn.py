"""Churn: nodes joining, leaving, and permanently departing.

Availability of device-grade infrastructure is modeled as an alternating
renewal process: each node alternates exponentially-distributed online and
offline periods.  A profile may also include *attrition* — a probability
that a node never comes back after going offline (the paper's §3.2 lists
"node attrition" as a connectedness threat).

The stationary availability of the alternating renewal process is
``mean_uptime / (mean_uptime + mean_downtime)``, which tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import NetworkError
from repro.net.node import Node, NodeClass
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

__all__ = [
    "ChurnProfile",
    "ChurnProcess",
    "attach_churn",
    "profile_for_class",
]


@dataclass(frozen=True)
class ChurnProfile:
    """Parameters of the on/off renewal process, in seconds.

    ``attrition`` is the per-departure probability of never returning.
    """

    mean_uptime: float
    mean_downtime: float
    attrition: float = 0.0
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.mean_uptime <= 0 or self.mean_downtime <= 0:
            raise NetworkError(
                f"churn profile needs positive means, got {self.mean_uptime},"
                f" {self.mean_downtime}"
            )
        if not 0 <= self.attrition <= 1:
            raise NetworkError(f"attrition must be in [0,1]: {self.attrition}")

    @property
    def availability(self) -> float:
        """Stationary availability of the on/off process (ignoring attrition)."""
        return self.mean_uptime / (self.mean_uptime + self.mean_downtime)


# Profiles roughly matching the infrastructure classes of the paper's §4/§5.2.
# Datacenter: ~four nines.  Home server: residential power/net interruptions.
# Personal computer: on during the workday.  Phone/tablet: short app sessions.
DATACENTER_PROFILE = ChurnProfile(
    mean_uptime=30 * 86400.0, mean_downtime=300.0, attrition=0.0, name="datacenter"
)
HOME_SERVER_PROFILE = ChurnProfile(
    mean_uptime=7 * 86400.0, mean_downtime=3600.0, attrition=0.001, name="home_server"
)
PERSONAL_COMPUTER_PROFILE = ChurnProfile(
    mean_uptime=8 * 3600.0, mean_downtime=16 * 3600.0, attrition=0.002,
    name="personal_computer",
)
SMARTPHONE_PROFILE = ChurnProfile(
    mean_uptime=1800.0, mean_downtime=5400.0, attrition=0.005, name="smartphone"
)
TABLET_PROFILE = ChurnProfile(
    mean_uptime=3600.0, mean_downtime=3 * 3600.0, attrition=0.005, name="tablet"
)

_CLASS_PROFILES = {
    NodeClass.DATACENTER: DATACENTER_PROFILE,
    NodeClass.HOME_SERVER: HOME_SERVER_PROFILE,
    NodeClass.PERSONAL_COMPUTER: PERSONAL_COMPUTER_PROFILE,
    NodeClass.SMARTPHONE: SMARTPHONE_PROFILE,
    NodeClass.TABLET: TABLET_PROFILE,
}


def profile_for_class(node_class: str) -> ChurnProfile:
    """Default churn profile for a hardware class."""
    profile = _CLASS_PROFILES.get(node_class)
    if profile is None:
        raise NetworkError(f"no churn profile for class {node_class!r}")
    return profile


class ChurnProcess:
    """Drives one node's on/off behaviour on the simulator.

    The process is deterministic given the RNG stream
    ``churn.<node_id>``.  Call :meth:`start` once; :meth:`stop` freezes the
    node in its current state.

    Fault injection (``Crash``/restart events from a
    :class:`~repro.faults.FaultPlan`) layers on top of the renewal
    process: :meth:`crash` forces the node offline and *suspends* the
    renewal clock (cancelling the pending flip, so churn cannot revive a
    crashed node), and :meth:`restore` brings it back online and
    restarts the clock.  Both transitions leave the RNG stream untouched
    — the dwell sequence after a restore continues exactly where an
    uncrashed run's stream would have, keeping chaos runs replayable.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RngStreams,
        node: Node,
        profile: ChurnProfile,
    ):
        self.sim = sim
        self.node = node
        self.profile = profile
        self._rng = streams.stream(f"churn.{node.node_id}")
        self._stopped = False
        self._crashed = False
        self._pending = None  # handle of the next scheduled flip
        self.departed = False

    def start(self) -> None:
        """Schedule the first transition from the node's current state."""
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    @property
    def crashed(self) -> bool:
        """Whether the node is held offline by an injected crash."""
        return self._crashed

    def crash(self) -> None:
        """Force the node offline and suspend the renewal process.

        Idempotent; a crashed node stays down (regardless of scheduled
        churn transitions) until :meth:`restore`.
        """
        if self._crashed:
            return
        self._crashed = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self.node.set_online(False, self.sim.now)

    def restore(self) -> None:
        """Bring a crashed node back online and resume the renewal clock.

        A no-op unless crashed; a node that permanently departed (via
        attrition) or whose process was stopped stays down.
        """
        if not self._crashed:
            return
        self._crashed = False
        if self._stopped or self.departed:
            return
        self.node.set_online(True, self.sim.now)
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._stopped or self.departed or self._crashed:
            return
        if self.node.online:
            dwell = self._rng.expovariate(1.0 / self.profile.mean_uptime)
        else:
            dwell = self._rng.expovariate(1.0 / self.profile.mean_downtime)
        self._pending = self.sim.schedule(dwell, self._flip)

    def _flip(self) -> None:
        self._pending = None
        if self._stopped or self.departed or self._crashed:
            return
        going_offline = self.node.online
        self.node.set_online(not self.node.online, self.sim.now)
        if going_offline and self._rng.random() < self.profile.attrition:
            self.departed = True  # never returns
            return
        self._schedule_next()


def attach_churn(
    sim: Simulator,
    streams: RngStreams,
    nodes: Iterable[Node],
    profile: Optional[ChurnProfile] = None,
) -> List[ChurnProcess]:
    """Attach and start a churn process per node.

    With ``profile=None`` each node gets the default profile for its
    hardware class, which is how mixed-fleet experiments are set up.
    """
    processes = []
    for node in nodes:
        node_profile = profile or profile_for_class(node.node_class)
        process = ChurnProcess(sim, streams, node, node_profile)
        process.start()
        processes.append(process)
    return processes

