"""Named fault plans matching the chaos scenarios' node conventions.

Each preset is a zero-argument factory returning a fresh
:class:`~repro.faults.plan.FaultPlan`.  Node ids follow the scenario
naming in :mod:`repro.faults.scenarios` (``srv<i>`` federation servers,
``dev<ii>`` E5 devices, ``prov<i>`` E9 providers, ``client0``/``ca``
for E6), so a preset pairs with the experiment it was written for:

=========================== ==========  =======================================
preset                      experiment  what it exercises
=========================== ==========  =======================================
``quiet``                   any         no faults (baseline / overhead check)
``server-kill``             E4          one permanent + one transient server
                                        crash under replicated federation
``churn-storm``             E5          loss burst + latency spike + a wave of
                                        device crashes on top of churn
``registration-partition``  E6          client cut off from the CA mid-
                                        registration, healing later
``registration-partition-`` E6          the same partition, never healed — the
``noheal``                              mutation-smoke plan a liveness
                                        invariant must catch
``hub-partition``           E4P         partial-federation hub mesh split in
                                        two (divergent room state), healed,
                                        then one hub crash/restart
``device-flap``             E9          staggered crash/restart across every
                                        storage provider
``border-block``            E4C/E5C/    static national-firewall campaign over
                            E9C         the censor scenarios' labelled border
``border-block-probing``    E4C/E5C/    the same border plus DPI fingerprint
                            E9C         detection and delayed relay re-blocking
``border-flap``             E4C/E5C/    two overlapping campaigns — the border
                            E9C         flaps, exercising guarded-heal
                                        semantics under load
=========================== ==========  =======================================
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import FaultError
from repro.faults.plan import (
    Censor,
    Corrupt,
    Crash,
    DropBurst,
    FaultPlan,
    LatencySpike,
    Partition,
)

__all__ = ["CENSOR_INSIDE", "PRESETS", "load_plan", "preset_plan"]


def _quiet() -> FaultPlan:
    return FaultPlan([], name="quiet")


def _server_kill() -> FaultPlan:
    return FaultPlan(
        [
            Crash("srv0", at=60.0),                      # never restarts
            Crash("srv1", at=90.0, restart_at=240.0),
        ],
        name="server-kill",
    )


def _churn_storm() -> FaultPlan:
    events: List = [
        DropBurst(window=(100.0, 200.0), prob=0.4),
        LatencySpike(window=(150.0, 250.0), factor=4.0),
        Corrupt(window=(160.0, 220.0), prob=0.1),
    ]
    for i in range(4):
        events.append(Crash(f"dev{i:02d}", at=120.0, restart_at=180.0))
    return FaultPlan(events, name="churn-storm")


def _registration_partition() -> FaultPlan:
    return FaultPlan(
        [Partition((("client0",), ("ca",)), at=5.0, heal_at=75.0)],
        name="registration-partition",
    )


def _registration_partition_noheal() -> FaultPlan:
    # Mutation smoke: the heal event deliberately removed.  The E6
    # liveness invariant (registration completes by its deadline) must
    # flag this plan; tests pin that it does.
    return FaultPlan(
        [Partition((("client0",), ("ca",)), at=5.0)],
        name="registration-partition-noheal",
    )


def _hub_partition() -> FaultPlan:
    # The E4P arc: split the hub mesh (users stay with their homes, so
    # both sides keep writing and room state diverges), heal, then flap
    # one hub to exercise post-convergence repair.
    return FaultPlan(
        [
            Partition(
                (
                    ("ca", "hub1", "client0", "dev00", "dev02", "dev03"),
                    ("hub2", "dev01", "dev04"),
                ),
                at=40.0,
                heal_at=160.0,
            ),
            Crash("hub1", at=200.0, restart_at=260.0),
        ],
        name="hub-partition",
    )


def _device_flap() -> FaultPlan:
    return FaultPlan(
        [
            Crash(f"prov{i}", at=50.0 + 10.0 * i, restart_at=80.0 + 10.0 * i)
            for i in range(8)
        ],
        name="device-flap",
    )


#: The censor scenarios' border membership: the nodes their
#: ``isp_tree(4, 2, regions=("cn", "intl"))`` topology places in region
#: ``cn`` (see :mod:`repro.faults.scenarios`).
CENSOR_INSIDE = (
    "isp0", "isp2", "user0_0", "user0_1", "user2_0", "user2_1",
)


def _border_block() -> FaultPlan:
    # Static national firewall: both services blocklisted for the middle
    # of the run, outbound hard-blocked, inbound degraded.  No DPI, so
    # relays stay alive for the whole campaign.
    return FaultPlan(
        [
            Censor(
                inside=CENSOR_INSIDE,
                at=60.0,
                heal_at=300.0,
                blocked=("svc0", "svc1"),
                direction="outbound",
                degrade_prob=0.25,
                fingerprints=("relay.",),
            ),
        ],
        name="border-block",
    )


def _border_block_probing() -> FaultPlan:
    # The same border, but the censor's DPI watches for the relay
    # protocol fingerprint: each observed relay message is detected with
    # p=0.3 and the relay joins the blocklist 15 s later — the
    # whack-a-mole dynamic the censor scenarios measure.
    return FaultPlan(
        [
            Censor(
                inside=CENSOR_INSIDE,
                at=60.0,
                heal_at=300.0,
                blocked=("svc0", "svc1"),
                direction="outbound",
                degrade_prob=0.25,
                fingerprints=("relay.",),
                detect_prob=0.3,
                reblock_delay=15.0,
            ),
        ],
        name="border-block-probing",
    )


def _border_flap() -> FaultPlan:
    # Two overlapping campaigns: the second (probing, harsher) replaces
    # the first mid-window, so the first heal at t=180 must be a no-op —
    # the overlapping-window semantics the PR-10 heal guard pins, now
    # exercised end-to-end in a preset.
    return FaultPlan(
        [
            Censor(
                inside=CENSOR_INSIDE,
                at=40.0,
                heal_at=180.0,
                blocked=("svc0",),
                direction="outbound",
                fingerprints=("relay.",),
            ),
            Censor(
                inside=CENSOR_INSIDE,
                at=120.0,
                heal_at=280.0,
                blocked=("svc0", "svc1"),
                direction="both",
                fingerprints=("relay.",),
                detect_prob=0.5,
                reblock_delay=10.0,
            ),
        ],
        name="border-flap",
    )


#: Preset name -> plan factory.  Factories, not instances, so callers
#: can never mutate a shared plan.
PRESETS: Dict[str, Callable[[], FaultPlan]] = {
    "quiet": _quiet,
    "server-kill": _server_kill,
    "churn-storm": _churn_storm,
    "registration-partition": _registration_partition,
    "registration-partition-noheal": _registration_partition_noheal,
    "hub-partition": _hub_partition,
    "device-flap": _device_flap,
    "border-block": _border_block,
    "border-block-probing": _border_block_probing,
    "border-flap": _border_flap,
}


def preset_plan(name: str) -> FaultPlan:
    """Instantiate a preset by name; raises FaultError on unknown names."""
    factory = PRESETS.get(name)
    if factory is None:
        raise FaultError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return factory()


def load_plan(spec: str) -> FaultPlan:
    """Resolve a CLI ``--plan`` value: preset name or JSON file path."""
    if spec in PRESETS:
        return preset_plan(spec)
    if spec.endswith(".json"):
        return FaultPlan.from_file(spec)
    raise FaultError(
        f"--plan {spec!r} is neither a preset"
        f" ({', '.join(sorted(PRESETS))}) nor a .json plan file"
    )
