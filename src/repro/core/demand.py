"""Demand-side extension of the §4 feasibility model.

Table 3 compares raw *supply*: cloud capacity vs idle device capacity.
The natural next question — how many users of which services could that
device capacity actually serve? — needs per-service demand profiles and
the overheads decentralization itself introduces (replication for
device-grade durability, path stretch for overlay routing; both measured
in E9 and the DHT tests).  This module supplies both, so statements
like "the device fleet could host everyone's email but not everyone's
video" become computations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.feasibility import Capacity, FeasibilityModel, paper_model
from repro.core.units import GB, KBPS, MB, MBPS
from repro.errors import FeasibilityError

__all__ = [
    "ServiceDemand",
    "DecentralizationOverhead",
    "SERVICES",
    "serveable_users",
    "demand_table",
    "service",
]


@dataclass(frozen=True)
class ServiceDemand:
    """Average per-user resource demand for one Internet service.

    Values are order-of-magnitude engineering estimates in the same
    spirit as the paper's §4 numbers (documented per service below).
    ``cores_per_million_users`` is server-side compute.
    """

    name: str
    storage_bytes_per_user: float
    bandwidth_bps_per_user: float  # average serving bandwidth, not peak
    cores_per_million_users: float
    rationale: str = ""

    def __post_init__(self) -> None:
        if min(self.storage_bytes_per_user, self.bandwidth_bps_per_user,
               self.cores_per_million_users) < 0:
            raise FeasibilityError(f"negative demand in {self.name!r}")


@dataclass(frozen=True)
class DecentralizationOverhead:
    """Multipliers decentralized serving adds over centralized serving.

    * ``storage_replication`` — copies needed for device-grade durability
      (E9: 2-4 on device churn vs ~1 in a datacenter);
    * ``bandwidth_stretch`` — overlay routing/duplicate-transfer factor
      (DHT hops, gossip duplicates; the E11 flooding factor is the
      worst case);
    * ``compute_overhead`` — crypto + coordination tax.
    """

    storage_replication: float = 3.0
    bandwidth_stretch: float = 2.0
    compute_overhead: float = 1.5

    def __post_init__(self) -> None:
        if min(self.storage_replication, self.bandwidth_stretch,
               self.compute_overhead) < 1.0:
            raise FeasibilityError("overheads cannot be below 1x")


# Order-of-magnitude per-user demand profiles, 2017-era services.
SERVICES: Tuple[ServiceDemand, ...] = (
    ServiceDemand(
        name="email",
        storage_bytes_per_user=5 * GB,
        bandwidth_bps_per_user=2 * KBPS,
        cores_per_million_users=50,
        rationale="Gmail-era quota ~15 GB, typical usage far lower;"
                  " tens of messages/day",
    ),
    ServiceDemand(
        name="social_feed",
        storage_bytes_per_user=1 * GB,
        bandwidth_bps_per_user=20 * KBPS,
        cores_per_million_users=300,
        rationale="text/image timeline; continuous polling",
    ),
    ServiceDemand(
        name="photo_sharing",
        storage_bytes_per_user=20 * GB,
        bandwidth_bps_per_user=30 * KBPS,
        cores_per_million_users=200,
        rationale="photo libraries dominate consumer cloud storage",
    ),
    ServiceDemand(
        name="video_streaming",
        storage_bytes_per_user=1 * GB,  # shared catalog amortizes
        bandwidth_bps_per_user=1 * MBPS,
        cores_per_million_users=500,
        rationale="1 hour/day at ~3 Mbps averages to ~1 Mbps sustained"
                  " per active-ish user",
    ),
    ServiceDemand(
        name="web_hosting",
        storage_bytes_per_user=100 * MB,
        bandwidth_bps_per_user=5 * KBPS,
        cores_per_million_users=100,
        rationale="personal sites: small and rarely hot",
    ),
)


def service(name: str) -> ServiceDemand:
    for candidate in SERVICES:
        if candidate.name == name:
            return candidate
    raise FeasibilityError(
        f"unknown service {name!r}; known: {[s.name for s in SERVICES]}"
    )


def serveable_users(
    demand: ServiceDemand,
    supply: Optional[Capacity] = None,
    overhead: Optional[DecentralizationOverhead] = None,
) -> Dict[str, float]:
    """How many users the supply could serve, per resource and overall.

    Returns per-resource user counts and ``overall`` (the minimum —
    the binding constraint).
    """
    supply = supply if supply is not None else paper_model().device_capacity()
    overhead = overhead if overhead is not None else DecentralizationOverhead()

    def _users(available: float, per_user: float, factor: float) -> float:
        if per_user == 0:
            return float("inf")
        return available / (per_user * factor)

    by_resource = {
        "storage": _users(
            supply.storage_bytes, demand.storage_bytes_per_user,
            overhead.storage_replication,
        ),
        "bandwidth": _users(
            supply.bandwidth_bps, demand.bandwidth_bps_per_user,
            overhead.bandwidth_stretch,
        ),
        "cores": _users(
            supply.cores, demand.cores_per_million_users / 1e6,
            overhead.compute_overhead,
        ),
    }
    binding = min(by_resource, key=lambda k: by_resource[k])
    return {
        **by_resource,
        "overall": by_resource[binding],
        "binding_resource": binding,
    }


def demand_table(
    user_base: float = 3.5e9,
    model: Optional[FeasibilityModel] = None,
    overhead: Optional[DecentralizationOverhead] = None,
) -> List[Dict[str, object]]:
    """Per-service: can the device fleet serve ``user_base`` users?

    ``user_base`` defaults to roughly the 2017 Internet population.
    """
    supply = (model or paper_model()).device_capacity()
    rows = []
    for demand in SERVICES:
        result = serveable_users(demand, supply, overhead)
        rows.append(
            {
                "service": demand.name,
                "serveable_users_billions": round(result["overall"] / 1e9, 2),
                "binding_resource": result["binding_resource"],
                "covers_internet": result["overall"] >= user_base,
            }
        )
    return rows
