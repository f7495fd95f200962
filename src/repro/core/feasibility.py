"""The infrastructure feasibility model — the paper's §4 and Table 3.

The paper's only quantitative result is a back-of-the-envelope comparison
of aggregate cloud capacity against the *unproductive* capacity of user
devices, across three resources: bandwidth, compute, and storage.  This
module encodes that calculation with every published assumption as an
explicit, overridable parameter, so claim E3 regenerates Table 3 exactly
and sensitivity sweeps show how robust the "sufficient capacity exists"
conclusion is.

Paper assumptions (all defaults below):

* Google: ~1 M servers (reports [19, 32]), extrapolated to ~100 M cores
  and 20 EB of storage today.
* Internet traffic: ~200 Tbps in 2016 (Cisco VNI [48]); Google carries a
  quarter of it [15] — so cloud aggregate = Google × 4.
* Devices in use: 2 B PCs, 2 B smartphones, 1 B tablets [11].
* Idle resources: PC = 2 cores + 100 GB free; phone = 1 core, negligible
  storage; tablet = 1 core + 10 GB.
* Phones/tablets contribute no *compute* (battery constraints).
* PC cores are discounted 8x against server cores (weaker CPUs + power
  management).
* Every device has 1 Mbps usable upstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.units import (
    EB,
    GB,
    MBPS,
    MILLION,
    format_bandwidth,
    format_cores,
    format_storage,
)
from repro.errors import FeasibilityError

__all__ = [
    "Capacity",
    "DeviceClassAssumptions",
    "CloudAssumptions",
    "FeasibilityModel",
    "PAPER_DEVICE_CLASSES",
    "PAPER_CLOUD",
    "paper_model",
]


@dataclass(frozen=True)
class Capacity:
    """An aggregate resource bundle in SI base units."""

    bandwidth_bps: float
    cores: float
    storage_bytes: float

    def __post_init__(self) -> None:
        for name, value in (
            ("bandwidth_bps", self.bandwidth_bps),
            ("cores", self.cores),
            ("storage_bytes", self.storage_bytes),
        ):
            if value < 0:
                raise FeasibilityError(f"{name} cannot be negative: {value}")

    def __add__(self, other: "Capacity") -> "Capacity":
        return Capacity(
            self.bandwidth_bps + other.bandwidth_bps,
            self.cores + other.cores,
            self.storage_bytes + other.storage_bytes,
        )

    def covers(self, demand: "Capacity") -> bool:
        """True when this capacity meets or exceeds ``demand`` on every axis."""
        return (
            self.bandwidth_bps >= demand.bandwidth_bps
            and self.cores >= demand.cores
            and self.storage_bytes >= demand.storage_bytes
        )

    def ratio_to(self, demand: "Capacity") -> Dict[str, float]:
        """Per-resource supply/demand ratios (inf where demand is zero)."""

        def _ratio(supply: float, need: float) -> float:
            return float("inf") if need == 0 else supply / need

        return {
            "bandwidth": _ratio(self.bandwidth_bps, demand.bandwidth_bps),
            "cores": _ratio(self.cores, demand.cores),
            "storage": _ratio(self.storage_bytes, demand.storage_bytes),
        }

    def formatted(self) -> Dict[str, str]:
        return {
            "bandwidth": format_bandwidth(self.bandwidth_bps),
            "cores": format_cores(self.cores),
            "storage": format_storage(self.storage_bytes),
        }


@dataclass(frozen=True)
class DeviceClassAssumptions:
    """Idle-resource assumptions for one class of user device."""

    name: str
    population: float
    unused_cores_per_device: float
    free_storage_bytes: float
    upstream_bps: float
    compute_usable: bool

    def __post_init__(self) -> None:
        if self.population < 0:
            raise FeasibilityError(f"negative population for {self.name!r}")
        if self.unused_cores_per_device < 0 or self.free_storage_bytes < 0:
            raise FeasibilityError(f"negative resources for {self.name!r}")


@dataclass(frozen=True)
class CloudAssumptions:
    """How the paper extrapolates global cloud capacity from Google's."""

    google_cores: float = 100 * MILLION
    google_storage_bytes: float = 20 * EB
    internet_traffic_bps: float = 200e12
    google_traffic_share: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.google_traffic_share <= 1:
            raise FeasibilityError(
                f"traffic share must be in (0,1]: {self.google_traffic_share}"
            )

    @property
    def scale_factor(self) -> float:
        """Google-to-global multiplier (the paper's 'scale up by 4')."""
        return 1.0 / self.google_traffic_share


# The paper's device fleet ([11]: Statista consumer-electronics counts).
PAPER_DEVICE_CLASSES: Tuple[DeviceClassAssumptions, ...] = (
    DeviceClassAssumptions(
        name="personal_computer",
        population=2e9,
        unused_cores_per_device=2.0,
        free_storage_bytes=100 * GB,
        upstream_bps=1 * MBPS,
        compute_usable=True,
    ),
    DeviceClassAssumptions(
        name="smartphone",
        population=2e9,
        unused_cores_per_device=1.0,
        free_storage_bytes=0.0,  # "negligible free storage"
        upstream_bps=1 * MBPS,
        compute_usable=False,  # battery constraints
    ),
    DeviceClassAssumptions(
        name="tablet",
        population=1e9,
        unused_cores_per_device=1.0,
        free_storage_bytes=10 * GB,
        upstream_bps=1 * MBPS,
        compute_usable=False,
    ),
)

PAPER_CLOUD = CloudAssumptions()


@dataclass(frozen=True)
class FeasibilityModel:
    """The full §4 calculation, parameterized.

    ``core_discount`` divides usable device cores to convert them into
    server-equivalent cores (the paper's factor of 8 for weaker CPUs and
    power management).
    """

    cloud: CloudAssumptions = PAPER_CLOUD
    device_classes: Tuple[DeviceClassAssumptions, ...] = PAPER_DEVICE_CLASSES
    core_discount: float = 8.0

    def __post_init__(self) -> None:
        if self.core_discount <= 0:
            raise FeasibilityError(
                f"core_discount must be positive: {self.core_discount}"
            )

    # -- the two sides of Table 3 -------------------------------------------

    def cloud_capacity(self) -> Capacity:
        """Aggregate cloud-provider capacity (Google scaled by traffic share)."""
        scale = self.cloud.scale_factor
        return Capacity(
            bandwidth_bps=self.cloud.internet_traffic_bps,
            cores=self.cloud.google_cores * scale,
            storage_bytes=self.cloud.google_storage_bytes * scale,
        )

    def device_capacity(self) -> Capacity:
        """Aggregate unproductive user-device capacity."""
        bandwidth = sum(d.population * d.upstream_bps for d in self.device_classes)
        raw_cores = sum(
            d.population * d.unused_cores_per_device
            for d in self.device_classes
            if d.compute_usable
        )
        storage = sum(
            d.population * d.free_storage_bytes for d in self.device_classes
        )
        return Capacity(
            bandwidth_bps=bandwidth,
            cores=raw_cores / self.core_discount,
            storage_bytes=storage,
        )

    def sufficient(self) -> Dict[str, bool]:
        """Per-resource: do devices meet or exceed cloud capacity?

        The paper's conclusion — 'roughly speaking, there appears to be
        sufficient capacity among existing devices' — corresponds to all
        three being True under the default assumptions.
        """
        supply = self.device_capacity()
        demand = self.cloud_capacity()
        ratios = supply.ratio_to(demand)
        return {resource: ratio >= 1.0 for resource, ratio in ratios.items()}

    def table3(self) -> List[Dict[str, str]]:
        """Rows matching the paper's Table 3 exactly (formatted strings)."""
        cloud = self.cloud_capacity().formatted()
        devices = self.device_capacity().formatted()
        return [
            {
                "resource": "Bandwidth",
                "cloud": cloud["bandwidth"],
                "devices": devices["bandwidth"],
            },
            {"resource": "Cores", "cloud": cloud["cores"], "devices": devices["cores"]},
            {
                "resource": "Storage",
                "cloud": cloud["storage"],
                "devices": devices["storage"],
            },
        ]

    # -- sensitivity analysis ---------------------------------------------------

    def with_core_discount(self, discount: float) -> "FeasibilityModel":
        return replace(self, core_discount=discount)

    def with_upstream_bps(self, upstream_bps: float) -> "FeasibilityModel":
        """Set every device class's upstream (e.g. fibre-era assumptions)."""
        classes = tuple(
            replace(d, upstream_bps=upstream_bps) for d in self.device_classes
        )
        return replace(self, device_classes=classes)

    def with_populations_scaled(self, factor: float) -> "FeasibilityModel":
        if factor < 0:
            raise FeasibilityError(f"population factor cannot be negative: {factor}")
        classes = tuple(
            replace(d, population=d.population * factor)
            for d in self.device_classes
        )
        return replace(self, device_classes=classes)

    def sweep(
        self,
        make_variant: Callable[[float], "FeasibilityModel"],
        values: Iterable[float],
    ) -> List[Dict[str, object]]:
        """Evaluate supply/demand ratios across parameter variants."""
        rows = []
        for value in values:
            variant = make_variant(value)
            ratios = variant.device_capacity().ratio_to(variant.cloud_capacity())
            rows.append({"value": value, **ratios})
        return rows

    def breakeven_core_discount(self) -> float:
        """The core-discount factor at which device compute exactly matches
        cloud compute (above it, devices fall short)."""
        raw_cores = sum(
            d.population * d.unused_cores_per_device
            for d in self.device_classes
            if d.compute_usable
        )
        cloud_cores = self.cloud_capacity().cores
        if cloud_cores == 0:
            return float("inf")
        return raw_cores / cloud_cores


def paper_model() -> FeasibilityModel:
    """The model with every assumption exactly as published."""
    return FeasibilityModel()
