"""Cohort-engine experiment drivers: E3/E4/E5/E9 at population scale.

The per-process drivers in :mod:`repro.analysis.experiments` build one
simulated node per device, which is faithful but caps out around 10^3
devices.  The drivers here re-express the availability models of E4
(federation reads), E5 (social-graph pings), and E9 (quality vs
quantity) on the vectorized :mod:`repro.sim.cohort` engine, and
re-evaluate the Table 3 capacity model (E3) with *measured* per-class
availability at 10^6 simulated devices.

Every point function is a pure, top-level function of JSON-safe keyword
arguments, so all drivers fan out through
:class:`~repro.analysis.runner.SweepRunner` exactly like the
per-process ones (parallel, cached, per-task seeds).

``run_churn_availability`` is the equivalence target: the same churn
population run under either engine (``engine="cohort" | "process"``),
returning one report dict whose integer aggregates the hypothesis suite
compares across engines within the tolerance contract of
``docs/SCALING.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

from repro.analysis.runner import SweepRunner
from repro.core.feasibility import paper_model
from repro.errors import SimulationError
from repro.net.churn import ChurnProfile, attach_churn, profile_for_class
from repro.net.latency import LogNormalLatency
from repro.net.node import Node
from repro.obs.metrics import Histogram
from repro.sim.cohort import CohortEngine, DeviceCohort
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams, seeded_generator

__all__ = [
    "run_churn_availability",
    "run_federation_availability_cohort",
    "run_feasibility_cohort",
    "run_quality_vs_quantity_cohort",
    "run_social_tradeoff_cohort",
]

#: Fleet mix for the Table 3 re-evaluation: the paper's 2:2:1 device
#: populations ([11]), as fractions of the simulated cohort.
FLEET_SHARES = (
    ("personal_computer", 0.4),
    ("smartphone", 0.4),
    ("tablet", 0.2),
)


def _fleet_sizes(devices: int) -> List[int]:
    """Cohort size per ``FLEET_SHARES`` class; the last takes the rest."""
    sizes = [int(devices * share) for _, share in FLEET_SHARES[:-1]]
    return sizes + [devices - sum(sizes)]


#: The smallest fleet that gives every ``FLEET_SHARES`` class a device.
FLEET_MIN_DEVICES = next(
    n for n in itertools.count(1) if min(_fleet_sizes(n)) >= 1
)


# ---------------------------------------------------------------------------
# Equivalence target: one churn population, either engine
# ---------------------------------------------------------------------------

def _churn_point(
    engine: str,
    seed: int,
    devices: int,
    mean_uptime: float,
    mean_downtime: float,
    attrition: float,
    horizon: float,
    tick: float,
) -> Dict[str, object]:
    """One churn population, measured identically under either engine.

    Both branches sample integer online counts at every tick boundary
    and report the same keys, so equivalence tests can compare dicts
    directly.  ``flips = 2*sessions + offline_now`` holds exactly on
    both paths (every device starts online and transitions alternate).
    """
    if engine == "cohort":
        generator = seeded_generator(seed, "cohort.churn")
        cohort = DeviceCohort(
            "churn", devices, mean_uptime, mean_downtime, attrition,
            generator=generator,
        )
        cohort_engine = CohortEngine(tick=tick)
        cohort_engine.add(cohort)
        samples = {"online": 0, "ticks": 0}

        def on_tick(t: float) -> None:
            samples["online"] += cohort.online_count()
            samples["ticks"] += 1

        cohort_engine.run(horizon, on_tick=on_tick)
        online_now = cohort.online_count()
        sessions = cohort.sessions()
        flips = cohort.flips
        departed = cohort.departed_count()
        time_mean = cohort.availability_time_mean()
    elif engine == "process":
        sim = Simulator()
        streams = RngStreams(seed)
        profile = ChurnProfile(mean_uptime, mean_downtime, attrition)
        nodes = [Node(f"d{i}") for i in range(devices)]
        processes = attach_churn(sim, streams, nodes, profile)
        samples = {"online": 0, "ticks": 0}

        def sampler() -> Any:
            elapsed = 0.0
            while elapsed < horizon:
                yield tick
                elapsed += tick
                samples["online"] += sum(1 for n in nodes if n.online)
                samples["ticks"] += 1
            return True

        # Churn processes are perpetual; bound the run at the horizon so
        # the queue never has to drain (and node accounting stops there).
        sim.run_process(sampler(), until=horizon)
        online_now = sum(1 for n in nodes if n.online)
        sessions = sum(n.sessions for n in nodes)
        flips = 2 * sessions + (devices - online_now)
        departed = sum(1 for p in processes if p.departed)
        time_mean = sum(n.uptime_fraction(horizon) for n in nodes) / devices
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return {
        "engine": engine,
        "devices": devices,
        "ticks": samples["ticks"],
        "online_device_ticks": samples["online"],
        "availability_tick_mean": round(
            samples["online"] / (devices * samples["ticks"]), 9
        ),
        "availability_time_mean": round(time_mean, 9),
        "sessions": sessions,
        "flips": flips,
        "departed": departed,
        "final_online": online_now,
    }


def run_churn_availability(
    engine: str = "cohort",
    seed: int = 1,
    devices: int = 200,
    mean_uptime: float = 600.0,
    mean_downtime: float = 300.0,
    attrition: float = 0.0,
    horizon: float = 3000.0,
    tick: float = 50.0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, object]:
    """Availability aggregates of one churn population on either engine."""
    runner = runner or SweepRunner()
    config = {
        "engine": engine,
        "seed": seed,
        "devices": devices,
        "mean_uptime": mean_uptime,
        "mean_downtime": mean_downtime,
        "attrition": attrition,
        "horizon": horizon,
        "tick": tick,
    }
    return runner.run("churn_availability", _churn_point, [config])[0]


# ---------------------------------------------------------------------------
# E4 — federation read availability at scale
# ---------------------------------------------------------------------------

def _federation_cohort_point(
    model_name: str,
    seed: int,
    devices: int,
    n_servers: int,
    failed_servers: int,
    fail_at: float,
    horizon: float,
    tick: float,
    device_class: str,
) -> Dict[str, object]:
    """One E4-at-scale grid point: one federation model, churning users.

    Users are devices under class churn, assigned home servers round
    robin; the first ``failed_servers`` servers die at ``fail_at``.  A
    user-tick counts as readable when the user is online *and* the
    model can serve the full room history:

    * ``single_home`` — history is spread across every home server, so
      a full read needs all servers up (remote fetches included);
    * ``replicated`` — the home server holds a full replica but there
      is no failover, so a read needs the user's own home up;
    * ``replicated_failover`` — any live server can answer.
    """
    generator = seeded_generator(seed, f"cohort.e4.{model_name}")
    profile = profile_for_class(device_class)
    cohort = DeviceCohort(
        "users", devices, profile.mean_uptime, profile.mean_downtime,
        profile.attrition, generator=generator,
    )
    engine = CohortEngine(tick=tick)
    engine.add(cohort)
    counts = {"readable": 0, "samples": 0}

    # Servers change state only at fail_at, so each state's per-user
    # home-server mask is built once, not per tick.  Round robin: user
    # i is homed on server i % n_servers.
    copies = -(-devices // n_servers)

    def server_state(failed: bool) -> Tuple[Any, Any]:
        server_up = numpy.ones(n_servers, dtype=bool)
        if failed:
            server_up[:failed_servers] = False
        return server_up, numpy.tile(server_up, copies)[:devices]

    before, after = server_state(False), server_state(True)

    def on_tick(t: float) -> None:
        server_up, home_up = after if t >= fail_at else before
        if model_name == "single_home":
            readable = cohort.online_count() if bool(server_up.all()) else 0
        elif model_name == "replicated":
            readable = int(numpy.count_nonzero(cohort.online & home_up))
        elif model_name == "replicated_failover":
            readable = cohort.online_count() if bool(server_up.any()) else 0
        else:
            raise ValueError(f"unknown federation model {model_name!r}")
        counts["readable"] += readable
        counts["samples"] += devices

    engine.run(horizon, on_tick=on_tick)
    return {
        "model": model_name,
        "engine": "cohort",
        "devices": devices,
        "servers": n_servers,
        "failed": failed_servers,
        "readable_user_ticks": counts["readable"],
        "user_ticks": counts["samples"],
        "read_availability": round(counts["readable"] / counts["samples"], 6),
        "flips": cohort.flips,
        "departed": cohort.departed_count(),
    }


def run_federation_availability_cohort(
    seed: int = 7,
    devices: int = 10_000,
    n_servers: int = 5,
    failed_servers: int = 1,
    fail_at: float = 2000.0,
    horizon: float = 4000.0,
    tick: float = 50.0,
    device_class: str = "smartphone",
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E4 at population scale: read availability per federation model."""
    runner = runner or SweepRunner()
    configs = [
        {
            "model_name": model_name,
            "seed": seed,
            "devices": devices,
            "n_servers": n_servers,
            "failed_servers": failed_servers,
            "fail_at": fail_at,
            "horizon": horizon,
            "tick": tick,
            "device_class": device_class,
        }
        for model_name in ("single_home", "replicated", "replicated_failover")
    ]
    return runner.run(
        "E4_federation_availability_cohort", _federation_cohort_point, configs
    )


# ---------------------------------------------------------------------------
# E5 — social pings between churning devices
# ---------------------------------------------------------------------------

def _social_cohort_point(
    seed: int,
    devices: int,
    replication: int,
    probes_per_tick: int,
    horizon: float,
    tick: float,
    mean_uptime: float,
    mean_downtime: float,
    latency_median: float,
    latency_sigma: float,
) -> Dict[str, object]:
    """One E5-at-scale grid point: random reader->content pings.

    Each tick draws ``probes_per_tick`` (reader, holders) tuples; a ping
    succeeds when the reader is online and at least one of the
    ``replication`` replica holders is online.  Successful pings sample
    a heavy-tailed WAN delay into a streaming bucket-sketch histogram —
    memory O(buckets), never O(pings).
    """
    generator = seeded_generator(seed, "cohort.e5")
    cohort = DeviceCohort(
        "social", devices, mean_uptime, mean_downtime, generator=generator
    )
    engine = CohortEngine(tick=tick)
    engine.add(cohort)
    latency = LogNormalLatency(median=latency_median, sigma=latency_sigma)
    hist = Histogram()
    pings = {"attempted": 0, "ok": 0}

    def on_tick(t: float) -> None:
        readers = generator.integers(0, devices, size=probes_per_tick)
        holders = generator.integers(
            0, devices, size=(probes_per_tick, replication)
        )
        ok = cohort.online[readers] & cohort.online[holders].any(axis=1)
        n_ok = int(ok.sum())
        pings["attempted"] += probes_per_tick
        pings["ok"] += n_ok
        if n_ok:
            # Observe in milliseconds: the histogram's power-of-two
            # buckets resolve 16-512ms WAN delays well, while seconds
            # would all collapse into the single [0, 1) bucket.
            for delay in latency.sample_propagation_delays(
                generator, n_ok
            ).tolist():
                hist.observe(delay * 1000.0)

    engine.run(horizon, on_tick=on_tick)
    report: Dict[str, object] = {
        "engine": "cohort",
        "devices": devices,
        "replication": replication,
        "pings_attempted": pings["attempted"],
        "pings_ok": pings["ok"],
        "ping_availability": round(pings["ok"] / pings["attempted"], 6),
        "flips": cohort.flips,
    }
    if hist.count:
        report["latency_p50_ms"] = round(hist.percentile(0.50), 3)
        report["latency_p99_ms"] = round(hist.percentile(0.99), 3)
        report["latency_source"] = hist.percentile_source
    return report


def run_social_tradeoff_cohort(
    seed: int = 3,
    devices: int = 10_000,
    replications: Sequence[int] = (1, 2, 3),
    probes_per_tick: int = 200,
    horizon: float = 4000.0,
    tick: float = 50.0,
    mean_uptime: float = 600.0,
    mean_downtime: float = 300.0,
    latency_median: float = 0.05,
    latency_sigma: float = 0.5,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E5 at population scale: ping success vs replication factor."""
    runner = runner or SweepRunner()
    configs = [
        {
            "seed": seed,
            "devices": devices,
            "replication": replication,
            "probes_per_tick": probes_per_tick,
            "horizon": horizon,
            "tick": tick,
            "mean_uptime": mean_uptime,
            "mean_downtime": mean_downtime,
            "latency_median": latency_median,
            "latency_sigma": latency_sigma,
        }
        for replication in replications
    ]
    return runner.run("E5_social_tradeoff_cohort", _social_cohort_point, configs)


# ---------------------------------------------------------------------------
# E9 — quality vs quantity at scale
# ---------------------------------------------------------------------------

def _quality_cohort_point(
    infrastructure: str,
    replication_factor: int,
    seed: int,
    devices: int,
    horizon: float,
    tick: float,
) -> Dict[str, object]:
    """One E9-at-scale grid point: object availability per grade/factor.

    Devices hold ``devices // replication_factor`` objects, each
    replicated on ``replication_factor`` distinct consecutive devices;
    an object-tick counts available when any holder is online.
    """
    # Local import: experiments.py owns the E9 grade profiles.
    from repro.analysis.experiments import QUALITY_PROFILES

    profile = QUALITY_PROFILES[infrastructure]
    generator = seeded_generator(
        seed, f"cohort.e9.{infrastructure}.{replication_factor}"
    )
    cohort = DeviceCohort(
        "providers", devices, profile.mean_uptime, profile.mean_downtime,
        profile.attrition, generator=generator,
    )
    engine = CohortEngine(tick=tick)
    engine.add(cohort)
    objects = devices // replication_factor
    holders = objects * replication_factor
    counts = {"available": 0, "samples": 0}

    def on_tick(t: float) -> None:
        up = (
            cohort.online[:holders]
            .reshape(objects, replication_factor)
            .any(axis=1)
        )
        counts["available"] += int(up.sum())
        counts["samples"] += objects

    engine.run(horizon, on_tick=on_tick)
    return {
        "infrastructure": infrastructure,
        "replication_factor": replication_factor,
        "engine": "cohort",
        "devices": devices,
        "objects": objects,
        "available_object_ticks": counts["available"],
        "object_ticks": counts["samples"],
        "retrieval_availability": round(
            counts["available"] / counts["samples"], 6
        ),
        "flips": cohort.flips,
    }


def run_quality_vs_quantity_cohort(
    seed: int = 2,
    devices: int = 10_000,
    replication_factors: Sequence[int] = (1, 2, 3, 4),
    horizon: float = 4000.0,
    tick: float = 50.0,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """E9 at population scale: datacenter vs device grade object availability."""
    from repro.analysis.experiments import QUALITY_PROFILES

    minimum = max(replication_factors, default=1)
    if devices < minimum:
        raise SimulationError(
            f"E9 cohort needs at least {minimum} devices (one object at"
            f" replication factor {minimum}), got {devices}"
        )
    runner = runner or SweepRunner()
    configs = [
        {
            "infrastructure": grade,
            "replication_factor": factor,
            "seed": seed,
            "devices": devices,
            "horizon": horizon,
            "tick": tick,
        }
        for grade in QUALITY_PROFILES
        for factor in replication_factors
    ]
    return runner.run(
        "E9_quality_vs_quantity_cohort", _quality_cohort_point, configs
    )


# ---------------------------------------------------------------------------
# E3 — Table 3 re-evaluated with measured availability
# ---------------------------------------------------------------------------

def _feasibility_cohort_point(
    seed: int,
    devices: int,
    horizon: float,
    tick: float,
) -> Dict[str, object]:
    """Table 3 with per-class populations derated by *measured* availability.

    Simulates a 2:2:1 PC/smartphone/tablet fleet under the class churn
    profiles, measures each class's tick-averaged online fraction, and
    rebuilds the §4 capacity model with populations scaled by it — the
    honest version of the paper's raw device counts.
    """
    engine = CohortEngine(tick=tick)
    cohorts: Dict[str, DeviceCohort] = {}
    sums: Dict[str, int] = {}
    for (class_name, _), size in zip(FLEET_SHARES, _fleet_sizes(devices)):
        profile = profile_for_class(class_name)
        cohorts[class_name] = engine.add(
            DeviceCohort(
                class_name, size, profile.mean_uptime, profile.mean_downtime,
                profile.attrition,
                generator=seeded_generator(seed, f"cohort.e3.{class_name}"),
            )
        )
        sums[class_name] = 0

    def on_tick(t: float) -> None:
        for class_name, cohort in cohorts.items():
            sums[class_name] += cohort.online_count()

    engine.run(horizon, on_tick=on_tick)
    availability = {
        class_name: round(
            sums[class_name] / (cohorts[class_name].size * engine.ticks), 6
        )
        for class_name in cohorts
    }
    base = paper_model()
    derated = replace(
        base,
        device_classes=tuple(
            replace(d, population=d.population * availability[d.name])
            for d in base.device_classes
        ),
    )
    ratios = derated.device_capacity().ratio_to(derated.cloud_capacity())
    return {
        "engine": "cohort",
        "devices": devices,
        "ticks": engine.ticks,
        "availability": availability,
        "table3": derated.table3(),
        "sufficient": derated.sufficient(),
        "ratios": {k: round(v, 4) for k, v in ratios.items()},
    }


def run_feasibility_cohort(
    seed: int = 1,
    devices: int = 1_000_000,
    horizon: float = 4000.0,
    tick: float = 50.0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, object]:
    """E3 at 10^6 devices: Table 3 derated by measured fleet availability."""
    if devices < FLEET_MIN_DEVICES:
        raise SimulationError(
            f"E3 cohort needs at least {FLEET_MIN_DEVICES} devices (one per"
            f" fleet class), got {devices}"
        )
    runner = runner or SweepRunner()
    config = {
        "seed": seed,
        "devices": devices,
        "horizon": horizon,
        "tick": tick,
    }
    return runner.run(
        "E3_feasibility_cohort", _feasibility_cohort_point, [config]
    )[0]
