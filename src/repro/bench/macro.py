"""Macro benchmarks: experiment-shaped end-to-end workloads.

Each body runs a full paper experiment (or a chaos/sweep leg of one)
under an ambient :func:`repro.obs.observe` block, so the simulators and
networks it builds record their own work counters — events fired,
messages delivered, cache hits — into the harness registry without the
experiment code knowing it is being benchmarked.

Two of the entries form a deliberate pair: ``macro.chaos.no_plan`` and
``macro.chaos.quiet_plan`` run the *same* transport workload without
and with the fault-plan machinery armed (with an empty plan), so the
report's wall-clock ratio between them is the standing answer to "what
does a quiet chaos plan cost?" — previously an ad-hoc, unreproducible
measurement.

Per the BEN001 contract, nothing here reads the host clock; the harness
(:mod:`repro.bench.harness`) does all timing.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Any, Generator

from repro.bench.registry import register_benchmark
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.node import Node
from repro.net.transport import Network
from repro.obs.metrics import Metrics
from repro.obs.runtime import observe
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

__all__ = [
    "bench_chaos_no_plan",
    "bench_chaos_quiet_plan",
    "bench_e4_cohort_100k",
    "bench_e4_federation_scaling",
    "bench_e5_churn_tradeoff",
    "bench_e6_registration_sweep",
    "bench_sweep_cold_warm_cache",
]

_CHAOS_NODES = 6
_CHAOS_RPC_ROUNDS = 120
_SWEEP_SEED = 6


@register_benchmark(
    "macro.e4.federation_scaling", "macro",
    "E4 replicated-federation availability run (5 servers, 20 users)",
)
def bench_e4_federation_scaling(metrics: Metrics) -> None:
    from repro.analysis.experiments import run_federation_availability

    with observe(metrics=metrics):
        run_federation_availability(seed=7)


@register_benchmark(
    "macro.e4_cohort_100k", "macro",
    "E4 federation availability on the cohort engine at 100k devices",
)
def bench_e4_cohort_100k(metrics: Metrics) -> None:
    from repro.analysis.cohort import run_federation_availability_cohort

    with observe(metrics=metrics):
        run_federation_availability_cohort(seed=7, devices=100_000)


@register_benchmark(
    "macro.e5.churn_tradeoff", "macro",
    "E5 social-platform tradeoff under device churn (16 users)",
)
def bench_e5_churn_tradeoff(metrics: Metrics) -> None:
    from repro.analysis.experiments import run_social_tradeoff

    with observe(metrics=metrics):
        run_social_tradeoff(seed=3)


@register_benchmark(
    "macro.e6.registration_sweep", "macro",
    "E6a name-registration latency sweep, PKI vs blockchain",
)
def bench_e6_registration_sweep(metrics: Metrics) -> None:
    from repro.analysis.experiments import run_naming_comparison

    with observe(metrics=metrics):
        run_naming_comparison(seed=2)


def _echo(node: Node, payload: Any, sender_id: str) -> Any:
    return payload


def _chaos_leg(metrics: Metrics, armed: bool) -> None:
    """The shared workload behind the quiet-plan overhead pair: an
    all-pairs RPC ring with (optionally) an empty fault plan armed."""
    with observe(metrics=metrics):
        sim = Simulator()
        streams = RngStreams(5003)
        network = Network(sim, streams)
        for index in range(_CHAOS_NODES):
            node = network.create_node(f"n{index}")
            node.register_handler("echo", _echo)
        if armed:
            injector = FaultInjector(
                sim, network, FaultPlan([], name="quiet"), streams
            )
            injector.arm()

        def caller(sim: Simulator, src: str, dst: str) -> Generator:
            for i in range(_CHAOS_RPC_ROUNDS):
                yield from network.rpc(src, dst, "echo", payload=i)

        for index in range(_CHAOS_NODES):
            src = f"n{index}"
            dst = f"n{(index + 1) % _CHAOS_NODES}"
            sim.spawn(caller(sim, src, dst), name=f"bench.caller.{src}")
        sim.run()


@register_benchmark(
    "macro.chaos.no_plan", "macro",
    "RPC ring with no fault machinery (baseline for quiet_plan)",
)
def bench_chaos_no_plan(metrics: Metrics) -> None:
    _chaos_leg(metrics, armed=False)


@register_benchmark(
    "macro.chaos.quiet_plan", "macro",
    "the same RPC ring with an empty FaultPlan armed (overhead probe)",
)
def bench_chaos_quiet_plan(metrics: Metrics) -> None:
    _chaos_leg(metrics, armed=True)


@register_benchmark(
    "macro.sweep.cold_warm_cache", "macro",
    "E8 swarm sweep through SweepRunner: cold cache then warm replay",
)
def bench_sweep_cold_warm_cache(metrics: Metrics) -> None:
    from repro.analysis.experiments import run_swarm_availability
    from repro.analysis.runner import SweepCache, SweepRunner

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        with observe(metrics=metrics):
            for _phase in ("cold", "warm"):
                runner = SweepRunner(
                    workers=1, cache=SweepCache(cache_dir)
                )
                run_swarm_availability(seed=_SWEEP_SEED, runner=runner)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
