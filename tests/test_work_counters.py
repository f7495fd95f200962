"""Exact work counters of fixed workloads.

Each test runs one seeded workload under ``observe(metrics=...)`` and
asserts the whole counter dict: events scheduled, fired and cancelled,
messages and bytes, RPC outcomes, processes, cohort draws, cache hits.
These are functions of the code and the seeds alone, so a change that
makes the simulator do more (or different) work fails here, however
noisy the host clock is.  The values are the ones recorded in
``BENCH_10.json``; a test that has to move one says why in its change.

The engine-loop RPC and cohort-step counters live next to the code they
budget, in ``tests/net/test_transport_legs.py`` and
``tests/sim/test_cohort_rescan.py``.
"""

from typing import Any, Callable, Dict

from repro.analysis.cohort import run_federation_availability_cohort
from repro.analysis.experiments import (
    run_federation_availability,
    run_naming_comparison,
    run_social_tradeoff,
    run_swarm_availability,
)
from repro.analysis.runner import SweepCache, SweepRunner
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.transport import Network
from repro.obs.metrics import Histogram, Metrics
from repro.obs.runtime import observe
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams, seeded_rng


def counters(workload: Callable[[], Any]) -> Dict[str, int]:
    """The counter section of the metrics ``workload`` records."""
    metrics = Metrics()
    with observe(metrics=metrics):
        workload()
    return metrics.snapshot()["counters"]


def _echo(node, payload, sender_id):
    return payload


def test_engine_schedule_fire_cancel():
    def workload():
        sim = Simulator()
        events = [sim.schedule(float(i % 50), lambda: None)
                  for i in range(6000)]
        for event in events[::3]:
            event.cancel()
        sim.run()

    assert counters(workload) == {
        "sim.events_cancelled": 2000,
        "sim.events_fired": 4000,
        "sim.events_scheduled": 6000,
        "sim.tombstones_drained": 2000,
    }


def test_transport_send_deliver():
    def workload():
        sim = Simulator()
        network = Network(sim, RngStreams(1009))
        network.create_node("src")
        network.create_node("dst").register_handler("ping", _echo)
        for i in range(1500):
            network.send("src", "dst", "ping", payload=i)
        sim.run()

    assert counters(workload) == {
        "net.bytes_delivered": 768_000,
        "net.bytes_sent": 768_000,
        "net.messages_delivered": 1500,
        "net.messages_sent": 1500,
        "sim.events_fired": 1500,
        "sim.events_scheduled": 1500,
    }


def test_rng_stream_draw():
    streams = RngStreams(3001)
    names = ("alpha", "beta", "gamma", "delta")
    draws = []
    for name in names:
        draw = streams.stream(f"bench.{name}").random
        draws.extend(draw() for _ in range(20_000))
    # The scaled sum pins every stream's seed derivation and draw order.
    assert {
        "rng_streams": len(names),
        "rng_draws": len(draws),
        "rng_draw_checksum": int(sum(draws) * 1e6),
    } == {
        "rng_streams": 4,
        "rng_draws": 80_000,
        "rng_draw_checksum": 39_880_160_201,
    }


def test_obs_histogram_observe_merge():
    shards = []
    for index in range(6):
        shard = Histogram()
        rng = seeded_rng(4001, f"bench.hist.{index}")
        for _ in range(1500):
            shard.observe(rng.random() * 1000.0)
        shards.append(shard)

    def merged(order):
        histogram = Histogram()
        for shard in order:
            histogram.merge(shard)
        return histogram.summary()

    summary = merged(shards)
    # Six shards overflow the raw sample, so percentiles come from the
    # bucket sketch and must not depend on the order shards arrive in.
    backwards = merged(reversed(shards))
    for quantile in ("p50", "p90", "p99"):
        assert backwards[quantile] == summary[quantile]
    assert {
        "hist_observations": sum(shard.count for shard in shards),
        "hist_merged_count": summary["count"],
        "hist_p99_checksum": int(summary["p99"] * 1e6),
        "hist_merged_truncated": int(summary["merged_truncated"]),
    } == {
        "hist_observations": 9000,
        "hist_merged_count": 9000,
        "hist_p99_checksum": 999_962_503,
        "hist_merged_truncated": 1,
    }


# Six nodes in a ring, each calling its successor 120 times.
CHAOS_RING = {
    "net.bytes_delivered": 737_280,
    "net.bytes_sent": 737_280,
    "net.messages_delivered": 1440,
    "net.messages_sent": 1440,
    "net.rpcs_ok": 720,
    "net.rpcs_sent": 720,
    "sim.events_cancelled": 720,
    "sim.events_fired": 1446,
    "sim.events_scheduled": 2166,
    "sim.processes_finished": 6,
    "sim.processes_spawned": 6,
    "sim.tombstones_drained": 720,
}


def _rpc_ring(armed):
    sim = Simulator()
    streams = RngStreams(5003)
    network = Network(sim, streams)
    for index in range(6):
        network.create_node(f"n{index}").register_handler("echo", _echo)
    if armed:
        FaultInjector(sim, network, FaultPlan([], name="quiet"),
                      streams).arm()

    def caller(src, dst):
        for i in range(120):
            yield from network.rpc(src, dst, "echo", payload=i)

    for index in range(6):
        sim.spawn(caller(f"n{index}", f"n{(index + 1) % 6}"),
                  name=f"caller.n{index}")
    sim.run()


def test_chaos_no_plan():
    assert counters(lambda: _rpc_ring(armed=False)) == CHAOS_RING


def test_chaos_quiet_plan():
    # An armed plan with no events must cost no event and no message.
    assert counters(lambda: _rpc_ring(armed=True)) == CHAOS_RING


def test_e4_federation_scaling():
    assert counters(lambda: run_federation_availability(seed=7)) == {
        "net.bytes_delivered": 5_349_376,
        "net.bytes_sent": 5_389_312,
        "net.messages_delivered": 10_448,
        "net.messages_dropped": 78,
        "net.messages_dropped.offline": 78,
        "net.messages_sent": 10_526,
        "net.rpcs_ok": 5208,
        "net.rpcs_sent": 5286,
        "net.rpcs_timeout": 78,
        "sim.events_cancelled": 5208,
        "sim.events_fired": 15_919,
        "sim.events_scheduled": 21_127,
        "sim.processes_finished": 16,
        "sim.processes_spawned": 16,
        "sim.tombstones_drained": 5208,
        "sweep.cache_misses": 3,
    }


def test_e4_cohort_100k():
    assert counters(lambda: run_federation_availability_cohort(
        seed=7, devices=100_000)) == {
        "cohort.devices": 300_000,
        "cohort.draws": 762_336,
        "cohort.flips": 438_162,
        "cohort.ticks": 240,
        "sweep.cache_misses": 3,
    }


def test_e5_churn_tradeoff():
    assert counters(lambda: run_social_tradeoff(seed=3)) == {
        "net.bytes_delivered": 3_598_336,
        "net.bytes_sent": 3_609_600,
        "net.messages_delivered": 7028,
        "net.messages_dropped": 22,
        "net.messages_dropped.offline": 22,
        "net.messages_sent": 7050,
        "net.rpcs_ok": 3505,
        "net.rpcs_sent": 3527,
        "net.rpcs_timeout": 22,
        "sim.events_cancelled": 3505,
        "sim.events_fired": 11_465,
        "sim.events_scheduled": 15_050,
        "sim.processes_finished": 18,
        "sim.processes_spawned": 18,
        "sim.tombstones_drained": 3505,
        "sweep.cache_misses": 5,
    }


def test_e6_registration_sweep():
    assert counters(lambda: run_naming_comparison(seed=2)) == {
        "net.bytes_delivered": 1024,
        "net.bytes_sent": 1024,
        "net.messages_delivered": 2,
        "net.messages_sent": 2,
        "net.rpcs_ok": 1,
        "net.rpcs_sent": 1,
        "sim.events_cancelled": 375,
        "sim.events_fired": 808,
        "sim.events_scheduled": 1189,
        "sim.processes_finished": 4,
        "sim.processes_spawned": 4,
        "sim.tombstones_drained": 372,
        "sweep.cache_misses": 4,
    }


def test_sweep_cold_warm_cache(tmp_path):
    def cold_then_warm():
        for _phase in ("cold", "warm"):
            runner = SweepRunner(workers=1, cache=SweepCache(tmp_path))
            run_swarm_availability(seed=6, runner=runner)

    # The warm pass replays all six grid points from the cache, so every
    # event and message below is the cold pass's.
    assert counters(cold_then_warm) == {
        "net.bytes_delivered": 8_172_544,
        "net.bytes_sent": 8_172_544,
        "net.messages_delivered": 15_962,
        "net.messages_sent": 15_962,
        "net.rpcs_ok": 7981,
        "net.rpcs_sent": 7981,
        "sim.events_cancelled": 7981,
        "sim.events_fired": 22_150,
        "sim.events_scheduled": 30_174,
        "sim.processes_finished": 2092,
        "sim.processes_spawned": 2135,
        "sim.tombstones_drained": 7927,
        "sweep.cache_hits": 6,
        "sweep.cache_misses": 6,
    }
