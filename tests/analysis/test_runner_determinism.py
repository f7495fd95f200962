"""Determinism harness for the sweep runner (DESIGN.md's bit-identical
reproducibility promise, extended to parallel and cached execution).

For several experiment drivers and >= 3 seeds, the serial loop, the
process-pool runner, and a cached replay must all produce equal results
— same values, same row order.
"""

import pytest

from repro.analysis import (
    SweepCache,
    SweepRunner,
    derive_task_seed,
)
from repro.analysis.experiments import (
    run_federation_availability,
    run_proof_economics,
    run_swarm_availability,
    run_usenet_collapse,
)

SEEDS = (1, 2, 3)

# (experiment id, driver, small-but-nontrivial parameters)
CASES = [
    ("E4", run_federation_availability,
     dict(n_servers=3, n_users=6, n_messages=3)),
    ("E7", run_proof_economics,
     dict(epochs=2, blob_chunks=4, chunk_size=64)),
    ("E8", run_swarm_availability,
     dict(offered_loads=(0.5, 8.0), horizon=500.0)),
    ("E11", run_usenet_collapse, dict(community_sizes=(8, 16))),
]


@pytest.mark.parametrize(
    "name,driver,params", CASES, ids=[case[0] for case in CASES]
)
def test_serial_parallel_and_cached_replay_identical(
    name, driver, params, tmp_path
):
    for seed in SEEDS:
        serial = driver(seed=seed, **params)

        parallel = driver(
            seed=seed, runner=SweepRunner(workers=2), **params
        )
        assert parallel == serial, (
            f"{name} seed={seed}: parallel output diverged from serial"
        )

        # Cold run populates the cache; the replay must recompute nothing.
        cold = driver(
            seed=seed, runner=SweepRunner(cache=SweepCache(tmp_path)),
            **params,
        )
        assert cold == serial
        replayer = SweepRunner(cache=SweepCache(tmp_path))
        replay = driver(seed=seed, runner=replayer, **params)
        assert replay == serial, (
            f"{name} seed={seed}: cached replay diverged from serial"
        )
        assert replayer.stats.misses == 0
        assert replayer.stats.hits == len(serial)


def test_worker_count_and_chunking_do_not_perturb_results():
    """Scheduling shape (workers, chunksize) is invisible in the output."""
    baseline = run_federation_availability(
        seed=2, n_servers=3, n_users=6, n_messages=3
    )
    for runner in (
        SweepRunner(workers=2),
        SweepRunner(workers=3, chunksize=2),
    ):
        assert run_federation_availability(
            seed=2, n_servers=3, n_users=6, n_messages=3, runner=runner
        ) == baseline


def test_other_seeds_draw_other_trajectories():
    loads = (0.5, 2.0)
    first = run_swarm_availability(seed=3, offered_loads=loads)
    other = run_swarm_availability(seed=4, offered_loads=loads)
    assert first[1]["arrivals"] != other[1]["arrivals"]


def _echo_seed(label: str, seed: int = -1):
    """Top-level so the process pool can pickle it by reference."""
    return {"label": label, "seed": seed}


def test_derived_seeds_are_schedule_independent():
    """base_seed injection depends only on (base_seed, config) — the
    pool sees exactly the seeds the serial loop would."""
    configs = [{"label": f"t{i}"} for i in range(5)]
    serial = SweepRunner(base_seed=42).run("seed-injection", _echo_seed,
                                           list(configs))
    parallel = SweepRunner(base_seed=42, workers=3).run(
        "seed-injection", _echo_seed, list(configs)
    )
    assert serial == parallel
    assert len({row["seed"] for row in serial}) == len(configs)
    assert serial[0]["seed"] == derive_task_seed(42, {"label": "t0"})
    # A config that already fixes the seed param is left alone.
    pinned = SweepRunner(base_seed=42).run(
        "seed-injection", _echo_seed, [{"label": "t0", "seed": 7}]
    )
    assert pinned[0]["seed"] == 7
