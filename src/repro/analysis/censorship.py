"""EC — censorship-resistance sweep across border campaigns.

The paper's §4 control barrier asks what a decentralized service loses
when a national censor closes the border.  The chaos layer answers for
one (scenario, plan) pair at a time; this driver sweeps the full matrix
— each censor scenario (E4C group feeds, E5C liveness pings, E9C blob
retrieval) under each border campaign preset — and condenses every run
into one comparable row: reachability, how fast the censor's DPI put
relays back on the blocklist, and what the campaign cost in collateral
damage.

The grid points go through :class:`~repro.analysis.runner.SweepRunner`,
so the matrix caches, parallelizes, and stays byte-deterministic like
every other sweepable experiment.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.runner import SweepRunner
from repro.faults import preset_plan, run_chaos

__all__ = ["CENSOR_EXPERIMENTS", "CENSOR_PRESETS", "run_censorship_sweep"]

#: The chaos scenarios built on the labelled-border topology.
CENSOR_EXPERIMENTS = ("E4C", "E5C", "E9C")

#: The fault-plan presets that target that border.
CENSOR_PRESETS = ("border-block", "border-block-probing", "border-flap")


def _censor_point(experiment: str, preset: str, seed: int) -> Dict[str, Any]:
    """One grid point: a full chaos run condensed to a summary row."""
    report = run_chaos(experiment, preset_plan(preset), seed)
    result = report["result"]
    cost = result["censor_cost"]
    detected_at = result["first_detection_at"]
    reblocked_at = result["first_reblock_at"]
    time_to_reblock = (
        round(reblocked_at - detected_at, 6)
        if detected_at is not None and reblocked_at is not None
        else None
    )
    return {
        "experiment": experiment,
        "preset": preset,
        "reachability": round(result["reachability"], 4),
        "attempts": result["attempts"],
        "ok": result["ok"],
        "relays_reblocked": result["relays_reblocked"],
        "time_to_reblock": time_to_reblock,
        "blocked_flows": cost["blocked_flows"],
        "collateral_flows": cost["collateral_flows"],
        "degraded_drops": cost["degraded_drops"],
        "violations": len(report["violations"]),
    }


def run_censorship_sweep(
    seed: int = 1,
    experiments: Sequence[str] = CENSOR_EXPERIMENTS,
    presets: Sequence[str] = CENSOR_PRESETS,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, Any]]:
    """EC: the censorship matrix, one row per (scenario, campaign).

    The rows read as the §4 argument in numbers: a static blocklist
    costs the censor pure collateral damage while relays keep
    reachability high, and adding DPI probing collapses reachability at
    the price of time-to-reblock lag plus every flow it kills.
    """
    runner = runner or SweepRunner()
    configs = [
        {"experiment": experiment, "preset": preset, "seed": seed}
        for experiment in experiments
        for preset in presets
    ]
    return runner.run("EC_censorship", _censor_point, configs)
