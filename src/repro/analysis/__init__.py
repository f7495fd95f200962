"""Experiment drivers, the table of paper claims, and table rendering."""

from repro.analysis.censorship import run_censorship_sweep
from repro.analysis.claims import CLAIMS, verify_reproduction
from repro.analysis.cohort import (
    run_churn_availability,
    run_feasibility_cohort,
    run_federation_availability_cohort,
    run_quality_vs_quantity_cohort,
    run_social_tradeoff_cohort,
)
from repro.analysis.experiments import (
    naming_attack_curve,
    run_federation_availability,
    run_feasibility,
    run_name_theft,
    run_naming_comparison,
    run_partial_federation_sweep,
    run_proof_economics,
    run_quality_vs_quantity,
    run_social_tradeoff,
    run_swarm_availability,
)
from repro.analysis.runner import (
    RunnerStats,
    SweepCache,
    SweepRunner,
    canonical_config_hash,
    derive_task_seed,
)
from repro.analysis.tables import render_kv, render_table

__all__ = [
    "run_feasibility",
    "run_federation_availability",
    "run_partial_federation_sweep",
    "run_social_tradeoff",
    "run_naming_comparison",
    "naming_attack_curve",
    "run_name_theft",
    "run_proof_economics",
    "run_swarm_availability",
    "run_quality_vs_quantity",
    "SweepRunner",
    "SweepCache",
    "RunnerStats",
    "canonical_config_hash",
    "derive_task_seed",
    "render_table",
    "render_kv",
    "CLAIMS",
    "verify_reproduction",
    "run_churn_availability",
    "run_federation_availability_cohort",
    "run_social_tradeoff_cohort",
    "run_quality_vs_quantity_cohort",
    "run_feasibility_cohort",
    "run_censorship_sweep",
]
