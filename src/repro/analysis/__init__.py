"""Experiment drivers, the table of paper claims, and table rendering.

The package re-exports only the sweep runner and the table renderers.
Drivers are imported from their modules (:mod:`.experiments`,
:mod:`.cohort`, :mod:`.censorship`) and ``CLAIMS`` from :mod:`.claims`,
so a run imports only the drivers, and the libraries, it computes with.
"""

from repro.analysis.runner import (
    RunnerStats,
    SweepCache,
    SweepRunner,
    canonical_config_hash,
    derive_task_seed,
)
from repro.analysis.tables import render_kv, render_table

__all__ = [
    "SweepRunner",
    "SweepCache",
    "RunnerStats",
    "canonical_config_hash",
    "derive_task_seed",
    "render_table",
    "render_kv",
]
