"""repro.lint: AST-based determinism & simulation-invariant linter.

Every claim this repository makes rests on bit-identical replay: the
Table 3 goldens, the serial==parallel==cached guarantee of
:class:`~repro.analysis.runner.SweepRunner`, the selfish-mining and
availability curves.  This package turns that discipline from convention
into a checked invariant: a small :mod:`ast`-walking framework plus a
rule pack grounded in this codebase.

Rules (see ``docs/LINTING.md`` for the full catalog and rationale):

* **DET001** — no ``random`` imports outside ``repro/sim/rng.py``;
  randomness must route through ``RngStreams`` / ``seeded_rng`` /
  ``derive_seed``.
* **DET002** — no wall-clock reads (``time.time``, ``datetime.now``,
  ``time.monotonic``, ...) in the simulated packages ``sim/``, ``net/``,
  ``chain/``, ``storage/``, ``groupcomm/``.
* **DET003** — no unseeded ``numpy.random`` global-state calls.
* **PAR001** — no lambdas / nested functions handed to
  ``SweepRunner.run`` / ``ProcessPoolExecutor.submit|map`` (they are not
  picklable, silently forcing serial fallbacks).
* **ERR001** — no ``except Exception`` that neither re-raises nor raises
  a :mod:`repro.errors` type.
* **API001** — ``__all__`` must match the module's public definitions.
* **FLT001** — no direct mutation of transport fault/censor state
  (including in-place blocklist edits) outside ``repro.faults``; faults
  must be declared as ``FaultPlan`` events.

Whole-program rules (checked over the :class:`ProjectIndex` built from
*all* linted files, not one file at a time):

* **DET005** — no RNG stream-name collisions: the same stream name
  constructed at two sites that can share a seed root means correlated
  draws; generic undotted names are flagged pre-emptively.
* **DET006** — transitive determinism: functions in the simulated
  packages must not reach wall-clock or global-RNG calls through helper
  modules the per-file rules cannot see.
* **ORD001** — no iteration over ``set``/``frozenset`` values in
  simulated packages (per-file, ships with the whole-program pack).
* **IMP001** — no import cycles over the resolved module-level import
  graph (lazy and ``TYPE_CHECKING`` imports are the sanctioned
  break patterns).

Suppress a finding on one line with ``# repro: noqa[RULE001]`` (comma
list allowed; bare ``# repro: noqa`` suppresses every rule on the line).

Programmatic use::

    from repro.lint import lint_paths
    findings = lint_paths(["src/repro"])

Command line::

    python -m repro lint [--format json] [--rules DET001,...] [paths...]
"""

from repro.lint.cache import LintCache
from repro.lint.engine import (
    LintContext,
    LintStats,
    ProjectRule,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    resolve_rules,
)
from repro.lint.findings import Finding
from repro.lint.index import ModuleFragment, ProjectIndex, build_fragment
from repro.lint.reporters import render_human, render_json

# Importing the rule modules registers their rules with the engine.
from repro.lint import rules_api  # noqa: F401
from repro.lint import rules_determinism  # noqa: F401
from repro.lint import rules_errors  # noqa: F401
from repro.lint import rules_faults  # noqa: F401
from repro.lint import rules_parallel  # noqa: F401
from repro.lint import rules_project  # noqa: F401

__all__ = [
    "Finding",
    "LintCache",
    "LintContext",
    "LintStats",
    "ModuleFragment",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_rules",
    "build_fragment",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_human",
    "render_json",
    "resolve_rules",
]
