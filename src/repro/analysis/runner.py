"""Parallel, cached sweep execution for experiment drivers.

Every experiment in :mod:`repro.analysis.experiments` is a pure function
of its keyword arguments: it builds a fresh simulated world from a seed
and returns plain data.  That makes a parameter grid embarrassingly
parallel *and* memoizable, which this module exploits:

* :class:`SweepRunner` fans a list of config dicts out across worker
  processes (``concurrent.futures.ProcessPoolExecutor``) and returns
  results in config order, so parallel output is bit-identical to the
  serial loop it replaces.
* Per-task seeds, when requested, derive from ``(base_seed,
  canonical config hash)`` via :func:`repro.sim.rng.derive_seed` — a
  function of the *task*, never of scheduling order.
* :class:`SweepCache` memoizes completed runs on disk as JSON, keyed by
  ``(experiment name, canonical config hash, code version)``; re-running
  a CLI sweep with a warm cache performs zero recomputations.
* :class:`RunnerStats` records per-task wall time, cache hit/miss
  counters, and worker utilization; ``summary_rows()`` feeds straight
  into :func:`repro.analysis.tables.render_table`.

Cache layout (one JSON file per experiment under the cache directory)::

    <cache_dir>/<experiment>.json
    {
      "schema": 1,
      "entries": {
        "<code_version>:<config_hash>": {"result": <JSON>, "elapsed": <s>},
        ...
      }
    }

``code_version`` is a hash of the experiment function's source module,
so editing an experiment invalidates its cached results automatically.
A corrupted cache file is treated as empty (every lookup misses) and is
rewritten wholesale on the next store — it never crashes a sweep.
"""

from __future__ import annotations

import inspect
import json
import os
import pickle
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import hash_obj, sha256_hex
from repro.obs.metrics import Metrics
from repro.obs.runtime import active as _active_observation
from repro.obs.tracer import Tracer
from repro.sim.rng import derive_seed

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "RunnerStats",
    "SweepCache",
    "SweepRunner",
    "TaskRecord",
    "canonical_config_hash",
    "code_version",
    "derive_task_seed",
]

CACHE_SCHEMA = 1

#: Default on-disk location, overridable via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro_cache"


# ---------------------------------------------------------------------------
# Task identity: config hashing, seed derivation, code versioning
# ---------------------------------------------------------------------------

def canonical_config_hash(config: Dict[str, Any]) -> str:
    """Hex hash of a config dict, independent of key insertion order.

    Delegates to :func:`repro.crypto.hashing.hash_obj`, which serializes
    with sorted keys — so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``
    hash identically.  This is the invariant that lets a driver build
    its grid configs in any key order without perturbing cache identity.
    """
    return hash_obj(config)


def derive_task_seed(base_seed: int, config: Dict[str, Any]) -> int:
    """Deterministic per-task seed from ``(base_seed, config)``.

    Depends only on the task's identity, never on scheduling order, so a
    parallel sweep sees exactly the seeds the serial loop would.
    """
    return derive_seed(base_seed, canonical_config_hash(config))


def code_version(fn: Callable[..., Any]) -> str:
    """Short hash of the source module defining ``fn``.

    Editing an experiment's module changes its version, invalidating
    every cached result for it.  Falls back to ``"unversioned"`` when
    source is unavailable (builtins, REPL definitions).
    """
    try:
        path = inspect.getsourcefile(fn)
        if path is None:
            return "unversioned"
        data = Path(path).read_bytes()
    except (TypeError, OSError):
        return "unversioned"
    return sha256_hex(data)[:16]


def _safe_filename(experiment: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", experiment) or "_"


# ---------------------------------------------------------------------------
# On-disk JSON cache
# ---------------------------------------------------------------------------

class SweepCache:
    """On-disk memo of completed experiment runs (one JSON file each).

    Keys are ``"<code_version>:<config_hash>"``; values must survive an
    exact JSON round-trip (checked by the runner before storing) so a
    cached replay is bit-identical to a fresh computation.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = Path(
            cache_dir
            if cache_dir is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        self.corrupt_files = 0
        self._loaded: Dict[str, Dict[str, Any]] = {}

    # -- file plumbing ---------------------------------------------------

    def path_for(self, experiment: str) -> Path:
        return self.cache_dir / f"{_safe_filename(experiment)}.json"

    def _entries(self, experiment: str) -> Dict[str, Any]:
        """Entries for one experiment, loading (at most once) from disk."""
        entries = self._loaded.get(experiment)
        if entries is not None:
            return entries
        path = self.path_for(experiment)
        entries = {}
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if (
                isinstance(payload, dict)
                and payload.get("schema") == CACHE_SCHEMA
                and isinstance(payload.get("entries"), dict)
            ):
                entries = payload["entries"]
            else:
                self.corrupt_files += 1
        except FileNotFoundError:
            pass
        except (OSError, ValueError):
            # Unreadable or corrupted cache: treat every lookup as a
            # miss; the next store() rewrites the file wholesale.
            self.corrupt_files += 1
        self._loaded[experiment] = entries
        return entries

    def _flush(self, experiment: str) -> None:
        path = self.path_for(experiment)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "entries": self._loaded.get(experiment, {}),
        }
        tmp = path.with_suffix(".json.tmp")
        # No sort_keys here: result dicts must replay with their original
        # key order so cached output renders byte-identically to a fresh
        # run.  (Cache *identity* hashing sorts keys; storage must not.)
        tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        os.replace(tmp, path)

    # -- lookup / store --------------------------------------------------

    @staticmethod
    def key(version: str, config_hash: str) -> str:
        return f"{version}:{config_hash}"

    def lookup(self, experiment: str, key: str) -> Tuple[bool, Any]:
        entry = self._entries(experiment).get(key)
        if entry is None:
            return False, None
        return True, entry.get("result")

    def store(self, experiment: str, key: str, result: Any,
              elapsed: float) -> None:
        self._entries(experiment)[key] = {
            "result": result, "elapsed": round(elapsed, 6),
        }
        self._flush(experiment)

    def store_many(
        self, experiment: str, items: Sequence[Tuple[str, Any, float]]
    ) -> None:
        """Store several entries with a single file write."""
        entries = self._entries(experiment)
        for key, result, elapsed in items:
            entries[key] = {"result": result, "elapsed": round(elapsed, 6)}
        if items:
            self._flush(experiment)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SweepCache({str(self.cache_dir)!r})"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class TaskRecord:
    """One executed (or replayed) grid point."""

    experiment: str
    config_hash: str
    elapsed_s: float
    cached: bool


@dataclass
class RunnerStats:
    """Counters a sweep accumulates; ``summary_rows()`` renders them."""

    workers: int = 1
    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    serial_fallbacks: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    tasks: List[TaskRecord] = field(default_factory=list)

    def record(self, record: TaskRecord) -> None:
        self.tasks.append(record)
        if record.cached:
            self.hits += 1
        else:
            self.misses += 1
            self.busy_s += record.elapsed_s

    def utilization(self) -> float:
        """Fraction of worker-seconds spent inside experiment code."""
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.workers * self.wall_s))

    def summary(self) -> Dict[str, Any]:
        return {
            "tasks": len(self.tasks),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "uncacheable": self.uncacheable,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 4),
            "busy_s": round(self.busy_s, 4),
            "worker_utilization": round(self.utilization(), 3),
        }

    def summary_rows(self) -> List[Dict[str, Any]]:
        """The summary as one-row table input for ``render_table``."""
        return [self.summary()]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _invoke(payload: Tuple[int, Callable[..., Any], Dict[str, Any]]):
    """Worker entry point: run one grid point, timing it."""
    index, fn, kwargs = payload
    start = time.perf_counter()
    result = fn(**kwargs)
    return index, result, time.perf_counter() - start


def _json_roundtrip(value: Any) -> Tuple[bool, Any]:
    """Whether ``value`` survives JSON exactly (and its decoded form)."""
    try:
        decoded = json.loads(json.dumps(value))
    except (TypeError, ValueError):
        return False, None
    return decoded == value, decoded


class SweepRunner:
    """Executes a grid of experiment configs, optionally in parallel
    and against an on-disk cache.

    Parameters
    ----------
    workers:
        Process count.  ``<= 1`` runs inline (no pool, no pickling).
    cache:
        A :class:`SweepCache`, or ``None`` to always recompute.
    base_seed / seed_param:
        When ``base_seed`` is set, each config that does not already fix
        ``seed_param`` gets ``derive_task_seed(base_seed, config)``
        injected — the same seed serial or parallel.
    chunksize:
        Tasks handed to each worker per dispatch (``ProcessPoolExecutor
        .map`` chunking); raise it for very cheap grid points.
    tracer / metrics:
        Optional :mod:`repro.obs` hooks.  Each hook that is omitted
        independently adopts the corresponding ambient one from an
        enclosing :func:`repro.obs.observe` block.  Each
        grid point then lands as a ``sweep_task`` trace event and feeds
        ``sweep.*`` counters, the task wall-time histogram, and the
        worker-utilization gauge.  (Worker *processes* do not inherit
        the observation — tasks run untraced; the runner records them
        from the parent.)
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[SweepCache] = None,
        base_seed: Optional[int] = None,
        seed_param: str = "seed",
        chunksize: int = 1,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
    ):
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        if tracer is None or metrics is None:
            observation = _active_observation()
            if observation is not None:
                if tracer is None:
                    tracer = observation.tracer
                if metrics is None:
                    metrics = observation.metrics
        self._tracer = tracer
        self._metrics = metrics
        self.workers = max(1, int(workers))
        self.cache = cache
        self.base_seed = base_seed
        self.seed_param = seed_param
        self.chunksize = chunksize
        self.stats = RunnerStats(workers=self.workers)

    # -- public API ------------------------------------------------------

    def run(
        self,
        experiment: str,
        fn: Callable[..., Any],
        configs: Sequence[Dict[str, Any]],
    ) -> List[Any]:
        """Run ``fn(**config)`` for every config, in config order.

        Cached points replay from disk; the rest execute inline or on
        the pool.  The returned list matches ``configs`` positionally no
        matter how tasks were scheduled.
        """
        start = time.perf_counter()
        # Wall-clock accrual and the derived utilization gauges must
        # survive a raising grid point: a failed task that skipped them
        # would leave busy_s contributions (from earlier run() calls)
        # divided by a stale wall_s, overstating utilization forever.
        try:
            version = code_version(fn)
            prepared: List[Dict[str, Any]] = []
            for config in configs:
                kwargs = dict(config)
                if (self.base_seed is not None
                        and self.seed_param not in kwargs):
                    kwargs[self.seed_param] = derive_task_seed(
                        self.base_seed, config
                    )
                prepared.append(kwargs)

            results: List[Any] = [None] * len(prepared)
            pending: List[Tuple[int, str, Dict[str, Any]]] = []
            for index, kwargs in enumerate(prepared):
                key = SweepCache.key(version, canonical_config_hash(kwargs))
                if self.cache is not None:
                    found, value = self.cache.lookup(experiment, key)
                    if found:
                        results[index] = value
                        self._record_task(
                            TaskRecord(experiment, key, 0.0, cached=True)
                        )
                        continue
                pending.append((index, key, kwargs))

            if pending:
                executed = self._execute(fn, pending)
                fresh: List[Tuple[str, Any, float]] = []
                for (index, key, _kwargs), (result, elapsed) in zip(
                    pending, executed
                ):
                    results[index] = result
                    self._record_task(
                        TaskRecord(experiment, key, elapsed, cached=False)
                    )
                    if self.cache is not None:
                        ok, decoded = _json_roundtrip(result)
                        if ok:
                            # Store (and return) the decoded form so a
                            # fresh run and a cached replay are
                            # bit-identical.
                            results[index] = decoded
                            fresh.append((key, decoded, elapsed))
                        else:
                            self.stats.uncacheable += 1
                if self.cache is not None and fresh:
                    self.cache.store_many(experiment, fresh)
        finally:
            self.stats.wall_s += time.perf_counter() - start
            if self._metrics is not None:
                self._metrics.set_gauge("sweep.wall_s",
                                        round(self.stats.wall_s, 6))
                self._metrics.set_gauge("sweep.worker_utilization",
                                        round(self.stats.utilization(), 6))
                self._metrics.set_gauge("sweep.workers", float(self.workers))
        return results

    # -- internals -------------------------------------------------------

    def _record_task(self, record: TaskRecord) -> None:
        """Record one grid point into stats and the obs registry."""
        self.stats.record(record)
        if self._metrics is not None:
            if record.cached:
                self._metrics.inc("sweep.cache_hits")
            else:
                self._metrics.inc("sweep.cache_misses")
                self._metrics.observe("sweep.task_wall_s", record.elapsed_s)
        if self._tracer is not None:
            # Note: elapsed_s is host wall time — sweep_task events are
            # the one trace kind that is not byte-stable across runs.
            self._tracer.emit(
                "sweep_task", experiment=record.experiment,
                config_hash=record.config_hash, cached=record.cached,
                elapsed_s=round(record.elapsed_s, 6),
            )

    def _execute(
        self,
        fn: Callable[..., Any],
        pending: Sequence[Tuple[int, str, Dict[str, Any]]],
    ) -> List[Tuple[Any, float]]:
        """Run the non-cached tasks; returns ``(result, elapsed)`` pairs
        in ``pending`` order."""
        if self.workers > 1 and len(pending) > 1 and self._picklable(fn, pending):
            # Imported here: a serial run never needs multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            payloads = [
                (index, fn, kwargs) for index, _key, kwargs in pending
            ]
            out: Dict[int, Tuple[Any, float]] = {}
            with ProcessPoolExecutor(max_workers=min(
                self.workers, len(pending)
            )) as pool:
                for index, result, elapsed in pool.map(
                    _invoke, payloads, chunksize=self.chunksize
                ):
                    out[index] = (result, elapsed)
            return [out[index] for index, _key, _kwargs in pending]

        executed = []
        for index, _key, kwargs in pending:
            _, result, elapsed = _invoke((index, fn, kwargs))
            executed.append((result, elapsed))
        return executed

    def _picklable(
        self,
        fn: Callable[..., Any],
        pending: Sequence[Tuple[int, str, Dict[str, Any]]],
    ) -> bool:
        """Can this work ship to a process pool?  Lambdas and closures
        can't; fall back to inline execution rather than crash."""
        try:
            pickle.dumps(fn)
            for _index, _key, kwargs in pending:
                pickle.dumps(kwargs)
        except (pickle.PicklingError, TypeError, AttributeError):
            # The three ways pickling a callable/config actually fails:
            # PicklingError (unpicklable object graph), AttributeError
            # (lambdas / nested functions), TypeError (e.g. locks).
            self.stats.serial_fallbacks += 1
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepRunner(workers={self.workers}, cache={self.cache!r},"
            f" base_seed={self.base_seed})"
        )
