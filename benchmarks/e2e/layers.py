"""Charge profiled host time to the program's layers.

A layer is a ``repro`` subpackage, except that ``repro.sim`` and
``repro.net`` are split by module.  Code outside ``repro`` lands in a
``host.*`` bucket named after the library that owns it.  A builtin
with no library of its own (``isinstance``, ``dict.get``,
``generator.send``) runs on behalf of its caller, so its time and calls
are charged to the caller's layer, edge by edge from the ``pstats``
caller data.  Modules of ``repro`` outside the named layers fall into
``repro.other``; the benchmark expects it to stay near zero.
"""

from __future__ import annotations

import pstats
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

REPRO_LAYERS = (
    "sim.engine", "sim.cohort", "sim.monitor",
    "net.transport", "net.latency", "net.node",
    "faults", "gossip", "groupcomm", "crypto", "analysis", "obs",
)
HOST_LAYERS = ("host.json", "host.hashlib", "host.heapq", "host.numpy",
               "host.other")
LAYERS = REPRO_LAYERS + HOST_LAYERS + ("repro.other",)

#: Top-level library (or C module) -> host bucket.
_HOST_LIBRARIES = {
    "json": "host.json", "_json": "host.json",
    "hashlib": "host.hashlib", "_hashlib": "host.hashlib",
    "heapq": "host.heapq", "_heapq": "host.heapq",
    "numpy": "host.numpy",
}

_BUILTIN_OWNER = re.compile(
    r"<built-in method ([\w.]+)>|<method '\w+' of '([\w.]+)' objects>"
)
_LIBRARY_ROOT = re.compile(r"(?:site-packages|dist-packages|python\d+\.\d+)$")

Func = Tuple[str, int, str]


def layer_of_module(dotted: str) -> str:
    """Layer of a ``repro`` module given by dotted name."""
    parts = dotted.split(".")[1:]
    for depth in (2, 1):
        if len(parts) >= depth and ".".join(parts[:depth]) in REPRO_LAYERS:
            return ".".join(parts[:depth])
    return "repro.other"


def _library_of_path(path: Path) -> str:
    """Top-level package or module a library file belongs to."""
    for parent in path.parents:
        if _LIBRARY_ROOT.search(parent.name):
            top = path.relative_to(parent).parts[0]
            return top[:-3] if top.endswith(".py") else top
    return ""


@dataclass
class LayerProfile:
    """One profiled rep folded by layer."""

    self_s: Dict[str, float] = field(
        default_factory=lambda: {layer: 0.0 for layer in LAYERS})
    calls: Dict[str, int] = field(
        default_factory=lambda: {layer: 0 for layer in LAYERS})
    #: (caller layer, callee layer) -> cumulative seconds of those edges.
    edges: Dict[Tuple[str, str], float] = field(
        default_factory=lambda: defaultdict(float))
    #: (file suffix under repro/, function name) -> (calls, cumulative s).
    functions: Dict[Tuple[str, str], Tuple[int, float]] = field(
        default_factory=dict)

    def function(self, suffix: str, name: str) -> Tuple[int, float]:
        return self.functions.get((suffix, name), (0, 0.0))

    def graph(self) -> Dict[str, float]:
        """The cross-layer call graph as ``"caller->callee": seconds``."""
        return {f"{caller}->{callee}": round(seconds, 6)
                for (caller, callee), seconds in sorted(self.edges.items())}


class _Classifier:
    """Maps profiled functions to layers for one ``repro`` source tree."""

    def __init__(self, repro_root: Path):
        self.repro_root = repro_root.resolve()
        self._modules: Dict[str, Optional[str]] = {}
        self._layers: Dict[str, Optional[str]] = {}

    def repro_module(self, filename: str) -> Optional[str]:
        """Dotted ``repro`` module of a source file, or ``None``."""
        if filename not in self._modules:
            try:
                rel = Path(filename).resolve().relative_to(self.repro_root)
            except (ValueError, OSError):
                self._modules[filename] = None
            else:
                self._modules[filename] = ".".join(
                    ("repro",) + rel.with_suffix("").parts)
        return self._modules[filename]

    def own_layer(self, func: Func) -> Optional[str]:
        """The layer a function's self time belongs to, or ``None`` for a
        builtin that is charged to its caller."""
        filename, _line, name = func
        key = filename if filename != "~" else "~" + name
        if key not in self._layers:
            if filename == "~":
                match = _BUILTIN_OWNER.match(name)
                owner = (match.group(1) or match.group(2)) if match else ""
                layer = _HOST_LIBRARIES.get(owner.split(".")[0])
            else:
                module = self.repro_module(filename)
                layer = (layer_of_module(module) if module is not None else
                         _HOST_LIBRARIES.get(_library_of_path(Path(filename)))
                         or "host.other")
            self._layers[key] = layer
        return self._layers[key]


def fold(stats_path: Path, repro_root: Path) -> LayerProfile:
    """Fold a ``.pstats`` file into per-layer self time and calls."""
    stats: Dict[Func, Any] = pstats.Stats(str(stats_path)).stats  # type: ignore[attr-defined]
    classify = _Classifier(repro_root)
    profile = LayerProfile()

    def layer_of(func: Func, depth: int = 0) -> str:
        """A function's layer; a builtin without a library of its own
        takes the layer of the caller that called it most."""
        layer = classify.own_layer(func)
        if layer is not None:
            return layer
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if not callers or depth > 8:
            return "host.other"
        caller = max(callers, key=lambda c: (callers[c][1], c))
        return layer_of(caller, depth + 1)

    for func, (_cc, ncalls, tottime, cumtime, callers) in stats.items():
        own = classify.own_layer(func)
        if own is None:
            charged = [(layer_of(caller), edge[1], edge[2])
                       for caller, edge in callers.items()]
            if not charged:
                charged = [("host.other", ncalls, tottime)]
        else:
            charged = [(own, ncalls, tottime)]
            for caller, edge in callers.items():
                caller_layer = layer_of(caller)
                if caller_layer != own:
                    profile.edges[(caller_layer, own)] += edge[3]
        for layer, n, seconds in charged:
            profile.calls[layer] += n
            profile.self_s[layer] += seconds
        module = classify.repro_module(func[0])
        if module is not None:
            suffix = "/".join(module.split(".")[1:]) + ".py"
            calls, cum = profile.functions.get((suffix, func[2]), (0, 0.0))
            profile.functions[(suffix, func[2])] = (calls + ncalls,
                                                    cum + cumtime)
    return profile


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith((".share", "_ratio", ".self_coverage")):
        return "ratio"
    if ".us_per_" in metric:
        return "us"
    if ".ns_per_" in metric:
        return "ns"
    return "count"


def layer_metrics(
    profile: LayerProfile,
    snapshot: Dict[str, Any],
    profiled_s: float,
    untraced_wall_s: float,
    device_ticks: Optional[int],
) -> Dict[str, float]:
    """Every per-layer metric of one profiled rep.

    Counts come from ``repro.obs`` counters or cProfile call counts and
    repeat exactly for one commit and seed; times are informational.  A
    ratio or per-unit cost whose base is zero (the layer did no such
    work) reads 0.
    """
    counters = snapshot["counters"]
    self_s = profile.self_s
    total = sum(self_s.values())

    def count(name: str) -> int:
        return counters.get(name, 0)

    def per(value: float, base: float, scale: float = 1.0) -> float:
        return value / base * scale if base else 0.0

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = per(self_s[layer], total)
        metrics[f"{layer}.calls"] = profile.calls[layer]

    hashes, hash_s = profile.function("crypto/hashing.py", "hash_obj")
    fired = count("sim.events_fired")
    scheduled = count("sim.events_scheduled")
    cancelled = count("sim.events_cancelled")
    sent = count("net.messages_sent")
    delivered = count("net.messages_delivered")
    depth = snapshot["histograms"].get("sim.queue_depth", {})
    metrics.update({
        "crypto.hash_obj_calls": hashes,
        "crypto.us_per_hash": per(hash_s, hashes, 1e6),
        "gossip.digest_calls":
            profile.function("gossip/antientropy.py", "digest")[0],
        "sim.engine.events_fired": fired,
        "sim.engine.events_scheduled": scheduled,
        "sim.engine.events_cancelled": cancelled,
        "sim.engine.wasted_ratio": per(cancelled, scheduled),
        "sim.engine.queue_depth_p50": depth.get("p50", 0),
        "sim.engine.us_per_event":
            per(self_s["sim.engine"] + self_s["host.heapq"], fired, 1e6),
        "net.transport.messages_sent": sent,
        "net.transport.messages_delivered": delivered,
        "net.transport.delivered_ratio": per(delivered, sent),
        "net.transport.rpcs_sent": count("net.rpcs_sent"),
        "net.transport.rpcs_timeout": count("net.rpcs_timeout"),
        "net.transport.censor_verdicts":
            profile.function("net/transport.py", "verdict")[0],
        "net.transport.us_per_message":
            per(self_s["net.transport"], sent, 1e6),
        "faults.censor_blocked": count("faults.censor.blocked"),
        "faults.censor_detected": count("faults.censor.detected"),
        "faults.invariant_sweeps": count("faults.invariant_sweeps"),
        "sim.cohort.flips": count("cohort.flips"),
        "sim.cohort.draws": count("cohort.draws"),
        "sim.cohort.ns_per_device_tick":
            per(self_s["sim.cohort"], device_ticks or 0, 1e9),
        "analysis.grid_points": count("sweep.cache_misses"),
        "trace.profiled_s": profiled_s,
        "trace.overhead_ratio": per(profiled_s, untraced_wall_s),
        "trace.self_coverage": per(total, profiled_s),
    })
    return metrics


def is_exact(metric: str) -> bool:
    """Whether a per-layer metric is an exact count (or a ratio of two).

    ``obs.calls`` is not: the sweep runner feeds each task's host time
    to a histogram, which makes one more ``math.log2`` call for every
    task slower than 1 s.
    """
    if metric == "obs.calls":
        return False
    return unit_of(metric) == "count" or metric in (
        "sim.engine.wasted_ratio", "net.transport.delivered_ratio")
