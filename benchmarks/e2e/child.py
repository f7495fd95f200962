"""One benchmark repetition, run in a fresh interpreter.

    python3 benchmarks/e2e/child.py SPEC_JSON [PSTATS_PATH]

``SPEC_JSON`` names a driver (``module``, ``function``) and the kwargs
of each call (``calls``).  The child imports the driver, stamps the
system-wide monotonic clock so the parent can charge start-up time,
runs every call, and prints one JSON line: the import stamp, the host
time of the calls, its peak RSS, and the list of results.

With ``PSTATS_PATH`` the calls run under ``cProfile`` with an ambient
``repro.obs.Metrics`` registry; the raw profile is written there and
the registry's snapshot is added to the line.  Only the standard
library and the program are imported, so start-up time is the
program's own.
"""

import importlib
import json
import resource
import sys
import time


def main(argv):
    spec = json.loads(argv[1])
    driver = getattr(importlib.import_module(spec["module"]), spec["function"])
    imported_at = time.monotonic()
    profile_path = argv[2] if len(argv) > 2 else None
    snapshot = None
    if profile_path is None:
        start = time.perf_counter()
        outputs = [driver(**kwargs) for kwargs in spec["calls"]]
        wall_s = time.perf_counter() - start
    else:
        import cProfile

        from repro.obs import Metrics, observe

        metrics = Metrics()
        profiler = cProfile.Profile()
        with observe(metrics=metrics):
            start = time.perf_counter()
            profiler.enable()
            outputs = [driver(**kwargs) for kwargs in spec["calls"]]
            profiler.disable()
            wall_s = time.perf_counter() - start
            profiler.dump_stats(profile_path)
        snapshot = metrics.snapshot()
    print(json.dumps({
        "imported_at": imported_at,
        "wall_s": wall_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "output": outputs,
        "metrics": snapshot,
    }))


if __name__ == "__main__":
    main(sys.argv)
