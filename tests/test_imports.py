"""A run imports only the libraries it computes with.

numpy is imported only by the modules that compute with it
(``sim/cohort.py``, ``analysis/cohort.py``, and inside the functions
that draw arrays), and a package ``__init__`` does not import it.
Graphs are plain dicts (``net/topology.py``), so no run loads networkx,
not even one that builds a graph.  Every CLI run and benchmark rep is a
fresh interpreter that pays for each import, so these cases pin the
footprint.  Each case runs in its own interpreter: this process's
``sys.modules`` holds whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

LIBRARIES = ("numpy", "networkx")


def loaded_after(code: str, modules: Sequence[str]) -> List[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {list(modules)!r}"
             f" if m in sys.modules]))")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)}, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_federation_run_loads_neither_library():
    code = ("from repro.analysis.experiments import"
            " run_federation_availability\n"
            "run_federation_availability(seed=7, n_servers=3, n_users=12)")
    assert loaded_after(code, LIBRARIES + ("concurrent.futures.process",)) == []


@pytest.mark.parametrize("package", [
    "repro.sim", "repro.net", "repro.crypto", "repro.gossip",
    "repro.groupcomm", "repro.naming",
])
def test_package_loads_neither_library(package):
    assert loaded_after(f"import {package}", LIBRARIES) == []


@pytest.mark.parametrize("driver", [
    "from repro.analysis.experiments import run_usenet_collapse\n"
    "run_usenet_collapse(seed=7, community_sizes=[16])",
    "from repro.analysis.censorship import run_censorship_sweep\n"
    "run_censorship_sweep(seed=1)",
], ids=["usenet_collapse", "censorship_sweep"])
def test_graph_building_run_loads_neither_library(driver):
    assert loaded_after(driver, LIBRARIES) == []


@pytest.mark.parametrize("module, library", [
    ("repro.analysis.cohort", "networkx"),
    ("repro.analysis.censorship", "numpy"),
    ("repro.analysis.censorship", "networkx"),
    ("repro.analysis.runner", "concurrent.futures.process"),
])
def test_module_does_not_load(module, library):
    assert loaded_after(f"import {module}", [library]) == []

