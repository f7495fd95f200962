"""The claims table: every paper claim holds on the rows its own call
prints, DESIGN.md's experiment index is covered, and EXPERIMENTS.md shows
exactly what ``python -m repro experiment <id>`` prints."""

import functools
import pathlib
import re

import pytest

from repro.analysis import render_table
from repro.analysis.claims import CLAIMS

ROOT = pathlib.Path(__file__).resolve().parents[2]

# EXPERIMENTS.md keeps these as paper-vs-measured tables written by hand.
HAND_WRITTEN = {"E1", "E2", "E3"}

_BLOCK = re.compile(
    r"<!-- repro experiment (\S+) -->\n```\n(.*?)\n```", re.DOTALL
)


@functools.lru_cache(maxsize=None)
def rows_of(claim_id):
    return CLAIMS[claim_id].run()


@pytest.mark.parametrize("claim_id", list(CLAIMS))
def test_claim_holds(claim_id):
    CLAIMS[claim_id].check(rows_of(claim_id))


def test_every_design_experiment_has_a_claim():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    index = text.split("## 3.", 1)[1].split("\n## 4.", 1)[0]
    design_ids = re.findall(r"^\| (E\d+) \|", index, re.MULTILINE)
    assert len(design_ids) >= 14
    for design_id in design_ids:
        # E6 is claimed three ways: E6A, E6B and E6C.
        assert any(re.fullmatch(design_id + "[A-Z]?", claim_id)
                   for claim_id in CLAIMS), design_id


def _documented_blocks():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return dict(_BLOCK.findall(text))


def test_experiments_md_documents_every_measured_claim():
    assert set(_documented_blocks()) == set(CLAIMS) - HAND_WRITTEN


@pytest.mark.parametrize("claim_id", sorted(set(CLAIMS) - HAND_WRITTEN))
def test_experiments_md_block_is_what_the_cli_prints(claim_id):
    block = _documented_blocks().get(claim_id, "")
    printed = render_table(rows_of(claim_id))
    assert ([line.rstrip() for line in block.splitlines()]
            == [line.rstrip() for line in printed.splitlines()])
