"""The default quick sweep reproduces ``experiments_output.txt``.

``python -m repro.experiments --quick`` is deterministic per seed, so its
printed output -- every report, check, and the verdict -- must match the
committed file byte for byte.  Only the summary table's per-experiment
wall times vary between runs; those lines are stripped on both sides.
"""

import pathlib
import re

from repro.experiments.runner import main

GOLDEN = pathlib.Path(__file__).resolve().parents[2] / "experiments_output.txt"
TIMING = re.compile(r"^\s+(PASS|FAIL)\s+")


def _strip_timing(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True) if not TIMING.match(line)
    )


def test_quick_sweep_matches_the_committed_output(capsys):
    assert main(["--quick", "--jobs", "2"]) == 0
    printed = capsys.readouterr().out
    assert _strip_timing(printed) == _strip_timing(GOLDEN.read_text())
