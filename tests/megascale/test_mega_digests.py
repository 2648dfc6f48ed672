"""The ``--mega`` reports of E9, E14 and E15 are pinned byte for byte.

The quick-sweep golden test never passes ``--mega``, so nothing else
guards these three reports.  Each rendered report at
``--quick --mega 20000 --seed 0``, with the summary table's wall-time
lines stripped as the golden test strips them, must hash to the digest
recorded here.  A change that moves a mega report on purpose updates the
digest and says why.
"""

import hashlib
import re

import pytest

from repro.experiments.common import RunConfig
from repro.experiments.runner import run_one

TIMING = re.compile(r"^\s+(PASS|FAIL)\s+")

DIGESTS = {
    "e9": "c1cadc3c10b6516573d450cf1c7d6c3b1a41256d8bed263f4934e3465f106fa5",
    "e14": "87ad459249ae458e60aa57febdb10fe49ef70825989aa25fca2499bd4a2fe714",
    "e15": "7c14e506d897e25a4075319e183e3d50c45a5444f50a36ba1870175a803ac2b3",
}


def _digest(report: str) -> str:
    kept = "".join(
        line for line in report.splitlines(keepends=True) if not TIMING.match(line)
    )
    return hashlib.sha256(kept.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_mega_report_is_byte_identical(name):
    outcome = run_one(name, RunConfig(quick=True, seed=0, mega=20_000))
    assert outcome.passed, outcome.report
    assert _digest(outcome.report) == DIGESTS[name]
