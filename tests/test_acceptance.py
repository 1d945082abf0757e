"""Acceptance battery at full scale.

Each criterion prints its own PASS/FAIL line; the seed comes from the
CPV_SEED environment variable (default 0) so `pytest tests/test_acceptance.py`
and `cpv suite` exercise identical runs.
"""

import os
from pathlib import Path

import pytest

from contact_barcodes.suite import CRITERIA, run_criterion

SEED = int(os.environ.get("CPV_SEED", "0"))
# stdout of `cpv suite --seed 0`, one line per criterion, then the summary
PINNED = Path(__file__).parent / "data" / "suite_seed0.txt"


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"criterion-{num:02d}" for num, _, _ in CRITERIA],
)
def test_criterion(number, name, capsys):
    result = run_criterion(number, seed=SEED, quick=False)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n{status} criterion {number:2d} [{result.seconds:7.2f}s] "
              f"{name}: {result.detail}", end="")
    assert result.passed, f"criterion {number} ({name}): {result.detail}"
    if SEED == 0:
        pinned = PINNED.read_text(encoding="utf-8").splitlines()[number - 1]
        assert f"PASS criterion {number:2d} {name}: {result.detail}" == pinned
