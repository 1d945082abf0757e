"""Acceptance battery at full scale, and each criterion fed a wrong answer.

Each criterion prints its own PASS/FAIL line; the seed comes from the
CPV_SEED environment variable (default 0) so `pytest tests/test_acceptance.py`
and `cpv suite` exercise identical runs.
"""

import os
from pathlib import Path

import pytest

from contact_barcodes import suite
from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.cli import run
from contact_barcodes.scalar import NEG_INF, POS_INF, rational
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


def _no_bars(*args):
    """A barcode without bars over the spectrum of the first argument."""
    return Barcode(args[0].spectrum, ())


# per criterion: the name of `suite` to replace, the wrong answer it gives,
# and the words of the failing detail
WRONG_ANSWERS = [
    (1, "ellipsoid_barcode", lambda params: Barcode(Spectrum.of([], 0, 5), ()),
     "bars mismatch: []"),
    (2, "decompose", _no_bars, "trial 0: round trip lost bars"),
    (3, "brute_force_decompose", _no_bars, "sweep disagrees with basis search"),
    (4, "interleaving_distance_bruteforce", lambda m1, m2: POS_INF,
     "interleaving inf != graded bottleneck"),
    (5, "bottleneck_distance", lambda b1, b2, graded=False: (rational(1), None),
     "trial 0: d(b,b) = 1"),
    (6, "perturb_barcode", lambda b, radius, rng: _no_bars(b),
     "trial 0: bottleneck distance inf exceeds radius"),
    (7, "translate_barcode", lambda b, t: b, "moved by"),
    (8, "covering_number", lambda pts, delta: (0, []), "greedy 0 != partition minimum"),
    (9, "gaps_longer_than", lambda params, ell: [], "only 0 long gaps on [0, 100]"),
    # the checked constructor refuses an end off the spectrum; _sorted does not
    (10, "decompose",
     lambda m: Barcode._sorted(m.spectrum, (Bar(NEG_INF, rational(-7, 3), 0),)),
     "trial 0: endpoint -7/3 off spectrum"),
]


@pytest.mark.parametrize("number,name,wrong,words", WRONG_ANSWERS,
                         ids=[f"criterion-{c[0]:02d}" for c in WRONG_ANSWERS])
def test_criterion_fails_on_a_wrong_answer(monkeypatch, number, name, wrong, words):
    monkeypatch.setattr(suite, name, wrong)
    result = run_criterion(number, 0, quick=True)
    assert not result.passed and words in result.detail, result.detail


def test_suite_exits_1_when_a_criterion_fails(monkeypatch, capsys):
    monkeypatch.setattr(suite, "decompose", _no_bars)
    assert run(["suite", "--quick", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line[:17] for line in lines if line.startswith("FAIL")] == [
        "FAIL criterion  2", "FAIL criterion  3", "FAIL criterion  4"]
    assert lines[-1] == "7/10 criteria passed (seed 0, quick)"
