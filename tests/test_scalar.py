import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contact_barcodes.barcode import Spectrum
from contact_barcodes.cli import main
from contact_barcodes.scalar import (
    NEG_INF,
    POS_INF,
    ZERO,
    Coords,
    Scalar,
    as_scalar,
    midpoint,
    rational,
)


@given(st.fractions())
def test_text_round_trip(q):
    s = Scalar(q)
    assert Scalar.parse(str(s)) == s


def test_infinity_round_trip():
    assert Scalar.parse("inf") == POS_INF
    assert Scalar.parse("-inf") == NEG_INF
    assert str(POS_INF) == "inf"
    assert str(NEG_INF) == "-inf"


def test_canonical_form_keeps_denominator():
    assert str(rational(0)) == "0/1"
    assert str(rational(6, 4)) == "3/2"
    assert str(rational(-3, 9)) == "-1/3"


@given(st.fractions(), st.fractions())
def test_order_matches_fractions(a, b):
    assert (Scalar(a) < Scalar(b)) == (a < b)


def test_extended_order():
    assert NEG_INF < rational(-10**9) < rational(10**9) < POS_INF
    assert not (POS_INF < POS_INF)
    assert NEG_INF <= NEG_INF


def test_arithmetic_is_finite_only():
    with pytest.raises(ValueError):
        POS_INF + rational(1)
    with pytest.raises(ValueError):
        rational(1) - NEG_INF
    assert -POS_INF == NEG_INF
    assert abs(NEG_INF) == POS_INF


@given(st.fractions(), st.fractions())
def test_midpoint_between(a, b):
    lo, hi = sorted((Scalar(a), Scalar(b)))
    m = midpoint(lo, hi)
    assert lo <= m <= hi


def test_parse_rejects_floats_and_garbage():
    for bad in ("1.5", "nan", "one half", "1/0", ""):
        with pytest.raises(ValueError):
            Scalar.parse(bad)
    with pytest.raises(ValueError):
        Scalar(1.5)


def test_parse_reads_signs_zeros_and_padding():
    assert Scalar.parse("+3") == rational(3) and str(Scalar.parse("+3")) == "3/1"
    assert Scalar.parse("-0/5") == ZERO and str(Scalar.parse("-0/5")) == "0/1"
    assert str(Scalar.parse("007/010")) == "7/10"
    assert str(Scalar.parse(" 3/4 ")) == "3/4"
    assert str(Scalar.parse("-12")) == "-12/1"
    for bad in ("1/0", "3/-4", "+-3", "3/", "/4", "3 /4"):
        with pytest.raises(ValueError) as caught:
            Scalar.parse(bad)
        assert str(caught.value) == f"not a scalar: {bad!r}"


def test_parse_reads_ascii_digits_only():
    # int() reads every Unicode digit, so the pattern is ASCII only: the
    # text form round-trips exactly only as ASCII "p/q"
    for bad in ("\u0663/\u0662", "3/\u0662", "\uff13", "-\u0967"):
        with pytest.raises(ValueError) as caught:
            Scalar.parse(bad)
        assert str(caught.value) == f"not a scalar: {bad!r}"
    with pytest.raises(SystemExit) as caught:
        main(["ellipsoid", "-a", "1", "-a", "3/2", "-T", "\u0663"])
    assert caught.value.code == 2


def test_parse_matches_checked_construction():
    # parse sets the value slot without the checks of __init__; each result
    # must equal, hash and print as the checked scalar, copy and pickle as
    # it does, and refuse assignment
    rng = random.Random(30)
    texts = ["0", "-0/7", "+5", "12/8", "-3/9", "007/010"] + [
        f"{rng.randint(-10 ** 6, 10 ** 6)}/{rng.randint(1, 10 ** 6)}" for _ in range(40)]
    for text in texts:
        got = Scalar.parse(text)
        p, _, q = text.partition("/")
        want = Scalar(Fraction(int(p), int(q or 1)))
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert type(got.value) is Fraction and got.value == want.value
        for clone in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert clone == want and hash(clone) == hash(want) and repr(clone) == repr(want)
        with pytest.raises(AttributeError):
            got.value = want.value
        with pytest.raises(AttributeError):
            del got.value
        assert Scalar.parse(str(got)) == got


def test_spectrum_refuses_each_fault_by_name():
    lo, hi = rational(0), rational(10)
    cases = [
        ((rational(1), POS_INF), "spectrum points must be finite"),
        ((NEG_INF, rational(1)), "spectrum points must be finite"),
        ((rational(1), rational(11)), "spectrum point 11/1 outside horizon"),
        ((rational(-1), rational(1)), "spectrum point -1/1 outside horizon"),
        ((rational(1), rational(2), rational(2)), "spectrum points must be strictly increasing"),
        ((rational(1), rational(3), rational(2)), "spectrum points must be strictly increasing"),
        # the first fault in point order is the one named
        ((rational(2), rational(1), rational(11)),
         "spectrum points must be strictly increasing"),
        ((rational(11), rational(1)), "spectrum point 11/1 outside horizon"),
    ]
    for points, message in cases:
        with pytest.raises(ValueError) as caught:
            Spectrum(points, lo, hi)
        assert str(caught.value) == message
    # both ends of the horizon are points it may hold
    assert Spectrum((lo, rational(1, 3), hi), lo, hi).points == (lo, rational(1, 3), hi)
    assert Spectrum((), lo, lo).points == ()


def test_as_scalar_coercions():
    assert as_scalar(3) == rational(3)
    assert as_scalar("7/2") == rational(7, 2)
    assert as_scalar(Fraction(1, 3)) == rational(1, 3)
    assert as_scalar(POS_INF) is POS_INF


def test_infinity_tags():
    # the float tag and its sign decide, whatever the finite value
    for value in (Fraction(0), Fraction(-10 ** 30), Fraction(10 ** 30, 7)):
        s = Scalar(value)
        assert s.is_finite and not s.is_pos_inf and not s.is_neg_inf
    assert POS_INF.is_pos_inf and not POS_INF.is_neg_inf and not POS_INF.is_finite
    assert NEG_INF.is_neg_inf and not NEG_INF.is_pos_inf and not NEG_INF.is_finite


def test_scalars_hash_consistently():
    assert len({rational(1, 2), Scalar(Fraction(2, 4)), ZERO}) == 2


def test_comparisons_match_fraction_and_float_order():
    finite = [Fraction(p, q) for p in range(-7, 8) for q in (1, 2, 3, 7, 12)]
    grid = [(Scalar(f), f) for f in finite]
    grid += [(POS_INF, float("inf")), (NEG_INF, float("-inf"))]
    for a, x in grid:
        for b, y in grid:
            assert (a < b) == (x < y)
            assert (a <= b) == (x <= y)
            assert (a > b) == (x > y)
            assert (a >= b) == (x >= y)


def test_comparison_with_a_non_scalar_is_not_implemented():
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(ZERO, op)(0) is NotImplemented
        assert getattr(POS_INF, op)(Fraction(1)) is NotImplemented
    with pytest.raises(TypeError):
        ZERO < 1
    with pytest.raises(TypeError):
        rational(1, 2) >= Fraction(1, 2)


def test_coords_scale_every_value_and_half_gap_to_ints():
    coords = Coords([rational(1, 3), rational(-5, 4), POS_INF, NEG_INF])
    assert coords.scale == 24
    assert coords.of(rational(1, 3)) == 8 and coords.of(rational(-5, 4)) == -30
    assert coords.scalar(-19) == rational(-19, 24)
    assert Coords([]).scale == 2


def test_least_finds_the_threshold_in_few_probes():
    # ascending nonnegative candidates of every length up to 40, in one
    # row, with the threshold at every position and past the end (a probe
    # that never succeeds)
    rng = random.Random(5)
    coords = Coords([rational(1, 6)])
    for n in range(41):
        values = sorted(rng.sample(range(2000), n))
        for k in range(n + 1):
            probed = []

            def probe(t):
                probed.append(t)
                return ("ok", t) if k < n and t >= values[k] else None

            found = coords.least([((0,), values, 1)], probe)
            if k == n:
                assert found is None
            else:
                assert found == (rational(values[k], 12), ("ok", values[k]))
                assert isinstance(found[0], Scalar)
            assert len(probed) <= n.bit_length()
            assert set(probed) <= set(values)
    assert coords.least([], lambda t: 1 / 0) is None
    assert coords.least([((0,), [], 1), ((), [1, 2], 1)], lambda t: 1 / 0) is None


def binary_search_least(values, probe):
    """Coords.least before the rows: a binary search over ascending
    candidates, as (candidate, result) or None."""
    lo, hi, best = 0, len(values) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        res = probe(values[mid])
        if res is None:
            lo = mid + 1
        else:
            hi, best = mid - 1, (values[mid], res)
    return best


def row_candidates(rows):
    """Every nonnegative candidate of the rows, with repeats, ascending."""
    return sorted(c for c in ((x - c) // k for cs, xs, k in rows for c in cs for x in xs)
                  if c >= 0)


def random_rows(rng, width):
    """One to four rows, k in {1, 2}, each with up to width c's and 1.5
    width x's over ints below 10 width: some rows are empty, and values and
    whole xs lists repeat across rows."""
    rows = []
    for _ in range(rng.randint(1, 4)):
        cs = sorted(rng.choices(range(-width, 5 * width), k=rng.randint(0, width)))
        if rows and rng.random() < 0.3:
            xs = rows[-1][1]
        else:
            xs = sorted(rng.choices(range(-width, 10 * width), k=rng.randint(0, 3 * width // 2)))
        rows.append((cs, xs, rng.choice((1, 2))))
    return rows


def log43_floor(n):
    """floor(log_{4/3} n) for n >= 1, in ints."""
    p = 0
    while 4 ** (p + 1) <= n * 3 ** (p + 1):
        p += 1
    return p


def test_least_selects_like_a_binary_search_over_the_materialized_candidates():
    rng = random.Random(7)
    coords = Coords([rational(1, 2)])
    for width in [4] * 400 + [40] * 10:
        rows = random_rows(rng, width)
        every = row_candidates(rows)
        distinct = sorted(set(every))
        thresholds = distinct if width < 40 else rng.sample(distinct, 30)
        for threshold in [-3] + thresholds + [max(distinct, default=0) + 1]:
            probed = []

            def probe(t):
                probed.append(t)
                return t if t >= threshold else None

            found = coords.least(rows, probe)
            want = binary_search_least(distinct, lambda t: t if t >= threshold else None)
            assert found == (None if want is None else (coords.scalar(want[0]), want[1]))
            assert all(t >= 0 for t in probed) and set(probed) <= set(distinct)
            assert len(probed) <= (log43_floor(len(every)) + 1 if every else 0)


def test_least_with_one_row_probes_as_the_binary_search():
    # one c and distinct candidates: the lower middle of the window is the
    # binary search's midpoint, probe for probe
    rng = random.Random(11)
    coords = Coords([])
    for _ in range(300):
        c, k = rng.randrange(-20, 20), rng.choice((1, 2))
        xs = sorted(c + k * d for d in rng.sample(range(-15, 60), rng.randint(0, 30)))
        distinct = row_candidates([((c,), xs, k)])
        assert len(set(distinct)) == len(distinct)
        for threshold in [-1] + distinct + [10 ** 6]:
            probed, reference = [], []

            def probe(t, log):
                log.append(t)
                return t if t >= threshold else None

            coords.least([((c,), xs, k)], lambda t: probe(t, probed))
            binary_search_least(distinct, lambda t: probe(t, reference))
            assert probed == reference
