import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    # ascending candidates of every length up to 40, with the threshold at
    # every position and past the end (a probe that never succeeds)
    rng = random.Random(5)
    coords = Coords([rational(1, 6)])
    for n in range(41):
        values = sorted(rng.sample(range(-1000, 1000), n))
        for k in range(n + 1):
            probed = []

            def probe(t):
                probed.append(t)
                return ("ok", t) if k < n and t >= values[k] else None

            found = coords.least(values, probe)
            if k == n:
                assert found is None
            else:
                assert found == (rational(values[k], 12), ("ok", values[k]))
                assert isinstance(found[0], Scalar)
            assert len(probed) <= n.bit_length()
            assert set(probed) <= set(values)
    assert coords.least([], lambda t: 1 / 0) is None
