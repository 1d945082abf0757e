import random
from fractions import Fraction

import pytest

from contact_barcodes import ellipsoid
from contact_barcodes.ellipsoid import (
    EllipsoidParams,
    cz_index,
    ellipsoid_barcode,
    ellipsoid_spectrum,
    gaps_longer_than,
)
from contact_barcodes.errors import OnSpectrumError, TooLargeError
from contact_barcodes.persistence import decompose, module_from_barcode
from contact_barcodes.scalar import POS_INF, Scalar, ZERO, rational


def params(axes, horizon):
    return EllipsoidParams.of(axes, horizon)


def spectrum_member_by_divisibility(s, axes):
    """Membership of s in the union of the axis multiples, by direct division."""
    if not s.is_finite:
        return False
    for a in axes:
        ratio = s.value / a.value
        if ratio.denominator == 1 and ratio >= 0:
            return True
    return False


def test_params_validation():
    with pytest.raises(ValueError):
        params([], 1)
    with pytest.raises(ValueError):
        params([0], 1)
    with pytest.raises(ValueError):
        params([2, 1], 1)
    with pytest.raises(ValueError):
        params([1], 0)


def test_spectrum_examples():
    assert [str(p.value) for p in ellipsoid_spectrum(params([1], 3)).points] == \
        ["0", "1", "2", "3"]
    assert [str(p.value) for p in ellipsoid_spectrum(params(["1", "3/2"], 3)).points] == \
        ["0", "1", "3/2", "2", "3"]
    assert [str(p.value) for p in ellipsoid_spectrum(params([2, 2], 5)).points] == \
        ["0", "2", "4"]


def test_spectrum_matches_divisibility_oracle():
    rng = random.Random(3)
    for _ in range(30):
        axes = sorted(Scalar(Fraction(rng.randint(1, 8), rng.randint(1, 4)))
                      for _ in range(rng.randint(1, 3)))
        p = params(axes, rng.randint(2, 12))
        points = set(ellipsoid_spectrum(p).points)
        for _ in range(40):
            s = Scalar(Fraction(rng.randint(0, 12 * 4), rng.randint(1, 4)))
            if p.horizon < s:
                continue
            assert (s in points) == spectrum_member_by_divisibility(s, axes)


def test_cz_examples():
    assert cz_index(rational(1, 2), params([1, 1], 3)) == (2, 0)
    assert cz_index(rational(3, 2), params([1, 1], 3)) == (6, 0)
    assert cz_index(rational(7, 2), params([1, 2, 5], 10)).index == 11


def test_cz_domain_errors():
    with pytest.raises(OnSpectrumError):
        cz_index(rational(2), params([1, 1], 3))
    with pytest.raises(OnSpectrumError):
        cz_index(rational(3), params(["1", "3/2"], 4))
    with pytest.raises(ValueError):
        cz_index(rational(-1, 2), params([1], 3))
    with pytest.raises(ValueError):
        cz_index(POS_INF, params([1], 3))


def test_cz_parity_constant():
    rng = random.Random(8)
    for n_axes in (1, 2, 3):
        axes = sorted(Scalar(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                      for _ in range(n_axes))
        p = params(axes, 20)
        points = set(ellipsoid_spectrum(p).points)
        checked = 0
        while checked < 100:
            s = Scalar(Fraction(rng.randint(1, 80), rng.randint(1, 5)))
            if p.horizon < s or s in points:
                continue
            try:
                idx = cz_index(s, p)
            except OnSpectrumError:
                continue  # multiple beyond the horizon truncation
            assert idx.parity == n_axes % 2
            checked += 1


def test_cz_jump_counts_crossed_multiples():
    p = params(["1", "3/2"], 6)
    points = ellipsoid_spectrum(p).points
    mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
    for left, right, point in zip(mids, mids[1:], points[1:]):
        crossed = sum(1 for a in p.axes
                      if (point.value / a.value).denominator == 1)
        assert cz_index(right, p).index - cz_index(left, p).index == 2 * crossed


def test_barcode_horizon_on_spectrum():
    bc = ellipsoid_barcode(params([1, 1], 3))
    assert [(b.birth, b.death, b.parity, b.truncated) for b in bc.bars] == [
        (rational(0), rational(1), 0, False),
        (rational(1), rational(2), 0, False),
        (rational(2), rational(3), 0, True),
    ]


def test_barcode_horizon_off_spectrum():
    bc = ellipsoid_barcode(params([2, 2], 5))
    assert [(str(b.birth.value), str(b.death), b.truncated) for b in bc.bars] == [
        ("0", "2/1", False), ("2", "4/1", False), ("4", "inf", True)]


def test_barcode_single_gap():
    bc = ellipsoid_barcode(params([1], 1))
    (bar,) = bc.bars
    assert bar.birth == ZERO and bar.death == rational(1)
    assert bar.parity == 1 and bar.truncated


def test_barcode_dimension_one_everywhere():
    rng = random.Random(14)
    for _ in range(20):
        axes = sorted(Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                      for _ in range(rng.randint(1, 3)))
        p = params(axes, rng.randint(2, 8))
        bc = ellipsoid_barcode(p)
        points = ellipsoid_spectrum(p).points
        for a, b in zip(points, points[1:]):
            s = (a + b) / 2
            assert bc.graded_dim_at(s) == ((1, 0) if p.n % 2 == 0 else (0, 1))


def test_ellipsoid_round_trip():
    bc = ellipsoid_barcode(params([1, 1], 3))
    assert decompose(module_from_barcode(bc)).same_bars(bc)


def test_gap_examples():
    g = gaps_longer_than(params([1, 1], 10), rational(9, 10))
    assert [(str(a.value), str(b.value)) for a, b in g] == \
        [(str(k), str(k + 1)) for k in range(10)]
    g2 = gaps_longer_than(params(["1", "3/2"], 10), rational(9, 10))
    assert [(str(a.value), str(b.value)) for a, b in g2] == [
        ("0", "1"), ("2", "3"), ("3", "4"), ("5", "6"),
        ("6", "7"), ("8", "9"), ("9", "10")]


def test_gap_threshold_domain():
    with pytest.raises(ValueError):
        gaps_longer_than(params([1], 5), rational(1))
    with pytest.raises(ValueError):
        gaps_longer_than(params([1], 5), rational(-1, 2))


def test_long_gap_scan_convergent():
    p = params(["1", "1393/985"], 100)
    gaps = gaps_longer_than(p, rational(9, 10))
    assert len(gaps) == 44
    p2 = params(["1", "1393/985"], 200)
    assert len(gaps_longer_than(p2, rational(9, 10))) >= len(gaps)


def test_bars_are_gaps_with_truncation_flag():
    rng = random.Random(44)
    for _ in range(20):
        axes = sorted(Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
                      for _ in range(rng.randint(1, 3)))
        p = params(axes, rng.randint(2, 9))
        bars = ellipsoid_barcode(p).bars
        gaps = gaps_longer_than(p, ZERO)
        assert len(bars) == len(gaps)
        for bar, (lo, hi) in zip(bars, gaps):
            assert bar.birth == lo
            if not bar.truncated:
                assert bar.death == hi
            else:
                assert bar.death == hi or bar.death == POS_INF
        assert sum(1 for b in bars if b.truncated) == 1


def test_gap_pattern_periodicity():
    # for axes (1, p/r) the merged multiples repeat with period p
    for p_num, r_den in ((3, 2), (5, 3), (7, 4)):
        period = rational(p_num)
        pa = params(["1", f"{p_num}/{r_den}"], period * 2)
        gaps = gaps_longer_than(pa, ZERO)
        first = [(lo, hi) for lo, hi in gaps if not (period < hi)]
        second = [(lo - period, hi - period) for lo, hi in gaps if not (lo < period)]
        assert first == second


def test_gaps_stable_under_horizon_growth():
    rng = random.Random(47)
    for _ in range(15):
        q = Fraction(rng.randint(3, 9), rng.randint(2, 5))
        if q <= 1:
            continue
        T = rational(rng.randint(4, 9))
        pa = params(["1", str(q)], T)
        pb = params(["1", str(q)], T * 2)
        inner_a = [(lo, hi) for lo, hi in gaps_longer_than(pa, ZERO) if hi < T]
        inner_b = [(lo, hi) for lo, hi in gaps_longer_than(pb, ZERO) if hi < T]
        assert inner_a == inner_b


def test_spectrum_bound_counts_multiples_before_building(monkeypatch):
    with pytest.raises(TooLargeError, match="1000000001 axis multiples"):
        ellipsoid_spectrum(params(["1/1000000000"], 1))
    # the count is floor(T / a) + 1 per axis, repeats (0, and shared
    # multiples) included; the bound itself is allowed
    monkeypatch.setattr(ellipsoid, "MAX_MULTIPLES", 10)
    assert len(ellipsoid_spectrum(params([1, 2], 5)).points) == 6  # 6 + 3 multiples
    assert len(ellipsoid_spectrum(params([1, 1], 4)).points) == 5  # 5 + 5
    for refused in (params([1, 1], 5), params(["1/2"], 5), params([1, 2, 3], "11/2")):
        with pytest.raises(TooLargeError):
            ellipsoid_spectrum(refused)
        with pytest.raises(TooLargeError):
            ellipsoid_barcode(refused)
        with pytest.raises(TooLargeError):
            gaps_longer_than(refused, ZERO)
