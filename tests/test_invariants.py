import random


import pytest
from hypothesis import given
from hypothesis import strategies as st

from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.distances import bottleneck_distance
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.errors import InPiSpanError
from contact_barcodes.invariants import (
    bar_endpoint_set,
    boundary_depth,
    covering_number,
    spectral_invariant,
    translate_barcode,
    translated_point_lower_bound,
)
from contact_barcodes.oracles import covering_min_partition, covering_min_subsets
from contact_barcodes.random_instances import (
    perturb_barcode,
    random_barcode,
    random_rational,
)
from contact_barcodes.scalar import NEG_INF, POS_INF, Scalar, ZERO, rational
from contact_barcodes.suite import stability_violations


def test_sh_class_structure():
    # the fully infinite bar spans index 0 (the pi-span); the half-infinite
    # births follow it in birth order, the first of them being the unit
    sp = Spectrum.of([0, 1], 0, 1)
    code = Barcode(sp, (
        Bar(NEG_INF, POS_INF, 0),
        Bar(rational(0), POS_INF, 0),
        Bar(rational(1), POS_INF, 1),
        Bar.of(0, 1),
    ))
    with pytest.raises(InPiSpanError):
        spectral_invariant(code, 0)
    assert spectral_invariant(code, 1) == rational(0)
    assert spectral_invariant(code, 2) == rational(1)
    assert spectral_invariant(code, 3) == POS_INF


def test_spectral_invariant_reads_undying_births():
    # given out of birth order: two half-infinite bars, the fully infinite
    # bar, a truncated bar with a finite recorded death, and a finite bar
    sp = Spectrum.of([0, 1, 2, 3], 0, 3)
    code = Barcode(sp, (
        Bar(rational(2), POS_INF, 1),
        Bar(NEG_INF, POS_INF, 0),
        Bar.of(1, 3, 0, truncated=True),
        Bar.of(0, 1),
        Bar(rational(0), POS_INF, 0),
    ))
    with pytest.raises(InPiSpanError):
        spectral_invariant(code, 0)
    assert [spectral_invariant(code, k) for k in (1, 2, 3)] == \
        [rational(0), rational(1), rational(2)]
    assert spectral_invariant(code, 4) == POS_INF
    assert spectral_invariant(code, 40) == POS_INF


def test_spectral_examples():
    bc = ellipsoid_barcode(EllipsoidParams.of([1], 1))
    assert spectral_invariant(bc, 0) == ZERO

    single = Barcode(Spectrum.of([3], 0, 4), (Bar(rational(3), POS_INF, 0),))
    assert spectral_invariant(single, 0) == rational(3)
    assert spectral_invariant(single, 3) == POS_INF

    t = rational(7, 2)
    assert spectral_invariant(translate_barcode(single, t), 0) == rational(3) + t


def test_spectral_rejects_pi_span():
    full = Barcode(Spectrum.of([], 0, 1), (Bar(NEG_INF, POS_INF, 0),))
    with pytest.raises(InPiSpanError):
        spectral_invariant(full, 0)
    with pytest.raises(InPiSpanError):
        spectral_invariant(full, -1)


def test_spectral_truncation_toggle():
    # truncated bars always count as undying: there is no toggle to drop them
    bc = ellipsoid_barcode(EllipsoidParams.of([1], 1))
    assert [bar.truncated for bar in bc.bars if bar.birth == ZERO] == [True]
    assert spectral_invariant(bc, 0) == ZERO
    with pytest.raises(TypeError):
        spectral_invariant(bc, 0, include_truncated=False)


def test_translate_group_action():
    rng = random.Random(3)
    for _ in range(30):
        b = random_barcode(rng)
        t = random_rational(rng)
        assert translate_barcode(b, ZERO).same_bars(b)
        assert translate_barcode(translate_barcode(b, t), -t).same_bars(b)


def test_translation_and_cover_refuse_infinite_input():
    code = Barcode(Spectrum.of([1], 0, 2), (Bar.of(1, "inf"),))
    with pytest.raises(ValueError) as caught:
        translate_barcode(code, POS_INF)
    assert str(caught.value) == "translation amount must be finite"
    with pytest.raises(ValueError) as caught:
        covering_number([POS_INF], rational(1))
    assert str(caught.value) == "covering points must be finite"


@given(st.fractions(min_value=-50, max_value=50))
def test_translate_moves_finite_endpoints(q):
    t = Scalar(q)
    sp = Spectrum.of([0, 1], 0, 1)
    b = Barcode(sp, (Bar.of(0, 1), Bar(rational(1), POS_INF, 1)))
    shifted = translate_barcode(b, t)
    assert shifted.bars[0].birth == t and shifted.bars[0].death == rational(1) + t
    assert shifted.bars[1].death == POS_INF


def test_boundary_depth_examples():
    assert boundary_depth(Barcode(Spectrum.of([], 0, 1), ())) == ZERO
    sp = Spectrum.of([0, 1, "3/2", 2], 0, 2)
    assert boundary_depth(Barcode(sp, (Bar.of(0, 2), Bar.of(1, "3/2")))) == rational(2)
    bc = ellipsoid_barcode(EllipsoidParams.of([1, 1], 5))
    assert boundary_depth(bc) == rational(1)
    only_inf = Barcode(Spectrum.of([0], 0, 1), (Bar(rational(0), POS_INF, 0),))
    assert boundary_depth(only_inf) == ZERO


def test_boundary_depth_stability():
    rng = random.Random(7)
    for _ in range(60):
        b1 = random_barcode(rng, max_bars=4, max_points=4)
        b2 = random_barcode(rng, max_bars=4, max_points=4)
        d, _ = bottleneck_distance(b1, b2)
        if not d.is_finite:
            continue
        gap = abs(boundary_depth(b1) - boundary_depth(b2))
        assert not (d + d < gap)


def test_covering_examples():
    assert covering_number([rational(0), rational(5)], rational(1))[0] == 2
    k, centers = covering_number(
        [rational(0), rational(1, 4), rational(1, 2)], rational(1))
    assert k == 1 and centers == [rational(1, 4)]
    assert covering_number([], rational(1))[0] == 0
    with pytest.raises(ValueError):
        covering_number([rational(0)], ZERO)


def test_covering_open_balls_on_integers():
    pts = [rational(i) for i in range(6)]
    assert covering_number(pts, rational(1))[0] == 6


def test_covering_matches_oracles():
    rng = random.Random(11)
    for _ in range(80):
        pts = sorted({random_rational(rng, 0, 10) for _ in range(rng.randint(0, 8))})
        delta = abs(random_rational(rng, 1, 3))
        if delta == ZERO:
            delta = rational(1, 2)
        k, centers = covering_number(pts, delta)
        assert k == covering_min_partition(pts, delta)
        if len(pts) <= 5:
            assert k == covering_min_subsets(pts, delta)
        radius = delta / 2
        for p in pts:
            assert any(abs(p - c) < radius for c in centers)


def test_endpoint_set_and_bound():
    bc = ellipsoid_barcode(EllipsoidParams.of([1, 1], 5))
    assert [str(p.value) for p in bar_endpoint_set(bc, rational(1))] == \
        ["0", "1", "2", "3", "4", "5"]
    assert translated_point_lower_bound(bc, rational(1)) == 6

    sp = Spectrum.of([0, 2], 0, 2)
    assert translated_point_lower_bound(Barcode(sp, (Bar.of(0, 2),)), rational(3)) == 0
    assert translated_point_lower_bound(Barcode(Spectrum.of([], 0, 1), ()), rational(1)) == 0


def test_bound_monotone_in_delta():
    rng = random.Random(13)
    deltas = [rational(1, 4), rational(1, 2), rational(1), rational(2), rational(4)]
    for _ in range(30):
        b = random_barcode(rng, max_bars=6, max_points=5)
        counts = [translated_point_lower_bound(b, d) for d in deltas]
        assert counts == sorted(counts, reverse=True)


def test_perturb_stays_in_ball():
    rng = random.Random(17)
    for _ in range(60):
        b = random_barcode(rng, max_bars=5, max_points=4)
        radius = abs(random_rational(rng, 1, 2))
        if radius == ZERO:
            radius = rational(1, 2)
        perturbed = perturb_barcode(b, radius, rng)
        d, _ = bottleneck_distance(b, perturbed)
        assert not (radius < d)


def test_perturb_radius_zero_is_identity():
    rng = random.Random(19)
    b = random_barcode(rng)
    assert perturb_barcode(b, ZERO, rng) is b
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        perturb_barcode(b, rational(-1), rng)


def test_stability_violations():
    base = Barcode(
        Spectrum.of([0, 1, 2, 3], 0, 3),
        (Bar.of(0, 2), Bar(rational(1), POS_INF, 0), Bar.of(2, 3, 1)))
    radius = rational(1, 4)
    rng = random.Random(5)
    for _ in range(40):
        assert stability_violations(base, perturb_barcode(base, radius, rng), radius) == []

    # the undying bar's birth moves from 1 to 2: the bottleneck distance
    # is 1 and passes the radius
    moved = Barcode(base.spectrum, (Bar.of(0, 2), Bar(rational(2), POS_INF, 0),
                                    Bar.of(2, 3, 1)))
    assert stability_violations(base, moved, radius) == [
        "bottleneck distance 1/1 exceeds radius 1/4"]
    assert stability_violations(base, moved, rational(1)) == []


def test_perturbation_deterministic_per_seed():
    base = Barcode(Spectrum.of([0, 1], 0, 1),
                   (Bar.of(0, 1), Bar(rational(0), POS_INF, 1)))
    a = perturb_barcode(base, rational(1, 2), random.Random(3))
    b = perturb_barcode(base, rational(1, 2), random.Random(3))
    assert a == b and a != base
