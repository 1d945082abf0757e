import hashlib
import random
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.errors import (
    DomainError,
    IndexOutOfRangeError,
    InfiniteDeltaError,
    InvalidModuleError,
    ShapeMismatchError,
    TooLargeError,
)
from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.gf2 import Echelon, Gf2Matrix
from contact_barcodes.distances import Matching, _hopcroft_karp, _int_bars, bottleneck_distance
from contact_barcodes import interleaving, oracles, persistence
from contact_barcodes.interleaving import (
    InterleavingCertificate,
    _GLayout,
    _Regions,
    _add_identity,
    _shift_tables,
    find_interleaving,
    interleaving_distance_bruteforce,
    verify_interleaving,
)
from contact_barcodes.oracles import bar_cost, endpoint_gap, exhaustive_bottleneck
from contact_barcodes.persistence import (
    SampledModule,
    _valid_placement,
    composite_map,
    decompose,
    module_from_barcode,
)
from contact_barcodes.random_instances import (
    random_barcode,
    random_module,
    random_spectrum,
    scramble,
)
from contact_barcodes.scalar import NEG_INF, POS_INF, ZERO, Coords, Scalar, rational


def candidate_deltas(m1, m2):
    """0, every gap between two of the spectrum points and horizon ends of
    both modules, and half of every gap, ascending: a superset of the
    deltas at which the interleaving search can change, in Scalar
    arithmetic."""
    values = set(m1.spectrum.points) | set(m2.spectrum.points)
    values |= {m1.spectrum.lo, m1.spectrum.hi, m2.spectrum.lo, m2.spectrum.hi}
    vals = sorted(values)
    out = {ZERO}
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            out.add(b - a)
            out.add((b - a) / 2)
    return sorted(out)


def test_endpoint_gap_conventions():
    assert endpoint_gap(POS_INF, POS_INF) == ZERO
    assert endpoint_gap(NEG_INF, NEG_INF) == ZERO
    assert endpoint_gap(NEG_INF, POS_INF) == POS_INF
    assert endpoint_gap(POS_INF, rational(3)) == POS_INF
    assert endpoint_gap(rational(1), rational(4)) == rational(3)


def test_identity_distance_zero():
    rng = random.Random(2)
    for _ in range(20):
        b = random_barcode(rng)
        d, matching = bottleneck_distance(b, b)
        assert d == ZERO
        assert witness_cost(b, b, matching, False) == ZERO
        assert all(l is not None and r is not None for l, r in matching.pairs)


def test_bar_to_ersatz():
    sp = Spectrum.of([0, 2], 0, 2)
    b = Barcode(sp, (Bar.of(0, 2),))
    empty = Barcode(sp, ())
    d, matching = bottleneck_distance(b, empty)
    assert d == rational(1)
    assert matching.pairs == ((0, None),)


def test_infinite_bar_against_empty_is_infinite():
    sp = Spectrum.of([0], 0, 1)
    b = Barcode(sp, (Bar(rational(0), POS_INF, 0),))
    d, matching = bottleneck_distance(b, Barcode(sp, ()))
    assert d == POS_INF and matching is None


def test_mixed_example():
    sp = Spectrum.of([0, 1, 2], 0, 2)
    left = Barcode(sp, (Bar.of(0, 2), Bar(rational(0), POS_INF, 0)))
    right = Barcode(sp, (Bar.of(1, 2), Bar(rational(1), POS_INF, 0)))
    d, _ = bottleneck_distance(left, right)
    assert d == rational(1)


def test_agrees_with_exhaustive_oracle():
    rng = random.Random(17)
    for _ in range(120):
        b1 = random_barcode(rng, max_bars=3, max_points=4)
        b2 = random_barcode(rng, max_bars=3, max_points=4)
        fast, matching = bottleneck_distance(b1, b2)
        slow = exhaustive_bottleneck(b1, b2)
        assert fast == slow
        if matching is not None:
            # the witness matching realizes the reported cost
            worst = ZERO
            seen_l, seen_r = set(), set()
            for li, rj in matching.pairs:
                if li is not None:
                    assert li not in seen_l
                    seen_l.add(li)
                if rj is not None:
                    assert rj not in seen_r
                    seen_r.add(rj)
                if li is not None and rj is not None:
                    worst = max(worst, bar_cost(b1.bars[li], b2.bars[rj]))
                elif li is not None:
                    worst = max(worst, b1.bars[li].half_length())
                elif rj is not None:
                    worst = max(worst, b2.bars[rj].half_length())
            assert worst == fast
            assert seen_l == set(range(len(b1.bars)))
            assert seen_r == set(range(len(b2.bars)))


def test_graded_agrees_with_graded_oracle():
    rng = random.Random(18)
    for _ in range(60):
        b1 = random_barcode(rng, max_bars=3, max_points=4)
        b2 = random_barcode(rng, max_bars=3, max_points=4)
        fast, _ = bottleneck_distance(b1, b2, graded=True)
        slow = exhaustive_bottleneck(b1, b2, graded=True)
        assert fast == slow
        ungraded, _ = bottleneck_distance(b1, b2)
        assert not (fast < ungraded)


def test_symmetry_and_triangle():
    rng = random.Random(19)
    for _ in range(100):
        b1 = random_barcode(rng, max_bars=4, max_points=4)
        b2 = random_barcode(rng, max_bars=4, max_points=4)
        b3 = random_barcode(rng, max_bars=4, max_points=4)
        d12, _ = bottleneck_distance(b1, b2)
        d21, _ = bottleneck_distance(b2, b1)
        assert d12 == d21
        d13, _ = bottleneck_distance(b1, b3)
        d23, _ = bottleneck_distance(b2, b3)
        if d12.is_finite and d23.is_finite:
            assert not (d12 + d23 < d13)


def test_zero_distance_means_equal_bars():
    rng = random.Random(23)
    for _ in range(60):
        b1 = random_barcode(rng, max_bars=4, max_points=4)
        b2 = random_barcode(rng, max_bars=4, max_points=4)
        d, _ = bottleneck_distance(b1, b2)
        assert (d == ZERO) == b1.same_bars(b2)


def only_parity(b, parity):
    return Barcode(b.spectrum, tuple(bar for bar in b.bars if bar.parity == parity))


def reference_feasibility(b1, b2, graded=False):
    """Feasibility of a matching of cost <= delta, as a predicate on delta,
    by the split-and-sort formulation: each parity on its own when graded,
    the infinite bars of each kind paired in sorted order, and the finite
    bars by a perfect matching probed with Fraction comparisons."""
    if graded:
        parts = [reference_feasibility(only_parity(b1, p), only_parity(b2, p))
                 for p in (0, 1)]
        return lambda delta: all(part(delta) for part in parts)

    def kinds(b):
        out = {}
        for bar in b.bars:
            out.setdefault((bar.birth.is_neg_inf, bar.death.is_pos_inf), []).append(bar)
        return out

    kinds1, kinds2 = kinds(b1), kinds(b2)
    worst = ZERO
    for kind in ((True, True), (True, False), (False, True)):
        xs, ys = kinds1.get(kind, []), kinds2.get(kind, [])
        if len(xs) != len(ys):
            return lambda delta: delta.is_pos_inf
        key = Bar.sort_key if kind != (True, False) else (lambda bar: bar.death)
        for a, b in zip(sorted(xs, key=key), sorted(ys, key=key)):
            worst = max(worst, bar_cost(a, b))
    left, right = kinds1.get((False, False), []), kinds2.get((False, False), [])
    n1, n2 = len(left), len(right)
    costs = [[bar_cost(a, b) for b in right] for a in left]

    def feasible(delta):
        if delta < worst:
            return False
        adj = [[j for j, c in enumerate(row) if not (delta < c)]
               + ([n2 + i] if not (delta < a.half_length()) else [])
               for i, (a, row) in enumerate(zip(left, costs))]
        adj += [([j] if not (delta < b.half_length()) else []) + list(range(n2, n2 + n1))
                for j, b in enumerate(right)]
        return recursive_max_bipartite(n1 + n2, n1 + n2, adj)[0] == n1 + n2

    return feasible


def reference_bottleneck(b1, b2, feasible):
    """Least candidate (endpoint gap or half-length) at which the predicate
    holds, by binary search; +inf when none does."""
    candidates = {ZERO} | {bar.half_length() for bar in b1.bars + b2.bars}
    for end in ("birth", "death"):
        ends1 = {getattr(bar, end) for bar in b1.bars}
        ends2 = {getattr(bar, end) for bar in b2.bars}
        candidates |= {endpoint_gap(x, y) for x in ends1 for y in ends2}
    grid = sorted(c for c in candidates if c.is_finite) + [POS_INF]
    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return grid[lo]


def wide_barcode(rng, n_bars, spectrum, infinite_kinds):
    """n_bars bars on the spectrum: the given (birth, death) infinite kinds,
    the rest finite, with random parities and finite ends."""
    points = spectrum.points
    bars = []
    for birth_inf, death_inf in infinite_kinds:
        birth = NEG_INF if birth_inf else rng.choice(points)
        death = POS_INF if death_inf else rng.choice(points)
        bars.append(Bar(birth, death, rng.randint(0, 1)))
    while len(bars) < n_bars:
        i = rng.randrange(len(points) - 1)
        j = rng.randrange(i + 1, len(points))
        bars.append(Bar(points[i], points[j], rng.randint(0, 1)))
    return Barcode(spectrum, tuple(bars))


def witness_cost(b1, b2, matching, graded):
    """Cost of a witness, checking that it covers every bar exactly once."""
    lefts = [li for li, _ in matching.pairs if li is not None]
    rights = [rj for _, rj in matching.pairs if rj is not None]
    assert sorted(lefts) == list(range(len(b1.bars)))
    assert sorted(rights) == list(range(len(b2.bars)))
    worst = ZERO
    for li, rj in matching.pairs:
        if li is None:
            cost = b2.bars[rj].half_length()
        elif rj is None:
            cost = b1.bars[li].half_length()
        elif graded and b1.bars[li].parity != b2.bars[rj].parity:
            cost = POS_INF
        else:
            cost = bar_cost(b1.bars[li], b2.bars[rj])
        worst = max(worst, cost)
    return worst


def test_agrees_with_split_and_sort_reference_on_wide_barcodes():
    # 10 to 60 bars a side, too many for the exhaustive oracle; most pairs
    # share their infinite kinds, the rest may not, so both the finite
    # search and the +inf refusal are exercised, graded and ungraded.  The
    # reference's feasibility must also switch on exactly at the distance.
    rng = random.Random(53)
    kinds = [(True, False), (False, True), (True, True)]
    finite = 0
    for trial in range(200):
        sp = random_spectrum(rng, max_points=12, min_points=3)
        inf1 = [rng.choice(kinds) for _ in range(rng.randint(0, 4))]
        inf2 = list(inf1) if trial % 4 else [rng.choice(kinds) for _ in range(len(inf1))]
        b1 = wide_barcode(rng, rng.randint(10, 60), sp, inf1)
        b2 = wide_barcode(rng, rng.randint(10, 60), sp, inf2)
        for graded in (False, True):
            d, matching = bottleneck_distance(b1, b2, graded=graded)
            feasible = reference_feasibility(b1, b2, graded=graded)
            assert d == reference_bottleneck(b1, b2, feasible), (trial, graded)
            grid = sorted({ZERO, rational(1, 2), rational(1), rational(2), d})
            assert [feasible(g) for g in grid] == [not (g < d) for g in grid]
            if matching is None:
                assert d == POS_INF
                continue
            finite += 1
            assert witness_cost(b1, b2, matching, graded) == d
    assert finite > 200


def assert_agrees_on_drawn_spectra(rng, draw_point, trials, min_finite):
    """Split-and-sort reference against bottleneck_distance on spectra of 3
    to 12 points from draw_point(), with up to two infinite bars of shared
    kinds a side, graded and ungraded."""
    kinds = [(True, False), (False, True), (True, True)]
    finite = 0
    for trial in range(trials):
        n_points, points = rng.randint(3, 12), set()
        while len(points) < n_points:
            points.add(draw_point())
        points = sorted(Scalar(p) for p in points)
        sp = Spectrum(tuple(points), points[0], points[-1])
        inf1 = [rng.choice(kinds) for _ in range(rng.randint(0, 2))]
        b1 = wide_barcode(rng, rng.randint(3, 20), sp, inf1)
        b2 = wide_barcode(rng, rng.randint(3, 20), sp, list(inf1))
        for graded in (False, True):
            d, matching = bottleneck_distance(b1, b2, graded=graded)
            feasible = reference_feasibility(b1, b2, graded=graded)
            assert d == reference_bottleneck(b1, b2, feasible), (trial, graded)
            if matching is not None:
                finite += 1
                assert witness_cost(b1, b2, matching, graded) == d
    assert finite > min_finite


def test_agrees_with_split_and_sort_reference_on_coprime_denominators():
    # endpoints are multiples of 1393/985, 99/70 and 1/7, so the int
    # coordinates scale by twice a large lcm and half-lengths fall on the
    # 1/(2q) lattice between the endpoint gaps
    rng = random.Random(59)
    units = [Fraction(1393, 985), Fraction(99, 70), Fraction(1, 7)]
    assert_agrees_on_drawn_spectra(
        rng, lambda: rng.choice(units) * rng.randint(0, 30), 60, 80)


def test_infinite_cost_bound_with_negative_endpoints():
    # the infinite bars are 14 apart, while every endpoint is at most 7 from
    # 0: +inf must stay above every finite cost, negative endpoints included
    sp = Spectrum.of([-7, -6, 6, 7], -7, 7)
    b1 = Barcode(sp, (Bar(rational(-7), POS_INF, 0), Bar.of(-7, -6)))
    b2 = Barcode(sp, (Bar(rational(7), POS_INF, 0), Bar.of(6, 7)))
    for graded in (False, True):
        d, matching = bottleneck_distance(b1, b2, graded=graded)
        assert d == rational(14) == exhaustive_bottleneck(b1, b2, graded=graded)
        assert witness_cost(b1, b2, matching, graded) == d


def test_exhaustive_bottleneck_refuses_ten_bars_before_enumerating(monkeypatch):
    # 5 + 5 bars pad to 10! > 500,000 bijections: refused before the first
    def refuse(*args):
        raise AssertionError("the matchings were enumerated")

    monkeypatch.setattr(oracles, "permutations", refuse)
    sp = Spectrum.of(list(range(6)), 0, 10)
    b = Barcode(sp, tuple(Bar.of(i, i + 1) for i in range(5)))
    with pytest.raises(TooLargeError, match="^matching enumeration bound exceeded$"):
        exhaustive_bottleneck(b, b)


def test_agrees_with_split_and_sort_reference_on_mixed_signs():
    # spectra straddle 0, so endpoint gaps reach twice the largest |endpoint|
    rng = random.Random(67)
    assert_agrees_on_drawn_spectra(
        rng, lambda: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3))), 80, 100)


# -- interleavings ----------------------------------------------------------


def interval_module(spectrum, bars):
    return module_from_barcode(Barcode(spectrum, bars))


def test_interleaving_identity():
    sp = Spectrum.of([0, 1, 2, 3], 0, 3)
    m = interval_module(sp, (Bar.of(0, 2),))
    assert interleaving_distance_bruteforce(m, m) == ZERO
    cert = find_interleaving(m, m, ZERO)
    assert cert is not None and verify_interleaving(cert, m, m) == []


def test_interleaving_shifted_intervals():
    sp = Spectrum.of([0, 1, 2, 3], 0, 3)
    m1 = interval_module(sp, (Bar.of(0, 2),))
    m2 = interval_module(sp, (Bar.of(1, 3),))
    assert interleaving_distance_bruteforce(m1, m2) == rational(1)


def test_interleaving_against_empty():
    sp = Spectrum.of([0, 1, 2, 3], 0, 3)
    m1 = interval_module(sp, (Bar.of(0, 2),))
    m0 = interval_module(sp, ())
    assert interleaving_distance_bruteforce(m1, m0) == rational(1)


def test_interleaving_requires_shared_horizon():
    m1 = interval_module(Spectrum.of([1], 0, 2), ())
    m2 = interval_module(Spectrum.of([1], 0, 3), ())
    with pytest.raises(ValueError):
        interleaving_distance_bruteforce(m1, m2)


def test_interleaving_dimension_bound():
    sp = Spectrum.of([], 0, 1)
    big = SampledModule(sp, (rational(1, 2),), ((5, 0),), ())
    small = SampledModule(sp, (rational(1, 2),), ((0, 0),), ())
    with pytest.raises(TooLargeError):
        interleaving_distance_bruteforce(big, small)


BOUND_MESSAGE = "per-sample total dimension exceeds the enumeration bound (4)"


def test_both_entry_points_refuse_past_the_bound_before_validating():
    # the bound is checked first, so a module past it is refused with the
    # bound's message whether or not it is valid; the invalid one leaves
    # the spectrum point 1 unstraddled
    sp = Spectrum.of([], 0, 1)
    big = SampledModule(sp, (rational(1, 2),), ((5, 0),), ())
    small = SampledModule(sp, (rational(1, 2),), ((0, 0),), ())
    unstraddled = Spectrum.of([1], 0, 2)
    big_invalid = SampledModule(unstraddled, (rational(1, 2),), ((3, 2),), ())
    small_invalid = SampledModule(unstraddled, (rational(1, 2),), ((0, 0),), ())
    for pair in ((big, small), (small, big), (big_invalid, small_invalid)):
        with pytest.raises(TooLargeError, match=re.escape(BOUND_MESSAGE)):
            find_interleaving(*pair, ZERO)
        with pytest.raises(TooLargeError, match=re.escape(BOUND_MESSAGE)):
            interleaving_distance_bruteforce(*pair)


def test_negative_delta_checks_the_modules_first():
    # no delta below 0 interleaves, but the modules are checked at every
    # delta: this one is past the bound (dimension 9) and leaves the
    # spectrum point 1 unstraddled, the next is only invalid
    unstraddled = Spectrum.of([1], 0, 2)
    bad = SampledModule(unstraddled, (rational(1, 2),), ((9, 0),), ())
    invalid = SampledModule(unstraddled, (rational(1, 2),), ((1, 0),), ())
    valid = interval_module(unstraddled, (Bar(NEG_INF, POS_INF, 0),))
    for delta in (rational(-1), NEG_INF):
        with pytest.raises(TooLargeError, match=re.escape(BOUND_MESSAGE)):
            find_interleaving(bad, bad, delta)
        with pytest.raises(InvalidModuleError):
            find_interleaving(invalid, valid, delta)
        assert find_interleaving(valid, valid, delta) is None


def test_entry_points_refuse_invalid_modules_and_modules_without_samples():
    sp = Spectrum.of([1], 0, 2)
    invalid = SampledModule(sp, (rational(1, 2),), ((1, 0),), ())
    valid = interval_module(sp, (Bar(NEG_INF, POS_INF, 0),))
    flat = Spectrum.of([], 0, 2)
    empty = SampledModule(flat, (), (), ())
    one = interval_module(flat, ())
    cert = InterleavingCertificate(ZERO, (), ())
    for bad, good, error, message in (
            (invalid, valid, InvalidModuleError,
             "invalid module: spectrum point 1/1 is not straddled by the samples"),
            (empty, one, InvalidModuleError, "module has no samples")):
        for m1, m2 in ((bad, good), (good, bad)):
            for call in (lambda: find_interleaving(m1, m2, ZERO),
                         lambda: interleaving_distance_bruteforce(m1, m2),
                         lambda: verify_interleaving(cert, m1, m2)):
                with pytest.raises(error) as caught:
                    call()
                assert str(caught.value) == message


def test_search_budget_refusal_names_delta_budget_and_regions(monkeypatch):
    sp = Spectrum.of([1, 2], 0, 3)
    code = Barcode(sp, (Bar.of(NEG_INF, 1), Bar.of(NEG_INF, 2), Bar.of(1, POS_INF, 1)))
    rng = random.Random(157)
    m1, m2 = module_from_barcode(code), scramble(rng, module_from_barcode(code, 2))
    assert find_interleaving(m1, m2, ZERO) is not None
    monkeypatch.setattr(interleaving, "_SEARCH_BUDGET", 3)
    with pytest.raises(TooLargeError) as caught:
        find_interleaving(m1, m2, rational(1, 4))
    assert str(caught.value) == (
        "interleaving search budget exhausted at delta 1/4: 3 F candidates "
        "tried between modules of 3 and 3 regions")


def refutation_pair(P, s):
    """Modules of two barcodes on the integer spectrum 0..P-1 with at most
    3 bars over any unit step; the second moves one death a point earlier."""
    rng = random.Random(f"{P}/{s}")
    cover = [0] * (P - 1)
    bars = []
    for _ in range(2 * P):
        i = rng.randrange(P - 1)
        j = rng.randrange(i + 1, min(P, i + 1 + rng.choice([1, 2, 4, P])))
        if max(cover[i:j]) >= 3:
            continue
        for u in range(i, j):
            cover[u] += 1
        bars.append((i, j, rng.randint(0, 1)))
    moved = list(bars)
    k = rng.randrange(len(bars))
    i, j, parity = bars[k]
    moved[k] = (i, max(i + 1, j - 1), parity)
    sp = Spectrum.of(list(range(P)), 0, P - 1)
    return tuple(module_from_barcode(Barcode(sp, tuple(Bar.of(*bar) for bar in code)))
                 for code in (bars, moved))


@pytest.mark.parametrize("P, s, tried", [(12, 3, 4121), (14, 3, 4593), (18, 9, 2601),
                                         (20, 11, 2184)])
def test_search_budget_counts_each_f_candidate(monkeypatch, P, s, tried):
    # refuting delta 1/2, below these pairs' distance 1, takes exactly
    # `tried` F candidates in the search that exhausts first: a budget of
    # that many refuses, and one more answers.  Every point cuts both
    # modules, into P + 1 regions
    m1, m2 = refutation_pair(P, s)
    monkeypatch.setattr(interleaving, "_SEARCH_BUDGET", tried)
    with pytest.raises(TooLargeError) as caught:
        find_interleaving(m1, m2, rational(1, 2))
    assert str(caught.value) == (
        f"interleaving search budget exhausted at delta 1/2: {tried} F candidates "
        f"tried between modules of {P + 1} and {P + 1} regions")
    monkeypatch.setattr(interleaving, "_SEARCH_BUDGET", tried + 1)
    assert find_interleaving(m1, m2, rational(1, 2)) is None
    assert bottleneck_distance(decompose(m1), decompose(m2), graded=True)[0] == rational(1)


def test_search_builds_no_matrix_per_f_candidate(monkeypatch):
    # the search holds its maps as row ints: no transpose anywhere in it,
    # and a refutation builds no matrix at all, whether cut after 100 F
    # candidates, after all it tries, or run to its None
    def refuse(self):
        raise AssertionError("the search transposed a matrix")

    monkeypatch.setattr(Gf2Matrix, "transpose", refuse)
    rng = random.Random("row ints")
    found = Counter()
    for s in range(12):
        sp = random_spectrum(rng, max_points=4, min_points=2)
        m = random_module(rng, max_dim=2, spectrum=sp)
        other = (m, random_module(rng, max_dim=2, spectrum=sp))[s % 2]
        m1, m2 = scramble(rng, m), scramble(rng, other)
        for delta in candidate_deltas(m1, m2):
            cert = find_interleaving(m1, m2, delta)
            assert cert is None or verify_interleaving(cert, m1, m2) == []
            found[cert is None] += 1
        interleaving_distance_bruteforce(m1, m2)
    assert found[True] and found[False], found

    built = []
    unchecked = Gf2Matrix._unchecked

    def counted(cls, rows, ncols):
        built.append(ncols)
        return unchecked(rows, ncols)

    monkeypatch.setattr(Gf2Matrix, "_unchecked", classmethod(counted))
    full = interleaving._SEARCH_BUDGET
    for P, s, tried in [(12, 3, 4121), (18, 9, 2601), (20, 11, 2184)]:
        m1, m2 = refutation_pair(P, s)
        counts = []
        for budget in (100, tried, full):
            monkeypatch.setattr(interleaving, "_SEARCH_BUDGET", budget)
            built.clear()
            if budget < full:
                with pytest.raises(TooLargeError):
                    find_interleaving(m1, m2, rational(1, 2))
            else:
                assert find_interleaving(m1, m2, rational(1, 2)) is None
            counts.append(len(built))
        assert counts == [0, 0, 0], (P, s, counts)


def test_interleaving_feasibility_monotone():
    rng = random.Random(31)
    for _ in range(25):
        sp = random_spectrum(rng, max_points=3)
        m1 = random_module(rng, max_dim=2, spectrum=sp)
        m2 = random_module(rng, max_dim=2, spectrum=sp)
        grid = candidate_deltas(m1, m2)
        state = [find_interleaving(m1, m2, g) is not None for g in grid]
        assert state == sorted(state)


def test_isometry_on_random_pairs():
    rng = random.Random(37)
    for _ in range(60):
        sp = random_spectrum(rng, max_points=4)
        m1 = random_module(rng, max_dim=2, spectrum=sp)
        m2 = random_module(rng, max_dim=2, spectrum=sp)
        graded, _ = bottleneck_distance(decompose(m1), decompose(m2), graded=True)
        assert interleaving_distance_bruteforce(m1, m2) == graded


def test_search_certificates_verify():
    rng = random.Random(41)
    for _ in range(30):
        sp = random_spectrum(rng, max_points=3)
        m1 = random_module(rng, max_dim=2, spectrum=sp)
        m2 = random_module(rng, max_dim=2, spectrum=sp)
        d = interleaving_distance_bruteforce(m1, m2)
        if not d.is_finite:
            continue
        cert = find_interleaving(m1, m2, d)
        assert cert is not None
        assert verify_interleaving(cert, m1, m2) == []


def test_zero_cert_between_constant_modules_fails():
    sp = Spectrum.of([1], 0, 2)
    m = interval_module(sp, (Bar(NEG_INF, POS_INF, 0),))
    zero = Gf2Matrix.zeros(1, 1)
    none = Gf2Matrix.identity(0)
    cert = InterleavingCertificate(
        ZERO,
        tuple((zero, none) for _ in range(2)),
        tuple((zero, none) for _ in range(2)))
    issues = verify_interleaving(cert, m, m)
    assert issues and all("2-delta" in i for i in issues)


def test_certificate_shape_mismatch():
    sp = Spectrum.of([1], 0, 2)
    m = interval_module(sp, (Bar(NEG_INF, POS_INF, 0),))
    cert = InterleavingCertificate(
        ZERO,
        tuple((Gf2Matrix.identity(2), Gf2Matrix.identity(0)) for _ in range(2)),
        tuple((Gf2Matrix.identity(1), Gf2Matrix.identity(0)) for _ in range(2)))
    with pytest.raises(ShapeMismatchError):
        verify_interleaving(cert, m, m)
    # a bar of each parity over the cut at 1: two regions of dimensions
    # (1, 1); the first wrong shape in the check's order is the one named,
    # parity outer, forward maps before backward ones
    m = interval_module(sp, (Bar(NEG_INF, POS_INF, 0), Bar(NEG_INF, POS_INF, 1)))
    cert = find_interleaving(m, m, ZERO)
    assert cert is not None and verify_interleaving(cert, m, m) == []
    wide = Gf2Matrix.identity(2)

    def replaced(maps, r, parity):
        pair = list(maps[r])
        pair[parity] = wide
        return maps[:r] + (tuple(pair),) + maps[r + 1:]

    cases = [
        (replaced(cert.forward_maps, 1, 1), cert.backward_maps,
         "forward map at region 1 parity 1 has shape (2, 2), expected (1, 1)"),
        (cert.forward_maps, replaced(cert.backward_maps, 1, 1),
         "backward map at region 1 parity 1 has shape (2, 2), expected (1, 1)"),
        (replaced(cert.forward_maps, 1, 1), replaced(cert.backward_maps, 1, 0),
         "backward map at region 1 parity 0 has shape (2, 2), expected (1, 1)"),
        (cert.forward_maps, cert.backward_maps + cert.backward_maps[:1],
         "certificate map count does not match the regions"),
        (cert.forward_maps[:1], cert.backward_maps,
         "certificate map count does not match the regions"),
    ]
    for fwd, bwd, message in cases:
        with pytest.raises(ShapeMismatchError) as caught:
            verify_interleaving(InterleavingCertificate(ZERO, fwd, bwd), m, m)
        assert str(caught.value) == message


def test_interleaving_backward_squares_on_unequal_dimensions():
    # The backward naturality equations once summed over the wrong module's
    # dimension; wherever d2[t] != d1[psi[t]] the search then refuted
    # interleavings that exist (here it answered 3/2).
    sp = Spectrum.of(["8/3", 5, "23/3", 8], 0, 9)
    one = Barcode(sp, (Bar.of("8/3", 5), Bar.of("8/3", 8), Bar.of(5, "23/3")))
    other = Barcode(sp, (Bar.of("8/3", 8), Bar.of(5, "23/3")))
    graded, _ = bottleneck_distance(one, other, graded=True)
    assert graded == rational(7, 6)
    m1, m2 = module_from_barcode(one), module_from_barcode(other)
    assert interleaving_distance_bruteforce(m1, m2) == graded
    cert = find_interleaving(m1, m2, graded)
    assert cert is not None and verify_interleaving(cert, m1, m2) == []


def test_interleaving_equals_graded_bottleneck_on_scrambled_pairs():
    # half the pairs are one barcode in two random bases, the rest keep the
    # infinite bars and redraw the finite ones; three or four bars make the
    # dimensions of the regions differ
    rng = random.Random(43)
    for k in range(30):
        one = random_barcode(rng, max_bars=4, max_points=8)
        while len(one.bars) < 3:
            one = random_barcode(rng, max_bars=4, max_points=8)
        points = one.spectrum.points
        other = one
        if k % 2 and len(points) >= 2:
            bars = [b for b in one.bars if not b.is_finite]
            while len(bars) < rng.randint(0, 4):
                i = rng.randrange(len(points) - 1)
                j = rng.randrange(i + 1, len(points))
                bars.append(Bar(points[i], points[j], rng.randint(0, 1)))
            other = Barcode(one.spectrum, tuple(bars))
        m1 = scramble(rng, module_from_barcode(one))
        m2 = scramble(rng, module_from_barcode(other))
        graded, _ = bottleneck_distance(one, other, graded=True)
        assert interleaving_distance_bruteforce(m1, m2) == graded


def test_interleaving_on_400_regions():
    # the search once recursed once per region and overflowed the stack here
    sp = Spectrum.of(list(range(400)), 0, 399)
    one = Barcode(sp, (Bar.of(0, 399, 0), Bar.of(1, 3, 1)))
    other = Barcode(sp, (Bar.of(1, 399, 0), Bar.of(1, 2, 1)))
    m1, m2 = module_from_barcode(one), module_from_barcode(other)
    graded, _ = bottleneck_distance(one, other, graded=True)
    assert graded == rational(1)
    cert = find_interleaving(m1, m2, graded)
    assert cert is not None and verify_interleaving(cert, m1, m2) == []
    assert find_interleaving(m1, m2, rational(1, 2)) is None


def test_isometry_on_the_paper_pair_at_horizon_100():
    # E(1, 1393/985) against E(1, 99/70): one bar per spectrum gap, so the
    # bar-tracking modules have dimension at most 1 at every sample and
    # about 170 regions each.  Both routes give 1/197; the certificate at
    # it verifies, and the search refutes the next lower candidate, so no
    # smaller delta interleaves (the shift tables change only at
    # candidates)
    b1, b2 = (ellipsoid_barcode(EllipsoidParams.of(["1", axis], 100))
              for axis in ("1393/985", "99/70"))
    m1, m2 = module_from_barcode(b1), module_from_barcode(b2)
    assert max(d0 + d1 for m in (m1, m2) for d0, d1 in m.dims) == 1
    graded, _ = bottleneck_distance(b1, b2, graded=True)
    assert graded == rational(1, 197) == interleaving_distance_bruteforce(m1, m2)
    cert = find_interleaving(m1, m2, graded)
    assert cert is not None and verify_interleaving(cert, m1, m2) == []
    regions1, regions2 = _Regions(m1), _Regions(m2)
    coords = Coords(regions1.cuts + regions2.cuts)
    cuts1 = [coords.of(c) for c in regions1.cuts]
    cuts2 = [coords.of(c) for c in regions2.cuts]
    gaps = {b - a for a, b in product(cuts1, cuts2)} | {b - a for a, b in product(cuts2, cuts1)}
    halves = {(b - a) // 2 for cuts in (cuts1, cuts2) for a, b in product(cuts, cuts)}
    candidates = sorted(n for n in gaps | halves | {0} if n >= 0)
    at = candidates.index(coords.of(graded))
    assert coords.scalar(candidates[at]) == graded and at > 0
    assert find_interleaving(m1, m2, coords.scalar(candidates[at - 1])) is None


def dense_region_pair(n_points):
    """Two modules over n_points random points k/q with q < 10**4, one
    short and one long bar each, as in test_interleaving_on_400_regions."""
    rng = random.Random(f"dense regions/{n_points}")
    points = set()
    while len(points) < n_points:
        q = rng.randrange(1, 10 ** 4)
        points.add(Fraction(rng.randrange(100 * q), q))
    pts = tuple(Scalar(p) for p in sorted(points))
    sp = Spectrum(pts, rational(0), rational(100))
    one = Barcode(sp, (Bar(pts[0], pts[-1], 0), Bar(pts[1], pts[3], 1)))
    other = Barcode(sp, (Bar(pts[1], pts[-1], 0), Bar(pts[1], pts[2], 1)))
    return module_from_barcode(one), module_from_barcode(other)


def test_dense_550_point_pair_gives_the_graded_distance():
    # 552 values at a 2,318-bit scale: about 300,000 gaps and halves, which
    # the search selects among without listing them
    m1, m2 = dense_region_pair(550)
    graded, _ = bottleneck_distance(decompose(m1), decompose(m2), graded=True)
    assert graded > ZERO
    assert interleaving_distance_bruteforce(m1, m2) == graded


def least_over_candidate_deltas(m1, m2):
    """The least of candidate_deltas admitting an interleaving, by binary
    search, and the number of deltas probed."""
    grid = candidate_deltas(m1, m2)
    lo, hi, best, probes = 0, len(grid) - 1, POS_INF, 0
    while lo <= hi:
        mid, probes = (lo + hi) // 2, probes + 1
        if find_interleaving(m1, m2, grid[mid]) is None:
            lo = mid + 1
        else:
            hi, best = mid - 1, grid[mid]
    return best, probes


def test_interleaving_distance_matches_the_candidate_grid_search(monkeypatch):
    # seeded pairs on one spectrum, 30 % of them one module in two bases:
    # the same delta as a binary search over every gap and half-gap, with
    # no more probes in total
    probes = []
    certificate = interleaving._certificate

    def counted(regions1, regions2, delta):
        probes.append(delta)
        return certificate(regions1, regions2, delta)

    monkeypatch.setattr(interleaving, "_certificate", counted)
    rng = random.Random(67)
    reference_probes = search_probes = 0
    for _ in range(150):
        sp = random_spectrum(rng, max_points=rng.randint(1, 4))
        m1 = random_module(rng, max_dim=2, spectrum=sp, density=rng.randint(1, 3))
        if rng.random() < 0.3:
            m2 = scramble(rng, m1)
        else:
            m2 = random_module(rng, max_dim=2, spectrum=sp, density=rng.randint(1, 3))
        want, count = least_over_candidate_deltas(m1, m2)
        reference_probes += count
        del probes[:]
        assert interleaving_distance_bruteforce(m1, m2) == want
        search_probes += len(probes)
    assert search_probes <= reference_probes


def test_interleaving_of_modules_without_cuts():
    # a spectrum without points: each module has one region and the search
    # has no gap to select, so 0 is its only candidate
    sp = Spectrum.of([], 0, 3)
    samples = (rational(1, 2),)
    zero = SampledModule(sp, samples, ((0, 0),), ())
    one = SampledModule(sp, samples, ((1, 0),), ())
    assert _Regions(one).cuts == () and _Regions(zero).cuts == ()
    assert interleaving_distance_bruteforce(one, one) == ZERO
    assert interleaving_distance_bruteforce(zero, zero) == ZERO
    assert interleaving_distance_bruteforce(one, zero) == POS_INF


def test_search_backs_out_of_later_regions():
    # one barcode in two random bases: at delta = 2 the search takes F maps
    # in early regions that dead-end further along the chain, so it must
    # unwind those regions before the certificate it returns is consistent
    sp = Spectrum.of([3, 5, "23/3", "26/3", 10], 3, 10)
    code = Barcode(sp, (Bar.of(3, "23/3"), Bar.of(5, 10)))
    rng = random.Random(1241)
    m1 = scramble(rng, module_from_barcode(code))
    m2 = scramble(rng, module_from_barcode(code))
    for delta in candidate_deltas(m1, m2):
        cert = find_interleaving(m1, m2, delta)
        assert cert is not None and verify_interleaving(cert, m1, m2) == [], delta


def test_verify_interleaving_reports_each_family(monkeypatch):
    # the bar (1, 3) lives in the middle regions 1 and 2; a zero map at
    # region 1 breaks its square and both 2-delta composites there.  The
    # check stays independent of the search: it takes every composite from
    # persistence.composite_map, none from the tables of _Regions.comp.
    sp = Spectrum.of([1, 2, 3], 0, 3)
    m = interval_module(sp, (Bar.of(1, 3),))
    cert = find_interleaving(m, m, ZERO)

    def refuse(self, a, b, parity):
        raise AssertionError("verify_interleaving read _Regions.comp")

    monkeypatch.setattr(_Regions, "comp", refuse)
    assert cert is not None and verify_interleaving(cert, m, m) == []
    for which, square in (("forward_maps", "forward"), ("backward_maps", "backward")):
        maps = list(getattr(cert, which))
        even, odd = maps[1]
        maps[1] = (Gf2Matrix.zeros(*even.shape), odd)
        broken = InterleavingCertificate(**{
            "delta": cert.delta, "forward_maps": cert.forward_maps,
            "backward_maps": cert.backward_maps, which: tuple(maps)})
        assert verify_interleaving(broken, m, m) == [
            f"{square} square at regions 1->2 parity 0",
            "2-delta composite through module 2 at region 1 parity 0",
            "2-delta composite through module 1 at region 1 parity 0"]


def gap_walk_regions(m):
    """The region cuts and representative samples as the search first
    read them: the first spectrum point of each sample gap that holds one,
    and the sample just after that gap, with sample 0 for region 0."""
    below, points = _valid_placement(m), m.spectrum.points
    cuts, reps = [], [0]
    for i in range(m.n_samples - 1):
        between = points[below[i]:below[i + 1]]
        if between:
            cuts.append(between[0])
            reps.append(i + 1)
    return tuple(cuts), tuple(reps)


def test_regions_are_the_spectrum_gaps():
    # a valid module straddles every spectrum point, each alone in its gap:
    # the cuts are the spectrum's points, and each gap walk finds the same
    # representatives.  random_module runs at densities 1-3 over 0-8
    # points; every random_barcode has a point on a horizon end, where
    # _sample_positions pads the outer sample past it
    rng = random.Random(89)
    seen = Counter()
    for k in range(90):
        if k % 2:
            sp = random_spectrum(rng, max_points=8)
            m = random_module(rng, max_dim=3, spectrum=sp, density=1 + k % 3)
        else:
            m = module_from_barcode(random_barcode(rng, max_bars=5, max_points=8),
                                    1 + k % 3)
        for module in (m, scramble(rng, m)):
            regions = _Regions(module)
            assert regions.cuts == module.spectrum.points
            assert (regions.cuts, regions.reps) == gap_walk_regions(module)
            assert regions.n == len(regions.reps) == len(regions.cuts) + 1
            assert regions.dims == tuple(module.dims[i] for i in regions.reps)
            seen[len(regions.cuts)] += 1
    assert set(seen) == set(range(9)), seen


def test_region_tables_equal_the_reference_composites():
    # density 2 and 3 put several samples in a region, so a region step is
    # itself a product of structure maps; nine regions or more build level 3
    # of the table.  Spans are asked in random order, so levels grow from
    # whichever span comes first.  Spans outside the regions, the one-step
    # ones among them, are refused before and after the table is built.
    rng = random.Random(83)
    for k in range(12):
        sp = random_spectrum(rng, max_points=12, min_points=8)
        m = random_module(rng, max_dim=4, spectrum=sp, density=1 + k % 3)
        regions = _Regions(m)
        assert regions.n >= 9
        outside = [(a, b, parity) for a, b in ((1, 0), (-1, 0), (0, regions.n),
                                               (regions.n - 1, regions.n))
                   for parity in (0, 1)]
        spans = [(a, b, parity) for a in range(regions.n)
                 for b in range(a, regions.n) for parity in (0, 1)]
        rng.shuffle(spans)
        for a, b, parity in outside + spans + outside:
            if (a, b, parity) in outside:
                with pytest.raises(IndexOutOfRangeError):
                    regions.comp(a, b, parity)
            else:
                want = composite_map(m, regions.reps[a], regions.reps[b], parity)
                assert regions.comp(a, b, parity) == want.rows, (a, b, parity)


def test_each_op_places_each_module_once(monkeypatch):
    # decompose, the search and its check read one stored placement per
    # module: the merge that places the samples runs once per module
    rng = random.Random(85)
    code = random_barcode(rng, max_bars=6, max_points=5)
    m1, m2 = scramble(rng, module_from_barcode(code)), scramble(rng, module_from_barcode(code))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return count_below(*args, **kwargs)

    count_below = persistence._count_below
    monkeypatch.setattr(persistence, "_count_below", counted)
    b1, b2 = decompose(m1), decompose(m2)
    cert = find_interleaving(m1, m2, ZERO)
    assert b1.bars == b2.bars and cert is not None
    assert verify_interleaving(cert, m1, m2) == []
    assert calls == [m1.samples, m2.samples]


def test_distance_builds_each_region_step_once(monkeypatch):
    # the search reads its composites from the lifted tables, whose level 0
    # holds the region steps: each is built once per module and parity
    sp = Spectrum.of(list(range(400)), 0, 399)
    one = Barcode(sp, (Bar.of(0, 399, 0), Bar.of(1, 3, 1)))
    other = Barcode(sp, (Bar.of(1, 399, 0), Bar.of(1, 2, 1)))
    m1, m2 = module_from_barcode(one), module_from_barcode(other)
    calls = []

    def counted(*args):
        calls.append(args)
        return composite_map(*args)

    monkeypatch.setattr(interleaving, "composite_map", counted)
    assert interleaving_distance_bruteforce(m1, m2) == rational(1)
    steps = _Regions(m1).n - 1
    assert steps == _Regions(m2).n - 1 == 400
    assert len(calls) <= 2 * 2 * steps
    assert len(set(calls)) == len(calls)


# The G equations of the interleaving search as first written: one entry
# loop per constraint, over index ranges taken from the region dimensions
# d1, d2 and the shift table psi.

def parent_g_bit(d1, d2, psi):
    g_offset = []
    n_unknowns = 0
    for t in range(len(d2)):
        g_offset.append(n_unknowns)
        n_unknowns += d1[psi[t]] * d2[t]

    def g_bit(t, i, j):
        return g_offset[t] + i * d2[t] + j
    return g_bit


def parent_backward_chain(g_bit, d1, d2, psi, t, a2, c1x):
    """G[t+1] a2 = c1x G[t]."""
    out = []
    for i in range(d1[psi[t + 1]]):
        for j in range(d2[t]):
            coeffs = 0
            for s in range(d2[t + 1]):
                if a2.entry(s, j):
                    coeffs ^= 1 << g_bit(t + 1, i, s)
            for s in range(d1[psi[t]]):
                if c1x.entry(i, s):
                    coeffs ^= 1 << g_bit(t, s, j)
            out.append((coeffs, 0))
    return out


def parent_e2(g_bit, d1, d2, psi, r, u, phi_r, c1a, fmat, rhs):
    """c1a G[phi_r] fmat = rhs."""
    out = []
    for i in range(d1[u]):
        for j in range(d1[r]):
            coeffs = 0
            for s in range(d1[psi[phi_r]]):
                if not c1a.entry(i, s):
                    continue
                for sp in range(d2[phi_r]):
                    if fmat.entry(sp, j):
                        coeffs ^= 1 << g_bit(phi_r, s, sp)
            out.append((coeffs, rhs.entry(i, j)))
    return out


def parent_e3(g_bit, d1, d2, psi, t, v, c2a, fmat, rhs):
    """c2a fmat G[t] = rhs."""
    proj = c2a @ fmat
    out = []
    for i in range(d2[v]):
        for j in range(d2[t]):
            coeffs = 0
            for sp in range(d1[psi[t]]):
                if proj.entry(i, sp):
                    coeffs ^= 1 << g_bit(t, sp, j)
            out.append((coeffs, rhs.entry(i, j)))
    return out


class RecordingEchelon:
    """Stands in for the search's k = 1 Echelon: keeps every equation
    coeffs << 1 | rhs as (coeffs, rhs), and reduces none to 0 = 1."""

    def __init__(self):
        self.equations = []

    def insert(self, vec):
        self.equations.append((vec >> 1, vec & 1))
        return 0


def factors_of(g, terms):
    """The (spread, cols) factors of _add_identity for the terms (L, t, R)
    of sum(L @ G[t] @ R), with None for an identity L or R: the rows of L
    looked up in spreads[t] and the columns of R as rows of its transpose,
    or G[t]'s own row_bits and units for an identity."""
    return [(g.row_bits[t] if left is None else [g.spreads[t][row] for row in left.rows],
             g.units[t] if right is None else right.transpose().rows)
            for left, t, right in terms]


def terms_of(g, factors):
    """The terms (L, t, R) that the factors (spread, cols) of _add_identity
    stand for, with None where a factor is G[t]'s own row_bits or units
    list, as the search passes an identity.  Otherwise t is the block that
    holds the spread's bits, and the factor is decoded back into matrices;
    a factor whose product is zero adds nothing to any equation and is
    left out."""
    terms = []
    for spread, cols in factors:
        left = right = None
        t = next((t for t, bits in enumerate(g.row_bits) if spread is bits), None)
        if t is None:
            t = next((t for t, unit in enumerate(g.units) if cols is unit), None)
        if t is None:
            if not (any(spread) and any(cols)):
                continue
            first = next(x for x in spread if x)
            t = bisect_right(g.offsets, (first & -first).bit_length() - 1) - 1
        if spread is not g.row_bits[t]:
            left = Gf2Matrix(tuple(sum(1 << s for s, bit in enumerate(g.row_bits[t]) if x & bit)
                                   for x in spread), g.heights[t])
        if cols is not g.units[t]:
            right = Gf2Matrix(tuple(cols), g.widths[t]).transpose()
        terms.append((left, t, right))
    return terms


def test_g_equations_match_entry_loops():
    rng = random.Random(71)

    def mat(nrows, ncols):
        return Gf2Matrix(tuple(rng.randrange(1 << ncols) for _ in range(nrows)), ncols)

    seen = Counter()
    for _ in range(400):
        R1, R2 = rng.randint(1, 4), rng.randint(2, 4)
        d1 = [rng.randint(0, 3) for _ in range(R1)]
        d2 = [rng.randint(0, 3) for _ in range(R2)]
        psi = [rng.randrange(R1) for _ in range(R2)]
        g_bit = parent_g_bit(d1, d2, psi)
        g = _GLayout([d1[p] for p in psi], d2)

        t = rng.randrange(R2 - 1)
        a2, c1x = mat(d2[t + 1], d2[t]), mat(d1[psi[t + 1]], d1[psi[t]])
        cases = [([(None, t + 1, a2), (c1x, t, None)], Gf2Matrix.zeros(d1[psi[t + 1]], d2[t]),
                  parent_backward_chain(g_bit, d1, d2, psi, t, a2, c1x))]
        r, u, phi_r = rng.randrange(R1), rng.randrange(R1), rng.randrange(R2)
        c1a, fmat, rhs = mat(d1[u], d1[psi[phi_r]]), mat(d2[phi_r], d1[r]), mat(d1[u], d1[r])
        cases.append(([(c1a, phi_r, fmat)], rhs,
                      parent_e2(g_bit, d1, d2, psi, r, u, phi_r, c1a, fmat, rhs)))
        t, v, a = rng.randrange(R2), rng.randrange(R2), rng.randrange(R2)
        c2a, fmat, rhs = mat(d2[v], d2[a]), mat(d2[a], d1[psi[t]]), mat(d2[v], d2[t])
        cases.append(([(c2a @ fmat, t, None)], rhs,
                      parent_e3(g_bit, d1, d2, psi, t, v, c2a, fmat, rhs)))

        # decode inverts the parent's unknown ids, and every equation holds
        # exactly where its side of the identity does, at random G maps
        gs = [mat(d1[psi[t]], d2[t]) for t in range(R2)]
        x = sum(1 << g_bit(t, i, j) for t, gm in enumerate(gs)
                for i, row in enumerate(gm.rows) for j in range(gm.ncols) if row >> j & 1)
        assert g.decode(x) == gs
        for terms, rhs, want in cases:
            system = RecordingEchelon()
            assert _add_identity(system, factors_of(g, terms), rhs.rows, rhs.ncols)
            assert system.equations == want
            lhs = Gf2Matrix.zeros(*rhs.shape)
            for left, t, right in terms:
                left = Gf2Matrix.identity(g.heights[t]) if left is None else left
                right = Gf2Matrix.identity(g.widths[t]) if right is None else right
                lhs = Gf2Matrix(tuple(a ^ b for a, b in zip(lhs.rows, (left @ gs[t] @ right).rows)),
                                rhs.ncols)
                seen["zero-width block"] += g.widths[t] == 0
                seen["zero-row factor"] += left.nrows == 0
                seen["zero-column factor"] += right.ncols == 0
            entries = product(range(rhs.nrows), range(rhs.ncols))
            assert [((coeffs & x).bit_count() & 1, bit) for coeffs, bit in system.equations] \
                == [(lhs.entry(i, j), rhs.entry(i, j)) for i, j in entries]
    assert len(seen) == 3 and all(seen.values()), seen


def spread_equations(g, terms, rhs):
    """The equation ints of sum(L @ G[t] @ R for L, t, R in terms) == rhs
    as the search first built them: an explicit identity matrix for every
    None, and each row of L spread over the unknowns of G[t] by a sum of
    row_bits[t][s] over its set bits s."""
    factors = []
    for left, t, right in terms:
        left = Gf2Matrix.identity(g.heights[t]) if left is None else left
        right = Gf2Matrix.identity(g.widths[t]) if right is None else right
        spread = [sum(bit for s, bit in enumerate(g.row_bits[t]) if row >> s & 1)
                  for row in left.rows]
        factors.append((spread, right.transpose().rows))
    out = []
    for i, bits in enumerate(rhs.rows):
        for j in range(rhs.ncols):
            coeffs = 0
            for spread, cols in factors:
                coeffs ^= spread[i] * cols[j]
            out.append(coeffs << 1 | bits >> j & 1)
    return out


# SHA-256 of the equation ints the search inserted, in order, over the
# pairs and deltas of the test below, while it still built every identity
# span as a matrix and spread the rows of a left factor by a sum
SEARCH_EQUATIONS_DIGEST = "3a1afaf0f72a6c5d19d18696e4ec5c6d1cd69092b91966f7298d4e48660d623d"


def test_search_inserts_the_equations_of_the_spread_formula(monkeypatch):
    # every int _add_identity inserts is the one the sum spread and an
    # explicit identity give, in the same order, and the whole sequence of
    # inserts over every candidate delta is the one pinned above
    recorded = []

    class RecordingSearchEchelon(Echelon):
        """Keeps every equation int the search's k = 1 Echelon is handed."""

        def insert(self, vec):
            if self.k == 1:
                recorded.append(vec)
            return super().insert(vec)

    layouts = []

    class RecordedLayout(_GLayout):
        """Keeps each search's layout, to read the factors it is handed."""

        def __init__(self, heights, widths):
            super().__init__(heights, widths)
            layouts.append(self)

    monkeypatch.setattr(interleaving, "Echelon", RecordingSearchEchelon)
    monkeypatch.setattr(interleaving, "_GLayout", RecordedLayout)
    add_identity = interleaving._add_identity
    calls = Counter()

    def checked(equations, factors, rhs_rows, ncols):
        g = layouts[-1]
        terms, rhs = terms_of(g, factors), Gf2Matrix(tuple(rhs_rows), ncols)
        start = len(recorded)
        consistent = add_identity(equations, factors, rhs_rows, ncols)
        want = spread_equations(g, terms, rhs)
        got = recorded[start:]
        assert got == (want if consistent else want[:len(got)])
        calls["identity terms"] += sum(left is None for left, _, _ in terms)
        calls["calls"] += 1
        return consistent

    monkeypatch.setattr(interleaving, "_add_identity", checked)
    rng = random.Random("search equations")
    for s in range(48):
        sp = random_spectrum(rng, max_points=4, min_points=2)
        m = random_module(rng, max_dim=2, spectrum=sp, density=1 + s % 2)
        other = (m, module_from_barcode(decompose(m)),
                 random_module(rng, max_dim=2, spectrum=sp))[s % 3]
        m1, m2 = scramble(rng, m), scramble(rng, other)
        for delta in candidate_deltas(m1, m2):
            find_interleaving(m1, m2, delta)
    assert calls["calls"] > 4000 and calls["identity terms"] > 1000 \
        and len(recorded) > 4000, (calls, len(recorded))
    digest = hashlib.sha256(" ".join(map(str, recorded)).encode()).hexdigest()
    assert digest == SEARCH_EQUATIONS_DIGEST, (len(recorded), digest)


def recursive_max_bipartite(n_left, n_right, adj):
    """Kuhn's algorithm with the recursive augment it was first written with."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right

    def augment(u, seen):
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    match_l[u] = v
                    return True
        return False

    size = sum(1 for u in range(n_left) if augment(u, [False] * n_right))
    return size, match_l


def kuhn_max_bipartite(n_left, n_right, adj):
    """Kuhn's augmenting path search on an explicit stack, the matcher of
    `bottleneck_distance` before Hopcroft-Karp, kept as the reference."""
    match_l = [-1] * n_left
    match_r = [-1] * n_right

    def augment(root, seen):
        path_u, next_at, path_v = [root], [0], []
        while path_u:
            nbrs = adj[path_u[-1]]
            pos = next_at[-1]
            while pos < len(nbrs) and seen[nbrs[pos]]:
                pos += 1
            if pos == len(nbrs):
                path_u.pop()
                next_at.pop()
                if path_v:
                    path_v.pop()
                continue
            v = nbrs[pos]
            seen[v] = True
            next_at[-1] = pos + 1
            path_v.append(v)
            if match_r[v] == -1:
                for uu, vv in zip(path_u, path_v):
                    match_r[vv] = uu
                    match_l[uu] = vv
                return True
            path_u.append(match_r[v])
            next_at.append(0)
        return False

    size = sum(1 for u in range(n_left) if augment(u, [False] * n_right))
    return size, match_l


def masks(adj):
    """Adjacency lists as the bitmasks `_hopcroft_karp` takes."""
    return [sum(1 << v for v in nbrs) for nbrs in adj]


def assert_matching_of(adj, n_right, match_l, match_r):
    """match_l/match_r describe one matching, of adj edges only; its size."""
    assert len(match_l) == len(adj) and len(match_r) == n_right
    for u, v in enumerate(match_l):
        if v != -1:
            assert v in adj[u] and match_r[v] == u, (u, v)
    for v, u in enumerate(match_r):
        if u != -1:
            assert match_l[u] == v, (u, v)
    used = [v for v in match_l if v != -1]
    assert len(used) == len(set(used))
    return len(used)


def test_hopcroft_karp_matches_kuhn_reference():
    # random graphs of up to 40 vertices a side, dense and sparse, half of
    # them seeded with a random valid partial matching as bottleneck probes
    # are; augmenting never unmatches a vertex, so the seed's vertices stay
    rng = random.Random(47)
    seeded = 0
    for trial in range(400):
        n_left, n_right = rng.randint(0, 40), rng.randint(0, 40)
        density = rng.choice([0.05, 0.15, 0.4, 0.9])
        adj = [[v for v in range(n_right) if rng.random() < density]
               for _ in range(n_left)]
        for nbrs in adj:
            rng.shuffle(nbrs)
        match_l, match_r = [-1] * n_left, [-1] * n_right
        if trial % 2:
            for u in rng.sample(range(n_left), n_left):
                free = [v for v in adj[u] if match_r[v] == -1]
                if free and rng.random() < 0.7:
                    match_l[u] = rng.choice(free)
                    match_r[match_l[u]] = u
            seeded += any(v != -1 for v in match_l)
        before_l = [u for u, v in enumerate(match_l) if v != -1]
        before_r = [v for v, u in enumerate(match_r) if u != -1]
        size = _hopcroft_karp(masks(adj), match_l, match_r)
        assert size == assert_matching_of(adj, n_right, match_l, match_r)
        assert size == kuhn_max_bipartite(n_left, n_right, adj)[0], trial
        assert all(match_l[u] != -1 for u in before_l)
        assert all(match_r[v] != -1 for v in before_r)
        # a maximum matching is a fixed point
        assert _hopcroft_karp(masks(adj), list(match_l), list(match_r)) == size
    assert seeded > 150


def test_hopcroft_karp_long_augmenting_path():
    # every augmenting path of the last vertex runs through all the others,
    # deeper than the interpreter's default recursion limit: from scratch,
    # and from the seed that leaves one augmenting path of 1,500 layers
    n = 1500
    adj = [[u + 1, u] for u in range(n - 1)] + [[n - 1]]
    match_l, match_r = [-1] * n, [-1] * n
    assert _hopcroft_karp(masks(adj), match_l, match_r) == n
    assert match_l == list(range(n))
    match_l = list(range(1, n)) + [-1]
    match_r = [-1] + list(range(n - 1))
    assert _hopcroft_karp(masks(adj), match_l, match_r) == n
    assert match_l == list(range(n))
    assert assert_matching_of(adj, n, match_l, match_r) == n


def padded_graph(b1, b2, twice_c, graded):
    """The padded bottleneck graph at cost twice_c / 2, for bars with int
    endpoints, in doubled coordinates: left bars then ghosts of the right
    bars, right bars then ghosts of the left bars."""
    n1, n2 = len(b1.bars), len(b2.bars)
    ends1 = [(2 * int(b.birth.value), 2 * int(b.death.value), b.parity) for b in b1.bars]
    ends2 = [(2 * int(b.birth.value), 2 * int(b.death.value), b.parity) for b in b2.bars]
    adj = [[j for j, (u, v, q) in enumerate(ends2)
            if (not graded or p == q) and max(abs(x - u), abs(y - v)) <= twice_c]
           + ([n2 + i] if y - x <= 2 * twice_c else [])
           for i, (x, y, p) in enumerate(ends1)]
    adj += [([j] if v - u <= 2 * twice_c else []) + list(range(n2, n1 + n2))
            for j, (u, v, _) in enumerate(ends2)]
    return adj


def test_bottleneck_at_400_bars_a_side():
    # random bars on the integer spectrum 0..100, ungraded and graded: the
    # witness covers every bar once and realizes delta, and the reference
    # matcher finds no perfect matching at the largest candidate below delta
    rng = random.Random(61)
    points = tuple(Scalar(Fraction(i)) for i in range(101))
    sp = Spectrum(points, points[0], points[-1])

    def code():
        bars = []
        for _ in range(400):
            i = rng.randrange(100)
            bars.append(Bar(points[i], points[rng.randrange(i + 1, 101)], rng.randint(0, 1)))
        return Barcode(sp, tuple(bars))

    b1, b2 = code(), code()
    twice = {int(b.death.value - b.birth.value) for b in b1.bars + b2.bars}
    for end in ("birth", "death"):
        ends1 = {int(getattr(b, end).value) for b in b1.bars}
        ends2 = {int(getattr(b, end).value) for b in b2.bars}
        twice |= {2 * abs(x - y) for x in ends1 for y in ends2}
    twice_candidates = sorted(twice | {0})  # doubled half-lengths and gaps
    for graded in (False, True):
        d, matching = bottleneck_distance(b1, b2, graded=graded)
        assert witness_cost(b1, b2, matching, graded) == d
        twice_d = 2 * d.value
        assert twice_d.denominator == 1 and twice_d in twice_candidates and twice_d > 0
        below = twice_candidates[twice_candidates.index(twice_d) - 1]
        adj = padded_graph(b1, b2, below, graded)
        assert kuhn_max_bipartite(800, 800, adj)[0] < 800


def saturates(adj, rows):
    """Whether one matching of the bipartite graph adj (left vertex -> right
    neighbours) covers every left vertex in rows.  Each row in turn looks
    for an augmenting path by breadth-first search; augmenting never
    unmatches a left vertex, so the first row without one decides."""
    owner, mate = {}, {}
    for root in rows:
        parent, queue, end = {}, [root], None
        for u in queue:
            for v in adj[u]:
                if v in parent:
                    continue
                parent[v] = u
                if v not in owner:
                    end = v
                    break
                queue.append(owner[v])
            if end is not None:
                break
        if end is None:
            return False
        while end is not None:
            u = parent[end]
            nxt = mate.get(u)
            owner[end], mate[u] = u, end
            end = nxt
    return True


def matching_exists(ends1, ends2, twice_c, graded):
    """Whether some matching with ghosts costs at most twice_c / 2, for bars
    given as (birth, death, parity) ints.  A bar left to its ghost needs
    length <= twice_c, so the question is whether the real-bar graph has a
    matching covering every longer bar on both sides; by the
    Mendelsohn-Dulmage theorem that holds exactly when one matching covers
    the long left bars and another the long right bars."""
    by_birth = {}
    for j, (u, _, _) in enumerate(ends2):
        by_birth.setdefault(u, []).append(j)
    reach = twice_c // 2
    fwd = {i: [] for i in range(len(ends1))}
    bwd = {j: [] for j in range(len(ends2))}
    for i, (x, y, p) in enumerate(ends1):
        for u in range(x - reach, x + reach + 1):
            for j in by_birth.get(u, ()):
                _, v, q = ends2[j]
                if (not graded or p == q) and 2 * abs(y - v) <= twice_c:
                    fwd[i].append(j)
                    bwd[j].append(i)
    long1 = [i for i, (x, y, _) in enumerate(ends1) if y - x > twice_c]
    long2 = [j for j, (u, v, _) in enumerate(ends2) if v - u > twice_c]
    return saturates(fwd, long1) and saturates(bwd, long2)


def test_bottleneck_at_1000_bars_a_side():
    # drawn as scripts/bottleneck_scaling.py draws them: the witness covers
    # every bar once and realizes delta, and by the Mendelsohn-Dulmage test
    # no matching exists at the largest candidate below delta (but one
    # does at delta)
    rng = random.Random("bottleneck/1000")
    points = tuple(Scalar(Fraction(i)) for i in range(101))
    sp = Spectrum(points, points[0], points[-1])

    def code():
        bars = []
        for _ in range(1000):
            i = rng.randrange(len(points) - 1)
            j = rng.randrange(i + 1, len(points))
            bars.append(Bar(points[i], points[j], rng.randint(0, 1)))
        return Barcode(sp, tuple(bars))

    b1, b2 = code(), code()
    ends1, ends2 = ([(int(b.birth.value), int(b.death.value), b.parity) for b in code.bars]
                    for code in (b1, b2))
    twice = {y - x for x, y, _ in ends1 + ends2} | {0}  # doubled half-lengths
    for end in (0, 1):
        values2 = {e[end] for e in ends2}
        twice |= {2 * abs(x - y) for x in {e[end] for e in ends1} for y in values2}
    for graded in (False, True):
        d, matching = bottleneck_distance(b1, b2, graded=graded)
        assert witness_cost(b1, b2, matching, graded) == d
        twice_d = 2 * d.value
        assert twice_d.denominator == 1 and int(twice_d) in twice and twice_d > 0
        below = max(c for c in twice if c < twice_d)
        assert not matching_exists(ends1, ends2, below, graded), (graded, below)
        assert matching_exists(ends1, ends2, int(twice_d), graded), graded


def first_primes(n):
    found = []
    k = 2
    while len(found) < n:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


def test_bottleneck_probes_candidates_not_bits_on_prime_denominators(monkeypatch):
    # 200 bars a side over 800 points with distinct prime denominators: the
    # scale has thousands of bits, so a bisection of the int threshold would
    # take thousands of probes; the search over the sorted candidates takes
    # one per bit of their count
    rng = random.Random("prime denominators")
    points = tuple(Scalar(Fraction(rng.randrange(100 * q), q)) for q in first_primes(800))
    sp = Spectrum(tuple(sorted(points)), rational(0), rational(100))

    def code():
        bars = []
        for _ in range(200):
            i, j = sorted(rng.sample(range(len(sp.points)), 2))
            bars.append(Bar(sp.points[i], sp.points[j], rng.randint(0, 1)))
        return Barcode(sp, tuple(bars))

    searches = []
    least = Coords.least

    def counted_least(coords, rows, probe):
        probes = []
        found = least(coords, rows, lambda t: probes.append(t) or probe(t))
        candidates = sum(len(cs) * len(xs) for cs, xs, _ in rows)
        searches.append((coords.scale.bit_length(), candidates, len(probes)))
        return found

    monkeypatch.setattr(Coords, "least", counted_least)
    b1, b2 = code(), code()
    for graded in (False, True):
        d, matching = bottleneck_distance(b1, b2, graded=graded)
        assert witness_cost(b1, b2, matching, graded) == d
        bits, candidates, probes = searches[-1]
        assert bits > 5000 and candidates > 15_000
        assert probes <= candidates.bit_length()


# bottleneck_distance as it probed before its prefix-OR windows: an
# n1 x n2 table of pair costs, read in full by every probe.  Kept as the
# reference the windows must reproduce, witness for witness.

def table_bottleneck(b1, b2, graded=False):
    left, right = b1.bars, b2.bars
    n1, n2 = len(left), len(right)
    coords = Coords(end for bar in left + right for end in (bar.birth, bar.death))
    ends1 = _int_bars(left, coords, graded)
    ends2 = _int_bars(right, coords, graded)
    if (Counter(kind for kind, _, _ in ends1 if kind & 3)
            != Counter(kind for kind, _, _ in ends2 if kind & 3)):
        return POS_INF, None
    never = 1 + 2 * max((max(abs(x), abs(y)) for _, x, y in ends1 + ends2), default=0)
    costs = [[max(abs(x - u), abs(y - v)) if kind == other else never
              for other, u, v in ends2] for kind, x, y in ends1]
    halves1 = [never if kind & 3 else (y - x) // 2 for kind, x, y in ends1]
    halves2 = [never if kind & 3 else (y - x) // 2 for kind, x, y in ends2]
    values = sorted(({0} | {c for row in costs for c in row}
                     | set(halves1) | set(halves2)) - {never})
    size = n1 + n2
    ghosts1 = ((1 << n1) - 1) << n2
    match_l, match_r = [-1] * size, [-1] * size

    def probe(t):
        adj = [sum(1 << j for j, c in enumerate(row) if c <= t)
               | (1 << (n2 + i) if halves1[i] <= t else 0)
               for i, row in enumerate(costs)]
        adj += [(1 << g if halves2[g] <= t else 0) | ghosts1 for g in range(n2)]
        for u, v in enumerate(match_l):
            if v != -1 and not adj[u] >> v & 1:
                match_l[u] = match_r[v] = -1
        matched = _hopcroft_karp(adj, match_l, match_r)
        return list(match_l) if matched == size else None

    delta, perfect = coords.least([((0,), values, 1)], probe)
    pairs = [(i, v if v < n2 else None) for i, v in enumerate(perfect[:n1])]
    pairs += [(None, v) for v in perfect[n1:] if v < n2]
    return delta, Matching(tuple(pairs))


def test_windows_give_the_table_reference_witnesses():
    # seeded pairs on integer spectra straddling 0, on rationals, on prime
    # denominators and on one dense spectrum, with -inf-born, undying and
    # doubly infinite bars of both parities beside finite ones that share
    # their finite ends: every (delta, Matching) repr, graded and ungraded,
    # is the table's
    # keyed only never apart, the -inf-born bar ending at 2 would meet the
    # undying bars born at -1 and 2 at a threshold where they may not meet
    sp = Spectrum.of(range(-2, 3), -2, 2)
    b1 = Barcode(sp, (Bar(NEG_INF, rational(-2), 0), Bar(rational(-1), POS_INF, 0),
                      Bar(rational(2), POS_INF, 1)))
    b2 = Barcode(sp, (Bar(NEG_INF, rational(2), 0), Bar(rational(2), POS_INF, 0),
                      Bar(rational(2), POS_INF, 0)))
    assert repr(bottleneck_distance(b1, b2)) == repr(table_bottleneck(b1, b2))
    rng = random.Random("windows")
    kinds = [(True, False), (False, True), (True, True)]
    primes = first_primes(60)
    seen = Counter()
    for trial in range(240):
        shape = trial % 4
        if shape == 0:
            lo = -rng.randint(0, 12)
            sp = Spectrum.of(range(lo, lo + rng.randint(2, 25)), lo, lo + 25)
        elif shape == 1:
            sp = random_spectrum(rng, max_points=10, min_points=2)
        elif shape == 2:
            points = {Scalar(Fraction(rng.randrange(-10 * q, 10 * q), q))
                      for q in rng.sample(primes, rng.randint(2, 20))}
            sp = Spectrum(tuple(sorted(points)), min(points), max(points))
        else:
            sp = Spectrum.of(range(-3, 4), -3, 3)
        n_bars = 60 if shape == 3 else 25
        inf1 = [rng.choice(kinds) for _ in range(rng.randint(0, 5))]
        inf2 = list(inf1) if trial % 5 else [rng.choice(kinds) for _ in range(len(inf1))]
        b1 = wide_barcode(rng, rng.randint(len(inf1), n_bars), sp, inf1)
        b2 = wide_barcode(rng, rng.randint(len(inf2), n_bars), sp, inf2)
        for graded in (False, True):
            got = bottleneck_distance(b1, b2, graded)
            assert repr(got) == repr(table_bottleneck(b1, b2, graded)), (trial, graded)
            seen["finite" if got[1] else "infinite"] += 1
    assert seen["finite"] > 250 and seen["infinite"] > 50, seen


def reference_shift_tables(regions1, regions2, delta):
    """The shift tables in Scalar arithmetic: region r > 0 starts at cut
    r - 1 and lands in the target region right of that cut plus the
    shift; region 0 lands in region 0."""
    def table(src, by, target):
        return [0] + [bisect_right(target.cuts, cut + by) for cut in src.cuts]

    two = delta + delta
    return (table(regions1, delta, regions2), table(regions2, delta, regions1),
            table(regions1, two, regions1), table(regions2, two, regions2))


def search_candidates(regions1, regions2):
    """The nonnegative deltas Coords.least selects among in
    interleaving_distance_bruteforce, in Scalar arithmetic: 0, the gaps
    from a cut of one module to a cut of the other, and half the gaps
    between two cuts of one module."""
    cuts1, cuts2 = regions1.cuts, regions2.cuts
    out = {ZERO}
    out |= {b - a for a, b in product(cuts1, cuts2)} | {b - a for a, b in product(cuts2, cuts1)}
    out |= {(b - a) / 2 for cuts in (cuts1, cuts2) for a, b in product(cuts, cuts)}
    return sorted(d for d in out if ZERO <= d)


def twelfths_spectrum(rng, max_points):
    n_points, points = rng.randint(1, max_points), set()
    while len(points) < n_points:
        q = rng.randint(1, 12)
        points.add(rational(rng.randint(0, 10 * q), q))
    points = sorted(points)
    return Spectrum(tuple(points), rational(0), max(points[-1], rational(10)))


def test_shift_tables_and_candidates_match_scalar_reference():
    # two modules on different spectra with denominators up to 12, probed
    # at every candidate and at deltas off the candidate grid
    rng = random.Random(61)
    for _ in range(40):
        m1 = random_module(rng, max_dim=2, spectrum=twelfths_spectrum(rng, 7),
                           density=rng.choice((1, 2)))
        m2 = random_module(rng, max_dim=2, spectrum=twelfths_spectrum(rng, 7))
        grid = candidate_deltas(m1, m2)
        regions1, regions2 = _Regions(m1), _Regions(m2)
        extra = [ZERO, rational(1, 7), rational(5, 13), rational(-3, 11)]
        for delta in grid + extra:
            assert _shift_tables(regions1, regions2, delta) == \
                reference_shift_tables(regions1, regions2, delta), delta
        # the search's candidates lie on the grid, and the shift tables
        # change only at them: every delta of the grid has the tables of
        # the largest candidate at most delta
        candidates = search_candidates(regions1, regions2)
        assert set(candidates) <= set(grid)
        for delta in grid + extra[1:3]:
            below = candidates[bisect_right(candidates, delta) - 1]
            assert _shift_tables(regions1, regions2, delta) == \
                _shift_tables(regions1, regions2, below), delta


def test_infinite_delta_is_a_domain_error():
    assert issubclass(InfiniteDeltaError, DomainError)
    assert issubclass(InfiniteDeltaError, ValueError)
    sp = Spectrum.of([1, 2], 0, 3)
    m = interval_module(sp, (Bar.of(1, 2),))
    with pytest.raises(InfiniteDeltaError, match="delta must be finite, got inf"):
        find_interleaving(m, m, POS_INF)
    cert = find_interleaving(m, m, ZERO)
    with pytest.raises(InfiniteDeltaError, match="delta must be finite, got inf"):
        verify_interleaving(
            InterleavingCertificate(POS_INF, cert.forward_maps, cert.backward_maps), m, m)
    # a module without cuts refuses it the same way
    flat = interval_module(Spectrum.of([], 0, 3), ())
    with pytest.raises(InfiniteDeltaError):
        find_interleaving(flat, flat, POS_INF)


def test_verify_interleaving_refuses_a_negative_delta_with_one_issue():
    # relabelled to a delta below 0, these maps would give shift tables that
    # run backwards, so the check stops before it builds any
    sp = Spectrum.of([1, 2, 3], 0, 4)
    for bar in (Bar(NEG_INF, POS_INF, 0), Bar.of(1, 3)):
        m = interval_module(sp, (bar,))
        cert = find_interleaving(m, m, ZERO)
        assert verify_interleaving(cert, m, m) == []
        for delta, text in ((rational(-1), "-1/1"), (NEG_INF, "-inf")):
            assert find_interleaving(m, m, delta) is None
            relabelled = InterleavingCertificate(delta, cert.forward_maps, cert.backward_maps)
            assert verify_interleaving(relabelled, m, m) == [f"delta {text} is negative"]
