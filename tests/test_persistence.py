import copy
import pickle
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress

import pytest

from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.errors import (
    DomainError,
    EmptyHorizonError,
    IndexOutOfRangeError,
    InvalidModuleError,
    NonPositiveDensityError,
    NonUniqueSnapError,
    TooLargeError,
)
from contact_barcodes.gf2 import Echelon, Gf2Matrix
from contact_barcodes.interleaving import (
    InterleavingCertificate,
    find_interleaving,
    verify_interleaving,
)
from contact_barcodes.oracles import (
    _make_bar,
    _only_point,
    brute_force_decompose,
    rank_formula_decompose,
)
from contact_barcodes.persistence import (
    MAX_SAMPLE_DIM,
    SampledModule,
    _alive,
    _count_below,
    _placement,
    _sample_positions,
    _valid_placement,
    composite_map,
    decompose,
    module_from_barcode,
    validate_module,
)
from contact_barcodes.random_instances import random_barcode, random_module, scramble
from contact_barcodes.serialization import dumps
from contact_barcodes.scalar import NEG_INF, POS_INF, ZERO, Scalar, rational


def ident(n):
    return Gf2Matrix.identity(n)


def test_spectrum_invariants():
    with pytest.raises(ValueError):
        Spectrum.of([1, 1], 0, 2)          # duplicates
    with pytest.raises(ValueError):
        Spectrum.of([3], 0, 2)             # outside horizon
    with pytest.raises(ValueError):
        Spectrum.of([], 2, 1)              # empty window
    sp = Spectrum.of([1, 2], 0, 3)
    assert rational(1) in sp.points and rational(3, 2) not in sp.points


def test_bar_invariants():
    with pytest.raises(ValueError):
        Bar.of(2, 1)
    with pytest.raises(ValueError):
        Bar(POS_INF, POS_INF, 0)
    with pytest.raises(ValueError):
        Bar.of(0, 1, parity=2)
    b = Bar.of(0, 1)
    assert b.contains(rational(1, 2))
    assert not b.contains(ZERO) and not b.contains(rational(1))  # strict
    assert Bar.of(0, 1, truncated=True) == Bar.of(0, 1)  # flag is metadata


def test_barcode_requires_spectral_endpoints():
    sp = Spectrum.of([0, 1], 0, 1)
    with pytest.raises(ValueError):
        Barcode(sp, (Bar.of(0, rational(1, 2)),))
    code = Barcode(sp, (Bar.of(0, 1), Bar(NEG_INF, POS_INF, 1)))
    assert code.graded_dim_at(rational(1, 2)) == (1, 1)


def test_value_classes_keep_the_dataclass_contract():
    # repr as the dataclass wrote it, truncation as metadata only, the
    # Scalar hash of its one-field tuple, and fields that cannot change
    bar = Bar.of("1", "inf", 1, True)
    assert repr(bar) == \
        "Bar(birth=Scalar(1/1), death=Scalar(inf), parity=1, truncated=True)"
    assert repr(Spectrum.of(["1/2", 1], 0, 2)) == \
        "Spectrum(points=(Scalar(1/2), Scalar(1/1)), lo=Scalar(0/1), hi=Scalar(2/1))"
    assert repr(Gf2Matrix.from_rows([[1, 0], [1, 1]])) == "Gf2Matrix(rows=(1, 3), ncols=2)"
    plain = Bar.of("1", "inf", 1)
    assert plain == bar and hash(plain) == hash(bar)
    assert plain != Bar.of("1", "inf", 0) and plain != (bar.birth, bar.death, 1)
    for s in (rational(3, 7), rational(-2), ZERO, POS_INF, NEG_INF):
        assert hash(s) == hash((s.value,))
    sp = Spectrum.of([1], 0, 2)
    fields = [(bar, "birth"), (bar, "truncated"), (sp, "points"), (rational(1), "value"),
              (Gf2Matrix.identity(2), "rows"), (Barcode(sp, ()), "bars"),
              (SampledModule(sp, (rational(1, 2),), ((1, 0),), ()), "dims")]
    for obj, name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.unknown_field = 0
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert clone == obj and repr(clone) == repr(obj)


def test_validate_trivial_cases():
    sp = Spectrum.of([], 0, 1)
    one = SampledModule(sp, (rational(1, 2),), ((1, 0),), ())
    assert validate_module(one) == []

    sp2 = Spectrum.of([], 0, 2)
    zero_map = SampledModule(
        sp2, (rational(1, 2), rational(3, 2)), ((1, 0), (1, 0)),
        ((Gf2Matrix.zeros(1, 1), ident(0)),))
    issues = validate_module(zero_map)
    assert len(issues) == 1 and "not invertible" in issues[0]


def test_validate_flags_collisions_and_shapes():
    sp = Spectrum.of([1], 0, 2)
    collide = SampledModule(sp, (rational(1), rational(3, 2)),
                            ((0, 0), (0, 0)), ((ident(0), ident(0)),))
    assert any("collides" in i for i in validate_module(collide))
    bad_shape = SampledModule(sp, (rational(1, 2), rational(3, 2)),
                              ((1, 0), (1, 0)), ((ident(2), ident(0)),))
    assert any("shape" in i for i in validate_module(bad_shape))
    unstraddled = SampledModule(sp, (rational(5, 4), rational(3, 2)),
                                ((0, 0), (0, 0)), ((ident(0), ident(0)),))
    assert any("straddled" in i for i in validate_module(unstraddled))
    repeated = SampledModule(sp, (rational(1, 2), rational(1, 2), rational(3, 2)),
                             ((0, 0),) * 3, ((ident(0), ident(0)),) * 2)
    assert validate_module(repeated) == ["samples 0 and 1 are not strictly increasing"]


def test_validator_passes_generator_output():
    rng = random.Random(4)
    for _ in range(50):
        b = random_barcode(rng, max_bars=6, max_points=5)
        m = module_from_barcode(b, grid_density_hint=rng.choice((1, 2)))
        assert validate_module(m) == []


def test_decompose_constant_module():
    sp = Spectrum.of([1], 0, 2)
    m = SampledModule(sp, (rational(1, 2), rational(3, 2)),
                      ((1, 0), (1, 0)), ((ident(1), ident(0)),))
    code = decompose(m)
    assert [(b.birth, b.death, b.parity) for b in code.bars] == \
        [(NEG_INF, POS_INF, 0)]


def test_decompose_zero_map_splits():
    sp = Spectrum.of([1], 0, 2)
    m = SampledModule(sp, (rational(1, 2), rational(3, 2)),
                      ((1, 0), (1, 0)), ((Gf2Matrix.zeros(1, 1), ident(0)),))
    code = decompose(m)
    assert {(str(b.birth), str(b.death)) for b in code.bars} == \
        {("-inf", "1/1"), ("1/1", "inf")}
    assert all(b.parity == 0 for b in code.bars)


def test_decompose_rejects_invalid():
    # and so do the interleaving search and both oracles, with one message
    sp = Spectrum.of([], 0, 2)
    m = SampledModule(sp, (rational(1, 2), rational(3, 2)), ((1, 0), (1, 0)),
                      ((Gf2Matrix.zeros(1, 1), ident(0)),))
    valid = module_from_barcode(Barcode(sp, ()))
    messages = set()
    for refuse in (decompose, brute_force_decompose, rank_formula_decompose,
                   lambda m: find_interleaving(m, valid, ZERO)):
        with pytest.raises(InvalidModuleError) as exc:
            refuse(m)
        messages.add(str(exc.value))
    assert messages == {"invalid module: map 0 parity 0 crosses no spectrum "
                        "point but is not invertible"}


def test_decompose_bounds_the_dimension_at_a_sample():
    sp = Spectrum.of([], 0, 1)

    def one_sample(d0, d1):
        return SampledModule(sp, (rational(1, 2),), ((d0, d1),), ())

    half = MAX_SAMPLE_DIM // 2
    code = decompose(one_sample(half, MAX_SAMPLE_DIM - half))
    assert code.graded_dim_at(rational(1, 2)) == (half, MAX_SAMPLE_DIM - half)
    assert all(b.birth == NEG_INF and b.death == POS_INF for b in code.bars)
    for d0, d1 in ((MAX_SAMPLE_DIM + 1, 0), (half + 1, MAX_SAMPLE_DIM - half)):
        with pytest.raises(TooLargeError, match="decomposition bound"):
            decompose(one_sample(d0, d1))


def test_snap_point_requires_unique_point():
    sp = Spectrum.of([1, 2], 0, 3)
    m = SampledModule(sp, (rational(1, 2), rational(5, 2)),
                      ((1, 0), (1, 0)), ((ident(1), ident(0)),))
    with pytest.raises(NonUniqueSnapError):
        _only_point(_placement(m)[0][0], 0)


def test_module_from_barcode_trivial():
    empty = Barcode(Spectrum.of([0, 1, 2], 0, 2), ())
    m = module_from_barcode(empty)
    assert all(d == (0, 0) for d in m.dims)

    const = Barcode(Spectrum.of([1], 0, 2), (Bar(NEG_INF, POS_INF, 0),))
    m2 = module_from_barcode(const)
    assert all(d == (1, 0) for d in m2.dims)
    assert all(pair[0] == ident(1) for pair in m2.maps)


def test_module_from_barcode_dims_profile():
    code = Barcode(Spectrum.of([0, 1, 2], 0, 2), (Bar.of(0, 1), Bar.of(0, 2)))
    m = module_from_barcode(code)
    assert [d[0] for d in m.dims] == [0, 2, 1, 0]
    assert [d[1] for d in m.dims] == [0, 0, 0, 0]


def test_module_from_barcode_empty_horizon():
    degenerate = Barcode(Spectrum.of([1], 1, 1), (Bar(NEG_INF, rational(1), 0),))
    with pytest.raises(EmptyHorizonError):
        module_from_barcode(degenerate)
    with pytest.raises(ValueError):
        module_from_barcode(Barcode(Spectrum.of([0, 1], 0, 1), ()), 0)


def test_module_from_barcode_refuses_a_density_below_one():
    # a domain precondition: a DomainError for the CLI, still a ValueError
    # for library callers that caught one before
    code = Barcode(Spectrum.of([0, 1], 0, 1), (Bar.of(0, 1),))
    for density in (0, -1):
        with pytest.raises(NonPositiveDensityError) as caught:
            module_from_barcode(code, density)
        assert isinstance(caught.value, DomainError) and isinstance(caught.value, ValueError)
        assert str(caught.value) == "grid_density_hint must be a positive integer"
    assert module_from_barcode(code, 1).n_samples < module_from_barcode(code, 2).n_samples


def rank_invariant(m, i, j):
    """Graded rank of the composite map from sample i to sample j."""
    return (composite_map(m, i, j, 0).rank(), composite_map(m, i, j, 1).rank())


def test_rank_invariant_identity_and_monotone():
    sp = Spectrum.of([1, 2], 0, 3)
    m = SampledModule(
        sp, (rational(1, 2), rational(3, 2), rational(5, 2)),
        ((2, 1), (2, 1), (2, 1)),
        ((ident(2), ident(1)), (ident(2), ident(1))))
    for j in range(3):
        assert rank_invariant(m, 0, j) == (2, 1)
    with pytest.raises(IndexOutOfRangeError):
        rank_invariant(m, 0, 3)
    rng = random.Random(6)
    for _ in range(25):
        mod = random_module(rng, max_points=3, max_dim=3)
        k = mod.n_samples
        for i in range(k):
            prev = None
            for j in range(i, k):
                r = rank_invariant(mod, i, j)
                assert rank_invariant(mod, i, i) == mod.dims[i]
                if prev is not None:
                    assert r[0] <= prev[0] and r[1] <= prev[1]
                prev = r


def test_composite_map_matches_product_from_identity():
    # the product of the structure maps from sample i to j, as it was first
    # computed: an identity at sample i times each map in turn
    rng = random.Random(19)
    for _ in range(40):
        mod = random_module(rng, max_points=4, max_dim=3)
        for parity in (0, 1):
            for i in range(mod.n_samples):
                want = Gf2Matrix.identity(mod.dims[i][parity])
                for j in range(i, mod.n_samples):
                    if j > i:
                        want = mod.maps[j - 1][parity] @ want
                    assert composite_map(mod, i, j, parity) == want


def test_rank_across_zero_map_is_zero():
    sp = Spectrum.of([1], 0, 2)
    m = SampledModule(sp, (rational(1, 2), rational(3, 2)),
                      ((1, 0), (1, 0)), ((Gf2Matrix.zeros(1, 1), ident(0)),))
    assert rank_invariant(m, 0, 1) == (0, 0)


def test_round_trip_random_barcodes():
    rng = random.Random(13)
    for _ in range(150):
        b = random_barcode(rng, max_bars=8, max_points=6)
        m = module_from_barcode(b, grid_density_hint=rng.choice((1, 1, 2)))
        assert decompose(m).same_bars(b)


def test_round_trip_boundary_endpoints():
    # endpoints sitting exactly on the horizon boundary still round-trip
    sp = Spectrum.of([0, 1, 2], 0, 2)
    bars = (Bar.of(0, 2), Bar.of(0, 1, 1), Bar.of(1, 2), Bar(rational(2), POS_INF, 1))
    b = Barcode(sp, bars)
    assert decompose(module_from_barcode(b)).same_bars(b)


def test_decompose_counts_match_dims():
    rng = random.Random(21)
    for _ in range(80):
        m = random_module(rng, max_points=4, max_dim=3,
                          density=rng.choice((1, 2)))
        code = decompose(m)
        for idx, s in enumerate(m.samples):
            assert code.graded_dim_at(s) == m.dims[idx]


def test_random_module_draws_large_invertible_maps():
    # in-region maps up to 6 x 6: each module is valid, each in-region map
    # invertible, and the sweep closes on it
    rng = random.Random(61)
    for trial in range(60):
        density = 1 + trial % 3
        m = random_module(rng, max_points=4, max_dim=6, density=density)
        assert validate_module(m) == []
        for i, pair in enumerate(m.maps):
            if i // density == (i + 1) // density:
                for a in pair:
                    assert a.is_invertible()
        code = decompose(m)
        for idx, s in enumerate(m.samples):
            assert code.graded_dim_at(s) == m.dims[idx]


def test_decompose_agrees_with_basis_enumeration():
    rng = random.Random(34)
    done = 0
    while done < 60:
        m = random_module(rng, max_points=3, max_dim=2)
        if sum(d0 + d1 for d0, d1 in m.dims) > 4:
            continue
        assert decompose(m).same_bars(brute_force_decompose(m))
        done += 1


def test_endpoint_spectrality_of_decompositions():
    rng = random.Random(55)
    for _ in range(60):
        m = random_module(rng, max_points=4, max_dim=2)
        code = decompose(m)
        points = set(m.spectrum.points)
        for bar in code.bars:
            for end in (bar.birth, bar.death):
                assert (not end.is_finite) or end in points


def test_parity_never_mixes():
    rng = random.Random(89)
    for _ in range(40):
        m = random_module(rng, max_points=3, max_dim=3)
        code = decompose(m)
        for idx, s in enumerate(m.samples):
            for parity in (0, 1):
                count = sum(1 for b in code.bars
                            if b.parity == parity and b.contains(s))
                assert count == m.dims[idx][parity]


# -- the sweep against the rank formula, at width -----------------------------


def wide_barcode(rng, n_points, n_bars):
    """Bars of every kind over n_points spectrum points, horizon sometimes
    touching the extreme points."""
    points = sorted(rng.sample(range(1, 4 * n_points), n_points))
    lo = points[0] - rng.choice((0, 1))
    hi = points[-1] + rng.choice((0, 1))
    spectrum = Spectrum.of([rational(p, 2) for p in points], rational(lo, 2),
                           rational(hi, 2))
    pts = spectrum.points
    bars = []
    for _ in range(n_bars):
        parity = 0 if rng.random() < 0.7 else 1
        kind = rng.random()
        if kind < 0.1:
            bars.append(Bar(NEG_INF, rng.choice(pts), parity))
        elif kind < 0.2:
            bars.append(Bar(rng.choice(pts), POS_INF, parity))
        elif kind < 0.25:
            bars.append(Bar(NEG_INF, POS_INF, parity))
        else:
            i = rng.randrange(len(pts) - 1)
            j = rng.randrange(i + 1, min(i + 12, len(pts)))
            bars.append(Bar(pts[i], pts[j], parity))
    return Barcode(spectrum, tuple(bars))


def test_sweep_agrees_with_rank_formula_oracle():
    rng = random.Random(144)
    widest = 0
    for density, n_points, n_bars in ((1, 110, 60), (2, 55, 45), (1, 100, 70), (2, 50, 30)):
        source = wide_barcode(rng, n_points, n_bars)
        m = scramble(rng, module_from_barcode(source, grid_density_hint=density))
        assert m.n_samples >= 100
        widest = max(widest, max(max(d) for d in m.dims))
        code = decompose(m)
        assert code.same_bars(rank_formula_decompose(m))
        assert code.same_bars(source)
        kinds = {(b.parity, b.birth.is_neg_inf, b.death.is_pos_inf) for b in code.bars}
        assert {(0, True, False), (0, False, True), (1, False, False)} <= kinds
    assert 12 <= widest <= 20


def column_push_decompose(m):
    """decompose as it was before its basis went coordinate-major: a list
    of (vector, birth) pairs, each vector pushed through the columns of
    the transposed structure map, images inserted oldest first."""
    gaps, counts = _valid_placement(m)
    k = m.n_samples
    bars = []
    for parity in (0, 1):
        spans = []
        basis = [(1 << c, 0) for c in range(m.dims[0][parity])] if k else []
        for i in range(k - 1):
            step = m.maps[i][parity]
            cols = step.transpose().rows
            images = Echelon()
            kept = []
            for vec, birth in basis:
                image = 0
                while vec:
                    low = vec & -vec
                    image ^= cols[low.bit_length() - 1]
                    vec ^= low
                image = images.insert(image)
                if image:
                    kept.append((image, birth))
                else:
                    spans.append((birth, i))
            kept.extend((1 << c, i + 1) for c in range(step.nrows) if c not in images.pivots)
            basis = kept
        spans.extend((birth, k - 1) for _, birth in basis)
        bars.extend(_make_bar(gaps, i, j, parity) for i, j in spans)
    return Barcode(m.spectrum, tuple(bars))


def long_bar_code(rng, n_points, n_bars, parities=(0, 1)):
    """Random bars over 0..n_points-1, most of them long, some infinite."""
    sp = Spectrum.of(range(n_points), 0, n_points - 1)
    ends = (NEG_INF,) + sp.points + (POS_INF,)
    bars = []
    for _ in range(n_bars):
        i, j = sorted(rng.sample(range(len(ends)), 2))
        bars.append(Bar(ends[i], ends[j], rng.choice(parities)))
    return Barcode(sp, tuple(bars))


def test_sweep_matches_the_column_push_sweep():
    rng = random.Random(155)
    modules = [scramble(rng, random_module(rng, max_points=6, max_dim=6, density=1 + t % 3))
               for t in range(80)]
    modules += [scramble(rng, module_from_barcode(long_bar_code(rng, n, n), 1 + n % 2))
                for n in (60, 90, 120)]
    # a chain of unit bars under infinite and long bars: more vectors are
    # made than stay alive, so the sweep renumbers its bits on the way
    n = 400
    sp = Spectrum.of(range(n), 0, n - 1)
    chain = tuple(Bar(sp.points[i], sp.points[i + 1], 0) for i in range(n - 1))
    modules.append(scramble(rng, module_from_barcode(Barcode(sp, chain + (
        Bar(NEG_INF, POS_INF, 0), Bar(sp.points[3], sp.points[n - 5], 0))))))
    modules.append(module_from_barcode(Barcode(sp, chain)))
    assert max(max(d) for m in modules for d in m.dims) >= 40
    for m in modules:
        want = column_push_decompose(m)
        got = decompose(m)
        assert got == want and repr(got) == repr(want)


def test_decompose_bars_match_checked_construction():
    # decompose builds its bars without the checks of __init__; each must
    # equal, hash and print as the checked bar, copy and pickle as it
    # does, and refuse assignment
    rng = random.Random(30)
    bars = [bar for t in range(30) for bar in decompose(scramble(
        rng, random_module(rng, max_points=5, max_dim=3, density=1 + t % 3))).bars]
    assert len({(b.birth.is_finite, b.death.is_finite, b.parity) for b in bars}) >= 6
    for got in bars:
        want = Bar(got.birth, got.death, got.parity)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        for clone in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert clone == want and hash(clone) == hash(want) and repr(clone) == repr(want)
        for name in Bar.__slots__:
            with pytest.raises(AttributeError):
                setattr(got, name, getattr(got, name))


def test_decompose_builds_one_echelon_per_call(monkeypatch):
    # the sweep empties one Echelon at each step instead of building one
    made = []

    class CountingEchelon(Echelon):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("contact_barcodes.persistence.Echelon", CountingEchelon)
    rng = random.Random(29)
    modules = [scramble(rng, random_module(rng, max_points=6, max_dim=4, density=1 + t % 3))
               for t in range(20)]
    assert sum(m.n_samples for m in modules) > 4 * len(modules)
    for m in modules:
        made.clear()
        decompose(m)
        assert len(made) == 1


def test_birthless_runs_across_a_squeeze_match_both_references(monkeypatch):
    # Unit bars on points 0..80 make many more vectors than stay alive, so
    # the sweep renumbers its bits (the squeeze is the one caller of
    # `compress`); past point 80 bars only die, and between deaths the
    # scrambled steps are invertible, so long runs of steps give birth to
    # nothing, some ending bars and most ending none.
    n = 100
    sp = Spectrum.of(range(n), 0, n - 1)
    p = sp.points
    bars = [Bar(p[i], p[i + 1], 0) for i in range(80)]
    bars += [Bar(NEG_INF, p[84 + 4 * j], 0) for j in range(4)]
    bars += [Bar(NEG_INF, POS_INF, 0), Bar(p[3], p[97], 0), Bar(p[10], p[90], 1),
             Bar(NEG_INF, p[94], 1)]
    code = Barcode(sp, tuple(bars))
    m = scramble(random.Random(29), module_from_barcode(code, 2))
    squeezed = []
    monkeypatch.setattr("contact_barcodes.persistence.compress",
                        lambda *args: squeezed.append(1) or compress(*args))
    got = decompose(m)
    assert squeezed
    want = column_push_decompose(m)
    assert got == want and repr(got) == repr(want)
    assert got.same_bars(rank_formula_decompose(m)) and got.same_bars(code)


def graded_counts(code, below, upto):
    """Graded number of bars containing each sample, from the counts of
    the sorted samples among the spectrum points (see `_alive`)."""
    return [(len(a0), len(a1)) for a0, a1 in _alive(code, below, upto)]


def scalar_route_decompose(m):
    """decompose as it was before its bar ends became int positions: the
    same sweep over spans of samples, each span snapped to Scalar ends by
    `_make_bar`, sorted by `Barcode`, and checked by `graded_counts`."""
    gaps, counts = _valid_placement(m)
    k = m.n_samples
    bars = []
    for parity in (0, 1):
        spans = []
        births = [0] * m.dims[0][parity] if k else []
        made = len(births)
        coords = [1 << (made - 1 - c) for c in range(made)]
        alive = (1 << made) - 1
        for i in range(k - 1):
            images = []
            echelon = Echelon()
            fresh = []
            for c, row in enumerate(m.maps[i][parity].rows):
                image = 0
                while row:
                    low = row & -row
                    image ^= coords[low.bit_length() - 1]
                    row ^= low
                images.append(image)
                if not echelon.insert(image):
                    fresh.append(c)
            kept = sum(1 << top for top in echelon.pivots)
            dead = alive ^ kept
            while dead:
                low = dead & -dead
                spans.append((births[made - low.bit_length()], i))
                dead ^= low
            new = len(fresh)
            births += [i + 1] * new
            made += new
            coords = [(image & kept) << new for image in images]
            for bit, c in enumerate(fresh):
                coords[c] |= 1 << bit
            alive = kept << new | (1 << new) - 1
            if made > 2 * alive.bit_count() + 64:
                keep = [digit == "1" for digit in format(alive, f"0{made}b")]
                births = list(compress(births, keep))
                coords = [int("0" + "".join(compress(format(x, f"0{made}b"), keep)), 2)
                          for x in coords]
                made = len(births)
                alive = (1 << made) - 1
        spans.extend((births[made - 1 - b], k - 1) for b in range(made) if alive >> b & 1)
        bars.extend(_make_bar(gaps, i, j, parity) for i, j in spans)
    code = Barcode(m.spectrum, tuple(bars))
    for idx, (count, dims) in enumerate(zip(graded_counts(code, *counts), m.dims)):
        if count != dims:
            raise AssertionError(f"decomposition loses rank at sample {idx}: {count} != {dims}")
    return code


def test_int_positions_match_the_scalar_route():
    # bars in Barcode's order, ties included, on scrambled random modules,
    # long bars, and bars born at -inf or never dying alongside finite ones
    rng = random.Random(156)
    modules = [scramble(rng, random_module(rng, max_points=7, max_dim=5, density=1 + t % 3))
               for t in range(120)]
    modules += [scramble(rng, module_from_barcode(long_bar_code(rng, n, n), 1 + n % 2))
                for n in (20, 45, 90)]
    sp = Spectrum.of(range(6), 0, 5)
    ends = (NEG_INF,) + sp.points + (POS_INF,)
    infinite = Barcode(sp, tuple(Bar(ends[i], ends[j], parity)
                                 for i, j, parity in ((0, 7, 0), (0, 7, 0), (0, 3, 1), (0, 1, 0),
                                                      (4, 7, 1), (6, 7, 0), (2, 4, 0), (2, 4, 0),
                                                      (0, 3, 1), (1, 2, 1), (5, 7, 1))))
    modules += [scramble(rng, module_from_barcode(infinite, density)) for density in (1, 2, 3)]
    kinds = set()
    for m in modules:
        want = scalar_route_decompose(m)
        got = decompose(m)
        assert repr(got) == repr(want)
        kinds.update((b.birth.is_neg_inf, b.death.is_pos_inf) for b in got.bars)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert repr(decompose(modules[-1])) == repr(infinite)


def test_sweep_agrees_with_rank_formula_on_random_modules():
    rng = random.Random(145)
    for _ in range(60):
        m = random_module(rng, max_points=6, max_dim=3, density=rng.choice((1, 2)))
        assert decompose(m).same_bars(rank_formula_decompose(m))


def test_graded_counts_match_bar_containment():
    rng = random.Random(146)
    extra = random.Random(149)
    for _ in range(40):
        b = random_barcode(rng, max_bars=10, max_points=8)
        m = module_from_barcode(b, grid_density_hint=rng.choice((1, 2)))
        assert graded_counts(b, *_count_below(m.samples, b.spectrum.points)) == \
            [b.graded_dim_at(s) for s in m.samples]
        # samples on bar endpoints and empty bars (birth = death) at samples,
        # where bisect_right of births and bisect_left of deaths differ
        points = b.spectrum.points
        empty = tuple(Bar(p, p, extra.randint(0, 1))
                      for p in extra.sample(points, len(points) // 2))
        on_ends = Barcode(b.spectrum, b.bars + empty)
        samples = sorted(set(m.samples) | set(extra.sample(points, len(points) // 2)))
        assert graded_counts(on_ends, *_count_below(samples, points)) == \
            [on_ends.graded_dim_at(s) for s in samples]
        assert _placement(m)[0] == [
            tuple(p for p in m.spectrum.points if m.samples[i] < p < m.samples[i + 1])
            for i in range(m.n_samples - 1)]


def test_count_below_matches_bisect():
    # unsorted values with ties, values on ref points (ref itself may
    # repeat a point), infinities, and empty values or ref
    rng = random.Random(151)
    assert _count_below([], []) == ([], [])
    assert _count_below([], [rational(1)]) == ([], [])
    assert _count_below([rational(1), NEG_INF], []) == ([0, 0], [0, 0])
    for _ in range(300):
        ref = sorted(rational(rng.randint(0, 12), rng.choice((1, 2)))
                     for _ in range(rng.randint(0, 8)))
        values = [rational(rng.randint(-2, 14), rng.choice((1, 2)))
                  for _ in range(rng.randint(0, 10))]
        values += [rng.choice(ref) for _ in range(rng.randint(0, 3)) if ref]
        values += [rng.choice((NEG_INF, POS_INF)) for _ in range(rng.randint(0, 1))]
        values += values[:rng.randint(0, 2)]
        rng.shuffle(values)
        assert _count_below(values, ref) == (
            [bisect_left(ref, v) for v in values],
            [bisect_right(ref, v) for v in values])


def bar_testing_module(b, grid_density_hint=1):
    """module_from_barcode as first written: every bar tested at every sample."""
    samples = _sample_positions(b.spectrum, grid_density_hint)
    alive = []
    for s in samples:
        by_parity = ([], [])
        for idx, bar in enumerate(b.bars):
            if bar.contains(s):
                by_parity[bar.parity].append(idx)
        alive.append(by_parity)
    dims = tuple((len(a0), len(a1)) for a0, a1 in alive)
    maps = []
    for i in range(len(samples) - 1):
        pair = []
        for parity in (0, 1):
            src, dst = alive[i][parity], alive[i + 1][parity]
            col_of = {bar_idx: c for c, bar_idx in enumerate(src)}
            rows = tuple((1 << col_of[bar_idx]) if bar_idx in col_of else 0
                         for bar_idx in dst)
            pair.append(Gf2Matrix(rows, len(src)))
        maps.append((pair[0], pair[1]))
    return SampledModule(b.spectrum, tuple(samples), dims, tuple(maps))


def test_event_sweep_module_matches_bar_testing_construction():
    rng = random.Random(147)
    codes = [random_barcode(rng, max_bars=12, max_points=8) for _ in range(40)]
    codes += [wide_barcode(rng, 30, 25) for _ in range(3)]
    codes += [ellipsoid_barcode(EllipsoidParams.of(axes, T))
              for axes, T in (([1], 5), ([1, "3/2"], 9), (["2/3", 1, "5/4"], 5))]
    for b in codes:
        density = rng.choice((1, 2, 3))
        assert dumps(module_from_barcode(b, density)) == \
            dumps(bar_testing_module(b, density))


def test_gap_points_match_linear_filter():
    # samples reach past both ends of the spectrum, sit on spectrum points,
    # leave gaps empty, and (for invalid modules, which validate_module
    # still reads) run backwards or hit +/-inf
    rng = random.Random(148)
    for trial in range(400):
        points = sorted({rational(rng.randint(0, 48), rng.choice((1, 2, 3, 4)))
                         for _ in range(rng.randint(0, 8))})
        sp = Spectrum(tuple(points), rational(0), rational(48))
        samples = [rational(rng.randint(-8, 60), rng.choice((1, 2, 5)))
                   for _ in range(rng.randint(0, 10))]
        samples += [p for p in points if rng.random() < 0.2]
        if trial % 3:
            samples.sort()
        if trial % 11 == 0 and samples:
            samples[rng.randrange(len(samples))] = rng.choice((NEG_INF, POS_INF))
        k = len(samples)
        m = SampledModule(sp, tuple(samples), ((0, 0),) * k,
                          ((ident(0), ident(0)),) * max(k - 1, 0))
        assert _placement(m)[0] == [
            tuple(p for p in points if samples[i] < p < samples[i + 1])
            for i in range(k - 1)]


def reference_issues(m):
    """validate_module as first written: a set of the spectrum points for
    collisions, bisects for straddling, and each gap's points filtered
    from the whole spectrum."""
    issues = []
    pts = m.spectrum.points
    point_set = set(pts)
    for i, s in enumerate(m.samples):
        if not s.is_finite:
            issues.append(f"sample {i} is not finite")
        elif s in point_set:
            issues.append(f"sample {i} collides with spectrum point {s}")
        if i > 0 and not (m.samples[i - 1] < s):
            issues.append(f"samples {i - 1} and {i} are not strictly increasing")
    for i, (d0, d1) in enumerate(m.dims):
        if d0 < 0 or d1 < 0:
            issues.append(f"negative dimension at sample {i}")
    for i, pair in enumerate(m.maps):
        for parity in (0, 1):
            want = (m.dims[i + 1][parity], m.dims[i][parity])
            if pair[parity].shape != want:
                issues.append(f"map {i} parity {parity} has shape "
                              f"{pair[parity].shape}, expected {want}")
    if m.samples:
        below = bisect_left(pts, m.samples[0])
        above = bisect_right(pts, m.samples[-1])
        for p in pts[:below] + pts[max(below, above):]:
            issues.append(f"spectrum point {p} is not straddled by the samples")
    for i in range(m.n_samples - 1):
        between = [p for p in pts if m.samples[i] < p < m.samples[i + 1]]
        if len(between) > 1:
            issues.append(f"{len(between)} spectrum points between samples {i} and {i + 1}")
        if not between:
            for parity in (0, 1):
                mat = m.maps[i][parity]
                if mat.shape == (m.dims[i + 1][parity], m.dims[i][parity]) \
                        and not mat.is_invertible():
                    issues.append(f"map {i} parity {parity} crosses no spectrum "
                                  "point but is not invertible")
    return issues


def mangled_module(rng):
    """A random module with up to four faults: samples swapped out of
    order, put on spectrum points or at +/-inf, end samples moved inside
    the spectrum, maps of the wrong shape or singular, negative dims."""
    m = random_module(rng, max_points=5, max_dim=3, density=rng.choice((1, 2)))
    pts = m.spectrum.points
    samples, dims = list(m.samples), list(m.dims)
    maps = [list(pair) for pair in m.maps]
    k = len(samples)
    for _ in range(rng.randint(0, 4)):
        i, j = rng.randrange(k), rng.randrange(k)
        fault = rng.randrange(7)
        if fault == 0:
            samples[i], samples[j] = samples[j], samples[i]
        elif fault == 1 and pts:
            samples[i] = rng.choice(pts)
        elif fault == 2:
            samples[i] = rng.choice((NEG_INF, POS_INF))
        elif fault == 3 and pts:
            samples[0] = rng.choice(pts) + rational(1, 7)
        elif fault == 4 and pts:
            samples[-1] = rng.choice(pts) - rational(1, 7)
        elif fault in (5, 6) and maps:
            r, parity = rng.randrange(len(maps)), rng.randint(0, 1)
            nrows, ncols = maps[r][parity].shape
            maps[r][parity] = Gf2Matrix.zeros(nrows + (fault == 5), ncols)
        else:
            dims[i] = (-1, dims[i][1])
    return SampledModule(m.spectrum, tuple(samples), tuple(dims),
                         tuple((a, b) for a, b in maps))


def test_validate_matches_reference_issue_lists():
    rng = random.Random(150)
    seen = set()
    invalid = 0
    for _ in range(600):
        m = mangled_module(rng)
        issues = validate_module(m)
        assert issues == reference_issues(m)
        invalid += bool(issues)
        for issue in issues:
            seen.update(word for word in ("finite", "collides", "increasing",
                                          "negative", "shape", "straddled",
                                          "points between", "invertible")
                        if word in issue)
    assert invalid > 300
    assert len(seen) == 8


def mixed_spectrum(rng, n_points):
    """n_points points k + 1/q with q in {2, 3, 7}, one per unit interval."""
    pts = tuple(Scalar(k + Fraction(1, rng.choice((2, 3, 7)))) for k in range(n_points))
    return Spectrum(pts, rational(0), rational(n_points))


def test_barcode_sorts_bars_by_sort_key_and_keeps_ties_in_order():
    # the bars are ordered by their ends' positions among the spectrum
    # points; that must be Bar.sort_key's order, stable among equal keys
    # (truncated flags tell the tied bars apart)
    rng = random.Random(152)
    for _ in range(200):
        sp = mixed_spectrum(rng, rng.randint(1, 12))
        ends = (NEG_INF,) + sp.points + (POS_INF,)
        bars = []
        for _ in range(rng.randint(0, 25)):
            i = rng.randrange(len(ends) - 1)
            j = rng.randrange(max(i, 1), len(ends))
            bar = Bar(ends[i], ends[j], rng.randint(0, 1), rng.random() < 0.3)
            bars.append(bar)
            if rng.random() < 0.3:  # a copy with the same key
                bars.append(Bar(bar.birth, bar.death, bar.parity, not bar.truncated))
        rng.shuffle(bars)
        got = Barcode(sp, tuple(bars)).bars
        want = sorted(bars, key=Bar.sort_key)
        assert [id(b) for b in got] == [id(b) for b in want]


def test_barcode_names_the_first_bad_endpoint_in_bar_order():
    sp = Spectrum.of([1, 2, 3], 0, 4)
    cases = [
        ((Bar.of(2, "7/2"), Bar.of("1/2", 3), Bar(NEG_INF, rational(5, 2), 1)), "5/2"),
        ((Bar.of(2, "7/2"), Bar.of("1/2", 3), Bar.of(1, "5/2", 1)), "1/2"),
        ((Bar.of("3/2", 3), Bar.of(1, "9/4"), Bar(rational(2), POS_INF, 0)), "9/4"),
    ]
    for bars, end in cases:
        with pytest.raises(ValueError) as caught:
            Barcode(sp, bars)
        assert str(caught.value) == f"bar endpoint {end} is not a spectrum point"


def test_module_stages_make_linearly_many_scalar_compares(monkeypatch):
    # Bar ends are placed by their int positions among the spectrum points
    # and samples by numerator and denominator ints.  Validating a valid
    # module compares no Scalars, nor does decompose, whose sorted int ends
    # settle each Bar's own check, and building a module at most a pass
    # over its samples and points
    rng = random.Random(153)
    sp = mixed_spectrum(rng, 400)
    ends = (NEG_INF,) + sp.points + (POS_INF,)
    bars = []
    for _ in range(400):
        i, j = sorted(rng.sample(range(len(ends)), 2))
        bars.append(Bar(ends[i], ends[j], rng.randint(0, 1), rng.random() < 0.1))
    calls = [0]
    less = Scalar.__lt__

    def counted(a, b):
        calls[0] += 1
        return less(a, b)

    monkeypatch.setattr(Scalar, "__lt__", counted)

    def stage(f):
        calls[0] = 0
        return f(), calls[0]

    code, n = stage(lambda: Barcode(sp, tuple(bars)))
    assert n <= len(bars)
    m, n_build = stage(lambda: module_from_barcode(code))
    assert m.n_samples == 401
    bound = 3 * (m.n_samples + len(sp.points))
    issues, n_check = stage(lambda: validate_module(m))
    out, n_split = stage(lambda: decompose(m))
    assert issues == [] and out.same_bars(code)
    assert n_build <= bound and n_check == 0 and n_split == 0, \
        (n_build, n_check, n_split)


def test_decompose_of_a_wide_sparse_module_takes_seconds_not_minutes():
    # 1,000 random long bars over 1,000 integer points: about 500 bars at
    # the widest sample, one set bit per map row.  The sweep pays per set
    # bit, not per row and basis vector.
    n = 1000
    rng = random.Random(154)
    sp = Spectrum.of(range(n), 0, n - 1)
    bars = []
    for _ in range(n):
        i, j = sorted(rng.sample(range(n), 2))
        bars.append(Bar(sp.points[i], sp.points[j], 0))
    code = Barcode(sp, tuple(bars))
    m = module_from_barcode(code)
    assert max(d0 for d0, _ in m.dims) >= 450
    start = time.perf_counter()
    out = decompose(m)
    assert time.perf_counter() - start < 3
    assert out.same_bars(code)


def placement_modules(rng, count):
    """count seeded modules, every other one mangled (mostly invalid), the
    rest valid: random, scrambled, or built from a random barcode."""
    modules = []
    for k in range(count):
        if k % 2:
            modules.append(mangled_module(rng))
        elif k % 4:
            modules.append(scramble(rng, random_module(rng, max_points=5, max_dim=3,
                                                       density=1 + k % 3)))
        else:
            modules.append(module_from_barcode(random_barcode(rng, max_bars=6, max_points=5),
                                               1 + k % 3))
    return modules


def snapshots(m):
    return (repr(m), hash(m), pickle.dumps(m), copy.copy(m), copy.deepcopy(m),
            pickle.loads(pickle.dumps(m)))


def test_stored_placement_changes_no_output():
    # validate_module and decompose keep the module's placement in a
    # private slot: its repr, equality, hash, copies and pickle stay as
    # they were before either ran
    rng = random.Random(160)
    for m in placement_modules(rng, 40):
        text, digest, pickled, *clones = snapshots(m)
        issues = validate_module(m)
        if not issues:
            decompose(m)
        after_text, after_digest, after_pickled, *after_clones = snapshots(m)
        assert (after_text, after_digest, after_pickled) == (text, digest, pickled)
        for clone in clones + after_clones:
            assert clone == m and hash(clone) == digest and repr(clone) == text
            assert pickle.dumps(clone) == pickled
            assert validate_module(clone) == issues


def test_validate_module_returns_a_fresh_list():
    rng = random.Random(161)
    for m in placement_modules(rng, 20):
        want = validate_module(m)
        got = validate_module(m)
        got.append("not an issue")
        validate_module(m).clear()
        assert validate_module(m) == want == reference_issues(m)


def test_an_invalid_module_is_refused_on_every_call():
    sp = Spectrum.of([1], 0, 2)
    invalid = SampledModule(sp, (rational(1, 2),), ((1, 0),), ())
    message = "invalid module: spectrum point 1/1 is not straddled by the samples"
    cert = InterleavingCertificate(ZERO, (), ())
    for call in (lambda: decompose(invalid),
                 lambda: find_interleaving(invalid, invalid, ZERO),
                 lambda: find_interleaving(invalid, invalid, rational(-1)),
                 lambda: verify_interleaving(cert, invalid, invalid)):
        for _ in range(2):
            with pytest.raises(InvalidModuleError) as caught:
                call()
            assert str(caught.value) == message


def test_stored_placement_equals_a_fresh_one():
    # the placement is computed once, kept, and equal to that of a module
    # built afresh from the same fields
    rng = random.Random(162)
    invalid = 0
    for m in placement_modules(rng, 200):
        first = _placement(m)
        assert _placement(m) is first
        if first[1]:
            invalid += 1
        else:
            decompose(m)
        fresh = SampledModule(m.spectrum, m.samples, m.dims, m.maps)
        assert _placement(m) is first
        assert first == _placement(fresh) == _placement(copy.deepcopy(m))
    assert 50 < invalid < 150
