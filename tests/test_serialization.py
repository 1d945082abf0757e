import hashlib
import io
import json
import random
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from contact_barcodes import serialization
from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.cli import main
from contact_barcodes.distances import bottleneck_distance
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.errors import ParseError, TooLargeError
from contact_barcodes.gf2 import Gf2Matrix
from contact_barcodes.interleaving import find_interleaving, interleaving_distance_bruteforce
from contact_barcodes.persistence import (
    SampledModule,
    decompose,
    module_from_barcode,
    validate_module,
)
from contact_barcodes.random_instances import (
    perturb_barcode,
    random_barcode,
    random_module,
    random_spectrum,
    scramble,
)
from contact_barcodes.scalar import NEG_INF, POS_INF, ZERO, Scalar, rational
from contact_barcodes.serialization import (
    SCHEMA_VERSION,
    dumps,
    loads,
)
from test_distances import candidate_deltas, first_primes, wide_barcode


# The documents as dicts, as they were first built: json.dumps(..., indent=2)
# of these is the reference text of `dumps`.

def spectrum_to_dict(sp):
    return {
        "points": [str(p) for p in sp.points],
        "horizon": [str(sp.lo), str(sp.hi)],
    }


def bar_to_dict(b):
    d = {
        "birth": str(b.birth),
        "death": str(b.death),
        "parity": b.parity,
    }
    if b.truncated:
        d["truncated"] = True
    return d


def barcode_to_dict(b):
    return {
        "cpv": SCHEMA_VERSION,
        "spectrum": spectrum_to_dict(b.spectrum),
        "bars": [bar_to_dict(bar) for bar in b.bars],
    }


def _module_head(m):
    """Every key of a module document but "maps", which comes last."""
    return {
        "cpv": SCHEMA_VERSION,
        "spectrum": spectrum_to_dict(m.spectrum),
        "samples": [str(s) for s in m.samples],
        "dims": [list(d) for d in m.dims],
    }


def module_to_dict(m):
    d = _module_head(m)
    d["maps"] = [[mat.to_rows() for mat in pair] for pair in m.maps]
    return d


def test_barcode_round_trip_random():
    rng = random.Random(1)
    for _ in range(50):
        b = random_barcode(rng)
        again = loads(dumps(b))
        assert again == b
        assert again.spectrum == b.spectrum


def test_module_round_trip_random():
    rng = random.Random(2)
    for _ in range(50):
        m = random_module(rng, max_points=4, max_dim=3)
        again = loads(dumps(m))
        assert again == m


def test_scalars_serialize_exactly():
    sp = Spectrum.of(["1/3"], 0, 1)
    b = Barcode(sp, (Bar(NEG_INF, rational(1, 3), 1),))
    d = barcode_to_dict(b)
    assert d["cpv"] == 1
    assert d["bars"][0]["birth"] == "-inf"
    assert d["bars"][0]["death"] == "1/3"
    assert d["spectrum"]["horizon"] == ["0/1", "1/1"]


def test_truncated_flag_round_trips():
    sp = Spectrum.of([0, 1], 0, 1)
    b = Barcode(sp, (Bar.of(0, 1, truncated=True),))
    d = barcode_to_dict(b)
    assert d["bars"][0]["truncated"] is True
    again = loads(json.dumps(d))
    assert again.bars[0].truncated
    plain = barcode_to_dict(Barcode(sp, (Bar.of(0, 1),)))
    assert "truncated" not in plain["bars"][0]
    d["bars"][0]["truncated"] = False
    assert not loads(json.dumps(d)).bars[0].truncated
    # only JSON true/false: bool("false") is True
    for value in ("false", 0, 1, None):
        d["bars"][0]["truncated"] = value
        with pytest.raises(ValueError, match=r"^bars\[0\]\.truncated: expected true or false"):
            loads(json.dumps(d))


def test_loads_dispatches_on_keys():
    sp = Spectrum.of([1], 0, 2)
    b = Barcode(sp, (Bar.of(1, 1),))
    m = module_from_barcode(Barcode(sp, ()))
    assert isinstance(loads(dumps(b)), Barcode)
    assert type(loads(dumps(m))).__name__ == "SampledModule"
    # a JSON true outside the maps leaves their 0/1 entries valid
    assert loads(dumps(m).replace('"cpv": 1', '"cpv": 1, "note": true')) == m
    with pytest.raises(ValueError):
        loads("[1, 2]")
    with pytest.raises(ValueError):
        loads('{"cpv": 1}')


def test_version_is_checked():
    sp = Spectrum.of([1], 0, 2)
    d = barcode_to_dict(Barcode(sp, ()))
    d["cpv"] = 2
    with pytest.raises(ValueError):
        loads(json.dumps(d))
    d2 = module_to_dict(module_from_barcode(Barcode(sp, ())))
    del d2["cpv"]
    with pytest.raises(ValueError):
        loads(json.dumps(d2))


def test_loads_is_the_one_reader():
    assert not [name for name in vars(serialization) if name.endswith("_from_dict")
                and not name.startswith("_")]


def test_loads_refuses_a_json_true_in_a_module_map():
    m = module_from_barcode(Barcode(Spectrum.of([1, 2], 0, 3), (Bar.of(1, 2),)))
    d = module_to_dict(m)
    d["maps"][1][0] = [[True]]
    with pytest.raises(ParseError) as caught:
        loads(json.dumps(d))
    assert str(caught.value) == "maps[1][0][0]: entries must be 0 or 1, got True"
    # the public dict reader that read this entry as 1 is gone
    assert not hasattr(serialization, "module_from_dict")


def test_dumps_is_deterministic():
    rng = random.Random(3)
    b = random_barcode(rng)
    assert dumps(b) == dumps(loads(dumps(b)))


def test_matrix_rows_are_plain_arrays():
    sp = Spectrum.of([1], 0, 2)
    code = Barcode(sp, (Bar(NEG_INF, POS_INF, 0), Bar(NEG_INF, POS_INF, 0)))
    m = module_from_barcode(code)
    d = module_to_dict(m)
    assert d["maps"][0][0] == [[1, 0], [0, 1]]
    assert d["dims"] == [[2, 0], [2, 0]]
    text = dumps(m)
    assert json.loads(text)["samples"] == [str(s) for s in m.samples]


def reference_module_dumps(m):
    """Module dumps as first written: the json module's indent=2 encoder."""
    return json.dumps(module_to_dict(m), indent=2) + "\n"


def long_bars(rng, n_points, n_bars):
    """Bars mostly spanning the middle of 0..n_points-1, so that many are
    alive at once, some of them infinite."""
    spectrum = Spectrum.of(range(n_points), 0, n_points - 1)
    pts = spectrum.points
    bars = []
    for _ in range(n_bars):
        birth = NEG_INF if rng.random() < 0.1 else pts[rng.randrange(n_points // 3)]
        death = POS_INF if rng.random() < 0.1 else pts[rng.randrange(2 * n_points // 3,
                                                                   n_points)]
        bars.append(Bar(birth, death, 0 if rng.random() < 0.8 else 1))
    return Barcode(spectrum, tuple(bars))


def test_module_dumps_matches_json_indent_encoder():
    rng = random.Random(5)
    modules = [random_module(rng, max_points=5, max_dim=3, density=density)
               for density in (1, 2, 3) for _ in range(40)]
    modules.append(SampledModule(Spectrum.of([], 0, 1), (rational(1, 2),), ((2, 1),), ()))
    modules.append(module_from_barcode(
        ellipsoid_barcode(EllipsoidParams.of(["1", "1393/985"], 200))))
    for density in (1, 2):
        modules.append(scramble(rng, module_from_barcode(long_bars(rng, 30, 45), density)))
        assert max(max(d) for d in modules[-1].dims) >= 30
    seen = Counter()
    for m in modules:
        text = dumps(m)
        assert text == reference_module_dumps(m)
        assert loads(text) == m
        seen["zero-dimensional sample"] += (0, 0) in m.dims
        seen["no maps"] += not m.maps
        for mat in (mat for pair in m.maps for mat in pair):
            seen["zero-row matrix"] += not mat.rows
            seen["zero-column row"] += bool(mat.rows) and not mat.ncols
    # the renderings of "[]" at every depth were exercised
    assert len(seen) == 4 and all(seen.values()), seen


def reference_barcode_dumps(b):
    """Barcode dumps as first written: the json module's indent=2 encoder."""
    return json.dumps(barcode_to_dict(b), indent=2) + "\n"


def test_barcode_dumps_matches_json_indent_encoder():
    rng = random.Random(6)
    codes = [random_barcode(rng, max_bars=rng.randint(0, 14), max_points=rng.randint(1, 9),
                            force_half_infinite=rng.random() < 0.3) for _ in range(300)]
    codes.append(ellipsoid_barcode(EllipsoidParams.of(["1", "1393/985"], 200)))
    codes.append(Barcode(Spectrum.of([], 0, 1), ()))
    codes.append(Barcode(Spectrum.of([], "-1/2", 3), (Bar(NEG_INF, POS_INF, 1),) * 2))
    codes.append(Barcode(Spectrum.of(["1/3", 2], 0, 2),
                         (Bar(NEG_INF, rational(1, 3), 0, True), Bar.of(2, "inf", 1, True))))
    seen = Counter()
    for b in codes:
        text = dumps(b)
        assert text == reference_barcode_dumps(b)
        assert loads(text) == b
        seen["no bars"] += not b.bars
        seen["no points"] += not b.spectrum.points
        seen["truncated bar"] += any(bar.truncated for bar in b.bars)
        seen["-inf birth"] += any(bar.birth == NEG_INF for bar in b.bars)
        seen["+inf death"] += any(bar.death == POS_INF for bar in b.bars)
    assert len(seen) == 5 and all(seen.values()), seen


def matrix_document(maps, dims):
    """A module document over the spectrum {1} with the given maps and dims."""
    return json.dumps({"cpv": 1, "spectrum": {"points": ["1/1"], "horizon": ["0/1", "2/1"]},
                       "samples": ["1/2", "3/2"], "dims": dims, "maps": [maps]})


def test_loads_refuses_each_malformed_matrix_entry_in_one_line():
    good = [[[1, 0], [0, 1]], []]
    dims = [[2, 0], [2, 0]]
    assert loads(matrix_document(good, dims)).maps[0][0] == Gf2Matrix.identity(2)
    cases = [(2, "got 2"), (-1, "got -1"), (1.5, "got 1.5"), ("1", "got '1'"),
             (True, "got True"), (None, "got None"), ([1], "got [1]")]
    for value, tail in cases:
        maps = json.loads(json.dumps(good))
        maps[0][1][0] = value
        with pytest.raises(ParseError) as caught:
            loads(matrix_document(maps, dims))
        assert str(caught.value) == f"maps[0][0][1]: entries must be 0 or 1, {tail}"
    refusals = [
        ([[[1, 0], [0]], []], dims, "maps[0][0][1]: expected 2 entries, got 1"),
        ([[[1, 0], [0, 1, 1]], []], dims, "maps[0][0][1]: expected 2 entries, got 3"),
        ([[[1, 0], 5], []], dims, "maps[0][0]: expected an array of 0/1 rows"),
        ([[[1, 0], "01"], []], dims, "maps[0][0]: expected an array of 0/1 rows"),
        ([[[1, 0], [0, 1]], [{}]], [[2, 0], [2, 1]], "maps[0][1]: expected an array of 0/1 rows"),
        ([[[1, 0], [0, 1]], {}], dims, "maps[0][1]: expected an array of 0/1 rows"),
        ([[[1, 0], [0, 1]], []], [[2 ** 70, 0], [2, 0]],
         f"maps[0][0][0]: expected {2 ** 70} entries, got 2"),
    ]
    for maps, dims_, message in refusals:
        with pytest.raises(ParseError) as caught:
            loads(matrix_document(maps, dims_))
        assert str(caught.value) == message
    # a dims entry of 2**70 over empty rows is read without building 1 << 2**70,
    # and decompose refuses the module as too large
    m = loads(matrix_document([[], []], [[2 ** 70, 0], [0, 0]]))
    assert m.maps[0][0].shape == (0, 2 ** 70) and validate_module(m) == []
    with pytest.raises(TooLargeError):
        decompose(m)


def test_dumps_takes_a_barcode_or_a_module():
    with pytest.raises(TypeError):
        dumps({"cpv": 1})


# -- pinned contracts ----------------------------------------------------------

DIGESTS = Path(__file__).parent / "data" / "contract_digests.txt"


def contract_cases():
    """(name, text) for each pinned output: barcode and module documents,
    the reprs of decompose on scrambled modules, of bottleneck distances
    with their matchings in both modes, and of interleaving certificates
    at delta 0 and interleaving distances on scrambled module pairs, and
    the certificate (or None) at every candidate delta of more such pairs:
    a module against itself, against its barcode with one death moved
    later, or against another module on its spectrum; then bottleneck
    distances in both modes on dense pairs (integer spectra and prime
    denominators) and on E(1, 1393/985) against E(1, 99/70), and the
    stdout of a `cpv` pipeline on that pair."""
    cases = []
    for s in range(40):
        rng = random.Random(f"barcode/{s}")
        b = random_barcode(rng, max_bars=4 + s % 12, max_points=2 + s % 8,
                           force_half_infinite=s % 5 == 0)
        cases.append((f"dumps random_barcode {s}", dumps(b)))
    code = ellipsoid_barcode(EllipsoidParams.of(["1", "1393/985"], 200))
    assert any(bar.truncated for bar in code.bars)
    cases.append(("dumps E(1, 1393/985) T=200", dumps(code)))
    cases.append(("dumps empty barcode", dumps(Barcode(Spectrum.of([], 0, 1), ()))))
    for s in range(30):
        rng = random.Random(f"module/{s}")
        m = random_module(rng, max_points=2 + s % 5, max_dim=1 + s % 5, density=1 + s % 3)
        cases.append((f"dumps random_module {s}", dumps(m)))
        cases.append((f"decompose scrambled random_module {s}", repr(decompose(scramble(rng, m)))))
    for s in range(4):
        rng = random.Random(f"long_bars/{s}")
        m = scramble(rng, module_from_barcode(long_bars(rng, 30, 45), 1 + s % 2))
        cases.append((f"dumps scrambled long_bars {s}", dumps(m)))
        cases.append((f"decompose scrambled long_bars {s}", repr(decompose(m))))
    for s in range(48):
        rng = random.Random(f"bottleneck/{s}")
        b1 = random_barcode(rng, max_bars=3 + s % 13, max_points=2 + s % 7)
        b2 = perturb_barcode(b1, rational(1 + s % 5, 3), rng) if s % 4 else \
            random_barcode(rng, max_bars=3 + s % 13, max_points=2 + s % 7)
        for graded in (False, True):
            cases.append((f"bottleneck_distance random_barcode {s} graded={graded}",
                          repr(bottleneck_distance(b1, b2, graded))))
    for s in range(24):
        rng = random.Random(f"interleaving/{s}")
        m = random_module(rng, max_dim=2,
                          spectrum=random_spectrum(rng, max_points=4, min_points=2))
        code = decompose(m)
        other = code if s % 2 == 0 else moved_death(rng, code)
        m1, m2 = scramble(rng, m), scramble(rng, module_from_barcode(other))
        cases.append((f"find_interleaving delta 0 scrambled pair {s}",
                       repr(find_interleaving(m1, m2, ZERO))))
        cases.append((f"interleaving_distance_bruteforce scrambled pair {s}",
                       str(interleaving_distance_bruteforce(m1, m2))))
    for s in range(36):
        rng = random.Random(f"interleaving deltas/{s}")
        sp = random_spectrum(rng, max_points=4, min_points=2)
        m = random_module(rng, max_dim=2, spectrum=sp, density=1 + s % 2)
        other = (m, module_from_barcode(moved_death(rng, decompose(m))),
                 random_module(rng, max_dim=2, spectrum=sp))[s % 3]
        m1, m2 = scramble(rng, m), scramble(rng, other)
        cases.append((f"find_interleaving every candidate delta scrambled pair {s}",
                      "\n".join(f"{delta}: {find_interleaving(m1, m2, delta)!r}"
                                for delta in candidate_deltas(m1, m2))))
    kinds = [(True, False), (False, True), (True, True)]
    for s in range(4):
        rng = random.Random(f"dense bottleneck/{s}")
        if s % 2:
            points = {Scalar(Fraction(rng.randrange(-20 * q, 20 * q), q))
                      for q in first_primes(120)}
            sp = Spectrum(tuple(sorted(points)), min(points), max(points))
        else:
            sp = Spectrum.of(range(-20, 21), -20, 20)
        inf = [rng.choice(kinds) for _ in range(rng.randint(0, 4))]
        b1 = wide_barcode(rng, rng.randint(100, 200), sp, inf)
        b2 = wide_barcode(rng, rng.randint(100, 200), sp, list(inf))
        for graded in (False, True):
            cases.append((f"bottleneck_distance dense pair {s} graded={graded}",
                          repr(bottleneck_distance(b1, b2, graded))))
    for T in (100, 400):
        b1, b2 = (ellipsoid_barcode(EllipsoidParams.of(["1", axis], T))
                  for axis in ("1393/985", "99/70"))
        for graded in (False, True):
            cases.append((f"bottleneck_distance E(1, 1393/985) E(1, 99/70) T={T} graded={graded}",
                          repr(bottleneck_distance(b1, b2, graded))))
    cases.append(("cpv ellipsoid reduce distance interleave E(1, 1393/985) E(1, 99/70) T=20",
                  cpv_pipeline_stdout(("1393/985", "99/70"), "20")))
    return cases


def cpv_pipeline_stdout(axes, T):
    """The joined stdout of `cpv ellipsoid` for E(1, axis) at horizon T,
    then, on the bar-tracking modules of those barcodes, `cpv reduce`,
    `cpv distance` (ungraded and graded) of the reduced barcodes and
    `cpv interleave`."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out):
        d = Path(tmp)

        def cpv(*args):
            assert main([str(a) for a in args]) == 0, args

        for k, axis in enumerate(axes):
            start = out.tell()
            cpv("ellipsoid", "-a", "1", "-a", axis, "-T", T)
            code = loads(out.getvalue()[start:])
            (d / f"module{k}.json").write_text(dumps(module_from_barcode(code)))
            cpv("reduce", d / f"module{k}.json", "-o", d / f"reduced{k}.json")
            cpv("reduce", d / f"module{k}.json")
        cpv("distance", d / "reduced0.json", d / "reduced1.json")
        cpv("distance", d / "reduced0.json", d / "reduced1.json", "--graded")
        cpv("interleave", d / "module0.json", d / "module1.json")
    return out.getvalue()


def moved_death(rng, code):
    """The barcode with one finite death moved to a later spectrum point,
    or the barcode itself when no finite death can move."""
    last = code.spectrum.points[-1]
    movable = [k for k, bar in enumerate(code.bars) if bar.death.is_finite and bar.death < last]
    if not movable:
        return code
    bars = list(code.bars)
    k = rng.choice(movable)
    later = [p for p in code.spectrum.points if bars[k].death < p]
    bars[k] = Bar(bars[k].birth, rng.choice(later), bars[k].parity)
    return Barcode(code.spectrum, tuple(bars))


def test_documents_and_decompositions_match_their_pinned_digests():
    # a changed line here is a changed output contract
    want = dict(line.rsplit(" ", 1) for line in DIGESTS.read_text().splitlines())
    got = [(name, text, hashlib.sha256(text.encode()).hexdigest())
           for name, text in contract_cases()]
    assert [name for name, _, _ in got] == list(want)
    for name, text, digest in got:
        assert digest == want[name], f"{name} differs; it now reads:\n{text[:2000]}"


def _four_sample_document():
    """A valid module document of four samples over three spectrum points,
    so that a fault can sit past index 0 of every array: dims, samples,
    spectrum points and horizon."""
    return {"cpv": 1, "spectrum": {"points": ["1/1", "3/1", "5/1"], "horizon": ["0/1", "6/1"]},
            "samples": ["1/2", "2/1", "4/1", "11/2"],
            "dims": [[0, 0], [0, 0], [0, 0], [0, 0]],
            "maps": [[[], []], [[], []], [[], []]]}


LATER_INDEX_FAULTS = [
    # a wrong type, a wrong length and a bad item of dims
    (["dims", 2], "ab", "dims[2]: expected a two-element array"),
    (["dims", 2], 5, "dims[2]: expected a two-element array"),
    (["dims", 3], None, "dims[3]: expected a two-element array"),
    (["dims", 2], {"a": 0, "b": 0}, "dims[2]: expected a two-element array"),
    (["dims", 2], [0], "dims[2]: expected a two-element array"),
    (["dims", 2], [0, 0, 0], "dims[2]: expected a two-element array"),
    (["dims", 2, 1], "0", "dims[2][1]: expected an integer, got '0'"),
    (["dims", 3, 0], 1.0, "dims[3][0]: expected an integer, got 1.0"),
    (["dims", 1, 1], True, "dims[1][1]: expected an integer, got True"),
    (["dims", 1, 0], [0], "dims[1][0]: expected an integer, got [0]"),
    # samples
    (["samples", 2], 4, "samples[2]: expected a scalar string, got 4"),
    (["samples", 3], ["11/2"], "samples[3]: expected a scalar string, got ['11/2']"),
    (["samples", 2], "4.0", "samples[2]: not a scalar: '4.0'"),
    (["samples", 1], "2/0", "samples[1]: not a scalar: '2/0'"),
    (["samples"], ["1/2", "2/1", "4/1"], "document: dims and samples disagree in length"),
    # spectrum points and horizon
    (["spectrum", "points", 2], 5, "spectrum.points[2]: expected a scalar string, got 5"),
    (["spectrum", "points", 1], "3/-1", "spectrum.points[1]: not a scalar: '3/-1'"),
    (["spectrum", "points", 1], "5/1",
     "spectrum: spectrum points must be strictly increasing"),
    (["spectrum", "points", 2], "inf", "spectrum: spectrum points must be finite"),
    (["spectrum", "points", 2], "7/1", "spectrum: spectrum point 7/1 outside horizon"),
    (["spectrum", "horizon", 1], 6, "spectrum.horizon[1]: expected a scalar string, got 6"),
    (["spectrum", "horizon", 1], "6.0", "spectrum.horizon[1]: not a scalar: '6.0'"),
    (["spectrum", "horizon"], ["0/1"], "spectrum.horizon: expected a two-element array"),
    (["spectrum", "horizon"], ["0/1", "6/1", "7/1"],
     "spectrum.horizon: expected a two-element array"),
    (["spectrum", "horizon"], "06", "spectrum.horizon: expected a two-element array"),
]


def test_loads_names_a_fault_at_a_later_index_in_one_line():
    assert validate_module(loads(json.dumps(_four_sample_document()))) == []
    for path, value, message in LATER_INDEX_FAULTS:
        d = _four_sample_document()
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError) as caught:
            loads(json.dumps(d))
        assert str(caught.value) == message


def test_loads_names_the_first_fault_in_reading_order():
    # the spectrum is read first, then the dims, the maps and the samples:
    # with all four broken, each mend uncovers the next fault
    d = _four_sample_document()
    faults = [
        (d["spectrum"]["horizon"], 1, "y", "spectrum.horizon[1]: not a scalar: 'y'"),
        (d["dims"], 3, [0], "dims[3]: expected a two-element array"),
        (d["maps"], 2, [[], [], []], "maps[2]: expected a two-element array"),
        (d["samples"], 1, "x", "samples[1]: not a scalar: 'x'"),
    ]
    good = [(items, i, items[i]) for items, i, _, _ in faults]
    for items, i, bad, _ in faults:
        items[i] = bad
    for (items, i, value), (*_, message) in zip(good, faults):
        with pytest.raises(ParseError) as caught:
            loads(json.dumps(d))
        assert str(caught.value) == message
        items[i] = value
    assert validate_module(loads(json.dumps(d))) == []


def test_loads_refuses_non_ascii_digits():
    # int() reads every Unicode digit; a scalar's text is ASCII only
    d = _four_sample_document()
    d["samples"][2] = "٤/1"
    with pytest.raises(ParseError) as caught:
        loads(json.dumps(d))
    assert str(caught.value) == "samples[2]: not a scalar: '٤/1'"
