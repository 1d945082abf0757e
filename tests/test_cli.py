import json
import random
import time
from fractions import Fraction
from pathlib import Path
import xml.etree.ElementTree as ET

import pytest

from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.cli import main, run
from contact_barcodes.distances import bottleneck_distance
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.errors import ParseError
from contact_barcodes.persistence import module_from_barcode
from contact_barcodes.scalar import NEG_INF, POS_INF, Scalar, rational
from contact_barcodes.serialization import dumps, loads


@pytest.fixture
def ellipsoid_file(tmp_path):
    path = tmp_path / "bc.json"
    assert run(["ellipsoid", "-a", "1", "-a", "3/2", "-T", "6",
                "-o", str(path)]) == 0
    return path


def test_ellipsoid_matches_library(ellipsoid_file):
    code = loads(ellipsoid_file.read_text())
    assert code == ellipsoid_barcode(EllipsoidParams.of(["1", "3/2"], 6))


def test_ellipsoid_example_bars(tmp_path, capsys):
    assert run(["ellipsoid", "-a", "1", "-T", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ends = [(b["birth"], b["death"]) for b in doc["bars"]]
    assert ends == [("0/1", "1/1"), ("1/1", "2/1"), ("2/1", "3/1")]
    assert doc["bars"][-1]["truncated"] is True


def test_ellipsoid_svg(tmp_path):
    svg = tmp_path / "bc.svg"
    assert run(["ellipsoid", "-a", "1", "-T", "3", "-o", str(tmp_path / "b.json"),
                "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(lines) >= 3


def test_reduce_round_trip(tmp_path, ellipsoid_file):
    module_path = tmp_path / "module.json"
    code = loads(ellipsoid_file.read_text())
    module_path.write_text(dumps(module_from_barcode(code)))
    out = tmp_path / "reduced.json"
    assert run(["reduce", str(module_path), "-o", str(out)]) == 0
    assert loads(out.read_text()).same_bars(code)


def test_distance_zero_and_graded(tmp_path, capsys, ellipsoid_file):
    assert run(["distance", str(ellipsoid_file), str(ellipsoid_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == "0/1"
    assert all(l is not None and r is not None for l, r in doc["matching"])
    assert run(["distance", str(ellipsoid_file), str(ellipsoid_file),
                "--graded"]) == 0
    assert json.loads(capsys.readouterr().out)["delta"] == "0/1"


def test_distance_infinite(tmp_path, capsys):
    sp = Spectrum.of([0], 0, 1)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dumps(Barcode(sp, (Bar(rational(0), POS_INF, 0),))))
    b.write_text(dumps(Barcode(sp, ())))
    assert run(["distance", str(a), str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == "inf" and doc["matching"] == []


def test_interleave(tmp_path, capsys):
    sp = Spectrum.of([0, 1, 2, 3], 0, 3)
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    m1.write_text(dumps(module_from_barcode(Barcode(sp, (Bar.of(0, 2),)))))
    m2.write_text(dumps(module_from_barcode(Barcode(sp, (Bar.of(1, 3),)))))
    assert run(["interleave", str(m1), str(m2)]) == 0
    assert json.loads(capsys.readouterr().out)["delta"] == "1/1"


def test_spectral_and_depth(tmp_path, capsys):
    sp = Spectrum.of([0, 3], 0, 3)
    path = tmp_path / "bc.json"
    path.write_text(dumps(Barcode(sp, (Bar.of(0, 3), Bar(rational(3), POS_INF, 1)))))
    assert run(["spectral", str(path), "--class", "0"]) == 0
    assert capsys.readouterr().out.strip() == "3/1"
    assert run(["depth", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "3/1"


def test_spectral_pi_span_is_domain_error(tmp_path, capsys):
    path = tmp_path / "bc.json"
    path.write_text(dumps(Barcode(Spectrum.of([], 0, 1),
                                  (Bar(NEG_INF, POS_INF, 0),))))
    assert main(["spectral", str(path), "--class", "0"]) == 1


def test_cover_and_bound(tmp_path, capsys):
    path = tmp_path / "bc.json"
    path.write_text(dumps(ellipsoid_barcode(EllipsoidParams.of([1, 1], 5))))
    assert run(["bound", str(path), "--delta", "1"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert run(["cover", str(path), "--delta", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 6 and len(doc["centers"]) == 6


def test_verify(tmp_path, capsys):
    sp = Spectrum.of([1], 0, 2)
    good = tmp_path / "good.json"
    good.write_text(dumps(module_from_barcode(Barcode(sp, (Bar.of(1, 1),)))))
    assert run(["verify", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "valid"

    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["samples"][0] = "1/1"  # collides with the spectrum point
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad)]) == 1
    assert "collides" in capsys.readouterr().out


def test_diagram(tmp_path, ellipsoid_file):
    out = tmp_path / "d.svg"
    assert run(["diagram", str(ellipsoid_file), "-o", str(out)]) == 0
    ET.fromstring(out.read_text())


def test_determinism(tmp_path, capsys):
    args = ["ellipsoid", "-a", "2/3", "-a", "1", "-T", "4"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_error_exit_codes(tmp_path, capsys):
    assert main(["depth", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["depth", str(garbled)]) == 2
    wrong_version = tmp_path / "wrong.json"
    doc = json.loads(dumps(Barcode(Spectrum.of([], 0, 1), ())))
    doc["cpv"] = 99
    wrong_version.write_text(json.dumps(doc))
    assert main(["depth", str(wrong_version)]) == 2
    # barcode fed where a module is expected
    bc = tmp_path / "bc.json"
    bc.write_text(dumps(Barcode(Spectrum.of([], 0, 1), ())))
    assert main(["verify", str(bc)]) == 2
    with pytest.raises(ParseError, match="does not hold a module"):
        run(["verify", str(bc)])
    # module fed where a barcode is expected
    module = tmp_path / "module.json"
    module.write_text(dumps(module_from_barcode(Barcode(Spectrum.of([1], 0, 2), ()))))
    assert main(["depth", str(module)]) == 2
    with pytest.raises(ParseError, match="does not hold a barcode"):
        run(["depth", str(module)])
    with pytest.raises(SystemExit):
        run(["ellipsoid", "-a", "1.5", "-T", "3"])  # floats rejected


def test_quick_suite(capsys):
    assert run(["suite", "--quick", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10
    assert "10/10" in out


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CPV_SEED", "5")
    assert run(["suite", "--quick"]) == 0
    assert "(seed 5, quick)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_bad_seed_env_names_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("CPV_SEED", value)
    assert main(["suite", "--quick"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: CPV_SEED must be an integer, got {value!r}\n"


def _barcode_doc():
    sp = Spectrum.of([1, 2], 0, 3)
    return json.loads(dumps(Barcode(sp, (Bar.of(1, 2), Bar(rational(2), POS_INF, 1)))))


def _module_doc():
    return json.loads(dumps(module_from_barcode(Barcode(Spectrum.of([1], 0, 2),
                                                        (Bar.of(1, 1),)))))


def _drop(path):
    """Mutator deleting the key at a path of keys and indices."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return mutate


def _set(path, value):
    """Mutator setting the value at a path of keys and indices."""
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return mutate


def _even_map(d0, d1, rows):
    """Mutator giving the module's two samples even dimensions d0 and d1
    and the even map between them these rows."""
    def mutate(doc):
        doc["dims"] = [[d0, 0], [d1, 0]]
        doc["maps"] = [[rows, []]]
    return mutate


def _scalar_horizon(doc):
    doc["spectrum"]["horizon"] = "9"


BARCODE_FAULTS = [
    (_drop(["bars", 0, "death"]), "bars[0].death"),
    (_drop(["bars", 1, "birth"]), "bars[1].birth"),
    (_drop(["bars", 0, "parity"]), "bars[0].parity"),
    (_drop(["spectrum", "points"]), "spectrum.points"),
    (_drop(["spectrum", "horizon"]), "spectrum.horizon"),
    (_scalar_horizon, "spectrum.horizon"),
    (_set(["bars", 0, "parity"], 1.5), "bars[0].parity"),
    (_set(["bars", 0, "truncated"], "false"), "bars[0].truncated"),
    # faults the Bar, Spectrum and Barcode constructors find, named by the reader
    (_set(["bars", 0, "parity"], 2), "bars[0]: parity must be 0 or 1"),
    (_set(["bars", 1, "death"], "1/1"), "bars[1]: bar has death 1/1 before birth 2/1"),
    (_set(["spectrum", "points"], ["2/1", "1/1"]),
     "spectrum: spectrum points must be strictly increasing"),
    (_set(["bars", 0, "death"], "3/2"), "document: bar endpoint 3/2 is not a spectrum point"),
]
MODULE_FAULTS = [
    (_drop(["samples"]), "samples"),
    (_drop(["dims"]), "dims"),
    (_drop(["maps"]), "maps"),
    (_drop(["spectrum", "points"]), "spectrum.points"),
    (_scalar_horizon, "spectrum.horizon"),
    (_even_map(1, 1, [[1.0]]), "maps[0][0][0]"),
    (_even_map(1, 1, [[2]]), "maps[0][0][0]"),
    (_even_map(1, 1, [[True]]), "maps[0][0][0]: entries must be 0 or 1, got True"),
    (_even_map(1, 1, [[False]]), "maps[0][0][0]: entries must be 0 or 1, got False"),
    (_even_map(2, 2, [[1, 0], [1]]), "maps[0][0][1]"),
    (_set(["dims", 0, 0], 1.5), "dims[0][0]"),
    (_set(["dims", 0, 1], "1"), "dims[0][1]"),
    (_drop(["dims", 1]), "document: dims and samples disagree in length"),
]
COMMANDS = [
    (["depth", "{doc}"], BARCODE_FAULTS, _barcode_doc),
    (["distance", "{doc}", "{good}"], BARCODE_FAULTS, _barcode_doc),
    (["spectral", "{doc}", "--class", "0"], BARCODE_FAULTS, _barcode_doc),
    (["reduce", "{doc}"], MODULE_FAULTS, _module_doc),
    (["verify", "{doc}"], MODULE_FAULTS, _module_doc),
]


@pytest.mark.parametrize("argv,faults,make", COMMANDS,
                         ids=[c[0][0] for c in COMMANDS])
def test_schema_errors_name_the_json_path(tmp_path, capsys, argv, faults, make):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(make()))
    for mutate, where in faults:
        doc = make()
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = [a.format(doc=bad, good=good) for a in argv]
        assert main(args) == 2, (args, where)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and where in captured.err, captured.err
        with pytest.raises(ParseError) as caught:
            run(args)
        assert where in str(caught.value), (args, where)


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    # json.loads raises RecursionError on an array nested this deep
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for command in ("depth", "verify"):
        assert main([command, str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document nests too deeply to parse\n"


def test_reduce_refuses_a_dimension_past_the_bound(tmp_path, capsys):
    # a short document may state any dimension; decompose's first basis
    # would hold one vector per coordinate, so it refuses before building it
    path = tmp_path / "big.json"
    path.write_text('{"cpv": 1, "spectrum": {"points": [], "horizon": ["0", "1"]}, '
                    '"samples": ["1/2"], "dims": [[1000000, 0]], "maps": []}')
    start = time.perf_counter()
    assert main(["reduce", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "decomposition bound" in captured.err



def test_interleave_answers_a_dense_300_point_pair(tmp_path, capsys):
    # 300 points k/q with q < 10**4 (the pair of test_distances'
    # dense_region_pair): about 90,000 gaps and halves, thousands of bits
    # long, of which the search probes a few without listing them
    rng = random.Random("dense regions/300")
    points = set()
    while len(points) < 300:
        q = rng.randrange(1, 10 ** 4)
        points.add(Fraction(rng.randrange(100 * q), q))
    pts = tuple(Scalar(p) for p in sorted(points))
    sp = Spectrum(pts, rational(0), rational(100))
    codes = (Barcode(sp, (Bar(pts[0], pts[-1], 0), Bar(pts[1], pts[3], 1))),
             Barcode(sp, (Bar(pts[1], pts[-1], 0), Bar(pts[1], pts[2], 1))))
    paths = []
    for code in codes:
        paths.append(tmp_path / f"m{len(paths)}.json")
        paths[-1].write_text(dumps(module_from_barcode(code)))
    assert main(["interleave", *map(str, paths)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    graded, _ = bottleneck_distance(*codes, graded=True)
    assert json.loads(captured.out)["delta"] == str(graded) != "0/1"


def test_interleave_names_an_exhausted_search_budget(tmp_path, capsys, monkeypatch):
    from contact_barcodes import interleaving

    sp = Spectrum.of([1, 2], 0, 3)
    code = Barcode(sp, (Bar(NEG_INF, rational(1), 0), Bar(NEG_INF, rational(2), 0)))
    path = tmp_path / "m.json"
    path.write_text(dumps(module_from_barcode(code)))
    monkeypatch.setattr(interleaving, "_SEARCH_BUDGET", 3)
    assert main(["interleave", str(path), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: interleaving search budget exhausted at delta ")
    assert captured.err.endswith(": 3 F candidates tried between modules of 3 and 3 regions\n")


def _invalid_module_doc():
    doc = _module_doc()
    doc["samples"][0] = "1/1"  # collides with the spectrum point
    return doc


def _module_on_horizon(hi):
    return json.loads(dumps(module_from_barcode(Barcode(Spectrum.of([1], 0, hi), ()))))


DOMAIN_FAILURES = [
    ("reduce-invalid-module", ["reduce", "{a}"], _invalid_module_doc, _module_doc),
    ("interleave-horizons", ["interleave", "{a}", "{b}"],
     lambda: _module_on_horizon(2), lambda: _module_on_horizon(3)),
    ("cover-delta-0", ["cover", "{a}", "--delta", "0"], _barcode_doc, _barcode_doc),
    ("bound-delta-0", ["bound", "{a}", "--delta", "0"], _barcode_doc, _barcode_doc),
    ("ellipsoid-axes-unsorted", ["ellipsoid", "-a", "2", "-a", "1", "-T", "3"],
     _barcode_doc, _barcode_doc),
    ("ellipsoid-horizon-0", ["ellipsoid", "-a", "1", "-T", "0"],
     _barcode_doc, _barcode_doc),
]


@pytest.mark.parametrize("argv,make_a,make_b", [c[1:] for c in DOMAIN_FAILURES],
                         ids=[c[0] for c in DOMAIN_FAILURES])
def test_domain_failures_exit_1(tmp_path, capsys, argv, make_a, make_b):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(make_a()))
    b.write_text(json.dumps(make_b()))
    assert main([arg.format(a=a, b=b) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_quick_suite_stdout_is_pinned(capsys):
    # the behaviour gate: stdout of the quick battery at seed 0, byte for byte
    pinned = Path(__file__).parent / "data" / "suite_quick_seed0.txt"
    assert run(["suite", "--quick", "--seed", "0"]) == 0
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


def test_module_without_samples_straddles_no_point(tmp_path, capsys):
    doc = {"cpv": 1, "spectrum": {"points": ["1/1", "2/1"], "horizon": ["0/1", "3/1"]},
           "samples": [], "dims": [], "maps": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("spectrum point 1/1 is not straddled by the samples\n"
                            "spectrum point 2/1 is not straddled by the samples\n")
    assert captured.err == ""
    assert main(["reduce", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: invalid module: spectrum point 1/1 is not")
    # without spectrum points there is nothing to straddle
    doc["spectrum"]["points"] = []
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["reduce", str(path)]) == 0
    assert loads(capsys.readouterr().out).bars == ()


def test_ellipsoid_refuses_a_spectrum_past_the_bound(capsys):
    # 10^9 + 1 multiples of the axis up to T: refused before any is built
    start = time.perf_counter()
    assert main(["ellipsoid", "-a", "1/1000000000", "-T", "1"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the ellipsoid spectrum up to T = 1/1 has 1000000001 "
                            "axis multiples, more than 1000000\n")
