import json
import random
from collections import Counter

import pytest

from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.persistence import SampledModule, module_from_barcode
from contact_barcodes.random_instances import random_barcode, random_module, scramble
from contact_barcodes.scalar import NEG_INF, POS_INF, rational
from contact_barcodes.serialization import (
    barcode_from_dict,
    barcode_to_dict,
    dumps,
    loads,
    module_from_dict,
    module_to_dict,
)


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
    again = barcode_from_dict(d)
    assert again.bars[0].truncated
    plain = barcode_to_dict(Barcode(sp, (Bar.of(0, 1),)))
    assert "truncated" not in plain["bars"][0]
    d["bars"][0]["truncated"] = False
    assert not barcode_from_dict(d).bars[0].truncated
    # only JSON true/false: bool("false") is True
    for value in ("false", 0, 1, None):
        d["bars"][0]["truncated"] = value
        with pytest.raises(ValueError, match=r"^bars\[0\]\.truncated: expected true or false"):
            barcode_from_dict(d)


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
        barcode_from_dict(d)
    d2 = module_to_dict(module_from_barcode(Barcode(sp, ())))
    del d2["cpv"]
    with pytest.raises(ValueError):
        module_from_dict(d2)


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


def test_dumps_takes_a_barcode_or_a_module():
    with pytest.raises(TypeError):
        dumps({"cpv": 1})
