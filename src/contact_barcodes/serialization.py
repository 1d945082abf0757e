"""JSON round-tripping for barcodes and sampled modules.

Scalars serialize as exact strings ("3/2", "-inf", "inf"); GF(2) matrices
as arrays of 0/1 row arrays.  Every document carries the schema version
field "cpv": 1.  `loads` is the one reader and `dumps` the one writer.

Only the module paths (`_module_from_dict`, and `dumps` of a module) import
the GF(2) and module layers, so that reading and writing barcodes loads
neither.

Documents are written as `json.dumps(..., indent=2)` would write them.
With an indent, `json` runs its pure-Python encoder, one generator frame
per value, so every document is rendered here instead, the `maps` of a
module straight from the row bits, their pieces joined once; the text is
the same byte for byte.  Reading checks the types and lengths of a whole
array at once (the scalar strings of a spectrum and of `samples`, the
`dims` pairs, the `maps` pairs and rows), parses scalars with one `map`
and packs each matrix with one `Gf2Matrix.from_rows` call, naming no
JSON path; only a refused array is read again item by item, to name the
path of its first fault.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from .barcode import Bar, Barcode, Spectrum
from .errors import ParseError
from .scalar import Scalar

if TYPE_CHECKING:
    from .gf2 import Gf2Matrix
    from .persistence import SampledModule

SCHEMA_VERSION = 1

# Readers take the JSON path of the object they read ("bars[0]"), so that a
# malformed document is refused with a ParseError naming what is wrong and
# where, never with a KeyError or TypeError from deep inside.  A ValueError
# from the checks of the object's own constructor is re-raised as a
# ParseError with that path.


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(d: Any, key: str, path: str) -> Any:
    if not isinstance(d, dict):
        raise ParseError(f"{path or 'document'}: expected a JSON object")
    if key not in d:
        raise ParseError(f"missing key {_join(path, key)}")
    return d[key]


def _array(d: Any, key: str, path: str) -> list:
    value = _field(d, key, path)
    if not isinstance(value, list):
        raise ParseError(f"{_join(path, key)}: expected a JSON array")
    return value


def _scalar(text: Any, path: str) -> Scalar:
    if not isinstance(text, str):
        raise ParseError(f"{path}: expected a scalar string, got {text!r}")
    try:
        return Scalar.parse(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _int(value: Any, path: str) -> int:
    # JSON integers only: int() would read 1.5 as 1 and "1" as 1
    if type(value) is not int:
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _build(path: str, cls, *args):
    """cls(*args), its own checks' ValueError re-raised as a ParseError naming path."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ParseError(f"{path or 'document'}: {exc}") from None


def _pair(value: Any, path: str) -> list:
    if not (isinstance(value, list) and len(value) == 2):
        raise ParseError(f"{path}: expected a two-element array")
    return value


def _scalars(texts: list, path: str) -> Tuple[Scalar, ...]:
    """The scalars of a JSON array of scalar strings at path.  All items are
    checked and parsed in bulk; a refused array is read again item by item
    to name its first fault."""
    if {str}.issuperset(map(type, texts)):
        try:
            return tuple(map(Scalar.parse, texts))
        except ValueError:
            pass
    return tuple([_scalar(t, f"{path}[{i}]") for i, t in enumerate(texts)])


def _spectrum_from_dict(d: Dict[str, Any], path: str = "spectrum") -> Spectrum:
    points = _array(d, "points", path)
    where = _join(path, "horizon")
    horizon = _pair(_field(d, "horizon", path), where)
    return _build(path, Spectrum, _scalars(points, _join(path, "points")),
                  *_scalars(horizon, where))


def _bar_from_dict(d: Dict[str, Any], path: str) -> Bar:
    birth = _scalar(_field(d, "birth", path), _join(path, "birth"))
    death = _scalar(_field(d, "death", path), _join(path, "death"))
    parity = _int(_field(d, "parity", path), _join(path, "parity"))
    truncated = d.get("truncated", False)
    # JSON true/false only: bool() would read "false" as true
    if truncated is not True and truncated is not False:
        raise ParseError(f"{_join(path, 'truncated')}: expected true or false, "
                         f"got {truncated!r}")
    return _build(path, Bar, birth, death, parity, truncated)


def _barcode_from_dict(d: Dict[str, Any]) -> Barcode:
    _check_version(d)
    spectrum = _spectrum_from_dict(_field(d, "spectrum", ""))
    bars = _array(d, "bars", "")
    return _build(
        "", Barcode, spectrum,
        tuple(_bar_from_dict(bd, f"bars[{i}]") for i, bd in enumerate(bars)),
    )


def _module_from_dict(d: Dict[str, Any]) -> SampledModule:
    from .persistence import SampledModule

    _check_version(d)
    spectrum = _spectrum_from_dict(_field(d, "spectrum", ""))
    samples = _array(d, "samples", "")
    dims = _dims(_array(d, "dims", ""))
    maps = _maps(_array(d, "maps", ""), dims)
    return _build("", SampledModule, spectrum, _scalars(samples, "samples"), dims, maps)


# `_dims` and `_maps` check their whole array in bulk, as `_scalars` does,
# and read a refused one again item by item to name its first fault.


def _dims(dims: list) -> Tuple[Tuple[int, int], ...]:
    if {list}.issuperset(map(type, dims)) and {2}.issuperset(map(len, dims)) \
            and {int}.issuperset(map(type, chain.from_iterable(dims))):
        return tuple(map(tuple, dims))
    read = []
    for i, pair in enumerate(dims):
        a, b = _pair(pair, f"dims[{i}]")
        read.append((_int(a, f"dims[{i}][0]"), _int(b, f"dims[{i}][1]")))
    return tuple(read)


def _maps(maps: list, dims: Tuple[Tuple[int, int], ...]
          ) -> Tuple[Tuple[Gf2Matrix, Gf2Matrix], ...]:
    from .gf2 import Gf2Matrix

    if len(maps) <= len(dims) and {list}.issuperset(map(type, maps)) \
            and {2}.issuperset(map(len, maps)):
        flat = list(chain.from_iterable(maps))
        if {list}.issuperset(map(type, flat)) \
                and {list}.issuperset(map(type, chain.from_iterable(flat))):
            try:  # matrix 2i + parity has dims[i][parity] columns
                packed = list(map(Gf2Matrix.from_rows, flat, chain.from_iterable(dims)))
                return tuple(zip(packed[::2], packed[1::2]))
            except ValueError:
                pass
    read = []
    for i, pair in enumerate(maps):
        if i >= len(dims):
            raise ParseError(f"maps[{i}]: more map pairs than dims allow")
        pair = _pair(pair, f"maps[{i}]")
        mats = []
        for parity in (0, 1):
            rows = pair[parity]
            if not (isinstance(rows, list) and {list}.issuperset(map(type, rows))):
                raise ParseError(f"maps[{i}][{parity}]: expected an array of 0/1 rows")
            try:
                mats.append(Gf2Matrix.from_rows(rows, ncols=dims[i][parity]))
            except ValueError as exc:
                raise ParseError(_row_fault(rows, dims[i][parity], f"maps[{i}][{parity}]")
                                 or f"maps[{i}][{parity}]: {exc}") from None
        read.append((mats[0], mats[1]))
    return tuple(read)


def _row_fault(rows: list, ncols: int, path: str) -> Optional[str]:
    """What is wrong with the first bad row of a refused matrix, if any."""
    for r, row in enumerate(rows):
        if len(row) != ncols:
            return f"{path}[{r}]: expected {ncols} entries, got {len(row)}"
        for v in row:
            if type(v) is not int or v not in (0, 1):
                return f"{path}[{r}]: entries must be 0 or 1, got {v!r}"
    return None


def loads(text: str):
    """Parse a barcode or module document, dispatching on its keys.

    A malformed document raises ParseError; text that is not JSON at all
    raises json.JSONDecodeError.  Both are ValueErrors."""
    try:
        d = json.loads(text)
    except RecursionError:
        raise ParseError("document nests too deeply to parse") from None
    if not isinstance(d, dict):
        raise ParseError("expected a JSON object")
    if "bars" in d:
        return _barcode_from_dict(d)
    if any(key in d for key in ("samples", "dims", "maps")):
        m = _module_from_dict(d)
        # Gf2Matrix.from_rows reads JSON true/false as 1/0.  A check of every
        # entry would add about a sixth to the parse of a large module, so
        # it runs only when the text holds such a literal.
        if "true" in text or "false" in text:
            for i, pair in enumerate(d["maps"]):
                for parity in (0, 1):
                    fault = _row_fault(pair[parity], m.dims[i][parity],
                                       f"maps[{i}][{parity}]")
                    if fault:
                        raise ParseError(fault)
        return m
    raise ParseError("document is neither a barcode nor a module")


def dumps(obj) -> str:
    """The indent=2 JSON document of a Barcode or a SampledModule."""
    if isinstance(obj, Barcode):
        body = f'"bars": {_json_array([_bar_text(bar) for bar in obj.bars], 4)}'
    else:
        from .persistence import SampledModule

        if not isinstance(obj, SampledModule):
            raise TypeError(f"dumps takes a Barcode or a SampledModule, not {type(obj).__name__}")
        samples = _json_array([f'"{s}"' for s in obj.samples], 4)
        dims = _json_array([f"[\n      {d0},\n      {d1}\n    ]" for d0, d1 in obj.dims], 4)
        body = f'"samples": {samples},\n  "dims": {dims},\n  "maps": {_maps_text(obj.maps)}'
    spectrum = _spectrum_text(obj.spectrum)
    return f'{{\n  "cpv": {SCHEMA_VERSION},\n  "spectrum": {spectrum},\n  {body}\n}}\n'


def _spectrum_text(sp: Spectrum) -> str:
    """The value of the "spectrum" key: its arrays' items 6 spaces deep."""
    points = _json_array([f'"{p}"' for p in sp.points], 6)
    return f'{{\n    "points": {points},\n    "horizon": ' \
        f'[\n      "{sp.lo}",\n      "{sp.hi}"\n    ]\n  }}'


def _bar_text(bar: Bar) -> str:
    """One item of "bars", its keys 6 spaces deep."""
    flag = ',\n      "truncated": true' if bar.truncated else ""
    return f'{{\n      "birth": "{bar.birth}",\n      "death": "{bar.death}",\n' \
        f'      "parity": {bar.parity}{flag}\n    }}'


def _json_array(items: Sequence[str], indent: int) -> str:
    """Rendered items as json.dumps(indent=2) writes an array whose items
    sit `indent` spaces deep; "[]" when there are none."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


class _RowTexts(dict):
    """Row bits -> text of the row as an array at depth 4 of a module
    document (its entries 10 spaces deep), for one column count."""

    def __init__(self, ncols: int):
        super().__init__()
        self.ncols = ncols

    def __missing__(self, row: int) -> str:
        # column j is bit j, so the binary digits read backwards
        digits = format(row, f"0{self.ncols}b")[::-1] if self.ncols else ""
        text = self[row] = _json_array(digits, 10)
        return text


def _maps_text(maps: Sequence[Tuple[Gf2Matrix, Gf2Matrix]]) -> str:
    """The value of the "maps" key: map pairs 4 spaces deep, matrices 6,
    rows 8.  Row texts are memoized per (row, ncols) for this call, and the
    pieces of every map go into one list, joined once."""
    if not maps:
        return "[]"
    row_texts: Dict[int, _RowTexts] = {}
    parts = []
    add = parts.append
    for pair in maps:
        add("\n    [")
        for lead, mat in zip(("\n      ", ",\n      "), pair):
            add(lead)
            texts = row_texts.get(mat.ncols)
            if texts is None:
                texts = row_texts[mat.ncols] = _RowTexts(mat.ncols)
            if mat.rows:
                add("[\n        ")
                add(",\n        ".join(map(texts.__getitem__, mat.rows)))
                add("\n      ]")
            else:
                add("[]")
        add("\n    ],")
    parts[-1] = "\n    ]\n  ]"
    return "[" + "".join(parts)


def _check_version(d: Dict[str, Any]) -> None:
    if d.get("cpv") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema version: {d.get('cpv')!r}")
