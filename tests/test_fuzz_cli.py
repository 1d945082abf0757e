"""Seeded fuzzing of every subcommand that reads a document.

Mutants of a small barcode document and a small module document (dims at
most 2, so `interleave` stays fast) go through `cli.main`.  Each run must
end in one of three ways: exit 0; `verify` exiting 1 with its issue lines
on stdout; or exit 1 or 2 with exactly one `error:` line on stderr and
nothing on stdout.  An exception escaping `main` fails the test.
"""

import copy
import functools
import json
import random
from collections import Counter

from contact_barcodes import cli
from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.persistence import module_from_barcode
from contact_barcodes.scalar import NEG_INF, POS_INF, rational
from contact_barcodes.serialization import dumps

HUGE = "1" + "0" * 60

# values swapped in for whatever a path holds: wrong types, floats and
# booleans for scalars and ints, negative and huge numbers, bad scalar text
REPLACEMENTS = [
    None, True, False, 0, 1, -1, -3, 2, 1.5, -0.0, 10 ** 30, "", "x", "1/0",
    "1.5", "inf", "-inf", "nan", "2/1", "-1/3", f"{HUGE}/7", f"-{HUGE}/3",
    f"{HUGE}", [], [0], [[1]], {}, {"cpv": 1},
]


def _barcode_doc():
    sp = Spectrum.of([1, 2, "5/2"], 0, 3)
    bars = (Bar.of(1, 2), Bar(rational(2), POS_INF, 1), Bar(NEG_INF, rational(5, 2), 0),
            Bar.of(1, "5/2", 1, truncated=True))
    return json.loads(dumps(Barcode(sp, bars)))


def _module_doc():
    sp = Spectrum.of([1, 2], 0, 3)
    bars = (Bar.of(1, 2), Bar(rational(1), POS_INF, 1), Bar(NEG_INF, rational(2), 0))
    return json.loads(dumps(module_from_barcode(Barcode(sp, bars))))


def _paths(node, path=()):
    """Every path of keys and indices into node, node's own () first, down
    to the depth of a matrix entry of a module document, so that nothing
    inside a nesting mutation is mutated again."""
    yield path
    if len(path) == 4:
        return
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(rng, doc):
    """Apply one random mutation to doc in place; what it did, as text.

    Scalar text and ints are mostly mutated in place, so that many mutants
    still parse and reach the library; the rest drop, swap, truncate or
    nest whatever a random path holds."""
    paths = [p for p in _paths(doc) if p]
    kind = rng.choice(("drop", "swap", "truncate", "nest") + ("int", "scalar") * 3)
    leaf = {"int": int, "scalar": str}.get(kind)
    if leaf is not None:
        paths = [p for p in paths if type(_at(doc, p)) is leaf] or paths
    path = rng.choice(paths)
    parent, last = _at(doc, path[:-1]), path[-1]
    value = parent[last]
    if kind == "drop":
        del parent[last]
    elif kind == "truncate" and isinstance(value, list) and value:
        del value[rng.randrange(len(value)):]
    elif kind == "nest":
        depth = rng.choice((2, 30, 300))
        for _ in range(depth):
            value = [value] if rng.random() < 0.5 else {"x": value}
        parent[last] = value
        kind = f"nest {depth}"
    elif kind == "int":
        parent[last] = rng.choice((0, 1, 0, 1, -1, 2, 2 ** 70, -(2 ** 70)))
    elif kind == "scalar":
        # mostly another scalar of the same document, so the result often
        # still lies on the spectrum
        num = rng.choice((1, -1)) * rng.randrange(0, 10 ** rng.choice((1, 40)))
        texts = [_at(doc, p) for p in paths] + ["inf", "-inf"]
        parent[last] = copy.deepcopy(rng.choice(texts * 2 + [f"{num}/{rng.randrange(1, 5)}"]))
    else:
        parent[last] = copy.deepcopy(rng.choice(REPLACEMENTS))
        kind = "swap"
    return f"{kind} at {list(path)}: {json.dumps(parent[last])[:40] if kind != 'drop' else ''}"


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


BARCODE_COMMANDS = [
    ["depth", "{doc}"],
    ["spectral", "{doc}", "--class", "0"],
    ["distance", "{doc}", "{barcode}"],
    ["cover", "{doc}", "--delta", "1"],
    ["bound", "{doc}", "--delta", "1"],
    ["diagram", "{doc}", "-o", "{svg}"],
]
MODULE_COMMANDS = [
    ["verify", "{doc}"],
    ["reduce", "{doc}"],
    ["interleave", "{doc}", "{module}"],
]


def test_every_reading_command_survives_mutated_documents(tmp_path, capsys, monkeypatch):
    # one parser for all runs: building it is most of the cost of a run
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    rng = random.Random(2024)
    files = {"barcode": tmp_path / "barcode.json", "module": tmp_path / "module.json",
             "doc": tmp_path / "doc.json", "svg": tmp_path / "out.svg"}
    files["barcode"].write_text(json.dumps(_barcode_doc()))
    files["module"].write_text(json.dumps(_module_doc()))
    outcomes = Counter()
    for trial in range(300):
        base = "barcode" if trial % 2 else "module"
        doc = _barcode_doc() if base == "barcode" else _module_doc()
        done = [_mutate(rng, doc) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
        files["doc"].write_text(json.dumps(doc))
        for argv in BARCODE_COMMANDS if base == "barcode" else MODULE_COMMANDS:
            args = [a.format(**files) for a in argv]
            mutant = f"{base} mutant {trial} ({'; '.join(done)}) under {argv[0]}"
            try:
                rc = cli.main(args)
            except (Exception, SystemExit) as exc:  # the failure names the mutant
                raise AssertionError(f"{mutant} raised {exc!r}") from exc
            out, err = capsys.readouterr()
            outcomes[argv[0], rc] += 1
            if rc == 0:
                assert err == "", mutant
            elif rc == 1 and argv[0] == "verify" and not err:
                assert out and out != "valid\n", mutant
            else:
                assert rc in (1, 2), (mutant, rc)
                assert out == "", (mutant, out)
                assert err.startswith("error: ") and err.count("\n") == 1 \
                    and err.endswith("\n"), (mutant, err)
    # every command sees mutants that it reads and mutants that it refuses
    for argv in BARCODE_COMMANDS + MODULE_COMMANDS:
        assert outcomes[argv[0], 0] >= 10 and outcomes[argv[0], 2] >= 10, outcomes
    assert outcomes["verify", 1] >= 10 and outcomes["reduce", 1] >= 5, outcomes
