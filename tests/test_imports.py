"""What a process imports: the lazy package exports and the real `cpv`
entry point, `python -m contact_barcodes`, one process per command."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import contact_barcodes
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.persistence import module_from_barcode
from contact_barcodes.serialization import dumps

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _loaded(importtime_stderr):
    """The contact_barcodes submodules named in `-X importtime` output."""
    names = set()
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("contact_barcodes."):
                names.add(name[len("contact_barcodes."):])
    return names


# every cpv process loads the package, cli, errors and scalar; then these.
# A barcode command reads and writes barcodes only, so it loads no GF(2),
# module or interleaving code.
BARCODES = {"barcode", "serialization"}
MODULES = BARCODES | {"gf2", "persistence"}
COMMANDS = [
    ("help", ["--help"], set()),
    ("verify", ["verify", "{module}"], MODULES),
    ("reduce", ["reduce", "{module}"], MODULES),
    ("interleave", ["interleave", "{module}", "{module}"], MODULES | {"interleaving"}),
    ("ellipsoid", ["ellipsoid", "-a", "1", "-a", "3/2", "-T", "6"],
     BARCODES | {"ellipsoid"}),
    ("distance", ["distance", "{barcode}", "{barcode}"], BARCODES | {"distances"}),
    ("spectral", ["spectral", "{barcode}", "--class", "0"], BARCODES | {"invariants"}),
    ("depth", ["depth", "{barcode}"], BARCODES | {"invariants"}),
    ("cover", ["cover", "{barcode}", "--delta", "1"], BARCODES | {"invariants"}),
    ("bound", ["bound", "{barcode}", "--delta", "1"], BARCODES | {"invariants"}),
    ("diagram", ["diagram", "{barcode}", "-o", "{out}"], BARCODES | {"svg"}),
]


@pytest.mark.parametrize("argv,expected", [c[1:] for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_each_command_loads_only_its_layers(tmp_path, argv, expected):
    code = ellipsoid_barcode(EllipsoidParams.of(["1", "3/2"], 6))
    barcode, module = tmp_path / "bc.json", tmp_path / "m.json"
    out = tmp_path / "out.svg"
    barcode.write_text(dumps(code))
    module.write_text(dumps(module_from_barcode(code)))
    args = [a.format(barcode=barcode, module=module, out=out) for a in argv]
    done = _python("-X", "importtime", "-m", "contact_barcodes", *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout or out.stat().st_size
    assert _loaded(done.stderr) == {"cli", "errors", "scalar"} | expected


def test_no_module_imports_dataclasses():
    # `dataclasses` pulls in `inspect`, and each class it makes execs
    # generated methods: a start-up cost paid by every cpv process
    for path in sorted((ROOT / "src" / "contact_barcodes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), path.name


def _unused_imports(path):
    """The names that the module at path imports but never loads; names
    read only in annotations count as loaded, since ast parses them."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in loaded)


def test_no_module_imports_a_name_it_never_loads():
    paths = [path for folder in ("src", "scripts", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    assert [fault for path in paths for fault in _unused_imports(path)] == []


def test_invariants_import_only_barcode_errors_and_scalar():
    # the invariants are reads of one barcode, loaded by four cpv commands:
    # no distance, module or random code, not even inside a function
    path = ROOT / "src" / "contact_barcodes" / "invariants.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "contact_barcodes." * bool(node.level) + (node.module or "")
            names = [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        imported |= {n.split(".")[1] for n in names if n.startswith("contact_barcodes.")}
    assert imported <= {"barcode", "errors", "scalar"}, imported


def test_missing_file_through_the_real_process(tmp_path):
    done = _python("-m", "contact_barcodes", "depth", str(tmp_path / "missing.json"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


def test_import_loads_no_submodule():
    done = _python("-c", "import sys, contact_barcodes; print(sorted("
                   "m for m in sys.modules if m.startswith('contact_barcodes')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['contact_barcodes']\n"


def test_every_export_is_its_submodule_object():
    for name in contact_barcodes.__all__:
        source = import_module(f"contact_barcodes.{contact_barcodes._SOURCE[name]}")
        expected = source if name == "errors" else getattr(source, name)
        assert contact_barcodes.__getattr__(name) is expected, name
        assert getattr(contact_barcodes, name) is expected, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from contact_barcodes import *", namespace)
    assert set(contact_barcodes.__all__) <= set(namespace)
    assert set(contact_barcodes.__all__) <= set(dir(contact_barcodes))
    assert namespace["errors"].DomainError is contact_barcodes.errors.DomainError


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        contact_barcodes.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from contact_barcodes import no_such_name", {})
