"""The experiment scripts run end to end, each in its own process."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from contact_barcodes.serialization import loads

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_ellipsoid_gallery_writes_every_entry(tmp_path):
    done = run_script("ellipsoid_gallery.py", str(tmp_path))
    assert done.returncode == 0, done.stderr
    names = ("round_sphere", "squashed", "three_axes", "near_sqrt2")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{n}.{ext}" for n in names for ext in ("json", "svg"))
    for name, line in zip(names, done.stdout.splitlines()):
        code = loads((tmp_path / f"{name}.json").read_text())
        assert line.startswith(f"{name}: {len(code.bars)} bars, ")
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg")


def test_bottleneck_scaling_prints_a_row_per_size_and_grading():
    done = run_script("bottleneck_scaling.py", "--sizes", "20", "40", "--seed", "0")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["bars", "graded", "delta", "probes", "seconds", "cpu_s"]
    assert [row.split()[:2] for row in rows] == [
        ["20", "no"], ["20", "yes"], ["40", "no"], ["40", "yes"]]
    for row in rows:
        _, _, delta, probes, seconds, cpu_s = row.split()
        assert Fraction(delta) >= 0 and int(probes) >= 1
        assert float(seconds) >= 0 and float(cpu_s) >= 0


def test_interleaving_scaling_prints_a_row_per_size():
    done = run_script("interleaving_scaling.py", "--sizes", "20", "40")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["points", "delta", "seconds", "cpu_s", "peak_mb"]
    assert [row.split()[:2] for row in rows] == [["20", "1/1"], ["40", "1/1"]]
    for row in rows:
        assert float(row.split()[2]) >= 0 and float(row.split()[3]) >= 0
    # the peak so far never falls from one row to the next
    peaks = [float(row.split()[4]) for row in rows]
    assert 0 < peaks[0] <= peaks[1]


def test_paper_isometry_agrees_on_the_paper_pair():
    done = run_script("paper_isometry.py", "--horizons", "25", "50")
    assert done.returncode == 0, done.stdout + done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["T", "r1", "r2", "bottleneck", "interleaving", "verified",
                              "below", "refuted", "seconds", "cpu_s"]
    assert [row.split()[:8] for row in rows] == [
        ["25", "44", "44", "17/13790", "17/13790", "yes", "8/6895", "yes"],
        ["50", "87", "87", "1/394", "1/394", "yes", "17/6895", "yes"]]
    assert all(float(row.split()[8]) >= 0 and float(row.split()[9]) >= 0 for row in rows)
