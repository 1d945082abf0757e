"""The three workloads: seeded inputs, one operation, its checks, and the
per-layer probes of the traced run.

Each workload has inputs at three sizes, labelled n, 2n and 4n.  A round
runs one operation on every input of every size, in that order.  `op` is
what the end-to-end metrics time; `check` and `probe` run outside the
timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import checks
import gen
from spans import Tracer
import speed

from contact_barcodes import (
    EllipsoidParams,
    Scalar,
    boundary_depth,
    bottleneck_distance,
    decompose,
    ellipsoid_barcode,
    find_interleaving,
    interleaving_distance_bruteforce,
    module_from_barcode,
    spectral_invariant,
    translated_point_lower_bound,
    validate_module,
)
from contact_barcodes.serialization import dumps, loads

LABELS = ("n", "2n", "4n")
ZERO = Scalar.parse("0")


class OpFailed(Exception):
    """The program refused or crashed on an operation's input."""


def own_bars(code) -> List[gen.Bar]:
    """A program Barcode as this benchmark's (birth, death, parity, truncated)."""
    return [(checks.parse_scalar(str(b.birth)), checks.parse_scalar(str(b.death)),
             b.parity, b.truncated) for b in code.bars]


def cpv_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "contact_barcodes", *args]


class Workload:
    name = ""
    SPEED = (speed.chunk, 0.004, 9)  # reference, its nominal s, window

    def __init__(self, seed: int, tracer: Tracer, src: Path, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.inputs: Dict[str, list] = {}
        self.counts: Counter = Counter()
        self.max_dim = 0

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{label}")

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> List[str]:
        raise NotImplementedError

    def fault(self, inp, out) -> Optional[str]:
        """A known fault of the program that this operation shows, if any:
        the operation then counts as failed, not as wrong."""
        return None

    def probe(self, inp, out) -> None:
        """Traced run only: layer probes on the operation's own data."""
        raise NotImplementedError

    def cli_start(self) -> None:
        """A cpv process that only parses its arguments and exits."""
        with self.tracer.span("cli.start"):
            subprocess.run(cpv_command("--help"), env=self.env, check=True,
                           stdout=subprocess.DEVNULL)

    # -- probes shared by every workload ---------------------------------

    def probe_scalars(self, codes) -> None:
        """Parse the text of every bar endpoint, then sort the values."""
        texts = [str(x) for code in codes for b in code.bars for x in (b.birth, b.death)]
        with self.tracer.span("scalar.parse"):
            values = [Scalar.parse(t) for t in texts]
        with self.tracer.span("scalar.compare"):
            sorted(values)
        self.counts["scalar.values"] += len(texts)

    def probe_modules(self, modules) -> None:
        """Rank every structure map, compose each consecutive pair, and
        count samples and dimensions."""
        mats = [pair[p] for m in modules for pair in m.maps for p in (0, 1)]
        steps = [(a[p], b[p]) for m in modules for a, b in zip(m.maps, m.maps[1:])
                 for p in (0, 1)]
        with self.tracer.span("gf2.rank"):
            for a in mats:
                a.rank()
        with self.tracer.span("gf2.matmul"):
            for a, b in steps:
                b @ a
        self.counts["gf2.bits"] += sum(a.nrows * a.ncols for a in mats)
        for m in modules:
            self.counts["persistence.samples"] += m.n_samples
            self.max_dim = max([self.max_dim] + [d0 + d1 for d0, d1 in m.dims])


# ---------------------------------------------------------------------------


class CliEllipsoid(Workload):
    """One `cpv` process per call, as a user runs the pipeline."""

    name = "cli-ellipsoid"
    SIZES = {"n": 10, "2n": 20, "4n": 40}
    AXES = {"base": gen.BASE_AXIS, "near": gen.NEAR_AXIS, "far": gen.FAR_AXIS}
    DELTA = Fraction(9, 10)
    SPEED = (speed.process, 0.1, None)

    def setup(self) -> None:
        subprocess.run(cpv_command("--help"), env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        for label, base in self.SIZES.items():
            T = gen.horizon(base, self.rng(label))
            d = self.workdir / label
            d.mkdir(parents=True, exist_ok=True)
            axes = [Fraction(1), gen.BASE_AXIS]
            bars = gen.ellipsoid_bars(axes, T)
            pts = gen.ellipsoid_points(axes, T)
            samples = gen.sample_positions(pts, Fraction(0), T)
            dims, maps = gen.bar_tracking(bars, samples)
            (d / "module.json").write_text(
                gen.module_json(pts, Fraction(0), T, samples, dims, maps))
            self.inputs[label] = [{"T": T, "dir": d, "bars": bars}]

    def _cpv(self, *args: str) -> str:
        with self.tracer.span("cli.process"):
            r = subprocess.run(cpv_command(*args), env=self.env,
                               capture_output=True, text=True)
        if r.returncode != 0:
            raise OpFailed(f"cpv {args[0]} exited {r.returncode}: "
                           f"{r.stderr.strip()[-300:]}")
        return r.stdout

    def op(self, inp):
        d, T = inp["dir"], gen.text(inp["T"])
        out = {}
        with self.tracer.span("cli.pipeline"):
            for key, axis in self.AXES.items():
                self._cpv("ellipsoid", "-a", "1", "-a", gen.text(axis), "-T", T,
                          "-o", str(d / f"{key}.json"))
            out["verify"] = self._cpv("verify", str(d / "module.json"))
            self._cpv("reduce", str(d / "module.json"), "-o", str(d / "reduced.json"))
            for key in ("near", "far"):
                out[key] = self._cpv("distance", str(d / "base.json"), str(d / f"{key}.json"))
            out["spectral"] = self._cpv("spectral", str(d / "base.json"), "--class", "0")
            out["depth"] = self._cpv("depth", str(d / "base.json"))
            out["bound"] = self._cpv("bound", str(d / "base.json"),
                                     "--delta", gen.text(self.DELTA))
        for key in ("base", "near", "far", "reduced"):
            out[key + ".json"] = (d / f"{key}.json").read_text()
        return out

    def check(self, inp, out) -> List[str]:
        T, want = inp["T"], inp["bars"]
        problems = []
        files = {}
        for key, axis in self.AXES.items():
            problems += checks.check_ellipsoid(out[key + ".json"], [Fraction(1), axis], T)
            files[key] = checks.read_barcode(out[key + ".json"])[3]
        if out["verify"] != "valid\n":
            problems.append(f"verify printed {out['verify']!r}")
        problems += checks.same_bars(checks.read_barcode(out["reduced.json"])[3],
                                     want, "reduce")
        for key in ("near", "far"):
            problems += checks.check_distance(out[key], files["base"], files[key])
        problems += checks.check_scalar_line(out["spectral"], checks.spectral_class0(want),
                                             "spectral")
        problems += checks.check_scalar_line(out["depth"], checks.depth(want), "depth")
        bound = checks.cover_bound(want, self.DELTA)
        if out["bound"].strip() != str(bound):
            problems.append(f"bound printed {out['bound'].strip()!r}, expected {bound}")
        return problems

    def probe(self, inp, out) -> None:
        """Replay the pipeline's library calls in-process on the same files."""
        tr, d, T = self.tracer, inp["dir"], Scalar.parse(gen.text(inp["T"]))
        nbytes = 0

        def read(name: str):
            nonlocal nbytes
            text = (d / name).read_text()
            nbytes += len(text)
            with tr.span("serialization.loads"):
                return loads(text)

        def write(name: str, obj) -> None:
            nonlocal nbytes
            with tr.span("serialization.dumps"):
                text = dumps(obj)
            nbytes += len(text)
            (d / name).write_text(text)

        codes = []
        with tr.span("cli.replica"):
            for key, axis in self.AXES.items():
                params = EllipsoidParams.of(["1", Scalar.parse(gen.text(axis))], T)
                with tr.span("ellipsoid.barcode"):
                    codes.append(ellipsoid_barcode(params))
                write(f"{key}.json", codes[-1])
            with tr.span("persistence.validate_module"):
                validate_module(read("module.json"))
            module = read("module.json")
            with tr.span("persistence.decompose"):
                code = decompose(module)
            write("reduced.json", code)
            for key in ("near", "far"):
                b1, b2 = read("base.json"), read(f"{key}.json")
                with tr.span("distances.bottleneck"):
                    delta, matching = bottleneck_distance(b1, b2)
                json.dumps({"delta": str(delta), "matching": matching.pairs})
                self.counts["distances.bottleneck_bars"] += len(b1.bars) + len(b2.bars)
            with tr.span("invariants"):
                spectral_invariant(read("base.json"), 0)
            with tr.span("invariants"):
                boundary_depth(read("base.json"))
            with tr.span("invariants"):
                translated_point_lower_bound(read("base.json"),
                                             Scalar.parse(gen.text(self.DELTA)))
        self.counts["serialization.bytes"] += nbytes
        self.counts["ellipsoid.bars"] += sum(len(c.bars) for c in codes)
        self.probe_scalars(codes)
        self.probe_modules([module])


# ---------------------------------------------------------------------------


class ModuleReduce(Workload):
    """`cpv reduce`'s path in-process, on wide modules in a scrambled basis."""

    name = "module-reduce"
    SIZES = {"n": 20, "2n": 40, "4n": 80}
    POOL = 8

    def setup(self) -> None:
        for label, n in self.SIZES.items():
            rng = self.rng(label)
            pattern = random.Random(f"{self.name}/pattern/{label}")
            self.inputs[label] = []
            for _ in range(self.POOL):
                pts, bars = gen.overlapping_barcode(rng, pattern, n)
                lo, hi = Fraction(0), pts[-1] + 1
                samples = gen.sample_positions(pts, lo, hi)
                dims, maps = gen.bar_tracking(bars, samples)
                scrambled = gen.module_json(pts, lo, hi, samples, dims,
                                            gen.scramble(rng, dims, maps))
                self.inputs[label].append({
                    "points": pts, "bars": bars, "scrambled": scrambled,
                    "source": loads(gen.barcode_json(pts, lo, hi, bars))})

    def op(self, inp):
        tr = self.tracer
        with tr.span("persistence.module_from_barcode"):
            built = module_from_barcode(inp["source"])
        with tr.span("serialization.dumps"):
            built_text = dumps(built)
        with tr.span("serialization.loads"):
            module = loads(inp["scrambled"])
        with tr.span("persistence.validate_module"):
            issues = validate_module(module)
        if issues:
            raise OpFailed(f"scrambled module rejected: {issues[0]}")
        with tr.span("persistence.decompose"):
            code = decompose(module)
        with tr.span("serialization.dumps"):
            code_text = dumps(code)
        return built, built_text, module, code, code_text

    def check(self, inp, out) -> List[str]:
        _, built_text, _, _, code_text = out
        return (checks.check_built_module(built_text, inp["points"], inp["bars"])
                + checks.same_bars(checks.read_barcode(code_text)[3], inp["bars"],
                                   "decomposition"))

    def probe(self, inp, out) -> None:
        built, built_text, module, code, code_text = out
        self.counts["serialization.bytes"] += (
            len(built_text) + len(inp["scrambled"]) + len(code_text))
        self.probe_scalars([inp["source"], code])
        self.probe_modules([built, module])


# ---------------------------------------------------------------------------


class Isometry(Workload):
    """The interleaving search against the graded bottleneck distance.

    Seeded pairs run `find_interleaving` at delta = 0: half the pairs are
    one barcode in two random bases, half a barcode and its re-pairing
    with the same dimensions everywhere, so the search must find the
    isomorphism or refute it by enumeration.  One fixed pair per round
    runs `interleaving_distance_bruteforce`, which answers it wrongly at
    this writing; that operation is counted as failed (see `fault`).
    """

    name = "isometry"
    SIZES = {"n": 10, "2n": 20, "4n": 40}
    POOL = 24

    def setup(self) -> None:
        for label, n in self.SIZES.items():
            rng = self.rng(label)
            self.inputs[label] = []
            for k in range(self.POOL):
                pts = gen.spectrum_points(rng, n)
                pair = gen.isometry_pair(rng, pts, same=k % 2 == 0)
                self.inputs[label].append(
                    self._input(rng, pts, Fraction(0), pts[-1] + 1, pair, full=False))
        pts, lo, hi, one, other = gen.fault_pair()
        self.inputs["n"].append(self._input(None, pts, lo, hi, (one, other), full=True))

    @staticmethod
    def _input(rng, pts, lo, hi, pair, full: bool) -> dict:
        """Bar-tracking modules of both barcodes, in random bases when
        `rng` is given."""
        samples = gen.sample_positions(pts, lo, hi)
        built, modules = [], []
        for bars in pair:
            dims, maps = gen.bar_tracking(bars, samples)
            if rng is not None:
                maps = gen.scramble(rng, dims, maps)
            built.append((dims, maps))
            modules.append(loads(gen.module_json(pts, lo, hi, samples, dims, maps)))
        return {"bars": pair, "built": built, "modules": modules, "full": full}

    def op(self, inp):
        tr = self.tracer
        m1, m2 = inp["modules"]
        with tr.span("persistence.decompose"):
            b1 = decompose(m1)
        with tr.span("persistence.decompose"):
            b2 = decompose(m2)
        with tr.span("distances.bottleneck"):
            graded, matching = bottleneck_distance(b1, b2, graded=True)
        with tr.span("distances.interleaving"):
            if inp["full"]:
                inter = interleaving_distance_bruteforce(m1, m2)
            else:
                inter = find_interleaving(m1, m2, ZERO)
        return b1, b2, graded, matching, inter

    def check(self, inp, out) -> List[str]:
        b1, b2, graded, matching, inter = out
        left, right = own_bars(b1), own_bars(b2)
        value = checks.parse_scalar(str(graded))
        ungraded, _ = bottleneck_distance(b1, b2)
        problems = (checks.same_bars(left, inp["bars"][0], "decomposition")
                    + checks.same_bars(right, inp["bars"][1], "decomposition")
                    + checks.check_witness(left, right, value,
                                           matching.pairs if matching else [], graded=True)
                    + checks.check_optimal(left, right, value, graded=True)
                    + checks.check_graded_bound(checks.parse_scalar(str(ungraded)), value))
        if not inp["full"]:
            cert = None if inter is None else tuple(
                [[(list(m.rows), m.ncols) for m in pair] for pair in maps]
                for maps in (inter.forward_maps, inter.backward_maps))
            problems += checks.check_isomorphism(cert, *inp["bars"], *inp["built"])
        return problems

    def fault(self, inp, out) -> Optional[str]:
        if not inp["full"]:
            return None
        got = checks.parse_scalar(str(out[4]))
        want = checks.graded_distance(*inp["bars"])
        if got == want:
            return None
        return f"interleaving_distance_bruteforce gave {got}, graded bottleneck {want}"

    def probe(self, inp, out) -> None:
        b1, b2 = out[0], out[1]
        self.counts["distances.bottleneck_bars"] += len(b1.bars) + len(b2.bars)
        self.counts["distances.regions"] += sum(m.n_samples for m in inp["modules"])
        self.probe_scalars([b1, b2])
        self.probe_modules(inp["modules"])


WORKLOADS = {w.name: w for w in (CliEllipsoid, ModuleReduce, Isometry)}
