#!/usr/bin/env python3
"""Self-test of the benchmark: every check must reject a wrong output.

    python3 benchmark/selftest.py

Feeds each check a deliberately wrong output (a moved bar, a pair over
delta, a delta one candidate too high, the ungraded distance in place of
the graded one, a missing or a corrupted isomorphism certificate) and
shows that it is rejected, then runs every workload once at size n on a
seed of its own and shows that all checks pass.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from contact_barcodes import (  # noqa: E402
    Bar,
    Barcode,
    EllipsoidParams,
    Spectrum,
    bottleneck_distance,
    decompose,
    ellipsoid_barcode,
    module_from_barcode,
)
from contact_barcodes.serialization import dumps, loads  # noqa: E402

SEED = 2  # not a seed the benchmark was tuned on


def ellipsoid_text(axis: str, T: str) -> str:
    return dumps(ellipsoid_barcode(EllipsoidParams.of(["1", axis], T)))


class EllipsoidChecks(unittest.TestCase):
    AXES = [Fraction(1), Fraction(3, 2)]

    def test_program_output_passes_at_spectral_and_open_horizons(self):
        for T in (Fraction(15), Fraction(61, 4)):
            text = ellipsoid_text("3/2", gen.text(T))
            self.assertEqual(checks.check_ellipsoid(text, self.AXES, T), [])
        self.assertEqual(gen.ellipsoid_bars(self.AXES, Fraction(15))[-1][1:],
                         (Fraction(15), 0, True))
        self.assertEqual(gen.ellipsoid_bars(self.AXES, Fraction(61, 4))[-1][1:],
                         (gen.INF, 0, True))

    def test_moved_bar_is_rejected(self):
        T = Fraction(15)
        pts = gen.ellipsoid_points(self.AXES, T)
        bars = gen.ellipsoid_bars(self.AXES, T)
        moved = list(bars)
        b, _, p, t = moved[2]
        moved[2] = (b, moved[3][1], p, t)
        text = gen.barcode_json(pts, Fraction(0), T, moved)
        self.assertTrue(checks.check_ellipsoid(text, self.AXES, T))
        self.assertTrue(checks.same_bars(moved, bars, "reduce"))
        self.assertEqual(checks.same_bars(bars, bars, "reduce"), [])

    def test_lost_truncation_flag_is_rejected(self):
        T = Fraction(61, 4)
        pts = gen.ellipsoid_points(self.AXES, T)
        bars = gen.ellipsoid_bars(self.AXES, T)
        bars[-1] = bars[-1][:3] + (False,)
        text = gen.barcode_json(pts, Fraction(0), T, bars)
        self.assertTrue(checks.check_ellipsoid(text, self.AXES, T))

    def test_invariants_against_hand_values(self):
        # E(1, 3/2) at T = 4: points 0 1 3/2 2 3 4; the last bar (3, 4) is
        # truncated, so depth skips it and spectral reads its birth.
        bars = gen.ellipsoid_bars(self.AXES, Fraction(4))
        self.assertEqual(checks.spectral_class0(bars), 3)
        self.assertEqual(checks.depth(bars), 1)
        # bars of length >= 1: (0, 1), (2, 3), (3, 4); endpoints 0 1 2 3 4
        # need 5 open balls of radius 1/2
        self.assertEqual(checks.cover_bound(bars, Fraction(1)), 5)
        self.assertEqual(checks.cover_bound(bars, Fraction(3, 2)), 0)
        self.assertTrue(checks.check_scalar_line("4/1\n", Fraction(3), "spectral"))
        self.assertTrue(checks.check_scalar_line("3.0\n", Fraction(3), "spectral"))
        self.assertEqual(checks.check_scalar_line("3/1\n", Fraction(3), "spectral"), [])

    def test_horizon_offsets_add_no_spectrum_points(self):
        for base in workloads.CliEllipsoid.SIZES.values():
            for axis in (Fraction(1), gen.BASE_AXIS, gen.NEAR_AXIS, gen.FAR_AXIS):
                inside = [k * axis for k in range(200)
                          if base < k * axis < base + Fraction(1, 100)]
                self.assertEqual(inside, [], (base, axis))


class DistanceChecks(unittest.TestCase):
    def setUp(self):
        T = "61/4"
        self.texts = [ellipsoid_text(a, T) for a in ("1393/985", "3/2")]
        b1, b2 = (loads(t) for t in self.texts)
        self.delta, matching = bottleneck_distance(b1, b2)
        self.pairs = list(matching.pairs)
        self.left, self.right = (checks.read_barcode(t)[3] for t in self.texts)
        self.value = checks.parse_scalar(str(self.delta))

    def stdout(self, delta, pairs) -> str:
        return json.dumps({"delta": str(delta), "matching": [list(p) for p in pairs]})

    def test_program_output_passes(self):
        self.assertEqual(checks.check_distance(self.stdout(self.delta, self.pairs),
                                               self.left, self.right), [])

    def test_pair_over_delta_is_rejected(self):
        real = [k for k, (i, j) in enumerate(self.pairs) if i is not None and j is not None]
        a, b = real[0], real[-1]
        bad = list(self.pairs)
        bad[a], bad[b] = (bad[a][0], bad[b][1]), (bad[b][0], bad[a][1])
        self.assertGreater(checks.pair_cost(self.left, self.right, *bad[a]), self.value)
        self.assertTrue(checks.check_witness(self.left, self.right, self.value, bad, False))

    def test_delta_one_candidate_too_high_is_rejected(self):
        higher = min(c for c in checks.candidates(self.left, self.right) if c > self.value)
        self.assertTrue(checks.check_witness(self.left, self.right, higher, self.pairs, False))
        self.assertTrue(checks.check_optimal(self.left, self.right, higher, False))
        self.assertEqual(checks.check_optimal(self.left, self.right, self.value, False), [])

    def test_lost_pair_is_rejected(self):
        self.assertTrue(checks.check_witness(self.left, self.right, self.value,
                                             self.pairs[1:], False))


class IsometryChecks(unittest.TestCase):
    def test_ungraded_in_place_of_graded_is_rejected(self):
        # one bar (0, 2) in even degree against the same bar in odd degree:
        # ungraded distance 0, graded distance 1 (both bars go to ghosts)
        spectrum = Spectrum.of([0, 2], -1, 3)
        b1 = Barcode.of(spectrum, [Bar.of(0, 2, 0)])
        b2 = Barcode.of(spectrum, [Bar.of(0, 2, 1)])
        graded, matching = bottleneck_distance(b1, b2, graded=True)
        ungraded, _ = bottleneck_distance(b1, b2)
        self.assertNotEqual(graded, ungraded)
        left, right = workloads.own_bars(b1), workloads.own_bars(b2)
        value, lower = (checks.parse_scalar(str(x)) for x in (graded, ungraded))
        self.assertEqual(checks.graded_distance(left, right), value)
        self.assertEqual(checks.check_witness(left, right, value, matching.pairs, True), [])
        self.assertEqual(checks.check_optimal(left, right, value, True), [])
        self.assertTrue(checks.check_witness(left, right, lower, [(0, None), (None, 0)],
                                             True))
        self.assertTrue(checks.check_witness(left, right, lower, [(0, 0)], True))
        self.assertEqual(checks.check_graded_bound(lower, value), [])
        self.assertTrue(checks.check_graded_bound(value, lower))

    def test_pairs_have_equal_dims_and_the_asked_distance(self):
        rng = random.Random(SEED)
        pts = gen.spectrum_points(rng, 10)
        samples = gen.sample_positions(pts, Fraction(0), pts[-1] + 1)
        for k in range(20):
            one, other = gen.isometry_pair(rng, pts, same=k % 2 == 0)
            dims = [gen.bar_tracking(bars, samples)[0] for bars in (one, other)]
            self.assertEqual(dims[0], dims[1])
            self.assertLessEqual(max(d0 + d1 for d0, d1 in dims[0]), 2)
            self.assertEqual(dims[0][-1], (0, 0))
            distance = checks.graded_distance(one, other)
            self.assertTrue(distance == 0 if k % 2 == 0 else 0 < distance < gen.INF)

    def test_isomorphism_certificates(self):
        wl = workloads.Isometry(SEED, Tracer(False), ROOT / "src", None)
        rng = random.Random(SEED)
        pts = gen.spectrum_points(rng, 10)
        same = wl._input(rng, pts, Fraction(0), pts[-1] + 1,
                         gen.isometry_pair(rng, pts, same=True), full=False)
        other = wl._input(rng, pts, Fraction(0), pts[-1] + 1,
                          gen.isometry_pair(rng, pts, same=False), full=False)
        out, refuted = wl.op(same), wl.op(other)
        self.assertEqual(wl.check(same, out), [])
        self.assertIsNone(refuted[4])
        self.assertEqual(wl.check(other, refuted), [])
        fwd, bwd = ([[(list(m.rows), m.ncols) for m in pair] for pair in maps]
                    for maps in (out[4].forward_maps, out[4].backward_maps))
        bars, built = same["bars"], same["built"]
        # no certificate where one exists, a certificate where none can
        self.assertTrue(checks.check_isomorphism(None, *bars, *built))
        self.assertTrue(checks.check_isomorphism((fwd, bwd), *other["bars"],
                                                 *other["built"]))
        # a certificate with one map changed: no longer inverse, or no
        # longer commuting with the structure maps
        r = next(r for r, pair in enumerate(fwd) if pair[0][1] >= 1)
        bad = [list(pair) for pair in fwd]
        rows, ncols = bad[r][0]
        bad[r][0] = ([rows[0] ^ 1] + rows[1:], ncols)
        self.assertTrue(checks.check_isomorphism((bad, bwd), *bars, *built))
        # identity maps between the two bases are inverse but fail a square
        self.assertNotEqual(built[0][1], built[1][1])
        ident = [[([1 << i for i in range(d[p])], d[p]) for p in (0, 1)]
                 for d in built[0][0]]
        self.assertTrue(checks.check_isomorphism((ident, ident), *bars, *built))

    def test_fault_pair_counts_as_failed_not_wrong(self):
        wl = workloads.Isometry(SEED, Tracer(False), ROOT / "src", None)
        pts, lo, hi, one, other = gen.fault_pair()
        inp = wl._input(None, pts, lo, hi, (one, other), full=True)
        self.assertEqual(checks.graded_distance(one, other), Fraction(7, 6))
        out = wl.op(inp)
        self.assertEqual(wl.check(inp, out), [])
        if checks.parse_scalar(str(out[4])) == Fraction(7, 6):
            self.assertIsNone(wl.fault(inp, out))
        else:
            self.assertTrue(wl.fault(inp, out))


class ModuleChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(SEED)
        self.pts, self.bars = gen.overlapping_barcode(rng, rng, 12)
        lo, hi = Fraction(0), self.pts[-1] + 1
        self.source = loads(gen.barcode_json(self.pts, lo, hi, self.bars))
        self.doc = json.loads(dumps(module_from_barcode(self.source)))
        samples = gen.sample_positions(self.pts, lo, hi)
        dims, maps = gen.bar_tracking(self.bars, samples)
        self.scrambled = gen.module_json(self.pts, lo, hi, samples, dims,
                                         gen.scramble(rng, dims, maps))

    def check(self, doc) -> list:
        return checks.check_built_module(json.dumps(doc), self.pts, self.bars)

    def first_map_with_a_one(self):
        for i, pair in enumerate(self.doc["maps"]):
            for p in (0, 1):
                for r, row in enumerate(pair[p]):
                    if 1 in row and len(row) >= 2:
                        return i, p, r, row.index(1)
        raise AssertionError("no map with a 1")

    def test_program_output_passes(self):
        self.assertEqual(self.check(self.doc), [])

    def test_extra_one_is_rejected(self):
        i, p, r, c = self.first_map_with_a_one()
        self.doc["maps"][i][p][r][1 - c if c < 2 else 0] = 1
        self.assertTrue(self.check(self.doc))

    def test_dropped_one_is_rejected(self):
        i, p, r, c = self.first_map_with_a_one()
        self.doc["maps"][i][p][r][c] = 0
        self.assertTrue(self.check(self.doc))

    def test_changed_dim_is_rejected(self):
        self.doc["dims"][3][0] += 1
        self.assertTrue(self.check(self.doc))

    def test_scrambled_module_decomposes_to_the_source(self):
        code = checks.read_barcode(dumps(decompose(loads(self.scrambled))))[3]
        self.assertEqual(checks.same_bars(code, self.bars, "decomposition"), [])
        moved = list(code)
        moved[0] = (moved[0][0], moved[0][1], 1 - moved[0][2], False)
        self.assertTrue(checks.same_bars(moved, self.bars, "decomposition"))

    def test_scramble_bases_are_inverse_pairs(self):
        rng = random.Random(SEED)
        for d in range(8):
            fwd, inv = gen.random_invertible_pair(rng, d)
            self.assertEqual(gen.matmul(fwd, inv), [1 << i for i in range(d)])


class WorkloadsAtSizeN(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name, cls in workloads.WORKLOADS.items():
            workdir = ROOT / "benchmark" / "out" / f"selftest-{name}"
            try:
                wl = cls(SEED, Tracer(True), ROOT / "src", workdir)
                wl.setup()
                for inp in wl.inputs["n"]:
                    out = wl.op(inp)
                    self.assertEqual(wl.check(inp, out), [], name)
                    if not wl.fault(inp, out):
                        wl.probe(inp, out)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
