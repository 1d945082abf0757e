#!/usr/bin/env python3
"""Time the bottleneck distance on seeded random barcodes of growing size.

For each size n, draws two barcodes of n bars each on the integer spectrum
0..100 (random endpoints and parities, one generator seeded by --seed and
the size) and prints, ungraded and graded, the distance, the number of
feasibility probes of its search, and the wall time (seconds) and process
CPU time (cpu_s) of one `bottleneck_distance` call.  Example:

    PYTHONPATH=src python scripts/bottleneck_scaling.py --sizes 50 100 200 400 --seed 0
"""

import argparse
import random
import time
from fractions import Fraction

from contact_barcodes import distances
from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.scalar import Coords, Scalar

POINTS = tuple(Scalar(Fraction(i)) for i in range(101))
SPECTRUM = Spectrum(POINTS, POINTS[0], POINTS[-1])


def random_code(rng: random.Random, n: int) -> Barcode:
    bars = []
    for _ in range(n):
        i = rng.randrange(len(POINTS) - 1)
        j = rng.randrange(i + 1, len(POINTS))
        bars.append(Bar(POINTS[i], POINTS[j], rng.randint(0, 1)))
    return Barcode(SPECTRUM, tuple(bars))


def counting_probes(counter):
    """`Coords.least` with every probe counted in counter[0]."""
    search = Coords.least

    def least(coords, rows, probe):
        def counted(t):
            counter[0] += 1
            return probe(t)
        return search(coords, rows, counted)
    return least


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    probes = [0]
    Coords.least = counting_probes(probes)
    print(f"{'bars':>5}  {'graded':>6}  {'delta':>6}  {'probes':>6}  {'seconds':>8}  {'cpu_s':>8}")
    for n in args.sizes:
        rng = random.Random(f"{args.seed}/{n}")
        b1, b2 = random_code(rng, n), random_code(rng, n)
        for graded in (False, True):
            probes[0] = 0
            start, cpu = time.perf_counter(), time.process_time()
            delta, _ = distances.bottleneck_distance(b1, b2, graded=graded)
            seconds, cpu_s = time.perf_counter() - start, time.process_time() - cpu
            print(f"{n:>5}  {'yes' if graded else 'no':>6}  {str(delta):>6}  "
                  f"{probes[0]:>6}  {seconds:>8.3f}  {cpu_s:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
