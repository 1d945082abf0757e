#!/usr/bin/env python3
"""Compare interleaving and bottleneck distances on random module pairs.

Each pair is a random module and a perturbed copy: the first module's
barcode with one bar's finite death moved to a later spectrum point,
rebuilt as a module and put in random bases, so most pairs lie at a
finite nonzero distance and the interleaving search runs at delta > 0.
Prints one row per pair: ungraded bottleneck, graded bottleneck, and the
brute-force interleaving distance.  The first two columns bracket the
third; the graded column should match it exactly.
"""

import argparse
import random

from contact_barcodes import (
    bottleneck_distance,
    decompose,
    interleaving_distance_bruteforce,
    module_from_barcode,
)
from contact_barcodes.barcode import Bar, Barcode
from contact_barcodes.random_instances import random_module, random_spectrum, scramble
from contact_barcodes.scalar import ZERO


def moved_death(rng: random.Random, code: Barcode) -> Barcode:
    """The barcode with one finite death moved to a later spectrum point;
    the barcode itself when no finite death can move."""
    points = code.spectrum.points
    movable = [k for k, bar in enumerate(code.bars)
               if bar.death.is_finite and bar.death < points[-1]]
    if not movable:
        return code
    k = rng.choice(movable)
    bar = code.bars[k]
    bars = list(code.bars)
    bars[k] = Bar(bar.birth, rng.choice([p for p in points if bar.death < p]),
                  bar.parity)
    return Barcode(code.spectrum, tuple(bars))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=25)
    parser.add_argument("--max-points", type=int, default=4)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    mismatches = 0
    positive = 0
    print(f"{'pair':>4}  {'ungraded':>10}  {'graded':>10}  {'interleaving':>12}")
    for i in range(args.pairs):
        spectrum = random_spectrum(rng, max_points=args.max_points, min_points=2)
        m1 = random_module(rng, max_dim=2, spectrum=spectrum)
        b1 = decompose(m1)
        m2 = scramble(rng, module_from_barcode(moved_death(rng, b1)))
        b2 = decompose(m2)
        ungraded, _ = bottleneck_distance(b1, b2)
        graded, _ = bottleneck_distance(b1, b2, graded=True)
        inter = interleaving_distance_bruteforce(m1, m2)
        flag = "" if inter == graded else "  <-- MISMATCH"
        mismatches += 0 if inter == graded else 1
        positive += graded.is_finite and graded != ZERO
        print(f"{i:>4}  {str(ungraded):>10}  {str(graded):>10}  "
              f"{str(inter):>12}{flag}")
    print(f"{positive}/{args.pairs} pairs at a finite nonzero graded distance")
    print(f"{args.pairs - mismatches}/{args.pairs} pairs agree with the "
          "graded bottleneck distance")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
