#!/usr/bin/env python3
"""The isometry theorem on the paper's pair: E(1, 1393/985) against E(1, 99/70).

For each horizon T, builds both ellipsoid barcodes up to T and their
bar-tracking modules (dimension at most 1 at every sample, one region per
spectrum gap), then plays the two routes to the distance against each
other.  Prints one row per T:

- r1, r2: the regions of each module, one more than its spectrum points
- bottleneck: the graded bottleneck distance of the two barcodes
- interleaving: `interleaving_distance_bruteforce` of the two modules
- verified: whether `find_interleaving`'s certificate at that delta
  passes `verify_interleaving`
- below: the largest candidate delta under it, among the gaps from a cut
  of one module to a cut of the other, half the gaps between two cuts of
  one module, and 0 (the candidates the search selects among), found
  with one bisect per cut and row, never listed
- refuted: whether `find_interleaving` at `below` returns None ("-" when
  the distance is 0 and no candidate lies below it)
- seconds, cpu_s: wall time and process CPU time of the whole row (on a
  shared machine the CPU time varies less from run to run)

Exits 1 when the two distances disagree, a check fails, or a search is
refused as too large (one `refused` line on stdout names the error).
Example:

    PYTHONPATH=src python scripts/paper_isometry.py --horizons 400 1600
"""

import argparse
import time
from bisect import bisect_left

from contact_barcodes.distances import bottleneck_distance
from contact_barcodes.ellipsoid import EllipsoidParams, ellipsoid_barcode
from contact_barcodes.errors import TooLargeError
from contact_barcodes.interleaving import (
    find_interleaving,
    interleaving_distance_bruteforce,
    verify_interleaving,
)
from contact_barcodes.persistence import module_from_barcode
from contact_barcodes.scalar import Coords

AXES = ("1393/985", "99/70")


def largest_candidate_below(cuts1, cuts2, bound: int):
    """The largest candidate under the int delta `bound`, or None: each
    row (cs, xs, k) stands for the candidates (x - c) // k, which lie under
    bound exactly when x < c + k * bound, so one bisect per c finds the
    row's largest."""
    rows = [(cuts1, cuts2, 1), (cuts2, cuts1, 1), (cuts1, cuts1, 2), (cuts2, cuts2, 2),
            ((0,), (0,), 1)]
    best = None
    for cs, xs, k in rows:
        for c in cs:
            i = bisect_left(xs, c + k * bound)
            if i and xs[i - 1] >= c and (best is None or (xs[i - 1] - c) // k > best):
                best = (xs[i - 1] - c) // k
    return best


def row(horizon: int) -> tuple:
    """The printed fields at one horizon and whether every check held."""
    codes = [ellipsoid_barcode(EllipsoidParams.of(["1", axis], horizon)) for axis in AXES]
    m1, m2 = (module_from_barcode(code) for code in codes)
    graded, _ = bottleneck_distance(*codes, graded=True)
    delta = interleaving_distance_bruteforce(m1, m2)
    points1, points2 = m1.spectrum.points, m2.spectrum.points
    verified, below, refuted = False, None, None
    if delta.is_finite:
        cert = find_interleaving(m1, m2, delta)
        verified = cert is not None and verify_interleaving(cert, m1, m2) == []
        coords = Coords(points1 + points2 + (delta,))
        n = largest_candidate_below([coords.of(p) for p in points1],
                                    [coords.of(p) for p in points2], coords.of(delta))
        if n is not None:
            below = coords.scalar(n)
            refuted = find_interleaving(m1, m2, below) is None
    ok = graded == delta and verified and refuted is not False
    fields = (len(points1) + 1, len(points2) + 1, graded, delta,
              "yes" if verified else "no", "-" if below is None else below,
              "-" if refuted is None else ("yes" if refuted else "no"))
    return fields, ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--horizons", type=int, nargs="+", default=[400, 1600])
    args = parser.parse_args()

    failed = False
    print(f"{'T':>5}  {'r1':>5}  {'r2':>5}  {'bottleneck':>12}  {'interleaving':>12}  "
          f"{'verified':>8}  {'below':>14}  {'refuted':>7}  {'seconds':>8}  {'cpu_s':>8}")
    for horizon in args.horizons:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            fields, ok = row(horizon)
        except TooLargeError as error:
            print(f"{horizon:>5}  refused: {error}")
            failed = True
            continue
        seconds, cpu_s = time.perf_counter() - start, time.process_time() - cpu
        r1, r2, graded, delta, verified, below, refuted = fields
        print(f"{horizon:>5}  {r1:>5}  {r2:>5}  {str(graded):>12}  {str(delta):>12}  "
              f"{verified:>8}  {str(below):>14}  {refuted:>7}  {seconds:>8.2f}  {cpu_s:>8.2f}")
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
