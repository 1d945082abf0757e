#!/usr/bin/env python3
"""Time the interleaving search on the two-bar integer pair of growing size.

For each size n, builds the modules of the barcodes {(0, n-1)_0, (1, 3)_1}
and {(1, n-1)_0, (1, 2)_1} on the integer spectrum 0..n-1 (n regions each,
at distance 1) and prints the delta, the wall time (seconds) and the
process CPU time (cpu_s) of one `interleaving_distance_bruteforce` call;
on a shared machine the CPU time varies less from run to run.  peak_mb
is the process's peak resident set size in MB, read from `ru_maxrss` (KB
on Linux).  That peak only grows, so each row is the peak so far over
every size run before it: give the sizes in ascending order, or one size
per run, to read each row as that size's own peak.  Example:

    PYTHONPATH=src python scripts/interleaving_scaling.py --sizes 400 1000 2000
"""

import argparse
import resource
import time

from contact_barcodes.barcode import Bar, Barcode, Spectrum
from contact_barcodes.interleaving import interleaving_distance_bruteforce
from contact_barcodes.persistence import module_from_barcode


def two_bar_pair(n: int):
    sp = Spectrum.of(list(range(n)), 0, n - 1)
    one = Barcode(sp, (Bar.of(0, n - 1, 0), Bar.of(1, 3, 1)))
    other = Barcode(sp, (Bar.of(1, n - 1, 0), Bar.of(1, 2, 1)))
    return module_from_barcode(one), module_from_barcode(other)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400])
    args = parser.parse_args()

    print(f"{'points':>6}  {'delta':>5}  {'seconds':>8}  {'cpu_s':>8}  {'peak_mb':>7}")
    for n in args.sizes:
        m1, m2 = two_bar_pair(n)
        start, cpu = time.perf_counter(), time.process_time()
        delta = interleaving_distance_bruteforce(m1, m2)
        seconds, cpu_s = time.perf_counter() - start, time.process_time() - cpu
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{n:>6}  {str(delta):>5}  {seconds:>8.3f}  {cpu_s:>8.3f}  {peak_mb:>7.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
