"""Scaling of wall times to a reference machine speed.

The machines this benchmark runs on are shared: the speed of one core
drifts by a quarter within tens of seconds, as other tenants come and go,
which moves every wall time of a run together.  So before each operation
the benchmark times a fixed piece of stdlib-only reference work and
reports the operation's wall time multiplied by (the reference's nominal
time / the median of its recent times): seconds on a machine on which the
reference takes its nominal time.  The reference runs no code of the
program, so a change to the program moves the scaled times exactly as it
moves the wall times.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, List, Optional


def chunk() -> None:
    """Fraction construction and comparison, the program's staple work;
    about 4 ms on a 2-core Xeon at full speed."""
    for k in range(2000):
        Fraction(k, 7) < Fraction(k + 1, 9)


_PROCESS = """\
import argparse, dataclasses, fractions, json, re, typing
for k in range(20000):
    fractions.Fraction(k, 7) < fractions.Fraction(k + 1, 9)
"""


def process() -> None:
    """A Python process that imports the standard modules `cpv` uses and
    runs ten chunks: start-up and arithmetic in about equal parts, about
    0.1 s on the same machine."""
    subprocess.run([sys.executable, "-c", _PROCESS], check=True)


class Speed:
    """Reference times of one run.

    In-process operations take milliseconds and run the program's
    arithmetic, so the `window` chunks just before an operation track the
    drift best.  The command-line workload's operations are mostly process
    start-up, which drifts apart from in-process arithmetic; it times a
    reference process before each operation and scales by the median of
    the whole run (window=None), since one process time is noisy.
    """

    def __init__(self, reference: Callable[[], None], reference_s: float,
                 window: Optional[int]):
        self.reference = reference
        self.reference_s = reference_s
        self.window = window
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self.reference()
            self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, seconds: float, mark: int) -> float:
        """Wall seconds measured just before `mark`, in reference seconds."""
        recent = (self.samples[max(0, mark - self.window):mark] if self.window
                  else self.samples)
        return seconds * self.reference_s / statistics.median(recent)
