"""Seeded inputs for the benchmark workloads, built without the program.

Everything here uses only the standard library: rationals are
`fractions.Fraction`, infinities are the floats +/-inf, and GF(2) matrices
are lists of int rows (bit j of a row is column j), the same layout the
module JSON format describes.  A change to the program therefore cannot
change a workload's inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import List, Sequence, Tuple

INF = float("inf")
NEG_INF = float("-inf")

Bar = Tuple[object, object, int, bool]  # (birth, death, parity, truncated)
Matrix = Tuple[List[int], int]  # (rows, ncols)


def text(x) -> str:
    """The module/barcode JSON text form of an extended rational."""
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# GF(2) on int rows
# ---------------------------------------------------------------------------


def matmul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Rows of a @ b, where a is m x k and b is k x n (both as int rows)."""
    out = []
    for row in a:
        acc = 0
        j = 0
        while row:
            if row & 1:
                acc ^= b[j]
            row >>= 1
            j += 1
        out.append(acc)
    return out


def random_invertible_pair(rng: random.Random, d: int) -> Tuple[List[int], List[int]]:
    """A random d x d invertible matrix and its inverse.

    The matrix is a product of 3d random elementary row additions; its
    inverse applies the same additions in reverse order, since each one is
    its own inverse.
    """
    steps = []
    if d >= 2:
        for _ in range(3 * d):
            a, b = rng.sample(range(d), 2)
            steps.append((a, b))
    fwd = [1 << i for i in range(d)]
    inv = [1 << i for i in range(d)]
    for a, b in steps:
        fwd[a] ^= fwd[b]
    for a, b in reversed(steps):
        inv[a] ^= inv[b]
    return fwd, inv


# ---------------------------------------------------------------------------
# Bar-tracking modules and their JSON
# ---------------------------------------------------------------------------


def sample_positions(points: Sequence[Fraction], lo: Fraction, hi: Fraction
                     ) -> List[Fraction]:
    """One sample per component of the line cut at the points: midpoints
    inside the horizon, half a gap beyond a point that sits on it."""
    gaps = [b - a for a, b in zip(points, points[1:])]
    pad = min(gaps) / 2 if gaps else Fraction(1, 2)
    left = (lo + points[0]) / 2 if lo < points[0] else points[0] - pad
    right = (points[-1] + hi) / 2 if points[-1] < hi else points[-1] + pad
    return [left] + [(a + b) / 2 for a, b in zip(points, points[1:])] + [right]


def alive_at(bars: Sequence[Bar], s) -> Tuple[List[int], List[int]]:
    """Indices of the bars strictly containing s, split by parity."""
    out: Tuple[List[int], List[int]] = ([], [])
    for idx, (birth, death, parity, _) in enumerate(bars):
        if birth < s < death:
            out[parity].append(idx)
    return out


def bar_tracking(bars: Sequence[Bar], samples: Sequence[Fraction]):
    """Dims and 0/1 structure maps that carry each bar to the next sample."""
    alive = [alive_at(bars, s) for s in samples]
    dims = [(len(a0), len(a1)) for a0, a1 in alive]
    maps: List[Tuple[Matrix, Matrix]] = []
    for i in range(len(samples) - 1):
        pair = []
        for p in (0, 1):
            col = {bar: c for c, bar in enumerate(alive[i][p])}
            rows = [(1 << col[bar]) if bar in col else 0 for bar in alive[i + 1][p]]
            pair.append((rows, len(alive[i][p])))
        maps.append((pair[0], pair[1]))
    return dims, maps


def scramble(rng: random.Random, dims, maps):
    """Change basis at every sample and parity: M'_i = B_{i+1} M_i B_i^-1."""
    bases = [[random_invertible_pair(rng, d[p]) for p in (0, 1)] for d in dims]
    out = []
    for i, pair in enumerate(maps):
        new = []
        for p in (0, 1):
            rows, ncols = pair[p]
            moved = matmul(bases[i + 1][p][0], matmul(rows, bases[i][p][1]))
            new.append((moved, ncols))
        out.append((new[0], new[1]))
    return out


def module_json(points, lo, hi, samples, dims, maps) -> str:
    def dense(mat: Matrix) -> List[List[int]]:
        rows, ncols = mat
        return [[(r >> j) & 1 for j in range(ncols)] for r in rows]

    doc = {
        "cpv": 1,
        "spectrum": {"points": [text(p) for p in points],
                     "horizon": [text(lo), text(hi)]},
        "samples": [text(s) for s in samples],
        "dims": [list(d) for d in dims],
        "maps": [[dense(m0), dense(m1)] for m0, m1 in maps],
    }
    return json.dumps(doc)


def barcode_json(points, lo, hi, bars: Sequence[Bar]) -> str:
    doc = {
        "cpv": 1,
        "spectrum": {"points": [text(p) for p in points],
                     "horizon": [text(lo), text(hi)]},
        "bars": [dict({"birth": text(b), "death": text(d), "parity": p},
                      **({"truncated": True} if t else {}))
                 for b, d, p, t in bars],
    }
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# cli-ellipsoid
# ---------------------------------------------------------------------------

BASE_AXIS = Fraction(1393, 985)  # a convergent of sqrt(2)
NEAR_AXIS = Fraction(99, 70)     # the previous convergent
FAR_AXIS = Fraction(3, 2)


def ellipsoid_points(axes: Sequence[Fraction], T: Fraction) -> List[Fraction]:
    """Sorted multiples k * a <= T, k >= 0, of every axis."""
    return sorted({a * k for a in axes for k in range(int(T // a) + 1)})


def ellipsoid_bars(axes: Sequence[Fraction], T: Fraction) -> List[Bar]:
    """Closed-form barcode: one bar per gap of the spectrum in (0, T), all of
    parity n mod 2; the last one is truncated and ends at T when T is
    spectral, at inf otherwise."""
    pts = ellipsoid_points(axes, T)
    parity = len(axes) % 2
    bars: List[Bar] = [(a, b, parity, False) for a, b in zip(pts, pts[1:])]
    if pts[-1] == T:
        a, b, _, _ = bars[-1]
        bars[-1] = (a, b, parity, True)
    else:
        bars.append((pts[-1], INF, parity, True))
    return bars


def horizon(base: int, rng: random.Random) -> Fraction:
    """base + eps with eps in (0, 1/100): no multiple of 1, 99/70, 1393/985
    or 3/2 lies in (base, base + 1/100) for the bases used, so the seed moves
    T without changing any barcode's bar count."""
    return base + Fraction(rng.randint(1, 99), 10000)


# ---------------------------------------------------------------------------
# module-reduce
# ---------------------------------------------------------------------------


def spectrum_points(rng: random.Random, n: int) -> List[Fraction]:
    """n increasing rationals with random gaps in [1/3, 3]."""
    pts, x = [], Fraction(0)
    for _ in range(n):
        x += Fraction(rng.randint(1, 9), 3)
        pts.append(x)
    return pts


def overlapping_barcode(rng: random.Random, pattern: random.Random, n: int
                        ) -> Tuple[List[Fraction], List[Bar]]:
    """3n/2 bars over n points.  Of each 40 bars 2 are born at -inf, 2
    never die, 1 is both, and the rest are finite, of lengths 1 to n/4 gaps
    in turn.  `rng` draws the spectrum; `pattern` draws at which points
    the bars start and end and their parities.  Given the same `pattern`
    every seed has the same dimension at every sample, so it asks for the
    same work."""
    pts = spectrum_points(rng, n)
    bars: List[Bar] = []
    for k in range(3 * n // 2):
        parity = pattern.randint(0, 1)
        if k % 40 in (0, 1):
            bars.append((NEG_INF, pts[pattern.randrange(n)], parity, False))
        elif k % 40 in (2, 3):
            bars.append((pts[pattern.randrange(n)], INF, parity, False))
        elif k % 40 == 4:
            bars.append((NEG_INF, INF, parity, False))
        else:
            length = 1 + k % max(1, n // 4)
            i = pattern.randrange(n - length)
            bars.append((pts[i], pts[i + length], parity, False))
    return pts, bars


# ---------------------------------------------------------------------------
# isometry
# ---------------------------------------------------------------------------


def isometry_bars(rng: random.Random, points: Sequence[Fraction],
                  first: Tuple[int, int], births: int) -> List[Bar]:
    """Bars with at most two alive between any two points: `first[p]` of
    parity p are born at -inf, `births` more at random points, and none
    lives past the last point.  Where a bar is born and two are alive, a
    random one of them dies; elsewhere each alive bar dies with
    probability 1/3.  The bar count is fixed, so every seed asks for about
    the same work."""
    born = set(rng.sample(range(len(points) - 1), births))
    alive = [(NEG_INF, p) for p in (0, 1) for _ in range(first[p])]
    bars: List[Bar] = []
    for k, x in enumerate(points):
        if k in born:
            dying = [rng.randrange(2)] if len(alive) == 2 else []
        elif k == len(points) - 1:
            dying = list(range(len(alive)))
        else:
            dying = [i for i in range(len(alive)) if rng.random() < 1 / 3]
        for i in dying:
            bars.append((alive[i][0], x, alive[i][1], False))
        alive = [a for i, a in enumerate(alive) if i not in dying]
        if k in born:
            alive.append((x, rng.randint(0, 1)))
    return bars


def repaired(bars: Sequence[Bar]):
    """Swap the deaths of the first two overlapping bars of one parity,
    (b1, d1) and (b2, d2) with b1 < b2 < d1 < d2, into (b1, d2) and (b2, d1):
    the dimensions at every sample stay, the barcode changes.  None when no
    two bars overlap so."""
    for i, (b1, d1, p1, _) in enumerate(bars):
        for j, (b2, d2, p2, _) in enumerate(bars):
            if p1 == p2 and b1 < b2 < d1 < d2:
                out = list(bars)
                out[i], out[j] = (b1, d2, p1, False), (b2, d1, p2, False)
                return out
    return None


def isometry_pair(rng: random.Random, points: Sequence[Fraction], same: bool
                  ) -> Tuple[List[Bar], List[Bar]]:
    """Two barcodes with the same dimensions at every sample: the second
    is the first (distance 0) or, when not `same`, the first re-paired
    (a finite distance > 0).  One bar is born at -inf, and 2/3 of the
    points bear a birth.  Barcodes that cannot be re-paired are drawn
    again, so every pair has the same make-up whatever the seed."""
    while True:
        d0 = rng.randint(0, 1)
        one = isometry_bars(rng, points, (d0, 1 - d0), 2 * len(points) // 3)
        other = repaired(one)
        if other is not None:
            return one, (list(one) if same else other)


def fault_pair() -> Tuple[List[Fraction], Fraction, Fraction, List[Bar], List[Bar]]:
    """A fixed pair on which `interleaving_distance_bruteforce` is wrong at
    this writing: even bars {(8/3, 5), (8/3, 8), (5, 23/3)} against
    {(8/3, 8), (5, 23/3)} on the spectrum {8/3, 5, 23/3, 8}, horizon [0, 9].
    The graded bottleneck distance is 7/6 (the bar (8/3, 5) goes to its
    ghost); the search answers 3/2.  It does not depend on the seed."""
    a, b, c, d = Fraction(8, 3), Fraction(5), Fraction(23, 3), Fraction(8)
    return ([a, b, c, d], Fraction(0), Fraction(9),
            [(a, b, 0, False), (a, d, 0, False), (b, c, 0, False)],
            [(a, d, 0, False), (b, c, 0, False)])
