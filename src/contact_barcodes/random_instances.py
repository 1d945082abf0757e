"""Seeded random barcodes and modules for property harnesses.

All generators take an explicit random.Random so that identical seeds
reproduce identical instances, byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from .barcode import Bar, Barcode, Spectrum
from .gf2 import Gf2Matrix
from .persistence import SampledModule, _sample_positions
from .scalar import NEG_INF, POS_INF, ZERO, Scalar, rational


def random_rational(rng: random.Random, lo: int = -8, hi: int = 8) -> Scalar:
    """A rational in [lo, hi] with denominator 1, 2, 3 or 4."""
    q = rng.choice((1, 2, 3, 4))
    return Scalar(Fraction(rng.randint(lo * q, hi * q), q))


def random_spectrum(rng: random.Random, max_points: int = 6,
                    min_points: int = 0) -> Spectrum:
    n = rng.randint(min_points, max_points)
    pts = set()
    while len(pts) < n:
        pts.add(random_rational(rng, 0, 10))
    points = tuple(sorted(pts))
    lo = points[0] if points else rational(0)
    hi = points[-1] if points else rational(10)
    if not (lo < hi):
        hi = lo + rational(1)
    return Spectrum(points, lo, hi)


def random_barcode(rng: random.Random, max_bars: int = 8, max_points: int = 6,
                   force_half_infinite: bool = False) -> Barcode:
    """A barcode with positive-length bars over a fresh random spectrum."""
    spectrum = random_spectrum(rng, max_points=max_points, min_points=1)
    points = spectrum.points
    bars: List[Bar] = []
    n_bars = rng.randint(0, max_bars)
    for _ in range(n_bars):
        parity = rng.randint(0, 1)
        kind = rng.random()
        if kind < 0.15:
            bars.append(Bar(NEG_INF, rng.choice(points), parity))
        elif kind < 0.30:
            bars.append(Bar(rng.choice(points), POS_INF, parity))
        elif kind < 0.35:
            bars.append(Bar(NEG_INF, POS_INF, parity))
        elif len(points) >= 2:
            i = rng.randrange(len(points) - 1)
            j = rng.randrange(i + 1, len(points))
            bars.append(Bar(points[i], points[j], parity))
    if force_half_infinite and not any(
            b.birth.is_finite and b.death.is_pos_inf for b in bars):
        bars.append(Bar(rng.choice(points), POS_INF, rng.randint(0, 1)))
    return Barcode(spectrum, tuple(bars))


def perturb_barcode(b: Barcode, radius: Scalar, rng: random.Random) -> Barcode:
    """A random barcode within bottleneck distance <= radius of b.

    Finite endpoints move by at most the radius, short bars may be dropped,
    and fresh bars of half-length at most the radius may appear; the new
    spectrum is rebuilt from the perturbed endpoints.
    """
    if radius < ZERO:
        raise ValueError("radius must be nonnegative")
    if radius == ZERO:
        return b

    def jitter() -> Scalar:
        return radius * Fraction(rng.randint(-8, 8), 8)

    new_bars: List[Bar] = []
    for bar in b.bars:
        if bar.is_finite and not (radius < bar.half_length()) and rng.random() < 0.2:
            continue  # drop a short bar: its ersatz partner costs <= radius
        birth, death = bar.birth, bar.death
        if birth.is_finite and death.is_finite:
            db, dd = jitter(), jitter()
            if birth + db < death + dd:
                birth, death = birth + db, death + dd
            else:
                shift = jitter()
                birth, death = birth + shift, death + shift
        elif birth.is_finite:
            birth = birth + jitter()
        elif death.is_finite:
            death = death + jitter()
        new_bars.append(Bar(birth, death, bar.parity, bar.truncated))
    n_new = rng.randint(0, 2)
    lo, hi = b.spectrum.lo, b.spectrum.hi
    for _ in range(n_new):
        center = lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)
        half = radius * Fraction(rng.randint(1, 8), 8)
        new_bars.append(Bar(center - half, center + half, rng.randint(0, 1)))
    points = sorted({e for bar in new_bars for e in (bar.birth, bar.death)
                     if e.is_finite})
    new_lo = min([lo - radius] + points)
    new_hi = max([hi + radius] + points)
    spectrum = Spectrum(tuple(points), new_lo, new_hi)
    return Barcode(spectrum, tuple(new_bars))


def random_module(rng: random.Random, max_points: int = 4, max_dim: int = 2,
                  spectrum: Optional[Spectrum] = None,
                  density: int = 1) -> SampledModule:
    """A valid random module on the sample grid of `module_from_barcode`:
    random dims per region, random matrices across spectrum points, random
    invertible matrices inside regions."""
    if spectrum is None:
        spectrum = random_spectrum(rng, max_points=max_points)
    samples = _sample_positions(spectrum, density)
    region_of = [i // density for i in range(len(samples))]

    region_dims = []
    for _ in range(len(samples) // density):
        total = rng.randint(0, max_dim)
        d0 = rng.randint(0, total)
        region_dims.append((d0, total - d0))
    dims = tuple(region_dims[r] for r in region_of)
    maps = []
    for i in range(len(samples) - 1):
        pair = []
        for parity in (0, 1):
            nr, nc = dims[i + 1][parity], dims[i][parity]
            if region_of[i] == region_of[i + 1]:
                pair.append(random_basis_change(rng, nc)[0])
            else:
                pair.append(random_matrix(rng, nr, nc))
        maps.append((pair[0], pair[1]))
    return SampledModule(spectrum, tuple(samples), dims, tuple(maps))


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> Gf2Matrix:
    return Gf2Matrix(tuple(rng.randrange(1 << ncols) for _ in range(nrows)), ncols)


def random_basis_change(rng: random.Random, n: int) -> Tuple[Gf2Matrix, Gf2Matrix]:
    """A random n x n invertible matrix and its inverse, for any n.

    The matrix is a product of 3n random row additions; the inverse applies
    the same additions in reverse order, since each is its own inverse.
    """
    steps = [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)] if n >= 2 else []
    fwd = [1 << i for i in range(n)]
    inv = [1 << i for i in range(n)]
    for a, b in steps:
        fwd[a] ^= fwd[b]
    for a, b in reversed(steps):
        inv[a] ^= inv[b]
    return Gf2Matrix(tuple(fwd), n), Gf2Matrix(tuple(inv), n)


def scramble(rng: random.Random, m: SampledModule) -> SampledModule:
    """An isomorphic copy of m in a random basis at every sample and parity."""
    changes = [tuple(random_basis_change(rng, d) for d in dims) for dims in m.dims]
    maps = tuple(
        tuple(changes[i + 1][p][0] @ pair[p] @ changes[i][p][1] for p in (0, 1))
        for i, pair in enumerate(m.maps))
    return SampledModule(m.spectrum, m.samples, m.dims, maps)

