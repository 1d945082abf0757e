"""Sampled persistence modules over GF(2), and their barcode normal form.

A SampledModule is a finite functor presentation of a persistence module
with spectrum: one GF(2) structure matrix per parity between consecutive
sample parameters, sampled so that consecutive samples straddle at most
one spectrum point and every spectrum point is straddled.  Its spectrum
and the barcodes read off it are the types of `barcode`.

A SampledModule is read with constant extension beyond its grid: a bar
alive at the first (last) sample is considered born at -inf (undying).
That convention is what `decompose` and `module_from_barcode` invert
against each other.

`decompose` reads the barcode off in one left-to-right sweep per parity,
the persistence reduction of a chain of linear maps: it carries a basis
of the current sample's space, coordinate-major, each vector tagged with
the sample where its bar was born, and multiplies it by every structure
map, keeping the older bar whenever two images become dependent (the
elder rule).
Every placement is of the samples among the spectrum points: one merge,
`_count_below`, which gives each sample the number of points below it and
at or below it, comparing numerator and denominator ints (only an invalid
module's samples are sorted first).  Those counts give each sample gap its
points and `validate_module` its collisions and unstraddled points
(`_placement`), which runs once per module: the module keeps the result
in a private slot, which `validate_module`, `decompose`, the regions of
`interleaving` and the `oracles` all read.  Every finite bar end is a
spectrum point, so a bar end is its int position among the points:
`decompose` reads each end's position off the counts and sorts and
recounts its bars on those ints, building each `Bar` unchecked, since the
sorted ints already put its ends in order; `module_from_barcode` bisects
the positions of a barcode's ends (`barcode._end_positions`) into the
counts for the bars alive at each sample (`_alive`).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, compress, repeat
from typing import List, Sequence, Tuple

from .barcode import Bar, Barcode, Parity, Spectrum, _end_positions
from .errors import (
    EmptyHorizonError,
    IndexOutOfRangeError,
    InvalidModuleError,
    NonPositiveDensityError,
    TooLargeError,
)
from .gf2 import Echelon, Gf2Matrix
from .scalar import Frozen, NEG_INF, POS_INF, Scalar, _rising, rational


class SampledModule(Frozen):
    """A persistence module sampled on a finite grid.

    `samples` are strictly increasing finite parameters avoiding the
    spectrum; `dims[i]` is the graded dimension at samples[i]; `maps[i]`
    holds the two structure matrices (one per parity) from samples[i] to
    samples[i+1], with shape dims[i+1][p] x dims[i][p].  The private slot
    `_placed` keeps `_placement` of the module once it has run; it is no
    field, so `==`, `hash`, `repr`, copies and pickles leave it out.
    """

    __slots__ = ("spectrum", "samples", "dims", "maps", "_placed")

    def __init__(self, spectrum: Spectrum, samples: Tuple[Scalar, ...],
                 dims: Tuple[Tuple[int, int], ...],
                 maps: Tuple[Tuple[Gf2Matrix, Gf2Matrix], ...]):
        if len(dims) != len(samples):
            raise ValueError("dims and samples disagree in length")
        if len(maps) != max(len(samples) - 1, 0):
            raise ValueError("need exactly one map pair per consecutive sample pair")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_placed", None)

    @property
    def n_samples(self) -> int:
        return len(self.samples)


def validate_module(m: SampledModule) -> List[str]:
    """Collect invariant violations, in a new list on every call; an empty
    list means the module is valid."""
    return list(_placement(m)[1])


Counts = Tuple[List[int], List[int]]


def _placement(m: SampledModule
               ) -> Tuple[List[Tuple[Scalar, ...]], List[str], Counts]:
    """The spectrum points of every sample gap, the module's invariant
    violations, and the placement they come from: the counts (below, upto)
    of the samples among the spectrum points.

    below[i] and upto[i] count the points below samples[i] and at or below
    it; any sample order is read as given.  Gap i holds the points from
    upto[i] to below[i + 1], a sample lies on a point exactly when its two
    counts differ, and the points before below[0] or from upto[-1] on are
    not straddled; without samples, no point is.  A valid module's checks
    compare ints only.

    A module is immutable, so this runs once per module: the result is
    kept in its `_placed` slot, and every later call returns that same
    tuple, whose lists the callers only read.
    """
    placed = m._placed
    if placed is not None:
        return placed
    samples, dims = m.samples, m.dims
    pts = m.spectrum.points
    rising = _rising(samples)
    below, upto = _count_below(samples, pts, rising)
    gaps = [pts[lo:hi] for lo, hi in zip(upto, below[1:])]
    issues: List[str] = []
    if below != upto or not rising:
        for i, s in enumerate(samples):
            if not (rising or s.is_finite):
                issues.append(f"sample {i} is not finite")
            elif below[i] != upto[i]:
                issues.append(f"sample {i} collides with spectrum point {s}")
            if not rising and i > 0 and not (samples[i - 1] < s):
                issues.append(f"samples {i - 1} and {i} are not strictly increasing")
    for i, (d0, d1) in enumerate(dims):
        if d0 < 0 or d1 < 0:
            issues.append(f"negative dimension at sample {i}")
    for i, (pair, src, dst) in enumerate(zip(m.maps, dims, dims[1:])):
        for parity, mat in enumerate(pair):
            if len(mat.rows) != dst[parity] or mat.ncols != src[parity]:
                issues.append(f"map {i} parity {parity} has shape {mat.shape}, "
                              f"expected {(dst[parity], src[parity])}")
    # Grid discipline relative to the spectrum.
    outside = pts[:below[0]] + pts[max(below[0], upto[-1]):] if samples else pts
    for p in outside:
        issues.append(f"spectrum point {p} is not straddled by the samples")
    for i, between in enumerate(gaps):
        if len(between) > 1:
            issues.append(
                f"{len(between)} spectrum points between samples {i} and {i + 1}")
        if not between:
            for parity in (0, 1):
                mat = m.maps[i][parity]
                if mat.shape == (dims[i + 1][parity], dims[i][parity]) \
                        and not mat.is_invertible():
                    issues.append(
                        f"map {i} parity {parity} crosses no spectrum point "
                        "but is not invertible")
    placed = (gaps, issues, (below, upto))
    object.__setattr__(m, "_placed", placed)
    return placed


def composite_map(m: SampledModule, i: int, j: int, parity: Parity) -> Gf2Matrix:
    """Structure map from samples[i] to samples[j] (i <= j)."""
    if not (0 <= i <= j < m.n_samples):
        raise IndexOutOfRangeError(f"sample range ({i}, {j}) outside 0..{m.n_samples - 1}")
    if i == j:
        return Gf2Matrix.identity(m.dims[i][parity])
    acc = m.maps[i][parity]
    for step in range(i + 1, j):
        acc = m.maps[step][parity] @ acc
    return acc


def _valid_placement(m: SampledModule) -> Tuple[List[Tuple[Scalar, ...]], Counts]:
    """The gaps and counts of `_placement` of m; an invalid m is refused."""
    gaps, issues, counts = _placement(m)
    if issues:
        raise InvalidModuleError("invalid module: " + "; ".join(issues))
    return gaps, counts


# The largest total dimension d0 + d1 at one sample that `decompose` takes.
# Its first basis holds one d-bit int per coordinate, so memory grows
# with the square of a dimension that a short document can state.
MAX_SAMPLE_DIM = 10_000


def decompose(m: SampledModule) -> Barcode:
    """Interval decomposition of a valid SampledModule.

    One sweep per parity over the samples.  The sweep holds a basis of the
    space at sample i in which each vector is tagged with its birth sample
    b, arranged so that the vectors born at or before b span the image of
    the composite map from sample b to sample i.  The basis is kept
    coordinate-major: one int per coordinate, whose bit made - 1 - n says
    that the n-th vector made so far has that coordinate, so elder vectors
    sit on higher bits (the bits of dead vectors are squeezed out once they
    outnumber the live ones).  Crossing to sample i+1, the images at a
    coordinate are the XOR of the ints at the set bits of the structure
    map's row, inserted into an `Echelon` (one per call, its pivots emptied
    at each step).  Its top-bit pivots are the greedy independent columns
    from the top: the vectors on them survive, gathered into a mask as each
    pivot enters, and every other vector is the youngest of a dependent
    set, whose bar ends at sample i (the elder rule).  The coordinates
    whose images reduce to zero are those whose unit vectors complete the
    survivors to a basis, as bars born at sample i+1; a step with none
    keeps its images, masked to the survivors, as the next coordinates.

    Bar ends are int positions among the spectrum points, as in
    `barcode._end_positions`: a bar dying at sample i or born at sample
    i+1 ends at the one point of the gap between them, at position
    upto[i]; -inf is -1 and +inf len(points).  The sorted (birth, death,
    parity) ints are `Barcode`'s order, and they also recount the bars
    alive at each sample for the closing check.
    `oracles.rank_formula_decompose` recomputes the same barcode from the
    inclusion-exclusion of composite ranks.  A module with more than
    MAX_SAMPLE_DIM dimensions at some sample raises TooLargeError.
    """
    below, upto = _valid_placement(m)[1]
    if any(d0 + d1 > MAX_SAMPLE_DIM for d0, d1 in m.dims):
        raise TooLargeError(
            f"per-sample total dimension exceeds the decomposition bound ({MAX_SAMPLE_DIM})")
    k = m.n_samples
    top = len(m.spectrum.points)
    ends: List[Tuple[int, int, Parity]] = []  # (birth, death, parity) positions
    echelon = Echelon()  # emptied at each step
    pivots, insert = echelon.pivots, echelon.insert
    for parity in (0, 1):
        births = [-1] * m.dims[0][parity] if k else []  # positions, by creation order
        made = len(births)
        coords = [1 << (made - 1 - c) for c in range(made)]
        alive = (1 << made) - 1
        for i, step in enumerate([pair[parity] for pair in m.maps]):
            images = []
            pivots.clear()
            kept = 0  # the top bits of the pivots: the surviving vectors
            fresh = []  # the coordinates whose unit vectors are new vectors
            for c, row in enumerate(step.rows):
                image = 0
                while row:  # XOR in the coordinate at each set bit
                    low = row & -row
                    image ^= coords[low.bit_length() - 1]
                    row ^= low
                images.append(image)
                if pivot := insert(image):  # with k = 0, a new pivot
                    kept |= 1 << pivot.bit_length() - 1
                else:
                    fresh.append(c)
            dead = alive ^ kept
            # a valid module has one point in a gap that a bar ends in: a gap
            # without points carries invertible maps, which end no bar
            at = upto[i]
            while dead:
                low = dead & -dead
                ends.append((births[made - low.bit_length()], at, parity))
                dead ^= low
            if not fresh:  # no bar is born: the surviving images are the coordinates
                coords = images if kept == alive else [image & kept for image in images]
                alive = kept
                continue
            new = len(fresh)
            births += [at] * new
            made += new
            coords = [(image & kept) << new for image in images]
            for bit, c in enumerate(fresh):
                coords[c] |= 1 << bit
            alive = kept << new | (1 << new) - 1
            if made > 2 * alive.bit_count() + 64:  # squeeze out the bits of dead vectors
                keep = [digit == "1" for digit in format(alive, f"0{made}b")]
                births = list(compress(births, keep))
                coords = [int("0" + "".join(compress(format(x, f"0{made}b"), keep)), 2)
                          for x in coords]
                made = len(births)
                alive = (1 << made) - 1
        ends.extend((births[made - 1 - b], top, parity) for b in range(made) if alive >> b & 1)
    ends.sort()
    line = (NEG_INF, *m.spectrum.points, POS_INF)  # position p is line[p + 1]
    # the sorted int ends are in order, so no bar check is left to make
    code = Barcode._sorted(m.spectrum, tuple([
        Bar._unchecked(line[b + 1], line[d + 1], parity) for b, d, parity in ends]))
    # A bar from position b to d contains sample s when b < below[s] and
    # upto[s] <= d, and below[s] == upto[s] in a valid module: the bars at
    # s are those born before below[s] less those dead before upto[s].
    tally = [[0] * (top + 2) for _ in range(4)]  # births, deaths at position + 1
    for b, d, parity in ends:
        tally[parity][b + 1] += 1
        tally[2 + parity][d + 1] += 1
    born0, born1, died0, died1 = (list(accumulate(c)) for c in tally)
    for idx, (lo, hi, dims) in enumerate(zip(below, upto, m.dims)):
        count = (born0[lo] - died0[hi], born1[lo] - died1[hi])
        if count != dims:
            raise AssertionError(f"decomposition loses rank at sample {idx}: {count} != {dims}")
    return code


def _alive(code: Barcode, below: List[int], upto: List[int]
           ) -> List[Tuple[List[int], List[int]]]:
    """For each of the sorted samples, the indices of the bars of code
    containing it, one list per parity, in bar order.

    below[i] and upto[i] count the spectrum points below samples[i] and at
    or below it (`_count_below`); both lists ascend.  The bar from point
    position b to point position d contains samples[i] exactly when
    b < below[i] and upto[i] <= d, so it contains the samples from
    bisect_right(below, b) up to bisect_right(upto, d).
    """
    alive: List[Tuple[List[int], List[int]]] = [([], []) for _ in below]
    ends = _end_positions(code.spectrum.points, code.bars)
    for idx, ((b, d), bar) in enumerate(zip(ends, code.bars)):
        for s in range(bisect_right(below, b), bisect_right(upto, d)):
            alive[s][bar.parity].append(idx)
    return alive


def _count_below(values: Sequence[Scalar], ref: Sequence[Scalar], rising: bool = False
                 ) -> Counts:
    """For each value, the numbers of the sorted finite scalars `ref` below
    it and at most it (bisect_left and bisect_right of the value into ref),
    from one merge of the sorted values into ref.

    Values not known to be `rising` (`_rising`) are sorted first, the
    only use of Scalar.__lt__.  The merge compares numerator and denominator ints,
    taken out once, by cross-multiplication (denominators are positive),
    and an infinite value goes by its tag: -inf lies below every entry of
    ref and +inf above.
    """
    below = [0] * len(values)
    upto = [0] * len(values)
    fracs = [r.value for r in ref]
    nums = [f.numerator for f in fracs]
    dens = [f.denominator for f in fracs]
    k = len(ref)
    p = 0
    for e in range(len(values)) if rising else sorted(range(len(values)), key=values.__getitem__):
        x = values[e].value
        if x.__class__ is float:
            below[e] = upto[e] = 0 if x < 0 else k
            continue
        n, d = x.numerator, x.denominator
        while p < k and nums[p] * d < n * dens[p]:
            p += 1
        below[e] = q = p
        while q < k and not (n * dens[q] < nums[q] * d):  # step past the entries equal to x
            q += 1
        upto[e] = q
    return below, upto


def _sample_positions(spectrum: Spectrum, density: int) -> List[Scalar]:
    """Sample grid bracketing every spectrum point.

    One region per connected component of the complement; `density` samples
    are spread inside each region.  When an extreme spectrum point sits on
    the horizon boundary the outer sample is placed just beyond it, since a
    one-sided point could not be told apart from an unbounded bar end.
    """
    lo, hi = spectrum.lo, spectrum.hi
    if not (lo < hi):
        raise EmptyHorizonError("horizon window has no interior to sample")
    points = spectrum.points
    if not points:
        regions = [(lo, hi)]
    else:
        def pad() -> Scalar:
            gaps = [b - a for a, b in zip(points, points[1:])]
            return min(gaps) if gaps else rational(1)
        left = (lo, points[0]) if lo < points[0] else (points[0] - pad(), points[0])
        right = (points[-1], hi) if points[-1] < hi else (points[-1], points[-1] + pad())
        regions = [left] + list(zip(points, points[1:])) + [right]
    m = density + 1
    positions: List[Scalar] = []
    for a, b in regions:
        # a + (b - a) * t / m, over the one denominator of a, b and m
        an, ad = a.value.numerator, a.value.denominator
        bn, bd = b.value.numerator, b.value.denominator
        positions.extend([Scalar(Fraction(an * bd * (m - t) + bn * ad * t, ad * bd * m))
                          for t in range(1, m)])
    return positions


def module_from_barcode(b: Barcode, grid_density_hint: int = 1) -> SampledModule:
    """Canonical bar-tracking SampledModule presenting the barcode.

    Dimensions count the bars strictly containing each sample; structure
    matrices are the 0/1 matrices that follow each bar from one sample to
    the next and kill it in between otherwise.
    """
    if grid_density_hint < 1:
        raise NonPositiveDensityError("grid_density_hint must be a positive integer")
    samples = _sample_positions(b.spectrum, grid_density_hint)
    alive = _alive(b, *_count_below(samples, b.spectrum.points, rising=True))
    dims = tuple((len(a0), len(a1)) for a0, a1 in alive)
    # a bar at column c of the source sample has row units[c] at the next
    # one; a bar born in between has the zero row
    units = [1 << c for c in range(max(map(max, dims), default=0))]
    maps = []
    for here, there in zip(alive, alive[1:]):
        maps.append(tuple([
            Gf2Matrix._unchecked(tuple(map(dict(zip(src, units)).get, dst, repeat(0))), len(src))
            for src, dst in zip(here, there)]))
    return SampledModule(b.spectrum, tuple(samples), dims, tuple(maps))
