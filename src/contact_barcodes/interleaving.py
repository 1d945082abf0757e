"""Brute-force delta-interleaving search over sampled modules.

The search works directly on SampledModules, enumerating the forward GF(2)
interleaving maps F region by region; every constraint on the backward
maps G, a matrix identity sum(L @ G[t] @ R) == C, becomes linear equations
through one routine, `_add_identity`.  Inside the search every map is a
tuple of row ints, and each term reaches `_add_identity` as a ready-made
factor: the rows of L spread over the unknowns of G[t] and the columns of
R as ints.  The factors of the maps that no F candidate changes are built
once per search, and a `Gf2Matrix` only for the certificate returned.

The search is kept independent of the bottleneck distance of
`distances`, so that the two routes can be played against each other:
the two share only `scalar.Coords`, the exact int coordinates of region
shifts and candidate deltas and the search over them.  Values become
Scalars again only at the output.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    HorizonMismatchError,
    IndexOutOfRangeError,
    InfiniteDeltaError,
    InvalidModuleError,
    ShapeMismatchError,
    TooLargeError,
)
from .gf2 import Echelon, Gf2Matrix, rows_matmul, rows_transpose, solve
from .persistence import SampledModule, _valid_placement, composite_map
from .scalar import Coords, Frozen, POS_INF, Scalar, ZERO


class InterleavingCertificate(Frozen):
    """Interleaving maps, one per region per parity.

    Regions are the connected components cut out of the line by the
    spectrum points; forward_maps[r][p] maps module 1's region r to module
    2's region shifted by delta, and backward_maps the other way.
    """

    __slots__ = ("delta", "forward_maps", "backward_maps")

    def __init__(self, delta: Scalar,
                 forward_maps: Tuple[Tuple[Gf2Matrix, Gf2Matrix], ...],
                 backward_maps: Tuple[Tuple[Gf2Matrix, Gf2Matrix], ...]):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "forward_maps", forward_maps)
        object.__setattr__(self, "backward_maps", backward_maps)


class _Regions:
    """Regions of a valid SampledModule, whose spectrum points are its cuts
    (each alone in its sample gap; region r > 0 is read at the sample just
    after the gap of cut r - 1), with the composite maps that the search
    reads between them."""

    def __init__(self, m: SampledModule):
        gaps = _valid_placement(m)[0]
        if m.n_samples == 0:
            raise InvalidModuleError("module has no samples")
        self.module = m
        self.cuts = m.spectrum.points
        self.reps = (0, *(i + 1 for i, between in enumerate(gaps) if between))
        self.n = len(self.reps)
        self.dims = tuple(m.dims[i] for i in self.reps)
        # per parity, jumps[k][a] is the map from region a to region a + 2**k
        self._jumps: Tuple[List[List[Gf2Matrix]], ...] = ([], [])
        self._identities: Dict[int, Gf2Matrix] = {}

    def comp(self, a: int, b: int, parity: int) -> Gf2Matrix:
        """The structure map from region a to region b (a <= b): a product
        of the table entries of the set bits of b - a, lowest first.

        The table grows a level at a time, up to the longest span asked
        for: level 0 holds the region steps, level k the products of pairs
        of level k - 1.  A one-step span is a level-0 entry, and a zero
        span gives one shared identity per dimension, as delta 0 asks at
        every region.
        """
        if not 0 <= a <= b < self.n:
            raise IndexOutOfRangeError(f"region range ({a}, {b}) outside 0..{self.n - 1}")
        span = b - a
        if span == 0:
            d = self.dims[a][parity]
            eye = self._identities.get(d)
            if eye is None:
                eye = self._identities[d] = Gf2Matrix.identity(d)
            return eye
        jumps = self._jumps[parity]
        if not jumps:
            m, reps = self.module, self.reps
            jumps.append([composite_map(m, reps[i], reps[i + 1], parity)
                          for i in range(self.n - 1)])
        if span == 1:
            return jumps[0][a]
        while len(jumps) < span.bit_length():
            below, half = jumps[-1], 1 << (len(jumps) - 1)
            jumps.append([below[i + half] @ below[i]
                          for i in range(len(below) - half)])
        acc, k = None, 0
        while span:
            if span & 1:
                step = jumps[k][a]
                acc = step if acc is None else step @ acc
                a += 1 << k
            span >>= 1
            k += 1
        return acc


def _shift_tables(regions1: _Regions, regions2: _Regions, delta: Scalar):
    """Region shift maps phi (1 -> 2 by delta), psi (2 -> 1 by delta) and
    phi2, psi2 (each module into itself by 2 delta).

    Region r > 0 starts at cut r - 1 and lands in the target region that
    holds the points just right of that cut plus the shift; region 0
    reaches to -inf and lands in region 0.  Cuts and delta are compared
    in one `Coords`, so any finite delta works.
    """
    if not delta.is_finite:
        raise InfiniteDeltaError(f"interleaving parameter delta must be finite, got {delta}")
    coords = Coords(regions1.cuts + regions2.cuts + (delta,))
    cuts1 = [coords.of(c) for c in regions1.cuts]
    cuts2 = [coords.of(c) for c in regions2.cuts]
    shift = coords.of(delta)

    def table(cuts: List[int], by: int, target: List[int]) -> List[int]:
        return [0] + [bisect_right(target, c + by) for c in cuts]

    return (table(cuts1, shift, cuts2), table(cuts2, shift, cuts1),
            table(cuts1, 2 * shift, cuts1), table(cuts2, 2 * shift, cuts2))


_SEARCH_BUDGET = 400_000


class _GLayout:
    """The entries of the backward maps G[t] as the unknowns of equations
    coeffs << 1 | rhs in a k = 1 Echelon: unknown n is bit n of coeffs.

    G[t] has heights[t] rows and widths[t] columns; its entry (i, j) is
    unknown offsets[t] + i * widths[t] + j, so row s of G[t] is a run of
    widths[t] unknowns whose first one is the bit row_bits[t][s].
    spreads[t][x] is the sum of row_bits[t][s] over the set bits s of x,
    for every x below 1 << heights[t] (at most 16 under the enumeration
    bound), and units[t] lists the widths[t] unit columns 1 << j.
    """

    __slots__ = ("heights", "widths", "offsets", "row_bits", "spreads", "units")

    def __init__(self, heights: Sequence[int], widths: Sequence[int]):
        self.heights, self.widths = heights, widths
        self.offsets = [0, *accumulate(h * w for h, w in zip(heights, widths))]
        self.row_bits = [[1 << (off + s * w) for s in range(h)]
                         for h, w, off in zip(heights, widths, self.offsets)]
        self.spreads = []
        for bits in self.row_bits:
            spread = [0]
            for bit in bits:
                spread += [x | bit for x in spread]
            self.spreads.append(spread)
        self.units = [[1 << j for j in range(w)] for w in widths]

    def decode(self, sol: int) -> List[Gf2Matrix]:
        """The G maps of a solution."""
        return [Gf2Matrix(tuple(sol >> (off + i * w) & ((1 << w) - 1) for i in range(h)), w)
                for h, w, off in zip(self.heights, self.widths, self.offsets)]


def _add_identity(equations: Echelon, factors: Sequence[Tuple[Sequence[int], Sequence[int]]],
                  rhs_rows: Sequence[int], ncols: int) -> bool:
    """Insert the equations of sum(L @ G[t] @ R) == C, one per entry of C,
    row by row; False at the first that reduces to 0 = 1.  C is given by
    its rows and column count, and each term by its factor (spread, cols):
    spread[i] is row i of L spread over the unknowns of G[t], the
    `_GLayout` spreads[t] entry of that row (row_bits[t] for an identity
    L), and cols[j] is column j of R as an int (units[t] for an identity
    R).

    Entry (i, j) of L @ G[t] @ R is the XOR, over the set bits s of row i
    of L, of column j of R shifted onto the unknowns of row s of G[t].  The
    shifted copies lie in disjoint runs of widths[t] bits, so their XOR is
    the int product spread[i] * cols[j].
    """
    for i, bits in enumerate(rhs_rows):
        for j in range(ncols):
            coeffs = 0
            for spread, cols in factors:
                coeffs ^= spread[i] * cols[j]
            if equations.insert(coeffs << 1 | bits >> j & 1) == 1:
                return False
    return True


def _search_chain(regions1: _Regions, regions2: _Regions, parity: int,
                  tables: Tuple[List[int], List[int], List[int], List[int]], delta: Scalar
                  ) -> Optional[Tuple[List[Gf2Matrix], List[Gf2Matrix]]]:
    """The first (F maps, G maps) pair satisfying every constraint at
    delta, whose shift `tables` are given, or None.

    F maps are searched depth-first along the forward naturality chain, on
    an explicit stack with one frame per region; G equations are inserted
    into one Echelon as they arise, so contradictions prune the search as
    early as possible.  A frame marks the pivot count it started from, and
    each of its candidates first undoes the pivots inserted since.  Each F
    candidate tried costs one unit of the search budget.

    Every map is a tuple of row ints here.  The factors of the fixed maps,
    and the region steps that the candidates are multiplied by, are built
    once per search; an F candidate is the row tuple that `product` yields,
    and only the certificate returned is built as matrices.
    """
    R1, R2 = regions1.n, regions2.n
    d1 = [d[parity] for d in regions1.dims]
    d2 = [d[parity] for d in regions2.dims]
    phi, psi, phi2, psi2 = tables
    g = _GLayout([d1[psi[t]] for t in range(R2)], d2)
    row_bits, spreads, units = g.row_bits, g.spreads, g.units

    # backward naturality chain, G[t+1] A2 = C1 G[t], is independent of F;
    # a C1 that spans no region is the identity
    equations = Echelon(k=1)
    for t in range(R2 - 1):
        a2 = rows_transpose(regions2.comp(t, t + 1, parity).rows, d2[t])
        if psi[t] == psi[t + 1]:
            c1 = row_bits[t]
        else:
            c1 = [spreads[t][row] for row in regions1.comp(psi[t], psi[t + 1], parity).rows]
        if not _add_identity(equations, [(row_bits[t + 1], a2), (c1, units[t])],
                             (0,) * d1[psi[t + 1]], d2[t]):
            return None

    # rank obstructions that need no enumeration at all: each 2-delta map of
    # one module (direct) factors through the other module and back; both
    # maps also enter the equations that F maps bring in, below.  A map
    # that spans no region is an identity: its rank is its size, and every
    # map into its region factors through it, so neither needs an Echelon,
    # and a `through` map that spans none is None
    e2_maps, e3_maps = [], []
    for maps, regions, there, back, twice, d_there in (
            (e2_maps, regions1, phi, psi, phi2, d2), (e3_maps, regions2, psi, phi, psi2, d1)):
        for r in range(regions.n):
            u, via = twice[r], back[there[r]]
            direct = regions.comp(r, u, parity)
            through = regions.comp(via, u, parity) if via < u else None
            need = direct.nrows if r == u else direct.rank()
            if need > d_there[there[r]] or (through is not None and need > through.rank()):
                return None
            maps.append((through, direct))

    # equations carrying F[r] enter the echelon at DFS depth r: E2 at r,
    # through G[phi[r]] F[r] = direct, with the spread of `through` fixed,
    # and E3 at each t with psi[t] = r, through F[r] G[t] = direct, whose
    # left factor is `through` times F[r] (F[r] itself for a None through)
    e2 = []
    for r, (through, direct) in enumerate(e2_maps):
        t = phi[r]
        spread = row_bits[t] if through is None else [spreads[t][row] for row in through.rows]
        e2.append((spread, direct.rows, direct.ncols))
    e3_by_depth: List[list] = [[] for _ in range(R1)]
    for t, (through, direct) in enumerate(e3_maps):
        e3_by_depth[psi[t]].append((None if through is None else through.rows,
                                    spreads[t], units[t], direct.rows, direct.ncols))

    def consistent(r: int, fmat: Tuple[int, ...]) -> bool:
        """Insert the equations that F[r] = fmat brings in, E2 then each
        E3; False at the first contradiction."""
        spread, rhs, width = e2[r]
        if not _add_identity(equations, [(spread, rows_transpose(fmat, d1[r]))], rhs, width):
            return False
        for c2a, spread_t, units_t, rhs, width in e3_by_depth[r]:
            left = fmat if c2a is None else rows_matmul(c2a, fmat)
            if not _add_identity(equations, [([spread_t[row] for row in left], units_t)],
                                 rhs, width):
                return False
        return True

    # fwd[r] holds, once depth r is first reached, the rows of the step
    # from region phi[r - 1] to phi[r] of module 2 (None where it spans no
    # region) and an Echelon of the rows of module 1's step into region r
    fwd: List[Optional[tuple]] = [None] * R1

    def f_candidates(r: int, prev: Sequence[int]):
        nrows, ncols = d2[phi[r]], d1[r]
        if r == 0:
            return [range(1 << ncols)] * nrows
        if fwd[r] is None:
            step = (None if phi[r - 1] == phi[r]
                    else regions2.comp(phi[r - 1], phi[r], parity).rows)
            fwd[r] = (step, Echelon(regions1.comp(r - 1, r, parity).rows))
        step, echelon = fwd[r]
        target = prev if step is None else rows_matmul(step, prev)
        rows_options = []
        for i in range(nrows):
            part = echelon.express(target[i])
            if part is None:
                return None
            opts = [part]
            for null_mask in echelon.nullspace:
                opts = opts + [o ^ null_mask for o in opts]
            rows_options.append(opts)
        return rows_options

    # frames[r] walks the F candidates of region r from the pivot count
    # that the equations of fs[:r] left; fs holds the F map chosen in each
    # region below the top.  Rows come from range(1 << d1[r]) or from
    # express and the nullspace masks of an Echelon of d1[r] rows, so all
    # are in range
    frames = [(product(*f_candidates(0, ())), len(equations.pivots))]
    fs: List[Tuple[int, ...]] = []
    budget = _SEARCH_BUDGET
    while frames:
        r = len(frames) - 1
        candidates, mark = frames[-1]
        fmat = next(candidates, None)
        if fmat is None:
            frames.pop()
            if fs:
                fs.pop()
            continue
        budget -= 1
        if budget <= 0:
            raise TooLargeError(f"interleaving search budget exhausted at delta {delta}: "
                                f"{_SEARCH_BUDGET} F candidates tried between modules "
                                f"of {R1} and {R2} regions")
        equations.undo(mark)
        if not consistent(r, fmat):
            continue
        if r + 1 == R1:
            fs.append(fmat)
            return ([Gf2Matrix._unchecked(rows, d1[i]) for i, rows in enumerate(fs)],
                    g.decode(solve(equations)))
        rows_options = f_candidates(r + 1, fmat)
        if rows_options is None:
            continue
        fs.append(fmat)
        frames.append((product(*rows_options), len(equations.pivots)))
    return None


def find_interleaving(m1: SampledModule, m2: SampledModule, delta: Scalar
                      ) -> Optional[InterleavingCertificate]:
    """A delta-interleaving certificate, or None when none exists.

    The modules are checked first, at every delta: a module past the
    enumeration bound, invalid or without samples is refused even where a
    negative delta admits no interleaving.
    """
    _check_enumeration_bound(m1, m2)
    regions1, regions2 = _Regions(m1), _Regions(m2)
    if delta < ZERO:
        return None
    return _certificate(regions1, regions2, delta)


def _certificate(regions1: _Regions, regions2: _Regions, delta: Scalar
                 ) -> Optional[InterleavingCertificate]:
    """find_interleaving on modules already validated and bounded."""
    tables = _shift_tables(regions1, regions2, delta)
    per_parity = []
    for parity in (0, 1):
        found = _search_chain(regions1, regions2, parity, tables, delta)
        if found is None:
            return None
        per_parity.append(found)
    (f0, g0), (f1, g1) = per_parity
    return InterleavingCertificate(delta, tuple(zip(f0, f1)), tuple(zip(g0, g1)))


def _check_enumeration_bound(m1: SampledModule, m2: SampledModule) -> None:
    if any(d0 + d1 > 4 for m in (m1, m2) for d0, d1 in m.dims):
        raise TooLargeError("per-sample total dimension exceeds the enumeration bound (4)")


def interleaving_distance_bruteforce(m1: SampledModule, m2: SampledModule
                                     ) -> Scalar:
    """Smallest delta >= 0 admitting an interleaving; +inf if none.

    The search at delta reads the regions only through the shift tables,
    and these change only where delta reaches the gap from a cut of one
    module to a later cut of the other, or 2 delta the gap between two
    cuts of one module.  `Coords.least` selects delta among those gaps,
    their halves and 0, which it never lists.  Modules must share a
    horizon; the search enumerates interleaving maps directly.
    """
    if (m1.spectrum.lo, m1.spectrum.hi) != (m2.spectrum.lo, m2.spectrum.hi):
        raise HorizonMismatchError("modules must share one horizon")
    _check_enumeration_bound(m1, m2)
    regions1, regions2 = _Regions(m1), _Regions(m2)
    coords = Coords(regions1.cuts + regions2.cuts)
    cuts1 = [coords.of(c) for c in regions1.cuts]
    cuts2 = [coords.of(c) for c in regions2.cuts]
    rows = [(cuts1, cuts2, 1), (cuts2, cuts1, 1), (cuts1, cuts1, 2), (cuts2, cuts2, 2),
            ((0,), (0,), 1)]
    found = coords.least(rows, lambda n: _certificate(regions1, regions2, coords.scalar(n)))
    return POS_INF if found is None else found[0]


class _Direction(NamedTuple):
    """maps[r] takes region r of src to region there[r] of dst, the module
    numbered `through`; twice shifts src into itself by 2 delta."""
    name: str
    through: int
    maps: Tuple[Tuple[Gf2Matrix, Gf2Matrix], ...]
    src: _Regions
    dst: _Regions
    there: List[int]
    twice: List[int]


def verify_interleaving(cert: InterleavingCertificate, m1: SampledModule,
                        m2: SampledModule) -> List[str]:
    """Check every square and 2-delta composite; empty list means valid.
    A negative delta is one issue, found before any table is built.

    Each check runs forward (F by phi, phi2), then backward (G by psi,
    psi2).  Every composite comes from `persistence.composite_map`, not
    from the tables of `_Regions.comp` that the search reads, so that the
    check stays independent of the search.
    """
    regions1, regions2 = _Regions(m1), _Regions(m2)
    if len(cert.forward_maps) != regions1.n or len(cert.backward_maps) != regions2.n:
        raise ShapeMismatchError("certificate map count does not match the regions")
    if cert.delta < ZERO:
        return [f"delta {cert.delta} is negative"]
    phi, psi, phi2, psi2 = _shift_tables(regions1, regions2, cert.delta)
    sides = (_Direction("forward", 2, cert.forward_maps, regions1, regions2, phi, phi2),
             _Direction("backward", 1, cert.backward_maps, regions2, regions1, psi, psi2))

    for parity in (0, 1):
        for s in sides:
            for r, pair in enumerate(s.maps):
                want = (s.dst.dims[s.there[r]][parity], s.src.dims[r][parity])
                if pair[parity].shape != want:
                    raise ShapeMismatchError(
                        f"{s.name} map at region {r} parity {parity} has shape "
                        f"{pair[parity].shape}, expected {want}")

    def comp(regions: _Regions, a: int, b: int, parity: int) -> Gf2Matrix:
        return composite_map(regions.module, regions.reps[a], regions.reps[b], parity)

    issues: List[str] = []
    for parity in (0, 1):
        for s in sides:
            for r in range(s.src.n - 1):
                if s.maps[r + 1][parity] @ comp(s.src, r, r + 1, parity) != \
                        comp(s.dst, s.there[r], s.there[r + 1], parity) @ s.maps[r][parity]:
                    issues.append(f"{s.name} square at regions {r}->{r + 1} parity {parity}")
        # s's map at r, then the other direction's map back
        for s, back in zip(sides, sides[::-1]):
            for r, u in enumerate(s.twice):
                v = s.there[r]
                lhs = comp(s.src, back.there[v], u, parity) @ back.maps[v][parity] \
                    @ s.maps[r][parity]
                if lhs != comp(s.src, r, u, parity):
                    issues.append(f"2-delta composite through module {s.through} "
                                  f"at region {r} parity {parity}")
    return issues
