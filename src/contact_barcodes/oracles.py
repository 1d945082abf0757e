"""Independent brute-force oracles.

Each function here recomputes a quantity by a route deliberately different
from the production implementation: interval decomposition by enumerating
GF(2) basis changes and by inclusion-exclusion of composite ranks,
bottleneck distance by exhausting all matchings, covering numbers by
minimizing over group partitions and center subsets.
They exist to be slow and obviously correct.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator, List, Optional, Sequence, Tuple

from .barcode import Bar, Barcode, Parity
from .errors import NonUniqueSnapError, TooLargeError
from .gf2 import Gf2Matrix
from .persistence import SampledModule, _valid_placement
from .scalar import NEG_INF, POS_INF, Scalar, ZERO, midpoint


def all_matrices(nrows: int, ncols: int) -> Iterator[Gf2Matrix]:
    if nrows == 0 or ncols == 0:
        yield Gf2Matrix((0,) * nrows, ncols)
        return
    total = 1 << (nrows * ncols)
    mask = (1 << ncols) - 1
    for code in range(total):
        rows = tuple((code >> (i * ncols)) & mask for i in range(nrows))
        yield Gf2Matrix(rows, ncols)


def invertible_matrices(n: int) -> List[Gf2Matrix]:
    """All elements of GL_n(F2); cached for small n."""
    cached = _GL_CACHE.get(n)
    if cached is None:
        cached = [m for m in all_matrices(n, n) if m.is_invertible()]
        _GL_CACHE[n] = cached
    return cached


_GL_CACHE: dict = {}


def brute_force_decompose(m: SampledModule) -> Barcode:
    """Interval decomposition by enumerating all changes of basis.

    Searches, per parity, for basis changes making every structure matrix a
    partial permutation, then reads the intervals off the surviving threads.
    The structure theorem guarantees some tuple works.
    """
    gaps = _valid_placement(m)[0]
    bars: List[Bar] = []
    for parity in (0, 1):
        dims = [d[parity] for d in m.dims]
        mats = [pair[parity] for pair in m.maps]
        total = 1
        for d in dims:
            total *= len(invertible_matrices(d))
            if total > 2_000_000:
                raise TooLargeError("basis enumeration bound exceeded")
        found = None
        for combo in product(*[invertible_matrices(d) for d in dims]):
            ok = True
            transformed = []
            for i, mat in enumerate(mats):
                t = combo[i + 1] @ mat @ combo[i].inverse()
                if not t.is_partial_permutation():
                    ok = False
                    break
                transformed.append(t)
            if ok:
                found = transformed
                break
        if found is None:
            raise AssertionError("no interval form found; structure theorem violated")
        bars.extend(_threads_to_bars(gaps, dims, found, parity))
    return Barcode(m.spectrum, tuple(bars))


def rank_formula_decompose(m: SampledModule) -> Barcode:
    """Interval decomposition from the rank invariant alone.

    The multiplicity of the summand alive exactly on samples i..j is the
    inclusion-exclusion of composite ranks
        r(i, j) - r(i-1, j) - r(i, j+1) + r(i-1, j+1)
    with out-of-range ranks read as 0.  It fills a k x k table of ranks of
    composite maps per parity, so it is quadratic in the number of samples,
    but it needs no basis enumeration and so scales to wide modules.
    """
    gaps = _valid_placement(m)[0]
    k = m.n_samples
    bars: List[Bar] = []
    for parity in (0, 1):
        # rank table; rank(i, i) is the dimension at sample i
        rank: List[List[int]] = [[0] * k for _ in range(k)]
        for i in range(k):
            acc = Gf2Matrix.identity(m.dims[i][parity])
            rank[i][i] = m.dims[i][parity]
            for j in range(i + 1, k):
                acc = m.maps[j - 1][parity] @ acc
                rank[i][j] = acc.rank()

        def r(i: int, j: int) -> int:
            if i < 0 or j >= k or i > j:
                return 0
            return rank[i][j]

        for i in range(k):
            for j in range(i, k):
                mult = r(i, j) - r(i - 1, j) - r(i, j + 1) + r(i - 1, j + 1)
                if mult < 0:
                    raise AssertionError(f"negative multiplicity at span ({i}, {j})")
                if mult:
                    bars.extend([_make_bar(gaps, i, j, parity)] * mult)
    return Barcode(m.spectrum, tuple(bars))


def _only_point(between: Sequence[Scalar], gap_index: int) -> Scalar:
    """The one spectrum point `between` holds, for the gap gap_index."""
    if len(between) != 1:
        raise NonUniqueSnapError(
            f"gap between samples {gap_index} and {gap_index + 1} holds "
            f"{len(between)} spectrum points; endpoint snapping is ambiguous")
    return between[0]


def _make_bar(gaps: Sequence[Sequence[Scalar]], i: int, j: int, parity: Parity) -> Bar:
    """The bar alive on samples i..j: each end snaps to the one spectrum
    point of the gap beyond its end sample, or to -inf/+inf at the ends of
    the grid."""
    birth = NEG_INF if i == 0 else _only_point(gaps[i - 1], i - 1)
    death = POS_INF if j == len(gaps) else _only_point(gaps[j], j)
    return Bar(birth, death, parity)


def _threads_to_bars(gaps: Sequence[Sequence[Scalar]], dims: Sequence[int],
                     mats: Sequence[Gf2Matrix], parity: int) -> List[Bar]:
    k = len(dims)
    bars: List[Bar] = []
    # active[r] = sample index at which the thread currently in row r began
    active: dict = {r: 0 for r in range(dims[0])} if k else {}
    for i in range(k - 1):
        nxt: dict = {}
        for r, start in active.items():
            target = None
            for rr in range(dims[i + 1]):
                if mats[i].entry(rr, r):
                    target = rr
                    break
            if target is None:
                bars.append(_make_bar(gaps, start, i, parity))
            else:
                nxt[target] = start
        for rr in range(dims[i + 1]):
            if rr not in nxt:
                nxt[rr] = i + 1
        active = nxt
    for start in active.values():
        bars.append(_make_bar(gaps, start, k - 1, parity))
    return bars


def endpoint_gap(x: Scalar, y: Scalar) -> Scalar:
    """|x - y| on the extended line: same-type infinities are 0 apart,
    an infinity and anything else are infinitely far apart."""
    if x == y:
        return ZERO
    if not (x.is_finite and y.is_finite):
        return POS_INF
    return abs(x - y)


def bar_cost(a: Bar, b: Bar) -> Scalar:
    return max(endpoint_gap(a.birth, b.birth), endpoint_gap(a.death, b.death))


def _pair_cost(a: Optional[Bar], b: Optional[Bar]) -> Scalar:
    if a is None and b is None:
        return ZERO
    if a is None:
        return b.half_length()
    if b is None:
        return a.half_length()
    return bar_cost(a, b)


def exhaustive_bottleneck(b1: Barcode, b2: Barcode, graded: bool = False) -> Scalar:
    """Bottleneck distance by minimizing over every padded bijection."""
    if graded:
        best = ZERO
        for parity in (0, 1):
            sub = exhaustive_bottleneck(
                _filter_parity(b1, parity), _filter_parity(b2, parity))
            best = max(best, sub)
        return best
    left: List[Optional[Bar]] = list(b1.bars) + [None] * len(b2.bars)
    right: List[Optional[Bar]] = list(b2.bars) + [None] * len(b1.bars)
    n = len(left)
    count = 1
    for i in range(2, n + 1):
        count *= i
        if count > 500_000:
            raise TooLargeError("matching enumeration bound exceeded")
    best: Optional[Scalar] = None
    for perm in permutations(range(n)):
        cost = ZERO
        for i, j in enumerate(perm):
            c = _pair_cost(left[i], right[j])
            if cost < c:
                cost = c
            if best is not None and not (cost < best):
                break
        if best is None or cost < best:
            best = cost
    return best if best is not None else ZERO


def _filter_parity(b: Barcode, parity: int) -> Barcode:
    return Barcode(b.spectrum, tuple(bar for bar in b.bars if bar.parity == parity))


def covering_min_partition(points: Sequence[Scalar], delta: Scalar) -> int:
    """Minimal number of open delta/2-balls covering the points.

    Dynamic program over sorted points: a ball can cover a consecutive group
    exactly when the group's span is strictly less than delta.
    """
    pts = sorted(set(points))
    n = len(pts)
    INF = n + 1
    best = [INF] * (n + 1)
    best[0] = 0
    for i in range(1, n + 1):
        for j in range(i):
            if pts[i - 1] - pts[j] < delta:
                best[i] = min(best[i], best[j] + 1)
    return best[n]


def covering_min_subsets(points: Sequence[Scalar], delta: Scalar) -> int:
    """Minimal covering by exhausting center subsets drawn from midpoints."""
    pts = sorted(set(points))
    if not pts:
        return 0
    candidates = sorted({midpoint(a, b) for a in pts for b in pts})
    radius = delta / 2

    def covered_by(centers: Tuple[Scalar, ...]) -> bool:
        return all(any(abs(p - c) < radius for c in centers) for p in pts)

    checked = 0
    for k in range(1, len(pts) + 1):
        for centers in combinations(candidates, k):
            checked += 1
            if checked > 500_000:
                raise TooLargeError("center subset enumeration bound exceeded")
            if covered_by(centers):
                return k
    return len(pts)

