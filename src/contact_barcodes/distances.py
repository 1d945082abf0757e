"""Bottleneck distance of barcodes, with witness matchings.

Every bar, infinite bars included, is a vertex of one bipartite graph
padded with ghosts for the diagonal; the candidate values are the finite
pair costs and half-lengths, sorted, and feasibility at a threshold is a
perfect matching, found by Hopcroft-Karp.  The infimum is attained at a
candidate.  Every probe of the binary search over the candidates is
warm-started from the last probe's matching, without the edges its
threshold no longer admits: a matching at one threshold stays valid at
every larger one, so after the first probe few augmenting paths remain to
be found.  The interleaving search over sampled modules, in
`interleaving`, is the independent route this distance is played against.

The computation runs on the exact int coordinates of `scalar.Coords`:
each call scales its finitely many rationals by twice the lcm of their
denominators, so endpoints, gaps and half-lengths are Python ints, and
infinities are tags, never floats.  `Coords.least` runs the binary search,
and values become Scalars again only at the output.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from operator import or_
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .barcode import Bar, Barcode
from .scalar import Coords, Frozen, POS_INF, Scalar


class Matching(Frozen):
    """A bijective matching after ersatz padding.

    Each pair is (left bar index, right bar index); None stands for the
    ersatz zero-length partner at the other bar's midpoint.  Every real bar
    index appears exactly once per side.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Tuple[Tuple[Optional[int], Optional[int]], ...]):
        object.__setattr__(self, "pairs", pairs)


def _set_bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x >= 0, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _hopcroft_karp(adj: Sequence[int], match_l: List[int], match_r: List[int]) -> int:
    """Grow a valid partial matching, in place, to a maximum one; its size.

    adj[u] is the bitmask of the right neighbours of left vertex u (bit v
    for the edge u-v); match_l[u] and match_r[v] are the mates of u and v,
    -1 when free, and must be a matching of adj.  Each phase lays out the
    left vertices in layers by breadth-first search from the free ones
    along alternating paths, up to the first layer with a free right
    neighbour; reached[d] holds the right vertices first reached from
    layer d, so their mates form layer d + 1 (in the last layer only the
    free ones are kept).  Then a depth-first search on an explicit stack,
    so that long paths cannot overflow the interpreter's stack, augments
    along disjoint shortest paths, stepping from layer d only through
    reached[d].  A right vertex leaves reached[d] once tried: either its
    path augmented or its mate led nowhere.  Masks make a layer one OR per
    vertex, however dense its edges.
    """
    size = sum(1 for v in match_l if v != -1)
    while True:
        roots = [u for u, v in enumerate(match_l) if v == -1]
        free = sum(1 << v for v, u in enumerate(match_r) if u == -1)
        unseen = (1 << len(match_r)) - 1
        reached: List[int] = []
        layer = roots
        while layer:
            reach = 0
            for u in layer:
                reach |= adj[u]
            reach &= unseen
            if reach & free:
                reached.append(reach & free)
                break
            unseen ^= reach
            reached.append(reach)
            layer = [match_r[v] for v in _set_bits(reach)]
        else:
            return size
        last = len(reached) - 1
        for root in roots:
            if not reached[last]:
                break
            # path[d] is the left vertex at layer d and via[d] the right
            # vertex leaving it; path[d + 1] is via[d]'s mate
            path: List[int] = [root]
            via: List[int] = []
            while path:
                depth = len(path) - 1
                step = adj[path[-1]] & reached[depth]
                if not step:
                    path.pop()
                    if via:
                        via.pop()
                    continue
                low = step & -step
                reached[depth] ^= low
                v = low.bit_length() - 1
                via.append(v)
                if depth == last:
                    for uu, vv in zip(path, via):
                        match_l[uu] = vv
                        match_r[vv] = uu
                    size += 1
                    break
                path.append(match_r[v])


def _int_bars(bars: Sequence[Bar], coords: Coords, graded: bool
              ) -> List[Tuple[int, int, int]]:
    """(kind, birth, death) int triples of the bars.

    The kind tags which ends are infinite (its two low bits) and the
    parity when graded; an infinite end gets coordinate 0, so two bars of
    one kind are as far apart as their finite ends, and bars of different
    kinds are infinitely far apart.
    """
    ends = []
    for bar in bars:
        birth_inf, death_inf = not bar.birth.is_finite, not bar.death.is_finite
        x = 0 if birth_inf else coords.of(bar.birth)
        y = 0 if death_inf else coords.of(bar.death)
        kind = (bar.parity if graded else 0) << 2 | birth_inf << 1 | death_inf
        ends.append((kind, x, y))
    return ends


def bottleneck_distance(b1: Barcode, b2: Barcode, graded: bool = False
                        ) -> Tuple[Scalar, Optional[Matching]]:
    """Infimal delta admitting a matching of cost <= delta, with a witness.

    Returns +inf (and no witness) when the barcodes differ in how many
    infinite bars of each kind they hold; otherwise the distance is finite.
    With graded=True bars may only match within their parity, and the
    kinds are counted per parity.

    Left vertices are the bars of b1, then one ghost per bar of b2; right
    vertices the bars of b2, then one ghost per bar of b1.  A bar meets the
    ghost standing for it at its half-length (+inf for an infinite bar) and
    ghosts meet each other at 0.  Costs are int maxima of endpoint
    differences in the `Coords` of all endpoints; +inf is the int `never`,
    1 + 2 max|coordinate|, above every endpoint gap and half-length.  The
    binary search runs over the sorted finite costs (pair costs,
    half-lengths and 0), and a probe at threshold t admits the edges
    of cost <= t: each left vertex's neighbours are one int bitmask over
    the right vertices, the ghosts of b1 one constant mask.

    No cost table exists; a probe reads prefix-OR windows.  Each end is
    keyed kind * 4 never + coordinate, so ends of bars of different kinds
    lie farther apart than any threshold.  The right bars are sorted once
    by birth key and once by death key, with the prefix ORs of their bits
    in each order; the right bars whose birth key lies within t of a left
    bar's are one window of the birth order, the XOR of two prefix ORs
    found by two bisects, and the AND with the death window holds exactly
    the bars of the left bar's kind at cost <= t.  Each probe hands the
    last probe's matching, less the pairs its masks do not hold, to
    `_hopcroft_karp` to grow.  Only the result is a Scalar.
    """
    left, right = b1.bars, b2.bars
    n1, n2 = len(left), len(right)
    coords = Coords(end for bar in left + right for end in (bar.birth, bar.death))
    ends1 = _int_bars(left, coords, graded)
    ends2 = _int_bars(right, coords, graded)
    if (Counter(kind for kind, _, _ in ends1 if kind & 3)
            != Counter(kind for kind, _, _ in ends2 if kind & 3)):
        return POS_INF, None
    never = 1 + 2 * max((max(abs(x), abs(y)) for _, x, y in ends1 + ends2), default=0)
    by_kind: Dict[int, List[Tuple[int, int]]] = {}
    for kind, u, v in ends2:
        by_kind.setdefault(kind, []).append((u, v))
    # the pair costs of bars of one kind, listed without a table
    costs = {0}
    for kind, x, y in ends1:
        costs.update([p if (p := abs(x - u)) > (q := abs(y - v)) else q
                      for u, v in by_kind.get(kind, ())])
    halves1 = [never if kind & 3 else (y - x) // 2 for kind, x, y in ends1]
    halves2 = [never if kind & 3 else (y - x) // 2 for kind, x, y in ends2]
    values = sorted((costs | set(halves1) | set(halves2)) - {never})
    span = 4 * never

    def windows(end: int) -> Tuple[List[int], List[int]]:
        """The right bars' keys of one end, ascending, and the prefix ORs
        of their bits in that order."""
        keyed = sorted((bar[0] * span + bar[end], 1 << j) for j, bar in enumerate(ends2))
        return [key for key, _ in keyed], [0, *accumulate((bit for _, bit in keyed), or_)]

    (bkeys, bpref), (dkeys, dpref) = windows(1), windows(2)
    keys1 = [(kind * span + x, kind * span + y) for kind, x, y in ends1]
    size = n1 + n2
    ghosts1 = ((1 << n1) - 1) << n2
    match_l, match_r = [-1] * size, [-1] * size

    def probe(t: int) -> Optional[List[int]]:
        adj = [(bpref[bisect_right(bkeys, bk + t)] ^ bpref[bisect_left(bkeys, bk - t)])
               & (dpref[bisect_right(dkeys, dk + t)] ^ dpref[bisect_left(dkeys, dk - t)])
               | (1 << (n2 + i) if halves1[i] <= t else 0)
               for i, (bk, dk) in enumerate(keys1)]
        adj += [(1 << g if halves2[g] <= t else 0) | ghosts1 for g in range(n2)]
        # drop the pairs of the last probe's matching that t does not admit
        for u, v in enumerate(match_l):
            if v != -1 and not adj[u] >> v & 1:
                match_l[u] = match_r[v] = -1
        matched = _hopcroft_karp(adj, match_l, match_r)
        return list(match_l) if matched == size else None

    # the largest value admits every edge of finite cost, and equal kind
    # counts give a perfect matching of finite cost, so some probe succeeds
    delta, perfect = coords.least([((0,), values, 1)], probe)
    pairs = [(i, v if v < n2 else None) for i, v in enumerate(perfect[:n1])]
    pairs += [(None, v) for v in perfect[n1:] if v < n2]
    return delta, Matching(tuple(pairs))
