"""Output checks that recompute each answer apart from the program.

Every check reads the program's JSON or text output with this file's own
parser and returns a list of problems (empty when the output is right).
None of them compares against a stored copy of earlier output: expected
values come from closed forms, from an independent matching search, or
from properties the mathematics guarantees.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from gen import INF, NEG_INF, Bar, alive_at, ellipsoid_bars, ellipsoid_points, matmul

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")


def parse_scalar(text: str):
    if text == "inf":
        return INF
    if text == "-inf":
        return NEG_INF
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not an exact scalar: {text!r}")
    return Fraction(text)


def read_barcode(text: str):
    """(points, lo, hi, bars) of a barcode document, bars in file order."""
    doc = json.loads(text)
    sp = doc["spectrum"]
    bars = [(parse_scalar(b["birth"]), parse_scalar(b["death"]), b["parity"],
             bool(b.get("truncated", False))) for b in doc["bars"]]
    lo, hi = (parse_scalar(x) for x in sp["horizon"])
    return [parse_scalar(p) for p in sp["points"]], lo, hi, bars


def read_module(text: str):
    """(points, samples, dims, maps) with maps as int rows, bit j = column j."""
    def rows(mat):
        return [sum(v << j for j, v in enumerate(row)) for row in mat]

    doc = json.loads(text)
    return ([parse_scalar(p) for p in doc["spectrum"]["points"]],
            [parse_scalar(s) for s in doc["samples"]],
            [tuple(d) for d in doc["dims"]],
            [(rows(m0), rows(m1)) for m0, m1 in doc["maps"]])


def _key(bars: Sequence[Bar]) -> Counter:
    return Counter((b, d, p) for b, d, p, _ in bars)


def same_bars(got: Sequence[Bar], want: Sequence[Bar], what: str) -> List[str]:
    """Multiset equality of (birth, death, parity); `truncated` is metadata."""
    g, w = _key(got), _key(want)
    if g == w:
        return []
    return [f"{what}: missing {sorted((w - g).elements(), key=str)[:3]}, "
            f"extra {sorted((g - w).elements(), key=str)[:3]}"]


# ---------------------------------------------------------------------------
# cli-ellipsoid
# ---------------------------------------------------------------------------


def check_ellipsoid(text: str, axes: Sequence[Fraction], T: Fraction) -> List[str]:
    """The barcode equals the closed form, truncation flag included."""
    points, lo, hi, bars = read_barcode(text)
    problems = []
    if points != ellipsoid_points(axes, T):
        problems.append("ellipsoid spectrum differs from the multiples k*a <= T")
    if (lo, hi) != (0, T):
        problems.append(f"ellipsoid horizon is [{lo}, {hi}], expected [0, {T}]")
    if Counter(bars) != Counter(ellipsoid_bars(axes, T)):
        problems.append("ellipsoid bars differ from the closed form")
    return problems


def spectral_class0(bars: Sequence[Bar]):
    """Birth of the earliest undying bar; truncated bars count as undying."""
    return min((b for b, d, _, t in bars if d == INF or t), default=INF)


def depth(bars: Sequence[Bar]):
    """Longest finite bar that is not truncated, 0 when there is none."""
    return max([d - b for b, d, _, t in bars
                if not t and b != NEG_INF and d != INF], default=Fraction(0))


def cover_bound(bars: Sequence[Bar], delta: Fraction) -> int:
    """Open delta/2 balls needed for the finite endpoints of bars of length
    >= delta: a ball covers a run of sorted points whose span is < delta."""
    ends = set()
    for b, d, _, _ in bars:
        length = d - b if INF not in (abs(b), abs(d)) else INF
        if length >= delta:
            ends.update(x for x in (b, d) if abs(x) != INF)
    count, start = 0, None
    for x in sorted(ends):
        if start is None or x - start >= delta:
            count, start = count + 1, x
    return count


def check_scalar_line(stdout: str, want, what: str) -> List[str]:
    got = stdout.strip()
    try:
        ok = parse_scalar(got) == want
    except ValueError:
        ok = False
    return [] if ok else [f"{what}: {got!r}, expected {want}"]


# ---------------------------------------------------------------------------
# Bottleneck matchings
# ---------------------------------------------------------------------------


def gap(x, y):
    if x == y:
        return Fraction(0)
    if INF in (abs(x), abs(y)):
        return INF
    return abs(x - y)


def half_length(bar: Bar):
    b, d = bar[0], bar[1]
    return INF if INF in (abs(b), abs(d)) else (d - b) / 2


def pair_cost(left: Sequence[Bar], right: Sequence[Bar], i: Optional[int],
              j: Optional[int]):
    if i is None:
        return half_length(right[j])
    if j is None:
        return half_length(left[i])
    a, b = left[i], right[j]
    return max(gap(a[0], b[0]), gap(a[1], b[1]))


def candidates(left: Sequence[Bar], right: Sequence[Bar]) -> List[Fraction]:
    """Every value the bottleneck distance can take: 0, half-lengths, and
    birth-birth and death-death gaps, finite ones only."""
    vals = {Fraction(0)}
    vals.update(half_length(x) for x in list(left) + list(right))
    for a in left:
        for b in right:
            vals.add(gap(a[0], b[0]))
            vals.add(gap(a[1], b[1]))
    vals.discard(INF)
    return sorted(vals)


def _saturates(adj: Dict[int, List[int]], rows: Sequence[int]) -> bool:
    """Whether a matching covers every row; breadth-first augmenting paths."""
    owner: Dict[int, int] = {}
    mate: Dict[int, int] = {}
    for root in rows:
        parent: Dict[int, int] = {}
        queue, end = [root], None
        for u in queue:
            for v in adj[u]:
                if v in parent:
                    continue
                parent[v] = u
                if v not in owner:
                    end = v
                    break
                queue.append(owner[v])
            if end is not None:
                break
        if end is None:
            return False
        while end is not None:
            u = parent[end]
            nxt = mate.get(u)
            owner[end], mate[u] = u, end
            end = nxt
    return True


def feasible(left: Sequence[Bar], right: Sequence[Bar], c, graded: bool) -> bool:
    """Whether some matching with ghosts costs at most c.

    A bar left unmatched goes to its ghost, which needs half-length <= c,
    so the question is whether the real-bar graph has a matching covering
    every long bar on both sides.  By the Mendelsohn-Dulmage theorem that
    holds exactly when one matching covers the long left bars and another
    covers the long right bars.
    """
    fwd: Dict[int, List[int]] = {i: [] for i in range(len(left))}
    bwd: Dict[int, List[int]] = {j: [] for j in range(len(right))}
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if (not graded or a[2] == b[2]) and pair_cost(left, right, i, j) <= c:
                fwd[i].append(j)
                bwd[j].append(i)
    long_left = [i for i, a in enumerate(left) if half_length(a) > c]
    long_right = [j for j, b in enumerate(right) if half_length(b) > c]
    return _saturates(fwd, long_left) and _saturates(bwd, long_right)


def check_witness(left: Sequence[Bar], right: Sequence[Bar], delta, pairs,
                  graded: bool) -> List[str]:
    """The matching is a bijection with ghosts whose largest cost is delta."""
    if delta == INF:
        return [] if not pairs else ["infinite distance with a witness"]
    seen_l = Counter(i for i, _ in pairs if i is not None)
    seen_r = Counter(j for _, j in pairs if j is not None)
    problems = []
    if seen_l != Counter(range(len(left))) or seen_r != Counter(range(len(right))):
        problems.append("witness is not a bijection with ghosts")
    elif any(i is None and j is None for i, j in pairs):
        problems.append("witness pairs two ghosts")
    else:
        if graded and any(i is not None and j is not None and left[i][2] != right[j][2]
                          for i, j in pairs):
            problems.append("graded witness pairs bars of different parity")
        worst = max((pair_cost(left, right, i, j) for i, j in pairs), default=0)
        if worst != delta:
            problems.append(f"largest witness cost {worst} differs from delta {delta}")
    return problems


def check_optimal(left: Sequence[Bar], right: Sequence[Bar], delta,
                  graded: bool) -> List[str]:
    """No matching exists at the largest candidate value below delta."""
    below = [c for c in candidates(left, right) if c < delta]
    if below and feasible(left, right, below[-1], graded):
        return [f"a matching of cost {below[-1]} < delta {delta} exists"]
    return []


def check_distance(stdout: str, left: Sequence[Bar], right: Sequence[Bar],
                   graded: bool = False) -> List[str]:
    doc = json.loads(stdout)
    delta = parse_scalar(doc["delta"])
    pairs = [tuple(p) for p in doc["matching"]]
    return (check_witness(left, right, delta, pairs, graded)
            + check_optimal(left, right, delta, graded))


# ---------------------------------------------------------------------------
# module-reduce
# ---------------------------------------------------------------------------


def check_built_module(text: str, points, bars: Sequence[Bar]) -> List[str]:
    """Dims count the bars alive at each sample, and each map is a partial
    permutation with one 1 per bar alive across the step."""
    got_points, samples, dims, maps = read_module(text)
    problems = []
    if got_points != list(points):
        problems.append("built module has another spectrum")
    alive = [alive_at(bars, s) for s in samples]
    if dims != [(len(a0), len(a1)) for a0, a1 in alive]:
        problems.append("built module dims differ from the bar counts")
    for i, pair in enumerate(maps):
        for p in (0, 1):
            rows = pair[p]
            across = len(set(alive[i][p]) & set(alive[i + 1][p]))
            cols = 0
            for r in rows:
                if r & (r - 1) or r & cols:
                    problems.append(f"map {i} parity {p} is not a partial permutation")
                    break
                cols |= r
            if bin(cols).count("1") != across:
                problems.append(f"map {i} parity {p} carries {bin(cols).count('1')} "
                                f"bars, {across} cross the step")
    return problems


# ---------------------------------------------------------------------------
# isometry
# ---------------------------------------------------------------------------


def graded_distance(left: Sequence[Bar], right: Sequence[Bar]):
    """The graded bottleneck distance by this file's own matching search:
    the smallest candidate at which a matching exists, inf if none does."""
    return next((c for c in candidates(left, right) if feasible(left, right, c, True)),
                INF)


def check_graded_bound(ungraded, graded) -> List[str]:
    """Forgetting parities can only shorten the distance."""
    return [f"ungraded {ungraded} exceeds graded {graded}"] if graded < ungraded else []


def check_isomorphism(cert, left: Sequence[Bar], right: Sequence[Bar],
                      module1, module2) -> List[str]:
    """A 0-interleaving exists exactly when the barcodes are equal (the
    structure theorem), and a certificate is checked map by map: at every
    sample and parity G F and F G are identities, and F commutes with the
    structure maps (then so does G = F^-1).

    `cert` is None or (forward, backward), each a list per sample of
    (rows, ncols) per parity; `module1`/`module2` are the (dims, maps) the
    benchmark built the modules from.
    """
    iso = _key(left) == _key(right)
    if cert is None:
        return ["no 0-interleaving between modules with equal barcodes"] if iso else []
    if not iso:
        return ["a 0-interleaving between modules with different barcodes"]
    (dims1, maps1), (dims2, maps2) = module1, module2
    fwd, bwd = cert
    if len(fwd) != len(dims1) or len(bwd) != len(dims2):
        return ["certificate has another number of maps than samples"]
    for p in (0, 1):
        for r, (f, g) in enumerate(zip(fwd, bwd)):
            (frows, fcols), (grows, gcols) = f[p], g[p]
            if ((len(frows), fcols) != (dims2[r][p], dims1[r][p])
                    or (len(grows), gcols) != (dims1[r][p], dims2[r][p])):
                return [f"certificate shapes differ from the dims at sample {r} parity {p}"]
            if (matmul(grows, frows) != [1 << i for i in range(fcols)]
                    or matmul(frows, grows) != [1 << i for i in range(gcols)]):
                return [f"certificate is not invertible at sample {r} parity {p}"]
        for r, (a1, a2) in enumerate(zip(maps1, maps2)):
            if matmul(fwd[r + 1][p][0], a1[p][0]) != matmul(a2[p][0], fwd[r][p][0]):
                return [f"certificate square fails at samples {r}->{r + 1} parity {p}"]
    return []
