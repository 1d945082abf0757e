"""The acceptance battery.

Each criterion is a deterministic, seeded check returning a pass/fail
result with a one-line detail.  The CLI `suite` subcommand and the
acceptance tests both run exactly these functions.
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Tuple

from .barcode import Barcode
from .distances import bottleneck_distance
from .ellipsoid import EllipsoidParams, cz_index, ellipsoid_barcode, gaps_longer_than
from .errors import InPiSpanError
from .interleaving import interleaving_distance_bruteforce
from .invariants import (
    covering_number,
    spectral_invariant,
    translate_barcode,
    translated_point_lower_bound,
)
from .oracles import (
    brute_force_decompose,
    covering_min_partition,
    covering_min_subsets,
)
from .persistence import decompose, module_from_barcode
from .random_instances import (
    perturb_barcode,
    random_barcode,
    random_module,
    random_rational,
    random_spectrum,
)
from .scalar import Frozen, Scalar, ZERO, rational


class CriterionResult(Frozen):
    __slots__ = ("number", "name", "passed", "detail", "seconds")

    def __init__(self, number: int, name: str, passed: bool, detail: str,
                 seconds: float):
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "seconds", seconds)


def _scale(n: int, quick: bool) -> int:
    return max(1, n // 10) if quick else n


def criterion_1_ellipsoid_barcode(seed: int, quick: bool) -> Tuple[bool, str]:
    p = EllipsoidParams.of([1, 1], 5)
    bc = ellipsoid_barcode(p)
    want = [(rational(k), rational(k + 1), 0, k == 4) for k in range(5)]
    got = [(b.birth, b.death, b.parity, b.truncated) for b in bc.bars]
    if got != want:
        return False, f"bars mismatch: {got}"
    cz = [cz_index(rational(2 * k + 1, 2), p).index for k in range(5)]
    if cz != [2, 6, 10, 14, 18]:
        return False, f"CZ values {cz}"
    return True, "bars (k,k+1) k=0..4 (last truncated), CZ 2,6,10,14,18"


def criterion_2_round_trip(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed)
    n = _scale(500, quick)
    for trial in range(n):
        b = random_barcode(rng, max_bars=8, max_points=6)
        back = decompose(module_from_barcode(b, grid_density_hint=rng.choice((1, 1, 2))))
        if not back.same_bars(b):
            return False, f"trial {trial}: round trip lost bars"
    return True, f"{n} random barcodes round-trip exactly"


def criterion_3_decompose_oracle(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 1)
    n = _scale(200, quick)
    done = 0
    while done < n:
        m = random_module(rng, max_points=3, max_dim=2,
                          density=rng.choice((1, 1, 2)))
        if sum(d0 + d1 for d0, d1 in m.dims) > 4:
            continue
        fast = decompose(m)
        slow = brute_force_decompose(m)
        if not fast.same_bars(slow):
            return False, f"module {done}: sweep disagrees with basis search"
        done += 1
    return True, f"{n} modules of total dimension <= 4 agree with basis enumeration"


def criterion_4_isometry(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 2)
    n = _scale(200, quick)
    for trial in range(n):
        sp = random_spectrum(rng, max_points=4)
        m1 = random_module(rng, max_dim=2, spectrum=sp)
        m2 = random_module(rng, max_dim=2, spectrum=sp)
        b1, b2 = decompose(m1), decompose(m2)
        graded, _ = bottleneck_distance(b1, b2, graded=True)
        ungraded, _ = bottleneck_distance(b1, b2)
        inter = interleaving_distance_bruteforce(m1, m2)
        if inter != graded:
            return False, (f"trial {trial}: interleaving {inter} != "
                           f"graded bottleneck {graded}")
        if graded < ungraded:
            return False, f"trial {trial}: ungraded exceeds graded"
    return True, (f"{n} module pairs: interleaving == graded bottleneck "
                  "(parity-preserving maps), ungraded <= graded")


def criterion_5_metric_axioms(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 3)
    n = _scale(300, quick)
    for trial in range(n):
        b1 = random_barcode(rng, max_bars=5, max_points=4)
        b2 = random_barcode(rng, max_bars=5, max_points=4)
        b3 = random_barcode(rng, max_bars=5, max_points=4)
        d12, _ = bottleneck_distance(b1, b2)
        d21, _ = bottleneck_distance(b2, b1)
        if d12 != d21:
            return False, f"trial {trial}: asymmetry {d12} != {d21}"
        dii, _ = bottleneck_distance(b1, b1)
        if dii != ZERO:
            return False, f"trial {trial}: d(b,b) = {dii}"
        d13, _ = bottleneck_distance(b1, b3)
        d23, _ = bottleneck_distance(b2, b3)
        if d12.is_finite and d23.is_finite:
            if d12 + d23 < d13:
                return False, (f"trial {trial}: triangle violated "
                               f"{d13} > {d12} + {d23}")
    return True, f"{n} triples: symmetry exact, triangle inequality exact"


def stability_violations(b: Barcode, perturbed: Barcode, radius: Scalar) -> List[str]:
    """How a perturbation breaks the stability of the spectral invariants.

    The bottleneck distance of b and perturbed must not pass the radius,
    and the births of half-infinite bars matched by its witness must not
    move further than the radius; an empty list when both hold.
    """
    dist, matching = bottleneck_distance(b, perturbed)
    if matching is None or radius < dist:
        return [f"bottleneck distance {dist} exceeds radius {radius}"]
    violations = []
    for left, right in matching.pairs:
        if left is None or right is None:
            continue
        bar_l, bar_r = b.bars[left], perturbed.bars[right]
        if not (bar_l.death.is_pos_inf and bar_r.death.is_pos_inf):
            continue
        if bar_l.birth.is_neg_inf or bar_r.birth.is_neg_inf:
            continue
        dev = abs(bar_l.birth - bar_r.birth)
        if radius < dev:
            violations.append(f"spectral deviation {dev} exceeds radius {radius}")
    return violations


def criterion_6_stability(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 4)
    n = _scale(100, quick)
    for trial in range(n):
        base = random_barcode(rng, max_bars=6, max_points=5,
                              force_half_infinite=True)
        radius = random_rational(rng, 0, 2) * rng.choice((1, 1, 2)) / 4
        radius = abs(radius)
        if radius == ZERO:
            radius = rational(1, 4)
        perturbed = perturb_barcode(
            base, radius, random.Random((seed * 1000 + trial) << 20))
        violations = stability_violations(base, perturbed, radius)
        if violations:
            return False, f"trial {trial}: {violations[0]}"
    return True, (f"{n} perturbations: bottleneck <= radius and "
                  "spectral deviation <= radius")


def criterion_7_monotonicity(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 5)
    n = _scale(100, quick)
    for trial in range(n):
        b = random_barcode(rng, max_bars=6, max_points=5,
                           force_half_infinite=True)
        t = abs(random_rational(rng, 1, 6))
        if t == ZERO:
            t = rational(1)
        shifted = translate_barcode(b, t)
        n_classes = sum(1 for bar in b.bars
                        if bar.death.is_pos_inf and bar.birth.is_finite)
        checked = 0
        for e in range(len(b.bars)):
            try:
                before = spectral_invariant(b, e)
            except InPiSpanError:
                continue
            if not before.is_finite:
                continue
            after = spectral_invariant(shifted, e)
            if after != before + t:
                return False, (f"trial {trial}: class {e} moved by "
                               f"{after} - {before} != {t}")
            checked += 1
        if checked != n_classes:
            return False, f"trial {trial}: checked {checked} of {n_classes} classes"
    return True, f"{n} translations: spectral invariants shift by exactly t"


def criterion_8_covering(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 6)
    n = _scale(100, quick)
    for trial in range(n):
        pts = sorted({random_rational(rng, 0, 12) for _ in range(rng.randint(0, 8))})
        delta = abs(random_rational(rng, 1, 4))
        if delta == ZERO:
            delta = rational(1)
        k, centers = covering_number(pts, delta)
        if k != covering_min_partition(pts, delta):
            return False, f"trial {trial}: greedy {k} != partition minimum"
        if len(pts) <= 5 and k != covering_min_subsets(pts, delta):
            return False, f"trial {trial}: greedy {k} != subset minimum"
        radius = delta / 2
        for p in pts:
            if not any(abs(p - c) < radius for c in centers):
                return False, f"trial {trial}: witness centers do not cover {p}"
    bc = ellipsoid_barcode(EllipsoidParams.of([1, 1], 5))
    k = translated_point_lower_bound(bc, rational(1))
    if k != 6:
        return False, f"ellipsoid bound {k} != 6"
    return True, f"{n} random sets: greedy == brute force; ellipsoid K = 6"


def criterion_9_gaps(seed: int, quick: bool) -> Tuple[bool, str]:
    q = "1393/985"
    ell = rational(9, 10)
    g100 = gaps_longer_than(EllipsoidParams.of(["1", q], 100), ell)
    g200 = gaps_longer_than(EllipsoidParams.of(["1", q], 200), ell)
    if len(g100) < 5:
        return False, f"only {len(g100)} long gaps on [0, 100]"
    if len(g200) < len(g100):
        return False, "gap count dropped when the horizon grew"
    return True, (f"{len(g100)} gaps > 9/10 on [0,100], "
                  f"{len(g200)} on [0,200]")


def criterion_10_endpoint_spectrality(seed: int, quick: bool) -> Tuple[bool, str]:
    rng = random.Random(seed + 7)
    n = _scale(200, quick)
    checked = 0
    for trial in range(n):
        if trial % 2 == 0:
            m = random_module(rng, max_points=4, max_dim=2)
            code = decompose(m)
        else:
            axes = sorted(abs(random_rational(rng, 1, 4)) + rational(1, 4)
                          for _ in range(rng.randint(1, 3)))
            code = ellipsoid_barcode(EllipsoidParams.of(axes, rng.randint(3, 8)))
        points = set(code.spectrum.points)
        for bar in code.bars:
            for end in (bar.birth, bar.death):
                if end.is_finite and end not in points:
                    return False, f"trial {trial}: endpoint {end} off spectrum"
                checked += 1
    return True, f"{checked} endpoints verified against their spectra"


CRITERIA: List[Tuple[int, str, Callable[[int, bool], Tuple[bool, str]]]] = [
    (1, "ellipsoid barcode and CZ indices", criterion_1_ellipsoid_barcode),
    (2, "round trip decompose o module_from_barcode", criterion_2_round_trip),
    (3, "decomposition vs basis-change oracle", criterion_3_decompose_oracle),
    (4, "isometry: interleaving == bottleneck", criterion_4_isometry),
    (5, "bottleneck metric axioms", criterion_5_metric_axioms),
    (6, "stability under perturbation balls", criterion_6_stability),
    (7, "spectral invariant monotonicity", criterion_7_monotonicity),
    (8, "covering numbers and translated-point bound", criterion_8_covering),
    (9, "long gap existence scan", criterion_9_gaps),
    (10, "endpoint spectrality", criterion_10_endpoint_spectrality),
]


def run_criterion(number: int, seed: int, quick: bool = False) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = fn(seed, quick)
            return CriterionResult(num, name, passed, detail,
                                   time.perf_counter() - start)
    raise ValueError(f"no criterion {number}")


def run_suite(seed: int = 0, quick: bool = False) -> List[CriterionResult]:
    return [run_criterion(num, seed, quick) for num, _, _ in CRITERIA]
