"""Barcode-level contact invariants.

Spectral invariants read births of undying bars, boundary depth
measures the longest certified finite bar, covering numbers of endpoint
sets bound the count of distinct translated-point lengths from below, and
a perturbation-ball harness exercises the Lipschitz and monotonicity
behaviour of the spectral invariants under bottleneck-bounded noise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .barcode import Bar, Barcode, Spectrum
from .errors import InPiSpanError, NonPositiveDeltaError
from .scalar import Frozen, POS_INF, Scalar, ZERO


def spectral_invariant(b: Barcode, e_index: int) -> Scalar:
    """Birth of the e_index-th undying bar, in birth order.

    A bar is undying when its death is +inf or it is truncated (its true
    death lies beyond the horizon).  +inf when the barcode holds no such
    bar; a bar born at -inf spans the fully infinite part, which carries
    no finite spectral value, so its index is rejected.
    """
    if e_index < 0:
        raise InPiSpanError("basis index must be nonnegative")
    # the bars are stored sorted by birth, so these births are in order
    births = [bar.birth for bar in b.bars if bar.death.is_pos_inf or bar.truncated]
    if e_index >= len(births):
        return POS_INF
    if births[e_index].is_neg_inf:
        raise InPiSpanError(
            f"class {e_index} lies in the span of fully infinite bars")
    return births[e_index]


def translate_barcode(b: Barcode, t: Scalar) -> Barcode:
    """Shift every finite endpoint and the spectrum by t; infinities stay."""
    if not t.is_finite:
        raise ValueError("translation amount must be finite")
    bars = tuple(
        Bar(bar.birth + t if bar.birth.is_finite else bar.birth,
            bar.death + t if bar.death.is_finite else bar.death,
            bar.parity, bar.truncated)
        for bar in b.bars
    )
    return Barcode(b.spectrum.shifted(t), bars)


def boundary_depth(b: Barcode) -> Scalar:
    """Length of the longest certified finite bar (0 when there is none).

    Truncated bars are skipped: their recorded length is only a lower
    bound, so they cannot witness the depth.
    """
    best = ZERO
    for bar in b.bars:
        if bar.is_finite and not bar.truncated:
            best = max(best, bar.length())
    return best


def covering_number(points: Iterable[Scalar], delta: Scalar
                    ) -> Tuple[int, List[Scalar]]:
    """Minimal number of open delta/2-balls covering the points, with centers.

    Greedy sweep over the sorted points: a single ball covers a consecutive
    group exactly when the group's span is strictly below delta, so each
    group is grown maximally and its center placed at the group's midpoint.
    """
    if not (ZERO < delta):
        raise NonPositiveDeltaError("delta must be positive")
    pts = sorted(set(points))
    for p in pts:
        if not p.is_finite:
            raise ValueError("covering points must be finite")
    centers: List[Scalar] = []
    i = 0
    while i < len(pts):
        start = pts[i]
        j = i
        while j + 1 < len(pts) and pts[j + 1] - start < delta:
            j += 1
        centers.append((start + pts[j]) / 2)
        i = j + 1
    return len(centers), centers


def bar_endpoint_set(b: Barcode, min_length: Scalar) -> Tuple[Scalar, ...]:
    """Finite endpoints of bars of length >= min_length, sorted."""
    out = set()
    for bar in b.bars:
        if bar.length() < min_length:
            continue
        for end in (bar.birth, bar.death):
            if end.is_finite:
                out.add(end)
    return tuple(sorted(out))


def translated_point_lower_bound(b_id: Barcode, delta: Scalar) -> int:
    """Guaranteed count of distinct translated-point lengths.

    Covers the endpoints of the bars of length >= delta by open delta/2
    balls; any map whose displacement stays under delta/2 must hit at least
    one length per ball.  A delta that is not positive is refused by
    `covering_number`.
    """
    endpoints = bar_endpoint_set(b_id, delta)
    k, _ = covering_number(endpoints, delta)
    return k


class VanishingReport(Frozen):
    """Reporting predicate on an identity-model barcode.

    forces_sh_zero is None when truncation makes the verdict undecidable
    from the window alone.
    """

    __slots__ = ("has_bar_at_zero", "has_half_infinite", "forces_sh_zero", "status")

    def __init__(self, has_bar_at_zero: bool, has_half_infinite: bool,
                 forces_sh_zero: Optional[bool], status: str):
        object.__setattr__(self, "has_bar_at_zero", has_bar_at_zero)
        object.__setattr__(self, "has_half_infinite", has_half_infinite)
        object.__setattr__(self, "forces_sh_zero", forces_sh_zero)
        object.__setattr__(self, "status", status)


def vanishing_predicates(b: Barcode) -> VanishingReport:
    has_zero = any(bar.birth == ZERO for bar in b.bars)
    certified_half = any(
        bar.death.is_pos_inf and bar.birth.is_finite and not bar.truncated
        for bar in b.bars)
    has_truncated = any(bar.truncated for bar in b.bars)
    if certified_half:
        return VanishingReport(has_zero, True, False, "certain")
    if has_truncated:
        return VanishingReport(has_zero, False, None, "unknown under truncation")
    return VanishingReport(has_zero, False, True, "certain")


class PerturbationBall(Frozen):
    """Radius of allowed barcode perturbations, modelling a Hofer-type ball."""

    __slots__ = ("radius",)

    def __init__(self, radius: Scalar):
        if radius < ZERO:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "radius", radius)


def perturb_barcode(b: Barcode, ball: PerturbationBall, rng: random.Random
                    ) -> Barcode:
    """A random barcode within bottleneck distance <= ball.radius of b.

    Finite endpoints move by at most the radius, short bars may be dropped,
    and fresh bars of half-length at most the radius may appear; the new
    spectrum is rebuilt from the perturbed endpoints.
    """
    r = ball.radius
    if r == ZERO:
        return b

    def jitter() -> Scalar:
        return r * Fraction(rng.randint(-8, 8), 8)

    new_bars: List[Bar] = []
    for bar in b.bars:
        if bar.is_finite and not (r < bar.half_length()) and rng.random() < 0.2:
            continue  # drop a short bar: its ersatz partner costs <= r
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
        half = r * Fraction(rng.randint(1, 8), 8)
        new_bars.append(Bar(center - half, center + half, rng.randint(0, 1)))
    points = sorted({e for bar in new_bars for e in (bar.birth, bar.death)
                     if e.is_finite})
    new_lo = min([lo - r] + points)
    new_hi = max([hi + r] + points)
    spectrum = Spectrum(tuple(points), new_lo, new_hi)
    return Barcode(spectrum, tuple(new_bars))


class LipschitzReport(Frozen):
    __slots__ = ("invariant", "trials", "max_deviation", "violations")

    def __init__(self, invariant: str, trials: int, max_deviation: Scalar,
                 violations: Tuple[str, ...]):
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "violations", violations)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "trials": self.trials,
            "max_deviation": str(self.max_deviation),
            "violations": list(self.violations),
        }


def check_lipschitz(b: Barcode, ball: PerturbationBall, trials: int,
                    seed: int = 0) -> LipschitzReport:
    """Empirical Lipschitz check of spectral invariants under perturbation.

    Each trial draws a perturbation inside the ball, matches half-infinite
    bars through the bottleneck witness, and compares births; any deviation
    beyond the radius (or distance beyond the radius) is recorded.
    """
    # imported here, its only use, so that the other invariants do not load
    # the distances module
    from .distances import bottleneck_distance

    if trials < 1:
        raise ValueError("need at least one trial")
    r = ball.radius
    max_dev = ZERO
    violations: List[str] = []
    for trial in range(trials):
        rng = random.Random((seed << 20) ^ trial)
        perturbed = perturb_barcode(b, ball, rng)
        dist, matching = bottleneck_distance(b, perturbed)
        if matching is None or r < dist:
            violations.append(
                f"trial {trial}: bottleneck distance {dist} exceeds radius {r}")
            continue
        for left, right in matching.pairs:
            if left is None or right is None:
                continue
            bar_l, bar_r = b.bars[left], perturbed.bars[right]
            if not (bar_l.death.is_pos_inf and bar_r.death.is_pos_inf):
                continue
            if bar_l.birth.is_neg_inf or bar_r.birth.is_neg_inf:
                continue
            dev = abs(bar_l.birth - bar_r.birth)
            max_dev = max(max_dev, dev)
            if r < dev:
                violations.append(
                    f"trial {trial}: spectral deviation {dev} exceeds radius {r}")
    return LipschitzReport("lipschitz-spectral", trials, max_dev, tuple(violations))
