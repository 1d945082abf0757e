"""Barcode-level contact invariants.

Spectral invariants read births of undying bars, boundary depth
measures the longest certified finite bar, and covering numbers of
endpoint sets bound the count of distinct translated-point lengths from
below.  Each is a deterministic read of one barcode; the seeded
stability check of the spectral invariants is criterion 6 of `suite`.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .barcode import Bar, Barcode
from .errors import InPiSpanError, NonPositiveDeltaError
from .scalar import POS_INF, Scalar, ZERO


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
