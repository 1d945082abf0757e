"""Closed-form barcodes for ellipsoid Reeb flows.

For axes a_1 <= ... <= a_n the action spectrum is the set of multiples
k * a_j, and every connected component of its complement carries exactly
one bar, all of parity n mod 2.  The Conley-Zehnder index away from the
spectrum is n + 2 * sum_j floor(s / a_j).

A horizon T truncates the picture.  The component touching T keeps its
right endpoint when that endpoint is itself a spectrum value inside the
window, and is emitted with death +inf otherwise; either way it carries
the `truncated` flag, since nothing above T is certified.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from .barcode import Bar, Barcode, Spectrum
from .errors import InvalidEllipsoidError, OnSpectrumError, TooLargeError
from .scalar import Frozen, POS_INF, Scalar, ScalarLike, ZERO, as_scalar


class EllipsoidParams(Frozen):
    """Sorted positive axes a_1 <= ... <= a_n and a finite horizon T > 0."""

    __slots__ = ("axes", "horizon")

    def __init__(self, axes: Tuple[Scalar, ...], horizon: Scalar):
        if not axes:
            raise InvalidEllipsoidError("need at least one axis")
        prev = None
        for a in axes:
            if not (a.is_finite and ZERO < a):
                raise InvalidEllipsoidError("axes must be positive rationals")
            if prev is not None and a < prev:
                raise InvalidEllipsoidError("axes must be sorted ascending")
            prev = a
        if not (horizon.is_finite and ZERO < horizon):
            raise InvalidEllipsoidError("horizon must be a positive rational")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "horizon", horizon)

    @classmethod
    def of(cls, axes, horizon: ScalarLike) -> "EllipsoidParams":
        return cls(tuple(as_scalar(a) for a in axes), as_scalar(horizon))

    @property
    def n(self) -> int:
        return len(self.axes)


# The most axis multiples k * a_j <= T, repeats included, to build.
MAX_MULTIPLES = 1_000_000


def ellipsoid_spectrum(p: EllipsoidParams) -> Spectrum:
    """All multiples k * a_j inside [0, T], deduplicated and sorted; more
    than MAX_MULTIPLES (floor(T / a_j) + 1 per axis) raise TooLargeError."""
    T = p.horizon
    counts = [T.value // a.value + 1 for a in p.axes]
    if sum(counts) > MAX_MULTIPLES:
        raise TooLargeError(f"the ellipsoid spectrum up to T = {T} has {sum(counts)} "
                            f"axis multiples, more than {MAX_MULTIPLES}")
    values = {a * k for a, n in zip(p.axes, counts) for k in range(n)}
    return Spectrum(tuple(sorted(values)), ZERO, T)


class CzIndex(NamedTuple):
    index: int
    parity: int


def cz_index(s: Scalar, p: EllipsoidParams) -> CzIndex:
    """Conley-Zehnder index n + 2 * sum floor(s / a_j) of the lone generator.

    Defined for finite s > 0 off the spectrum (no s / a_j may be an
    integer); the parity always equals n mod 2.
    """
    if not s.is_finite:
        raise ValueError("parameter must be finite")
    if not (ZERO < s):
        raise ValueError("parameter must be positive")
    total = 0
    for a in p.axes:
        ratio = s.value / a.value
        if ratio.denominator == 1:
            raise OnSpectrumError(f"{s} is a multiple of axis {a}")
        total += math.floor(ratio)
    index = p.n + 2 * total
    return CzIndex(index, index % 2)


def _components(points: Tuple[Scalar, ...], T: Scalar
                ) -> Tuple[List[Tuple[Scalar, Scalar]], bool]:
    """Components of (0, T) minus the spectrum points, plus whether T is
    spectral."""
    comps = list(zip(points, points[1:]))
    t_on_spectrum = bool(points) and points[-1] == T
    if not t_on_spectrum:
        start = points[-1] if points else ZERO
        comps.append((start, T))
    return comps, t_on_spectrum


def ellipsoid_barcode(p: EllipsoidParams) -> Barcode:
    """One bar per spectrum gap in (0, T), all with parity n mod 2.

    The last component reaches the horizon and is flagged truncated: its
    death stays at T when T is a spectrum value (the gap genuinely closes
    there) and is emitted as +inf when the horizon cuts the gap open.
    """
    spectrum = ellipsoid_spectrum(p)
    comps, t_on_spectrum = _components(spectrum.points, p.horizon)
    parity = p.n % 2
    bars = []
    for idx, (lo, hi) in enumerate(comps):
        last = idx == len(comps) - 1
        if last and not t_on_spectrum:
            bars.append(Bar(lo, POS_INF, parity, truncated=True))
        else:
            bars.append(Bar(lo, hi, parity, truncated=last))
    return Barcode(spectrum, tuple(bars))


def gaps_longer_than(p: EllipsoidParams, ell: Scalar) -> List[Tuple[Scalar, Scalar]]:
    """Maximal spectrum-free open intervals in (0, T) longer than ell.

    Requires 0 <= ell < a_1 (ell = 0 lists every gap); the recurrence of
    the multiples guarantees long gaps keep appearing as the horizon grows.
    """
    if ell < ZERO or not (ell < p.axes[0]):
        raise ValueError("threshold must satisfy 0 <= ell < smallest axis")
    comps, _ = _components(ellipsoid_spectrum(p).points, p.horizon)
    return [(lo, hi) for lo, hi in comps if ell < hi - lo]
