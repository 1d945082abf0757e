"""Spectra and barcodes: the objects every `cpv` barcode command reads.

A Spectrum is a finite sorted set of rational points inside a horizon
window, and a Barcode is a graded multiset of bars whose finite endpoints
lie on the spectrum.  Nothing here touches GF(2) or sampled modules;
`persistence` builds modules from barcodes and reads barcodes off modules.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .scalar import Frozen, POS_INF, Scalar, ScalarLike, _rising, as_scalar

Parity = int  # 0 or 1; the Z/2 supergrading


class Spectrum(Frozen):
    """Strictly increasing finite points inside a finite horizon [lo, hi]."""

    __slots__ = ("points", "lo", "hi")

    def __init__(self, points: Tuple[Scalar, ...], lo: Scalar, hi: Scalar):
        if not (lo.is_finite and hi.is_finite):
            raise ValueError("horizon endpoints must be finite")
        if hi < lo:
            raise ValueError("horizon is empty")
        # finite, strictly rising and inside [lo, hi]: one pass of int
        # compares, then only its two ends against the horizon; a refused
        # spectrum is walked point by point to name its first fault
        if not (_rising(points) and (not points or lo <= points[0] and points[-1] <= hi)):
            prev = None
            for p in points:
                if not p.is_finite:
                    raise ValueError("spectrum points must be finite")
                if p < lo or hi < p:
                    raise ValueError(f"spectrum point {p} outside horizon")
                if prev is not None and not (prev < p):
                    raise ValueError("spectrum points must be strictly increasing")
                prev = p
        self._set(points, lo, hi)

    @classmethod
    def of(cls, points: Iterable[ScalarLike], lo: ScalarLike, hi: ScalarLike) -> "Spectrum":
        return cls(tuple(as_scalar(p) for p in points), as_scalar(lo), as_scalar(hi))

    def shifted(self, t: Scalar) -> "Spectrum":
        return Spectrum(tuple(p + t for p in self.points), self.lo + t, self.hi + t)


class Bar(Frozen):
    """An interval (birth, death) with Z/2 parity.

    Containment is strict: the bar covers s exactly when birth < s < death.
    The `truncated` flag marks bars cut off by a horizon (the recorded
    death is only a certified lower bound on the true one); it is carried
    as metadata and ignored by equality and hashing.
    """

    __slots__ = ("birth", "death", "parity", "truncated")
    _KEY = ("birth", "death", "parity")

    def __init__(self, birth: Scalar, death: Scalar, parity: Parity,
                 truncated: bool = False):
        if birth.is_pos_inf or death.is_neg_inf:
            raise ValueError("bar endpoints must satisfy birth in [-inf, inf), death in (-inf, inf]")
        if death < birth:
            raise ValueError(f"bar has death {death} before birth {birth}")
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        self._set(birth, death, parity, truncated)

    @classmethod
    def _unchecked(cls, birth: Scalar, death: Scalar, parity: Parity) -> "Bar":
        """A bar whose ends are known to be in order and whose parity is
        0 or 1, built without the checks of __init__; not truncated.  Its
        fields are set by the class's slot setters, called directly rather
        than through the loop of `_set`."""
        set_birth, set_death, set_parity, set_truncated = cls._setters
        bar = object.__new__(cls)
        set_birth(bar, birth)
        set_death(bar, death)
        set_parity(bar, parity)
        set_truncated(bar, False)
        return bar

    @classmethod
    def of(cls, birth: ScalarLike, death: ScalarLike, parity: Parity = 0,
           truncated: bool = False) -> "Bar":
        return cls(as_scalar(birth), as_scalar(death), parity, truncated)

    @property
    def is_finite(self) -> bool:
        return self.birth.is_finite and self.death.is_finite

    def contains(self, s: Scalar) -> bool:
        return self.birth < s < self.death

    def length(self) -> Scalar:
        """death - birth; +inf when either endpoint is infinite."""
        if not self.is_finite:
            return POS_INF
        return self.death - self.birth

    def half_length(self) -> Scalar:
        if not self.is_finite:
            return POS_INF
        return (self.death - self.birth) / 2

    def sort_key(self):
        return (self.birth, self.death, self.parity)


def _end_positions(points: Sequence[Scalar], bars: Iterable[Bar]
                   ) -> Optional[List[Tuple[int, int]]]:
    """The positions of each bar's birth and death among the sorted
    spectrum points: the index of a finite end, -1 for -inf and len(points)
    for +inf; None when some finite end is not a point.

    The index is keyed by each point's (numerator, denominator) ints, which
    Fraction keeps in lowest terms, so no Fraction hash or comparison runs.
    Positions keep the order of the ends, since every finite end is a point.
    """
    index = {}
    for i, p in enumerate(points):
        q = p.value
        index[q.numerator, q.denominator] = i
    find = index.get
    top = len(points)
    ends = []
    for bar in bars:
        b, d = bar.birth.value, bar.death.value
        # a bar's only infinite birth is -inf and its only infinite death +inf
        b = -1 if b.__class__ is float else find((b.numerator, b.denominator))
        d = top if d.__class__ is float else find((d.numerator, d.denominator))
        if b is None or d is None:
            return None
        ends.append((b, d))
    return ends


class Barcode(Frozen):
    """A multiset of bars over a common spectrum (stored sorted by
    `Bar.sort_key`, equal keys in the order given)."""

    __slots__ = ("spectrum", "bars")

    def __init__(self, spectrum: Spectrum, bars: Tuple[Bar, ...]):
        bars = tuple(bars)
        ends = _end_positions(spectrum.points, bars)
        if ends is None:
            # name the first endpoint off the spectrum in sorted bar order
            points = set(spectrum.points)
            for b in sorted(bars, key=Bar.sort_key):
                for end in (b.birth, b.death):
                    if end.is_finite and end not in points:
                        raise ValueError(f"bar endpoint {end} is not a spectrum point")
        # positions order the ends as Bar.sort_key does, with int compares
        keys = [(b, d, bar.parity) for (b, d), bar in zip(ends, bars)]
        bars = tuple([bars[i] for i in sorted(range(len(bars)), key=keys.__getitem__)])
        self._set(spectrum, bars)

    @classmethod
    def of(cls, spectrum: Spectrum, bars: Iterable[Bar]) -> "Barcode":
        return cls(spectrum, tuple(bars))

    @classmethod
    def _sorted(cls, spectrum: Spectrum, bars: Tuple[Bar, ...]) -> "Barcode":
        """Bars already sorted, with spectral ends; nothing is checked."""
        set_spectrum, set_bars = cls._setters
        code = object.__new__(cls)
        set_spectrum(code, spectrum)
        set_bars(code, bars)
        return code

    def graded_dim_at(self, s: Scalar) -> Tuple[int, int]:
        d = [0, 0]
        for b in self.bars:
            if b.contains(s):
                d[b.parity] += 1
        return (d[0], d[1])

    def same_bars(self, other: "Barcode") -> bool:
        """Multiset equality of bars, ignoring the ambient spectra."""
        return self.bars == other.bars
