"""Exact scalars for the persistence parameter line.

A Scalar is an exact rational extended with the two symbolic endpoints
-inf and +inf.  Comparisons follow the extended-real order; arithmetic is
defined on finite values only.  The canonical text form is "p/q" with
q > 0 and gcd(p, q) = 1, or "-inf" / "inf", and round-trips bit-exactly.

`Frozen`, the base of every immutable value class of the package, lives
here because every process loads this module, and so does `Coords`, the
exact int coordinates and delta search of both distance routes.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter, mul
from typing import Callable, Iterable, Optional, Sequence, Tuple, TypeVar, Union

ScalarLike = Union["Scalar", Fraction, int, str]

# ASCII digits only: int() reads every Unicode digit, and the text form
# round-trips exactly only as ASCII "p/q"
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?", re.ASCII)

_POS = float("inf")
_NEG = float("-inf")


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in `__slots__` and sets each once in its
    `__init__`, through `object.__setattr__`.  Instances compare equal when
    they are of one class and their `_KEY` fields (all fields unless the
    class names fewer) are equal, and hash as the tuple of those fields;
    `repr` writes every field as `QualName(field=value, ...)`.  Every
    `__init__` takes the fields in `__slots__` order.  A slot whose name
    starts with an underscore is not a field but a private store of
    something the fields determine (`SampledModule._placed`): it is in no
    key, no `repr` and no `__init__`, so copies and pickles leave it out.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        key = cls.__dict__.get("_KEY", cls._fields)
        # the tuple of the key fields; attrgetter of one name gives it bare
        get = attrgetter(*key)
        cls._key = staticmethod(get if len(key) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes every field
        return self.__class__, tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Scalar(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: Union[Fraction, float, int]):
        if isinstance(value, float):
            if not math.isinf(value):
                raise ValueError(f"only +/-inf floats are allowed, got {value!r}")
        elif isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, Fraction):
            raise TypeError(f"scalar value must be Fraction or +/-inf, got {type(value)!r}")
        object.__setattr__(self, "value", value)

    # Equality and hashing are hot (sort keys, endpoint sets), so they read
    # the one field directly; the hash stays that of the field tuple, as for
    # every Frozen class, so that set orders do not move.

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.value,))

    # -- classification ------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return isinstance(self.value, Fraction)

    # The only float values are the two infinities, so the class and the
    # sign tell them apart; no Fraction-to-float comparison runs.

    @property
    def is_pos_inf(self) -> bool:
        value = self.value
        return value.__class__ is float and value > 0

    @property
    def is_neg_inf(self) -> bool:
        value = self.value
        return value.__class__ is float and value < 0

    # -- order ----------------------------------------------------------

    # Two finite values compare by cross-multiplying numerators and
    # denominators (both denominators are positive), which skips the
    # abstract-base-class checks of Fraction's own comparisons; an
    # infinity compares through its float tag.  `>` and `>=` (and max)
    # reach these by reflection: a > b runs b < a.

    def __lt__(self, other: "Scalar") -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.value, other.value
        if a.__class__ is float or b.__class__ is float:
            return a < b
        return a.numerator * b.denominator < b.numerator * a.denominator

    def __le__(self, other: "Scalar") -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.value, other.value
        if a.__class__ is float or b.__class__ is float:
            return a <= b
        return a.numerator * b.denominator <= b.numerator * a.denominator

    # -- arithmetic (finite operands only) -------------------------------

    def _finite(self) -> Fraction:
        if not self.is_finite:
            raise ValueError(f"arithmetic on infinite scalar {self}")
        return self.value

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self._finite() + other._finite())

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self._finite() - other._finite())

    def __neg__(self) -> "Scalar":
        if self.is_pos_inf:
            return NEG_INF
        if self.is_neg_inf:
            return POS_INF
        return Scalar(-self.value)

    def __abs__(self) -> "Scalar":
        return -self if self < ZERO else self

    def __mul__(self, k: Union[int, Fraction]) -> "Scalar":
        return Scalar(self._finite() * k)

    def __truediv__(self, k: Union[int, Fraction]) -> "Scalar":
        return Scalar(self._finite() / k)

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        value = self.value
        if value.__class__ is float:
            return "inf" if value > 0 else "-inf"
        return f"{value.numerator}/{value.denominator}"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse "p/q", an integer literal, or "-inf"/"inf".

        Decimal notation is rejected deliberately: a rounded parameter can
        silently miss a spectrum point.
        """
        t = text.strip()
        if t in ("inf", "+inf"):
            return POS_INF
        if t == "-inf":
            return NEG_INF
        match = _RATIONAL_RE.fullmatch(t)
        if not match:
            raise ValueError(f"not a scalar: {text!r}")
        p, q = match.groups()
        try:
            value = Fraction(int(p), int(q or 1))
        except ZeroDivisionError as exc:
            raise ValueError(f"not a scalar: {text!r}") from exc
        # the value is a Fraction already: set the slot through its own
        # setter, without the type checks of __init__, as Bar._unchecked does
        scalar = object.__new__(cls)
        _set_value(scalar, value)
        return scalar


_set_value = Scalar.value.__set__


def _rising(values: Sequence[Scalar]) -> bool:
    """Whether the values are finite and strictly increasing, by
    cross-multiplied numerator and denominator ints."""
    try:
        nums = [v.value.numerator for v in values]
        dens = [v.value.denominator for v in values]
    except AttributeError:  # an infinity, whose value is a float
        return False
    return all(map(int.__lt__, map(mul, nums, dens[1:]), map(mul, nums[1:], dens)))


T = TypeVar("T")


class Coords:
    """Exact int coordinates for the finitely many rationals of one call.

    `scale` is twice the lcm of their denominators, so each value, each
    difference of two values and half of each difference, times `scale`,
    is an int.  Scaling by one positive factor keeps every order and
    equality, so int comparisons decide what Scalar comparisons would.
    Infinities have no coordinate; callers tag them before mapping.
    """

    __slots__ = ("scale",)

    def __init__(self, values: Iterable[Scalar]):
        self.scale = 2 * math.lcm(*{v.value.denominator for v in values if v.is_finite})

    def of(self, x: Scalar) -> int:
        """x * scale, for finite x."""
        q = x.value
        return q.numerator * (self.scale // q.denominator)

    def scalar(self, n: int) -> Scalar:
        """The Scalar with coordinate n."""
        return Scalar(Fraction(n, self.scale))

    def least(self, rows: Iterable[Tuple[Sequence[int], Sequence[int], int]],
              probe: Callable[[int], Optional[T]]) -> Optional[Tuple[Scalar, T]]:
        """The least nonnegative candidate at which probe succeeds (is not
        None), as a Scalar, with its result; None if it never does.

        Each row (cs, xs, k) stands for the candidates (x - c) // k, with c
        in cs, x in the ascending ints xs and k > 0; none is materialized.
        For each c those in the open window (lo, hi), from (-1, no end), are
        one slice xs[a:b].  A probe goes to the weighted median of the
        slices' lower-middle candidates, weighted by slice length; a failure
        moves lo up to it, a success hi down.  At least a quarter of the
        window lies on each side, so N candidates take at most
        floor(log_{4/3} N) + 1 probes (sorted-matrix selection,
        Johnson-Mizoguchi 1978); with one c it is a binary search.  The
        probe must fail below some value and succeed from it on.
        """
        spans = [(c, xs, k) for cs, xs, k in rows for c in cs]
        window = [(bisect_left(xs, c), len(xs)) for c, xs, _ in spans]
        best = None
        while True:
            mids = sorted(((xs[(a + b - 1) // 2] - c) // k, b - a)
                          for (c, xs, k), (a, b) in zip(spans, window) if a < b)
            if not mids:
                return None if best is None else (self.scalar(best[0]), best[1])
            weights = list(accumulate(n for _, n in mids))
            t = mids[bisect_left(weights, (weights[-1] + 1) // 2)][0]
            res = probe(t)
            if res is None:
                window = [(bisect_left(xs, c + k * (t + 1), a, b), b)
                          for (c, xs, k), (a, b) in zip(spans, window)]
            else:
                best = (t, res)
                window = [(a, bisect_left(xs, c + k * t, a, b))
                          for (c, xs, k), (a, b) in zip(spans, window)]


def as_scalar(x: ScalarLike) -> Scalar:
    """Coerce an int, Fraction, or "p/q" / "inf" string to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return Scalar.parse(x)
    return Scalar(Fraction(x))


def rational(p: int, q: int = 1) -> Scalar:
    return Scalar(Fraction(p, q))


def midpoint(a: Scalar, b: Scalar) -> Scalar:
    return (a + b) / 2


ZERO = Scalar(Fraction(0))
POS_INF = Scalar(_POS)
NEG_INF = Scalar(_NEG)
