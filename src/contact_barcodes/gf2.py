"""Bit-packed linear algebra over GF(2).

Matrices store one int per row; bit j of a row is the entry in column j.
The product, the transpose and the rank also run on bare row ints
(`rows_matmul`, `rows_transpose`, `rows_rank`), for callers that hold no
matrix object.  There is one Gaussian elimination, the loop of
`Echelon.insert` (inline in `express` too), on one vector format: an int
whose k low bits are a tag.  The rank, the inverse, the span witnesses of
the interleaving search, the equations on its backward maps (one Echelon,
backtracked in place) and the sweep of `persistence.decompose` all run on it.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from .scalar import Frozen


# byte 0 -> digit "0", byte 1 -> digit "1", any other byte -> "x"
_BASE2_DIGITS = b"01" + b"x" * 254


class Gf2Matrix(Frozen):
    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Tuple[int, ...], ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        for r in rows:
            if r < 0 or r >> ncols:
                raise ValueError("row has bits outside the column range")
        self._set(rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), self.ncols)

    @classmethod
    def _unchecked(cls, rows: Tuple[int, ...], ncols: int) -> "Gf2Matrix":
        """A matrix whose rows are known to lie in range(1 << ncols), built
        without the row checks of __init__ and with its fields set by the
        class's slot setters, as `Bar._unchecked` does."""
        set_rows, set_ncols = cls._setters
        m = object.__new__(cls)
        set_rows(m, rows)
        set_ncols(m, ncols)
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Gf2Matrix":
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        return cls._unchecked((0,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        if n < 0:
            raise ValueError("ncols must be nonnegative")
        return cls._unchecked(tuple(1 << i for i in range(n)), n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> "Gf2Matrix":
        """Pack 0/1 rows.  All entries become one bytes object, read
        backwards as base-2 digits: floats, strings, lists and ints outside
        0..255 fail in bytes(), and a byte above 1 becomes a digit int()
        refuses (bools pass as 0 and 1).  Row r is then the ncols bits from
        bit r * ncols of that int, so the rows need no range check."""
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if rows and set(map(len, rows)) != {ncols}:
            raise ValueError("ragged rows")
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        if not (rows and ncols):  # no entries, and 1 << ncols may not fit in memory
            return cls._unchecked((0,) * len(rows), ncols)
        try:
            packed = int(bytes(chain.from_iterable(rows))[::-1].translate(_BASE2_DIGITS), 2)
        except (TypeError, ValueError):
            raise ValueError("entries must be 0 or 1") from None
        mask = (1 << ncols) - 1
        return cls._unchecked(
            tuple([packed >> s & mask for s in range(0, len(rows) * ncols, ncols)]), ncols)

    def to_rows(self) -> List[List[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        # self: m x k, other: k x n
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Gf2Matrix._unchecked(tuple(rows_matmul(self.rows, other.rows)), other.ncols)

    def transpose(self) -> "Gf2Matrix":
        """The matrix whose row j is column j of self."""
        return Gf2Matrix._unchecked(tuple(rows_transpose(self.rows, self.ncols)),
                                    len(self.rows))

    def rank(self) -> int:
        return rows_rank(self.rows)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self) -> "Gf2Matrix":
        """The matrix whose row i combines self's rows into unit vector i."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        echelon = Echelon(self.rows)
        if echelon.nullspace:
            raise ValueError("matrix is singular")
        return Gf2Matrix._unchecked(
            tuple(echelon.express(1 << i) for i in range(self.ncols)), self.ncols)

    def is_partial_permutation(self) -> bool:
        """True when every row and every column carries at most one 1."""
        col_seen = 0
        for r in self.rows:
            if r.bit_count() > 1:
                return False
            if r & col_seen:
                return False
            col_seen |= r
        return True


def rows_matmul(left: Sequence[int], right: Sequence[int]) -> List[int]:
    """The rows of left @ right, both given by their row ints: row i is the
    XOR of the rows of right at the set bits of row i of left."""
    out = []
    for r in left:
        acc = 0
        while r:
            acc ^= right[(r & -r).bit_length() - 1]
            r &= r - 1
        out.append(acc)
    return out


def rows_rank(rows: Sequence[int]) -> int:
    """The rank of these row ints: their pivots, inserted untagged."""
    echelon = Echelon(k=0)
    for row in rows:
        echelon.insert(row)
    return len(echelon.pivots)


def rows_transpose(rows: Sequence[int], ncols: int) -> List[int]:
    """The ncols columns of the matrix with these row ints, each an int
    whose bit i is the entry in row i: one OR per set bit."""
    cols = [0] * ncols
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return cols


class Echelon:
    """Top-bit pivots of a set of GF(2) vectors, each carrying k tag bits.

    A vector is one int whose k low bits are a tag that rides along through
    every XOR; pivots maps the position of a kept vector's top set bit, at
    or above k, to that vector.  Built from a row list, k is the row count
    and row i enters as row << k | 1 << i, so a pivot's tag is the mask of
    input rows whose XOR gives it, and the tags of the rows that reduce to
    zero above k form a basis of the left nullspace.  With k = 1 the
    vectors are equations coeffs << 1 | rhs, and one that reduces to
    exactly 1 says 0 = 1.  A pivot is only ever added, never replaced, so
    the dict's insertion order is the order of the inserts and `undo` can
    pop them.
    """

    __slots__ = ("pivots", "k", "nullspace")

    def __init__(self, rows: Sequence[int] = (), k: Optional[int] = None):
        self.pivots: Dict[int, int] = {}
        self.k = k = len(rows) if k is None else k
        self.nullspace: List[int] = []
        for i, row in enumerate(rows):
            vec = self.insert(row << k | 1 << i)
            if vec.bit_length() <= k:
                self.nullspace.append(vec)

    def insert(self, vec: int) -> int:
        """XOR pivots into vec while its top bit has one, and keep the
        result as a pivot unless it lies below k."""
        pivots = self.pivots
        while pivot := pivots.get(top := vec.bit_length() - 1):
            vec ^= pivot
        if top >= self.k:
            pivots[top] = vec
        return vec

    def undo(self, mark: int) -> None:
        """Drop the pivots inserted since there were mark of them."""
        pivots = self.pivots
        for _ in range(len(pivots) - mark):
            pivots.popitem()

    def express(self, target: int) -> Optional[int]:
        """The tag of a combination of pivots equal to target, or None.

        Every pivot's top bit is at or above k, so target << k reduces to
        below k exactly when target is in the span of the pivots."""
        pivots, vec = self.pivots, target << self.k
        while pivot := pivots.get(vec.bit_length() - 1):
            vec ^= pivot
        return vec if vec.bit_length() <= self.k else None


def solve(equations: Echelon) -> int:
    """A particular solution (free unknowns set to 0) of the consistent
    equations coeffs << 1 | rhs held in a k = 1 Echelon."""
    x = 0
    # Every pivot's other bits sit strictly below its top bit, so solving
    # in ascending pivot order sees only already-determined unknowns.
    pivots = equations.pivots
    for top in sorted(pivots):
        row = pivots[top]
        x |= (((row & (x << 1)).bit_count() ^ row) & 1) << (top - 1)
    return x
