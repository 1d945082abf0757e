"""Bit-packed linear algebra over GF(2).

Matrices store one int per row; bit j of a row is the entry in column j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class Gf2Matrix:
    rows: Tuple[int, ...]
    ncols: int

    def __post_init__(self):
        if self.ncols < 0:
            raise ValueError("ncols must be nonnegative")
        mask = (1 << self.ncols) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), self.ncols)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Gf2Matrix":
        return cls((0,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> "Gf2Matrix":
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            acc = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                acc |= v << j
            packed.append(acc)
        return cls(tuple(packed), ncols)

    def to_rows(self) -> List[List[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        # self: m x k, other: k x n
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for row in self.rows:
            acc = 0
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                acc ^= other.rows[j]
                r &= r - 1
            out.append(acc)
        return Gf2Matrix(tuple(out), other.ncols)

    def rank(self) -> int:
        return gf2_rank(list(self.rows), self.ncols)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self) -> "Gf2Matrix":
        """Invert via Gauss-Jordan on [self | I]."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.ncols
        work = list(self.rows)
        inv = [1 << i for i in range(n)]
        row_idx = 0
        for col in range(n):
            pivot = None
            for r in range(row_idx, n):
                if (work[r] >> col) & 1:
                    pivot = r
                    break
            if pivot is None:
                raise ValueError("matrix is singular")
            work[row_idx], work[pivot] = work[pivot], work[row_idx]
            inv[row_idx], inv[pivot] = inv[pivot], inv[row_idx]
            for r in range(n):
                if r != row_idx and ((work[r] >> col) & 1):
                    work[r] ^= work[row_idx]
                    inv[r] ^= inv[row_idx]
            row_idx += 1
        return Gf2Matrix(tuple(inv), n)

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


def gf2_rank(rows: List[int], n_cols: int) -> int:
    """Rank over GF(2) via Gaussian elimination on int bitsets."""
    work = rows[:]
    rank = 0
    row_idx = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
        rank += 1
        row_idx += 1
        if row_idx == len(work):
            break
    return rank


class SpanSolver:
    """Expresses target vectors as XOR combinations of a fixed list of rows.

    Used to solve x . A = b for a row vector x: a solution is a combination
    of A's rows hitting b, and the solution set is that particular witness
    plus the left nullspace of A.
    """

    def __init__(self, rows: Sequence[int], width: int):
        self.width = width
        self.n = len(rows)
        # (vector, witness-combination) pairs in echelon form
        self.basis: List[Tuple[int, int]] = []
        self.nullspace: List[int] = []
        for i, row in enumerate(rows):
            vec, wit = self._reduce(row, 1 << i)
            if vec:
                self.basis.append((vec, wit))
                self.basis.sort(key=lambda p: -(p[0].bit_length()))
            else:
                self.nullspace.append(wit)

    def _reduce(self, vec: int, wit: int) -> Tuple[int, int]:
        for bvec, bwit in self.basis:
            if vec & (1 << (bvec.bit_length() - 1)):
                vec ^= bvec
                wit ^= bwit
        return vec, wit

    def express(self, target: int) -> Optional[int]:
        """Combination mask c with XOR_{i in c} rows[i] == target, or None."""
        vec, wit = self._reduce(target, 0)
        return wit if vec == 0 else None


class Gf2System:
    """Incremental GF(2) linear system over a fixed set of unknowns.

    Rows are added one at a time; `consistent` flips to False as soon as a
    contradictory equation arrives.  Supports cheap copy for backtracking.
    """

    def __init__(self, n_unknowns: int):
        self.n = n_unknowns
        self.rows: List[int] = []  # bit n is the RHS
        self.pivots: List[int] = []
        self.consistent = True

    def copy(self) -> "Gf2System":
        dup = Gf2System(self.n)
        dup.rows = self.rows[:]
        dup.pivots = self.pivots[:]
        dup.consistent = self.consistent
        return dup

    def add(self, coeffs: int, rhs: int) -> bool:
        """Add the equation coeffs . x = rhs; returns consistency."""
        if not self.consistent:
            return False
        row = coeffs | (rhs << self.n)
        # Descending pivot order: XOR with a row only introduces lower bits,
        # so one pass fully clears every pivot position.
        for pivot, existing in sorted(zip(self.pivots, self.rows), reverse=True):
            if (row >> pivot) & 1:
                row ^= existing
        coeff_part = row & ((1 << self.n) - 1)
        if coeff_part == 0:
            if row >> self.n:
                self.consistent = False
            return self.consistent
        self.rows.append(row)
        self.pivots.append(coeff_part.bit_length() - 1)
        return True

    def solve(self) -> Optional[int]:
        """A particular solution (free unknowns set to 0), or None."""
        if not self.consistent:
            return None
        x = 0
        # Every row's non-pivot bits sit strictly below its pivot, so solving
        # in ascending pivot order sees only already-determined unknowns.
        for pivot, row in sorted(zip(self.pivots, self.rows)):
            acc = (row >> self.n) & 1
            rest = (row & ((1 << self.n) - 1)) & ~(1 << pivot)
            while rest:
                j = (rest & -rest).bit_length() - 1
                acc ^= (x >> j) & 1
                rest &= rest - 1
            x |= acc << pivot
        return x


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
