import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contact_barcodes.gf2 import Echelon, Gf2Matrix, solve
from contact_barcodes.oracles import all_matrices, invertible_matrices
from contact_barcodes.random_instances import random_basis_change


def span_size(rows, ncols):
    seen = {0}
    for r in range(len(rows)):
        for combo in combinations(range(len(rows)), r + 1):
            acc = 0
            for i in combo:
                acc ^= rows[i]
            seen.add(acc)
    return len(seen)


@given(st.lists(st.integers(min_value=0, max_value=31), max_size=5))
def test_rank_counts_span(rows):
    # the rowspan of a rank-r set has exactly 2^r elements
    assert 1 << Gf2Matrix(tuple(rows), 5).rank() == span_size(rows, 5)


@given(st.integers(min_value=0, max_value=2 ** 12 - 1),
       st.integers(min_value=0, max_value=2 ** 12 - 1))
def test_matmul_matches_schoolbook(code_a, code_b):
    a = Gf2Matrix(tuple((code_a >> (3 * i)) & 7 for i in range(4)), 3)
    b = Gf2Matrix(tuple((code_b >> (4 * i)) & 15 for i in range(3)), 4)
    prod = a @ b
    for i in range(4):
        for j in range(4):
            want = 0
            for k in range(3):
                want ^= a.entry(i, k) & b.entry(k, j)
            assert prod.entry(i, j) == want


def test_identity_and_zero():
    i3 = Gf2Matrix.identity(3)
    z = Gf2Matrix.zeros(2, 3)
    assert i3.rank() == 3 and i3.is_invertible()
    assert z.rank() == 0
    assert (z @ i3) == z
    for bad in (lambda: Gf2Matrix.identity(-1), lambda: Gf2Matrix.zeros(2, -1),
                lambda: Gf2Matrix((4,), 2), lambda: Gf2Matrix((-1,), 2)):
        with pytest.raises(ValueError):
            bad()


def test_row_check_takes_column_counts_too_wide_for_a_mask():
    # each row is shifted past ncols, so no ncols-bit mask is built and a
    # huge column count is checked instead of overflowing
    assert Gf2Matrix((), 2 ** 70).shape == (0, 2 ** 70)
    assert Gf2Matrix((1 << 100, 0), 2 ** 70).shape == (2, 2 ** 70)
    for rows, ncols in (((1 << 64,), 64), ((3,), 1), ((-1,), 2 ** 70), ((1,), 0)):
        with pytest.raises(ValueError):
            Gf2Matrix(rows, ncols)


def test_unchecked_results_match_checked_construction():
    # products, identities, zeros and inverses skip the row checks and set
    # their fields through the slots' setters; each must equal, hash and
    # print as the matrix the checked constructor builds, copy and pickle
    # as it does, and refuse assignment
    rng = random.Random(17)
    results = []
    for _ in range(300):
        n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = Gf2Matrix(tuple(rng.getrandbits(k) for _ in range(n)), k)
        b = Gf2Matrix(tuple(rng.getrandbits(m) for _ in range(k)), m)
        results += [a @ b, Gf2Matrix.identity(n), Gf2Matrix.zeros(n, m),
                    random_basis_change(rng, n)[0].inverse()]
    for got in results:
        want = Gf2Matrix(tuple(got.rows), got.ncols)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert type(got.rows) is tuple and all(0 <= r < 1 << got.ncols for r in got.rows)
        for clone in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert clone == want and hash(clone) == hash(want) and repr(clone) == repr(want)
        for name in ("rows", "ncols"):
            with pytest.raises(AttributeError):
                setattr(got, name, getattr(got, name))


def test_inverse_round_trip():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(20):
            m = rng.choice(invertible_matrices(n))
            assert m @ m.inverse() == Gf2Matrix.identity(n)
            assert m.inverse() @ m == Gf2Matrix.identity(n)


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        Gf2Matrix.zeros(2, 2).inverse()


def test_matrix_refusals_name_their_fault():
    refusals = [
        (lambda: Gf2Matrix((), -1), "ncols must be nonnegative"),
        (lambda: Gf2Matrix.identity(2) @ Gf2Matrix.identity(3), "shape mismatch (2, 2) @ (3, 3)"),
        (lambda: Gf2Matrix((1,), 2).inverse(), "only square matrices can be inverted"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


def test_invertible_count_is_gl_order():
    # |GL_n(F2)| = prod (2^n - 2^i)
    assert len(invertible_matrices(1)) == 1
    assert len(invertible_matrices(2)) == 6
    assert len(invertible_matrices(3)) == 168


def test_partial_permutation_detection():
    assert Gf2Matrix.from_rows([[1, 0], [0, 1]]).is_partial_permutation()
    assert Gf2Matrix.from_rows([[0, 1], [0, 0]]).is_partial_permutation()
    assert not Gf2Matrix.from_rows([[1, 1], [0, 0]]).is_partial_permutation()
    assert not Gf2Matrix.from_rows([[1, 0], [1, 0]]).is_partial_permutation()


def test_from_rows_round_trip():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert Gf2Matrix.from_rows(rows).to_rows() == rows
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows([[2]])


def test_from_rows_keeps_its_errors_and_packs_in_range():
    for rows, ncols, message in (([[1, 0], [1]], None, "ragged rows"),
                                 ([[1, 0]], -1, "ragged rows"),
                                 ([], -1, "ncols must be nonnegative"),
                                 ([[0, 2]], None, "entries must be 0 or 1"),
                                 ([[1.0]], None, "entries must be 0 or 1"),
                                 ([["1"]], None, "entries must be 0 or 1")):
        with pytest.raises(ValueError) as caught:
            Gf2Matrix.from_rows(rows, ncols)
        assert str(caught.value) == message
    rng = random.Random(18)
    for _ in range(200):
        n, k = rng.randint(0, 5), rng.randint(0, 9)
        rows = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
        got = Gf2Matrix.from_rows(rows, k)
        assert got == Gf2Matrix(tuple(got.rows), k) and got.to_rows() == rows


def row_packed(rows, ncols):
    """from_rows as first written: each row's entries as bytes, read
    backwards as base-2 digits, one int() per row."""
    digits = b"01" + b"x" * 254
    try:
        packed = [int(b"0" + bytes(row)[::-1].translate(digits), 2) for row in rows]
    except (TypeError, ValueError):
        raise ValueError("entries must be 0 or 1") from None
    return Gf2Matrix(tuple(packed), ncols)


def test_from_rows_packs_as_the_per_row_packer():
    rng = random.Random(20)
    shapes = [(0, 7), (7, 0), (0, 0), (1, 200), (200, 1), (3, 64), (2, 65)]
    shapes += [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(300)]
    for n, k in shapes:
        p = rng.choice((0.0, 0.1, 0.5, 1.0))
        rows = [[int(rng.random() < p) for _ in range(k)] for _ in range(n)]
        if rng.random() < 0.1:
            rows = [[bool(v) for v in row] for row in rows]
        got = Gf2Matrix.from_rows(rows, k)
        assert got == row_packed(rows, k) and got.to_rows() == [[int(v) for v in row] for row in rows]
        bad = [row[:] for row in rows]
        if n and k:
            bad[rng.randrange(n)][rng.randrange(k)] = rng.choice((2, -1, 256, 1.0, "1", None, [1]))
            with pytest.raises(ValueError, match="^entries must be 0 or 1$"):
                Gf2Matrix.from_rows(bad, k)
            with pytest.raises(ValueError, match="^entries must be 0 or 1$"):
                row_packed(bad, k)
    # no entries: a column count far past memory is only recorded
    assert Gf2Matrix.from_rows([], 2 ** 70).shape == (0, 2 ** 70)
    with pytest.raises(ValueError, match="^ragged rows$"):
        Gf2Matrix.from_rows([[1, 0]], 2 ** 70)


def test_transpose_swaps_rows_and_columns_at_every_density():
    rng = random.Random(19)
    for _ in range(600):
        n, k = rng.randint(0, 9), rng.randint(0, 9)
        p = rng.choice((0.02, 0.1, 0.2, 0.5, 0.9))
        m = Gf2Matrix(tuple(sum((rng.random() < p) << j for j in range(k))
                            for _ in range(n)), k)
        t = m.transpose()
        assert t.shape == (k, n) and t == Gf2Matrix(tuple(t.rows), n)
        assert all(t.entry(j, i) == m.entry(i, j) for i in range(n) for j in range(k))
        assert t.transpose() == m


def test_span_solver_express_and_nullspace():
    rng = random.Random(9)
    for _ in range(50):
        nrows = rng.randint(1, 4)
        width = rng.randint(1, 4)
        rows = [rng.randrange(1 << width) for _ in range(nrows)]
        solver = Echelon(rows)
        for mask in solver.nullspace:
            acc = 0
            for i in range(nrows):
                if (mask >> i) & 1:
                    acc ^= rows[i]
            assert acc == 0
        target = 0
        picks = rng.randrange(1 << nrows)
        for i in range(nrows):
            if (picks >> i) & 1:
                target ^= rows[i]
        wit = solver.express(target)
        assert wit is not None
        acc = 0
        for i in range(nrows):
            if (wit >> i) & 1:
                acc ^= rows[i]
        assert acc == target


def test_equations_against_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        equations = Echelon(k=1)
        eqs = []
        consistent = True
        for _ in range(rng.randint(0, 6)):
            coeffs = rng.randrange(1 << n)
            rhs = rng.randint(0, 1)
            eqs.append((coeffs, rhs))
            consistent = consistent and equations.insert(coeffs << 1 | rhs) != 1

        def satisfies(x):
            for coeffs, rhs in eqs:
                acc = 0
                v = coeffs & x
                while v:
                    acc ^= 1
                    v &= v - 1
                if acc != rhs:
                    return False
            return True

        any_solution = any(satisfies(x) for x in range(1 << n))
        assert consistent == any_solution
        if any_solution:
            assert satisfies(solve(equations))


def test_all_matrices_enumerates_everything():
    mats = list(all_matrices(2, 2))
    assert len(mats) == 16
    assert len(set(mats)) == 16


# The formulations the package used before every elimination went through
# Echelon, kept here as references: a column-by-column rank, Gauss-Jordan
# on [A | I], a span solver whose basis is re-sorted after every insert,
# a system that sorts its pivots on every equation, and the search's
# backtracking before it undid pivots: a copy of the whole pivot dict,
# with tags beside the vectors, per frame.

def reference_rank(rows, n_cols):
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


def reference_inverse(rows, n):
    """Rows of the inverse, or None when singular."""
    work = list(rows)
    inv = [1 << i for i in range(n)]
    row_idx = 0
    for col in range(n):
        pivot = None
        for r in range(row_idx, n):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            return None
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        inv[row_idx], inv[pivot] = inv[pivot], inv[row_idx]
        for r in range(n):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
                inv[r] ^= inv[row_idx]
        row_idx += 1
    return tuple(inv)


class ReferenceSpanSolver:
    def __init__(self, rows):
        self.basis = []
        self.nullspace = []
        for i, row in enumerate(rows):
            vec, wit = self._reduce(row, 1 << i)
            if vec:
                self.basis.append((vec, wit))
                self.basis.sort(key=lambda p: -(p[0].bit_length()))
            else:
                self.nullspace.append(wit)

    def _reduce(self, vec, wit):
        for bvec, bwit in self.basis:
            if vec & (1 << (bvec.bit_length() - 1)):
                vec ^= bvec
                wit ^= bwit
        return vec, wit

    def express(self, target):
        vec, wit = self._reduce(target, 0)
        return wit if vec == 0 else None


class ReferenceSystem:
    def __init__(self, n_unknowns):
        self.n = n_unknowns
        self.rows = []
        self.pivots = []
        self.consistent = True

    def add(self, coeffs, rhs):
        if not self.consistent:
            return False
        row = coeffs | (rhs << self.n)
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

    def solve(self):
        if not self.consistent:
            return None
        x = 0
        for pivot, row in sorted(zip(self.pivots, self.rows)):
            acc = (row >> self.n) & 1
            rest = (row & ((1 << self.n) - 1)) & ~(1 << pivot)
            while rest:
                j = (rest & -rest).bit_length() - 1
                acc ^= (x >> j) & 1
                rest &= rest - 1
            x |= acc << pivot
        return x


class CopyingEchelon:
    """Top-bit pivots as (vector, tag) pairs; a search frame holds a copy."""

    def __init__(self, pivots=None):
        self.pivots = {} if pivots is None else pivots

    def copy(self):
        return CopyingEchelon(self.pivots.copy())

    def insert(self, vec, tag):
        while vec:
            pivot = self.pivots.get(vec.bit_length() - 1)
            if pivot is None:
                break
            vec ^= pivot[0]
            tag ^= pivot[1]
        if vec:
            self.pivots[vec.bit_length() - 1] = (vec, tag)
        return vec, tag


def _rows_with_dependencies(rng, nrows, ncols):
    """Random rows where about a third are XORs of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 1 / 3:
            acc = 0
            for row in rng.sample(rows, rng.randint(1, len(rows))):
                acc ^= row
            rows.append(acc)
        else:
            rows.append(rng.randrange(1 << ncols))
    return rows


def test_kernels_agree_with_reference_formulations_at_width_64():
    rng = random.Random(64)
    invertible = 0
    for case in range(3000):
        ncols = rng.randint(1, 64)
        if case % 3 == 0:
            # square: invertible by row additions, or random with dependencies
            if case % 2:
                mat, inv = random_basis_change(rng, ncols)
                rows = list(mat.rows)
            else:
                rows = _rows_with_dependencies(rng, ncols, ncols)
                inv = None
            want = reference_inverse(rows, ncols)
            if want is None:
                with pytest.raises(ValueError):
                    Gf2Matrix(tuple(rows), ncols).inverse()
            else:
                got = Gf2Matrix(tuple(rows), ncols).inverse()
                assert got.rows == want
                assert inv is None or inv.rows == want
                invertible += 1
        else:
            rows = _rows_with_dependencies(rng, rng.randint(1, 64), ncols)
        assert Gf2Matrix(tuple(rows), ncols).rank() == reference_rank(rows, ncols)

        echelon, ref = Echelon(rows), ReferenceSpanSolver(rows)
        assert echelon.nullspace == ref.nullspace
        for _ in range(4):
            inside = 0
            for row in rng.sample(rows, rng.randint(0, len(rows))):
                inside ^= row
            for target in (inside, rng.randrange(1 << ncols)):
                assert echelon.express(target) == ref.express(target)

        equations, ref_system = Echelon(k=1), ReferenceSystem(ncols)
        planted = rng.randrange(1 << ncols)
        noisy = rng.random() < 0.5
        consistent = True
        for row in rows:
            rhs = (row & planted).bit_count() & 1
            if noisy and rng.random() < 0.1:
                rhs ^= 1
            consistent = consistent and equations.insert(row << 1 | rhs) != 1
            assert consistent == ref_system.add(row, rhs)
        assert (solve(equations) if consistent else None) == ref_system.solve()
    assert invertible > 500


def test_rank_matches_the_column_by_column_reference_at_every_shape():
    # rank inserts its rows untagged; shapes with no rows, with no columns,
    # and up to 400 columns wide, with dependent rows
    rng = random.Random(400)
    assert Gf2Matrix((), 0).rank() == Gf2Matrix((), 400).rank() == 0
    assert Gf2Matrix((0,) * 7, 0).rank() == 0
    for case in range(300):
        ncols = rng.choice((0, 1, 2, 63, 64, 65, 128, 399, 400)) if case % 3 else \
            rng.randint(0, 400)
        rows = _rows_with_dependencies(rng, rng.randint(0, 40 if case % 10 else 400), ncols)
        assert Gf2Matrix(tuple(rows), ncols).rank() == reference_rank(rows, ncols), case


def test_undo_restores_what_a_copy_per_frame_held():
    # random insert / mark / undo runs at widths up to 64, with no tag bits
    # (the decompose sweep), one rhs bit (the search's equations) and one
    # tag bit per row (span witnesses).  A mark is a frame of the search:
    # the pivot count, beside a copy of the reference; an undo returns to
    # some open frame and drops the frames above it, and k = 1 undoes at
    # once when an equation reduces to 0 = 1, as the search moves on
    rng = random.Random(66)
    contradictions = undos = 0
    for case in range(300):
        width, mode = rng.randint(1, 64), case % 3
        k = (0, 1, 64)[mode]
        echelon, ref = Echelon(k=k), CopyingEchelon()
        live, nullspace = [], []  # inserted (vector, tag) pairs, zero-row tags
        frames = [(0, 0, 0, ref.copy())]
        planted = rng.randrange(1 << width)
        for _ in range(rng.randint(1, 80)):
            if rng.random() < 0.15:
                frames.append((len(echelon.pivots), len(live), len(nullspace), ref.copy()))
                continue
            if rng.random() < 0.8 and len(live) < 64:
                inside = 0
                for vec, _ in rng.sample(live, rng.randint(0, min(3, len(live)))):
                    inside ^= vec
                vec = rng.choice((inside, rng.randrange(1 << width)))
                tag = (0, ((vec & planted).bit_count() & 1) ^ (rng.random() < 0.05),
                       1 << len(live))[mode]
                got = echelon.insert(vec << k | tag)
                want_vec, want_tag = ref.insert(vec, tag)
                assert got == want_vec << k | want_tag
                live.append((vec, tag))
                if not want_vec:
                    nullspace.append(want_tag)
                if got != 1 or k != 1:
                    continue
                # the first equation that reduces to 0 = 1 is the first
                # that leaves the equations without a solution
                contradictions += 1
                refsys = ReferenceSystem(width)
                assert all(refsys.add(*eq) for eq in live[:-1]) and not refsys.add(*live[-1])
            undos += 1
            del frames[rng.randrange(len(frames)) + 1:]
            mark, n_live, n_null, saved = frames[-1]
            echelon.undo(mark)
            ref = saved.copy()
            del live[n_live:], nullspace[n_null:]
            assert list(echelon.pivots.items()) == [
                (top + k, vec << k | tag) for top, (vec, tag) in ref.pivots.items()]
        if mode == 0:
            assert len(echelon.pivots) == reference_rank([vec for vec, _ in live], width)
        elif mode == 1:
            refsys = ReferenceSystem(width)
            assert all(refsys.add(*eq) for eq in live)
            assert solve(echelon) == refsys.solve()
        elif mode == 2:
            span = ReferenceSpanSolver([vec for vec, _ in live])
            assert nullspace == span.nullspace
            for _ in range(4):
                target = rng.randrange(1 << width)
                assert echelon.express(target) == span.express(target)
                inside = 0
                for vec, _ in rng.sample(live, rng.randint(0, len(live))):
                    inside ^= vec
                assert echelon.express(inside) == span.express(inside)
    assert contradictions > 20 and undos > 500, (contradictions, undos)
