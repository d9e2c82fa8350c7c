import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersym import linalg

from conftest import oracle_invert


# ---------------------------------------------------------------------------
# the dense elimination loop the sparse kernel replaced, kept as the oracle
# ---------------------------------------------------------------------------

def oracle_rref(rows):
    """Dense Gauss-Jordan over full rows of Fractions, pivots in column
    order.  Returns (every row, the zero rows last; the pivot columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def oracle_nullspace(rows, ncols):
    m, pivots = oracle_rref(rows) if rows else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def sparse(rows):
    return [{j: Fraction(x) for j, x in enumerate(r) if x} for r in rows]


def dense(vec, ncols):
    return [vec.get(j, Fraction(0)) for j in range(ncols)]


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """Small rational matrices, mostly zeros, often of low rank."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(
        st.just(0), st.just(0), st.just(0),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        # repeat a combination of two rows, to lower the rank
        a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        k = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        rows.append([x + k * y for x, y in zip(rows[a], rows[b])])
    return rows


class TestSparseKernelAgainstDenseLoop:
    @settings(max_examples=150, deadline=None)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_rref_in_any_row_order(self, rows, rnd):
        ncols = len(rows[0])
        want, pivots = oracle_rref(rows)
        shuffled = sparse(rows)
        rnd.shuffle(shuffled)
        got, got_pivots = linalg.rref(shuffled)
        assert got_pivots == pivots
        assert [dense(r, ncols) for r in got] == want[: len(pivots)]
        assert all(0 not in r.values() for r in got)

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    def test_nullspace(self, rows):
        ncols = len(rows[0])
        got = linalg.nullspace(sparse(rows), ncols)
        assert [dense(v, ncols) for v in got] == oracle_nullspace(rows, ncols)
        assert all(list(v) == sorted(v) and 0 not in v.values() for v in got)

    @settings(max_examples=100, deadline=None)
    @given(matrices(max_rows=5, max_cols=5))
    def test_solve_and_invert_on_square_matrices(self, rows):
        n = len(rows[0])
        square = (rows + [[0] * n] * n)[:n]
        m, pivots = oracle_rref([r + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(square)])
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError):
                oracle_invert(square)
            return
        inverse = [r[n:] for r in m]
        assert oracle_invert(square) == inverse
        rhs = [Fraction(i + 1, 2) for i in range(n)]
        assert linalg.solve(square, rhs) == [sum(a * b for a, b in zip(r, rhs)) for r in inverse]

    def test_empty_system_leaves_every_column_free(self):
        assert linalg.rref([]) == ([], [])
        assert linalg.nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
        assert linalg.nullspace([{}, {1: Fraction(0)}], 2) == [{0: 1}, {1: 1}]

    def test_integer_entries_give_fractions(self):
        rows, pivots = linalg.rref([{0: 2, 1: 3}, {0: 4, 1: 5}])
        assert pivots == [0, 1] and rows == [{0: 1}, {1: 1}]
        assert all(type(x) is Fraction for r in rows for x in r.values())
        assert linalg.nullspace([{0: 2, 1: 3}], 2) == [{0: Fraction(-3, 2), 1: 1}]

    def test_refusals(self):
        with pytest.raises(ValueError, match="singular"):
            oracle_invert([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="inconsistent"):
            linalg.solve([[1, 2], [2, 4]], [1, 3])
        with pytest.raises(ValueError, match="underdetermined"):
            linalg.solve([[1, 2], [2, 4]], [1, 2])

    def test_large_sparse_system(self):
        # a random banded system with repeated rows: the kernel matches the
        # dense loop on a size where the rows are mostly zero
        rng = random.Random(5)
        ncols = 40
        rows = []
        for _ in range(120):
            c = rng.randrange(ncols)
            row = [0] * ncols
            for j in range(c, min(ncols, c + 3)):
                row[j] = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            rows.append(row)
        got = linalg.nullspace(sparse(rows), ncols)
        assert [dense(v, ncols) for v in got] == oracle_nullspace(rows, ncols)
