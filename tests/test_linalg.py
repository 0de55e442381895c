import random
from fractions import Fraction

from hypothesis import given, strategies as st

from mvlab.linalg import (
    common_denominator,
    cross_rows,
    det,
    dot,
    perfect_nth_root,
    primitive,
    primitive_from_rational,
    rank,
    rref,
    scale_to_int,
    solve,
)

frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_det_small():
    assert det([[5]]) == 5
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 1], [1, 1]]) == 0


def test_det_4x4_and_5x5():
    # Vandermonde on 0,1,2,3: product of pairwise differences
    rows = [[x**k for k in range(4)] for x in range(4)]
    assert det(rows) == 12
    rows5 = [[x**k for k in range(5)] for x in range(5)]
    assert det(rows5) == 288


def test_det_row_swap_sign():
    rows = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    swapped = [rows[1], rows[0], rows[2]]
    assert det(swapped) == -det(rows)


@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=2, max_size=2),
       st.lists(frac, min_size=3, max_size=3))
def test_cross_rows_convention(rows, y):
    """det(rows + [y]) == <cross_rows(rows), y> in every dimension."""
    n = cross_rows(rows)
    assert det(rows + [y]) == dot(n, y)


def test_cross_rows_2d():
    assert cross_rows([[3, 4]]) in [(-4, 3), (Fraction(-4), Fraction(3))]


def test_primitive():
    assert primitive((4, -6, 8)) == (2, -3, 4)
    assert primitive((0, 5)) == (0, 1)
    assert primitive((-3,)) == (-1,)


def test_primitive_from_rational():
    got = primitive_from_rational((Fraction(2, 3), Fraction(-4, 5)))
    assert got == (5, -6)
    assert primitive_from_rational((Fraction(1, 2), Fraction(0))) == (1, 0)


def test_rank_rref():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    pivots, rows = rref([[0, 2, 4], [1, 1, 1]])
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1


def test_solve_exact():
    rng = random.Random("solve")
    for _ in range(25):
        n = rng.randrange(1, 5)
        a = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(n)]
        if det(a) == 0:
            # consistent right-hand side (x = all ones), still no unique solution
            assert solve(a, [sum(row) for row in a]) is None
            assert rank(a) < n
            continue
        assert rank(a) == n
        x = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(n)]
        b = [dot(row, x) for row in a]
        assert list(solve(a, b)) == x


def test_solve_singular():
    assert solve([[1, 1], [2, 2]], [1, 2]) is None
    assert solve([[0, 0], [0, 0]], [0, 0]) is None


def test_scale_to_int():
    pts, s = scale_to_int([(Fraction(1, 2), Fraction(1, 3))])
    assert s == 6 and pts == [(3, 2)]
    assert common_denominator([(Fraction(1, 4), Fraction(3, 2))]) == 4


def test_perfect_nth_root_small():
    assert perfect_nth_root(Fraction(9, 4), 2) == Fraction(3, 2)
    assert perfect_nth_root(Fraction(27), 3) == 3
    assert perfect_nth_root(Fraction(2), 2) is None
    assert perfect_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)


def test_perfect_nth_root_large():
    # float-based rounding breaks far below this size; the exact Newton
    # iteration must not
    big = 10**150 + 7
    assert perfect_nth_root(Fraction(big * big), 2) == big
    assert perfect_nth_root(Fraction(big**3), 3) == big
    assert perfect_nth_root(Fraction(big * big + 1), 2) is None


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=2, max_value=4))
def test_perfect_nth_root_roundtrip(m, k):
    assert perfect_nth_root(Fraction(m**k), k) == m
