import random
from fractions import Fraction

from hypothesis import given, strategies as st

from mvlab.linalg import (
    common_denominator,
    cross_rows,
    det,
    dot,
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


@st.composite
def cross_cases(draw):
    """d-1 rows and a row y in R^d, d = 1..4, all-int or mixing Fractions."""
    d = draw(st.integers(min_value=1, max_value=4))
    small = st.integers(min_value=-9, max_value=9)
    entry = small if draw(st.booleans()) else st.one_of(frac, small)
    vec = st.lists(entry, min_size=d, max_size=d)
    return draw(st.lists(vec, min_size=d - 1, max_size=d - 1)), draw(vec)


@given(cross_cases())
def test_cross_rows_convention(case):
    """det(rows + [y]) == <cross_rows(rows), y> in every dimension."""
    rows, y = case
    n = cross_rows(rows)
    assert len(n) == len(y)
    assert det(rows + [y]) == dot(n, y)
    if len(rows) > 1:
        # dependent rows give the zero vector
        assert not any(cross_rows(rows[:-1] + [[2 * x for x in rows[0]]]))


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
    # an integer direction reduces as primitive reduces it
    v = (0, -4, 6, 0)
    assert primitive_from_rational(v) == (0, -2, 3, 0) == primitive(v)


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
    # mixed int, Fraction and (dyadic) float coordinates
    pts, s = scale_to_int([(1, Fraction(1, 3), 0.5), (-0.75, -2, Fraction(-5, 6))])
    assert s == 12 and pts == [(12, 4, 6), (-9, -24, -10)]
    assert all(type(x) is int for p in pts for x in p)
    assert scale_to_int([]) == ([], 1)
    # exact where a float product s * 0.1 would round: s = 3 * 2**55
    (row,), s = scale_to_int([(0.1, Fraction(1, 3))])
    assert Fraction(row[0], s) == Fraction(0.1) and Fraction(row[1], s) == Fraction(1, 3)
    assert common_denominator([(Fraction(1, 4), Fraction(3, 2))]) == 4


def _reference_rref(rows):
    """Plain Gauss-Jordan over Fractions with normalized pivots."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return pivots, [tuple(r) for r in mat[: len(pivots)]]


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** c * rows[0][c] * _cofactor_det([r[:c] + r[c + 1 :] for r in rows[1:]])
        for c in range(len(rows))
    )


@st.composite
def deficient_matrices(draw):
    """Integer or rational matrices, wide, tall or square, with zero rows,
    repeated rows and rows combined from others mixed in."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = frac if draw(st.booleans()) else st.integers(min_value=-5, max_value=5)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "combine"]))
        if kind == "zero" or (kind != "new" and not rows):
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(frac)
            rows.append([x + k * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@given(deficient_matrices())
def test_fraction_free_rank_rref_match_reference(rows):
    ref_pivots, ref_rows = _reference_rref(rows)
    assert rank(rows) == len(ref_pivots)
    pivots, got = rref(rows)
    assert pivots == ref_pivots
    assert got == ref_rows
    assert all(type(x) is Fraction for r in got for x in r)


def test_rank_rref_edge_shapes():
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rref([[0, 0], [0, 0]]) == ([], [])
    assert rref([]) == ([], [])
    assert rank([[1, 2, 3], [1, 2, 3], [2, 4, 6]]) == 1
    assert rank([[Fraction(1, 3)], [Fraction(2, 3)], [0]]) == 1
    assert rref([[0, Fraction(1, 2), 1], [0, 1, 2]]) == ([1], [(0, 1, 2)])


@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(frac, min_size=3, max_size=3))
def test_solve_matches_reference(a, b):
    pivots, rows = _reference_rref([row + [y] for row, y in zip(a, b)])
    got = solve(a, b)
    if pivots[:3] != [0, 1, 2]:
        assert got is None
    else:
        assert got == tuple(r[3] for r in rows)
        assert all(type(x) is Fraction for x in got)


@given(st.lists(st.lists(st.one_of(frac, st.integers(-9, 9)), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_4x4_closed_form(rows):
    assert det(rows) == _cofactor_det(rows)
