"""Exact linear algebra over integers and fractions.

Everything here is tuned for the tiny dense systems this package needs.
cross_rows has closed forms up to R^4 (DIM_CAP), the hull engine's normals;
det expands up to 3x3 explicitly and larger ones by cofactors. Gaussian
elimination is fraction-free, and runs on integer rows without any
denominator bookkeeping. The gcd of a vector v is math.gcd(*v).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub


def dot(a, b):
    return sum(map(mul, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def det(rows) -> int | Fraction:
    """Determinant of a small square matrix, exact."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # cofactor expansion along the first row
    total = 0
    sign = 1
    rest = rows[1:]
    for col in range(n):
        minor = [tuple(r[c] for c in range(n) if c != col) for r in rest]
        total += sign * rows[0][col] * det(minor)
        sign = -sign
    return total


def cross_rows(rows):
    """Normal vector N of the hyperplane spanned by d-1 row vectors in R^d,
    d <= 4, in closed form.

    Satisfies det(rows + [y]) == dot(N, y) for every row y. Returns the
    zero vector when the rows are linearly dependent.
    """
    if not rows:
        return (1,)
    if len(rows) == 1:
        [(a0, a1)] = rows
        return (-a1, a0)
    if len(rows) == 2:
        (a0, a1, a2), (b0, b1, b2) = rows
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
    # the six 2x2 minors of the last two rows, shared by the four 3x3 ones
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return (
        a2 * m13 - a1 * m23 - a3 * m12,
        a0 * m23 - a2 * m03 + a3 * m02,
        a1 * m03 - a0 * m13 - a3 * m01,
        a0 * m12 - a1 * m02 + a2 * m01,
    )


def primitive(v):
    """Scale an integer vector to coprime coordinates, keeping direction."""
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def primitive_from_rational(v):
    """Primitive integer vector with the same direction as a rational vector."""
    (row,), _ = scale_to_int([v])
    return primitive(row)


def _eliminate(rows, ncols) -> tuple[list[int], list[list[int]]]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination over the first
    ncols columns, after scaling each row to coprime integers, which keeps
    the row space and keeps differences of denominator-cleared points small
    (integer rows skip the denominators). Returns (pivots, rows): row i
    leads in column pivots[i], every other pivot column is zero in it, and
    all pivot entries are equal. Each entry stays a minor of the scaled
    matrix, so every division is exact."""
    mat = []
    for row in rows:
        if not all(type(x) is int for x in row):
            m = lcm(*(x.denominator for x in row))
            row = [x.numerator * (m // x.denominator) for x in row]
        mat.append(list(primitive(row)))
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        row = mat[r]
        p = row[c]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(mat[i], row)]
        prev = p
        pivots.append(c)
        if r + 1 == len(mat):
            break
    return pivots, mat


def rank(rows) -> int:
    """Exact rank of an integer or rational matrix."""
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[0])


def rref(rows):
    """Reduced row echelon form. Returns (pivot column indices, rows)."""
    if not rows:
        return [], []
    pivots, mat = _eliminate(rows, len(rows[0]))
    return pivots, [tuple(Fraction(a, r[c]) for a in r) for r, c in zip(mat, pivots)]


def solve(a_rows, b):
    """Solve a square rational system exactly; None when singular."""
    n = len(a_rows)
    pivots, mat = _eliminate([list(row) + [b[i]] for i, row in enumerate(a_rows)], n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(mat))


def common_denominator(points) -> int:
    return lcm(*(Fraction(x).denominator for p in points for x in p))


def scale_to_int(points):
    """Clear denominators: returns (integer point tuples, scale s) with p_int = s*p."""
    try:
        s = lcm(*(x.denominator for p in points for x in p))
    except AttributeError:  # floats and other numbers that are not Rational
        points = [tuple(map(Fraction, p)) for p in points]
        s = common_denominator(points)
    return [tuple(x.numerator * (s // x.denominator) for x in p) for p in points], s
