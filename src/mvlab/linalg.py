"""Exact linear algebra over integers and fractions.

Everything here is tuned for the tiny dense systems this package needs.
Determinants up to 3x3, which is all cross_rows needs for the hull
engine's normals in R^4, are expanded explicitly; larger ones fall back to
cofactor expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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
        sub = [tuple(r[c] for c in range(n) if c != col) for r in rest]
        total += sign * rows[0][col] * det(sub)
        sign = -sign
    return total


def cross_rows(rows):
    """Normal vector N of the hyperplane spanned by d-1 row vectors in R^d.

    Satisfies det(rows + [y]) == dot(N, y) for every row y. Returns the
    zero vector when the rows are linearly dependent.
    """
    d = len(rows) + 1
    out = []
    for k in range(d):
        sub = [tuple(r[c] for c in range(d) if c != k) for r in rows]
        minor = det(sub) if sub else 1
        out.append(minor if (d - 1 + k) % 2 == 0 else -minor)
    return tuple(out)


def gcd_vec(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Scale an integer vector to coprime coordinates, keeping direction."""
    g = gcd_vec(v)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)


def primitive_from_rational(v):
    """Primitive integer vector with the same direction as a rational vector."""
    denoms = [Fraction(x).denominator for x in v]
    m = 1
    for d in denoms:
        m = m * d // gcd(m, d)
    ints = [int(x * m) for x in v]
    return primitive(ints)


def _eliminate(rows, ncols) -> tuple[list[int], list[list[int]]]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination over the first
    ncols columns, after scaling each row to coprime integers, which keeps
    the row space and keeps differences of denominator-cleared points small.
    Returns (pivots, rows): row i leads in column pivots[i], every other
    pivot column is zero in it, and all pivot entries are equal. Each entry
    stays a minor of the scaled matrix, so every division is exact."""
    mat = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        mat.append(list(primitive([x.numerator * (m // x.denominator) for x in row])))
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
    s = common_denominator(points)
    return [tuple(int(x * s) for x in p) for p in points], s


def perfect_nth_root(x: Fraction, k: int):
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    if k == 1:
        return x
    num, den = x.numerator, x.denominator

    def iroot(m: int) -> int | None:
        if m == 0:
            return 0
        if k == 2:
            r = isqrt(m)
            return r if r * r == m else None
        # integer Newton for the floor k-th root; exact at any size
        r = 1 << -(-m.bit_length() // k)
        while True:
            y = ((k - 1) * r + m // r ** (k - 1)) // k
            if y >= r:
                break
            r = y
        return r if r**k == m else None

    rn, rd = iroot(num), iroot(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)
