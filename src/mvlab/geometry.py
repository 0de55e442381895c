"""Exact polytope primitives over rational arithmetic.

Every quantity in this module is a Fraction or an integer; there are no
epsilon tolerances anywhere. Polytopes are immutable value objects carrying
their ambient dimension, affine-hull dimension, lexicographically sorted
extreme points as integer rows over one scale, and (for full-dimensional
ones) the facet structure and exact volume as integer numerators over
stored denominators, taken from the hull kernel as they are. The rows are a
body's identity: bodies compare, hash and sort by them at their least
scale. The Fraction vertices, facets and volume are views, each built only
when read; the gap and search code reads the integers.

Directions are integer vectors. A primitive integer normal z stands in for
the unit normal z/||z||; offsets and facet weights are stored in the
denominator-cleared form that makes all downstream formulas rational:
offset(z) = max <x, z> and normalized_volume = Vol_{n-1}(facet)/||z||.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, factorial, gcd, lcm

from .errors import (
    DegenerateInput,
    DimensionLimit,
    DimensionMismatch,
    EmptyIntersection,
    BadParams,
    Unbounded,
    ZeroVector,
)
from .hull import hull_int
from .linalg import (
    cross_rows,
    dot,
    primitive,
    primitive_from_rational,
    scale_to_int,
)

DIM_CAP = 4  # polarization cost is 2^n - 1 volumes; keep n small
_FACTORIAL = tuple(factorial(k) for k in range(DIM_CAP + 1))
_NO_FACETS = ((), 1, 1)  # facet_ints of a lower-dimensional body

@dataclass(frozen=True)
class Halfspace:
    """Constraint <x, normal> <= bound; negate both for a >= constraint."""

    normal: tuple[int, ...]
    bound: Fraction


@dataclass(frozen=True)
class FacetData:
    """One facet of a Polytope's facet view, built from the body's
    facet_ints on first read: offset = c / cd and normalized_volume =
    w / wd, always Fractions."""

    normal: tuple[int, ...]  # primitive, outward
    offset: Fraction  # facet lies in {<x, normal> = offset}
    vertices: tuple[int, ...]  # indices into the parent vertex list
    normalized_volume: Fraction  # Vol_{n-1}(facet) / ||normal||


class Polytope:
    """Immutable convex polytope; construct via convex_hull and friends.

    adim is the affine-hull dimension: adim == dim for full-dimensional
    bodies, lower for faces and projections, -1 for the empty polytope.
    volume is the ambient-dimension volume (0 whenever adim < dim).

    ints = (rows, s) is the exact encoding: the vertices as lex-sorted
    integer rows over one positive scale, so support values, faces, sums
    and projections run in integers. s need not be the least such scale.
    Equality, hashing and key() use (dim, rows, s) reduced by the gcd of s
    and every entry, computed once on first use: the facets and the volume
    are functions of the vertices.

    facet_ints = (frows, cd, wd) encodes the facets, sorted by normal: one
    row (normal, c, incidence, w) per facet, with offset c / cd and
    normalized volume w / wd, incidence indexing the vertex rows.
    volume_ints = (v, vd) encodes the volume v / vd. A hull at scale s
    takes the kernel's integers as they are, over cd = s, wd = (n-1)!·s^(n-1)
    and vd = n!·s^n (hull.hull_int); a lower-dimensional body has no facets
    (_NO_FACETS) and volume (0, 1). The denominators are stored, not derived
    from s: a translation changes s but keeps every weight and the volume.

    Polytope(dim, adim, ints, facet_ints, volume_ints) takes the three
    encodings as they are; every body is built from integers, by
    _from_int_points or _homothety. Its Fraction views are built on first
    read: the vertices as rows[i] / s, the facets as FacetData and the
    volume as v / vd.
    """

    __slots__ = ("dim", "adim", "ints", "facet_ints", "volume_ints",
                 "_vertices", "_facets", "_volume", "_key")

    def __init__(self, dim, adim, ints, facet_ints, volume_ints):
        init = object.__setattr__
        init(self, "dim", dim)
        init(self, "adim", adim)
        init(self, "ints", ints)
        init(self, "facet_ints", facet_ints)
        init(self, "volume_ints", volume_ints)
        init(self, "_vertices", None)
        init(self, "_facets", None)
        init(self, "_volume", None)
        init(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Polytope")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy the integers, not the views
        return Polytope, (self.dim, self.adim, self.ints, self.facet_ints,
                          self.volume_ints)

    @property
    def vertices(self):
        if self._vertices is None:
            rows, s = self.ints
            view = tuple(tuple(Fraction(c, s) for c in row) for row in rows)
            object.__setattr__(self, "_vertices", view)
        return self._vertices

    @property
    def facets(self):
        if self._facets is None:
            frows, cd, wd = self.facet_ints
            view = tuple(FacetData(z, Fraction(c, cd), inc, Fraction(w, wd))
                         for z, c, inc, w in frows)
            object.__setattr__(self, "_facets", view)
        return self._facets

    @property
    def volume(self):
        if self._volume is None:
            object.__setattr__(self, "_volume", Fraction(*self.volume_ints))
        return self._volume

    def key(self):
        if self._key is None:
            rows, s = self.ints
            g = gcd(s, *chain.from_iterable(rows))
            if g > 1:
                rows = tuple(tuple(c // g for c in row) for row in rows)
                s //= g
            object.__setattr__(self, "_key", (self.dim, rows, s))
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Polytope(dim={self.dim}, adim={self.adim}, nverts={len(self.ints[0])})"

    @property
    def is_empty(self):
        return self.adim < 0

    @property
    def is_full_dimensional(self):
        return self.adim == self.dim


def _as_point(p, dim) -> tuple:
    """p as a tuple of exact coordinates: int and Fraction pass through,
    anything else goes through Fraction()."""
    q = tuple(c if type(c) is int or type(c) is Fraction else Fraction(c) for c in p)
    if len(q) != dim:
        raise DimensionMismatch(f"point of length {len(q)}, expected {dim}")
    return q


def empty_polytope(dim: int) -> Polytope:
    return Polytope(dim, -1, ((), 1), _NO_FACETS, (0, 1))


def _from_points(points, dim: int) -> Polytope:
    """Hull of exact rational points, of any affine dimension. Clears
    denominators once and hands over to _from_int_points."""
    rows, s = scale_to_int(points)
    return _from_int_points(rows, s, dim)


def _from_int_points(rows, s: int, dim: int) -> Polytope:
    """Hull of the nonempty point set rows[i] / s, for integer rows and
    s > 0, built in integers by hull_int, which also finds its affine
    dimension; the body keeps its vertex rows at scale s, and the kernel's
    offsets, weight numerators and volume numerator over s, (dim-1)!·s^(dim-1)
    and dim!·s^dim. At a positive scale, integer rows sort in the lex order
    of the points."""
    hd = hull_int(rows, dim)
    verts = tuple(hd.points[i] for i in hd.vertex_indices)
    if hd.adim < dim:
        return Polytope(dim, hd.adim, (verts, s), _NO_FACETS, (0, 1))
    position = {i: k for k, i in enumerate(hd.vertex_indices)}
    frows = tuple(
        (hf.normal, hf.offset, tuple(position[i] for i in hf.vertices), hf.weight)
        for hf in hd.facets
    )
    wd = _FACTORIAL[dim - 1] * s ** (dim - 1)
    return Polytope(dim, dim, (verts, s), (frows, s, wd),
                    (hd.volume, _FACTORIAL[dim] * s**dim))


def convex_hull(points, dim: int, allow_lower: bool = False) -> Polytope:
    """Convex hull of rational points in R^dim.

    Raises DegenerateInput when the points do not affinely span R^dim,
    unless allow_lower is set, in which case the lower-dimensional hull is
    returned as a first-class value.
    """
    if dim < 1 or dim > DIM_CAP:
        raise DimensionLimit(f"ambient dimension {dim} outside 1..{DIM_CAP}")
    pts = [_as_point(p, dim) for p in points]
    if not pts:
        raise DegenerateInput("no points given")
    poly = _from_points(pts, dim)
    if not allow_lower and poly.adim < dim:
        raise DegenerateInput(
            f"points span affine dimension {poly.adim}, expected {dim}"
        )
    return poly


def vertex_enumeration(halfspaces, dim: int) -> Polytope:
    """Bounded intersection of halfspaces, by brute force over n-subsets.

    Each normal is scaled to a primitive integer vector, and its bound by
    the same positive factor. The bounds are cleared once over a common
    denominator D, so every n-subset is solved by Cramer's rule in
    integers: with C_j the cofactor vector of row j (orthogonal to the
    other rows, <C_j, a_j> = det), det·D·x = X = sum_j D·b_j·C_j. The point
    is feasible iff <z, X> <= D·b_z·det for every constraint (det > 0), and
    only feasible points become Fractions.

    Guard: at most C(128, 2) = 8,128 n-subsets of the input, checked
    before any work: 128 halfspaces in R^2, 37 in R^3 and 22 in R^4.
    """
    if dim < 1 or dim > DIM_CAP:
        raise DimensionLimit(f"ambient dimension {dim} outside 1..{DIM_CAP}")
    if comb(len(halfspaces), dim) > comb(128, 2):
        raise BadParams(f"{len(halfspaces)} halfspaces make more than 8128 {dim}-subsets")
    tight: dict[tuple[int, ...], Fraction] = {}
    for h in halfspaces:
        z = h.normal
        if not any(z):
            raise ZeroVector("halfspace with zero normal")
        if len(z) != dim:
            raise DimensionMismatch("halfspace normal length mismatch")
        u = primitive_from_rational(z)
        k = next(k for k, c in enumerate(z) if c)
        b = Fraction(h.bound) * u[k] / Fraction(z[k])  # u = z·(u[k]/z[k]), a positive factor
        if u not in tight or b < tight[u]:
            tight[u] = b
    normals = sorted(tight)

    if not _origin_interior(normals, dim):
        raise Unbounded("constraint normals do not positively span R^n")

    D = lcm(*(b.denominator for b in tight.values()))
    bound = {z: b.numerator * (D // b.denominator) for z, b in tight.items()}
    # cross_rows once per (dim-1)-subset: <cross[a without j], a_j> is
    # det(a) with row j moved last, dim-1-j row swaps away, so the cofactor
    # of row j is (-1)^(dim-1-j) cross[a without j]
    cross = {a: cross_rows(a) for a in combinations(normals, dim - 1)}
    sign = [(-1) ** (dim - 1 - j) for j in range(dim)]
    candidates = set()
    for a in combinations(normals, dim):
        det = dot(cross[a[:-1]], a[-1])
        if det == 0:
            continue
        cof = [cross[a[:j] + a[j + 1 :]] for j in range(dim)]
        sb = [e * bound[z] for e, z in zip(sign, a)]
        X = [dot(sb, col) for col in zip(*cof)]
        if det < 0:
            det, X = -det, [-c for c in X]
        if all(dot(z, X) <= bz * det for z, bz in bound.items()):
            candidates.add(tuple(Fraction(c, det * D) for c in X))
    if not candidates:
        raise EmptyIntersection("halfspace intersection is empty")
    return _from_points(candidates, dim)


def _origin_interior(normals, dim) -> bool:
    """True iff 0 is interior to conv(normals); equivalent to boundedness
    of the intersection of the halfspaces <x, normal> <= bound."""
    if not normals:
        return False
    hd = hull_int(normals, dim)
    return hd.adim == dim and all(f.offset > 0 for f in hd.facets)


def facet_structure(P: Polytope):
    if not P.is_full_dimensional:
        raise DegenerateInput("facet structure requires a full-dimensional polytope")
    return P.facets


def _support_rows(P: Polytope, z):
    """(<rows_i, z> for each vertex row of P, its scale s), z checked."""
    z = tuple(z)
    if len(z) != P.dim:
        raise DimensionMismatch(f"direction of length {len(z)}, expected {P.dim}")
    if not any(z):
        raise ZeroVector("support direction is zero")
    if P.is_empty:
        raise DegenerateInput("support of the empty polytope")
    if not all(type(c) is int for c in z):  # a float z made exact, ties too
        z = tuple(map(Fraction, z))
    rows, s = P.ints
    return [dot(z, row) for row in rows], s


def support_value(P: Polytope, z) -> Fraction:
    """max <x, z> over P, for a direction z of length P.dim (denominator-
    cleared support function: equals ||z|| times the unit-normal support
    value). One max over the vertex rows, in integers for an integer z."""
    vals, s = _support_rows(P, z)
    return Fraction(max(vals), s)


def face_in_direction(P: Polytope, z) -> Polytope:
    """The face P ∩ {<x,z> = max}, as a (usually lower-dimensional) value."""
    vals, s = _support_rows(P, z)
    h = max(vals)
    tied = [row for row, val in zip(P.ints[0], vals) if val == h]
    return _from_int_points(tied, s, P.dim)


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    """P + Q: the hull of the pairwise sums of their vertex rows at lcm(sp, sq)."""
    if P.dim != Q.dim:
        raise DimensionMismatch(f"dim {P.dim} vs {Q.dim}")
    if P.is_empty or Q.is_empty:
        return empty_polytope(P.dim)
    (rp, sp), (rq, sq) = P.ints, Q.ints
    s = lcm(sp, sq)
    a, b = s // sp, s // sq
    pts = {
        tuple(a * x + b * y for x, y in zip(p, q))
        for p in rp
        for q in rq
    }
    return _from_int_points(pts, s, P.dim)


def _homothety(P: Polytope, lam: Fraction, x) -> Polytope:
    """The image of P under y -> lam·y + x, for rational lam > 0 and an
    exact point x, in integers and with no hull; lam > 0 keeps the lex
    order, so the facet incidence stays. With lam = num/den and x = X/t, a
    row r over s maps to num·r/(s·den) + X/t and an offset c over cd to
    num·c/(cd·den) + <z, X>/t, each over the lcm of its two denominators;
    the weights scale by lam^(n-1) and the volume by lam^n."""
    num, den = lam.numerator, lam.denominator
    (X,), t = scale_to_int([x])
    rows, s = P.ints
    S = lcm(s * den, t)
    a, b = num * (S // (s * den)), S // t
    ints = (tuple(tuple(a * c + b * y for c, y in zip(row, X)) for row in rows), S)
    facet_ints, volume_ints = P.facet_ints, P.volume_ints
    if P.is_full_dimensional:
        n = P.dim
        frows, cd, wd = facet_ints
        T = lcm(cd * den, t)
        a, b, wn = num * (T // (cd * den)), T // t, num ** (n - 1)
        frows = tuple((z, a * c + b * dot(z, X), inc, wn * w) for z, c, inc, w in frows)
        facet_ints = (frows, T, wd * den ** (n - 1))
        v, vd = volume_ints
        volume_ints = (v * num**n, vd * den**n)
    return Polytope(P.dim, P.adim, ints, facet_ints, volume_ints)


def translate(P: Polytope, x) -> Polytope:
    """P moved by x, with no hull (_homothety at lam = 1)."""
    return _homothety(P, Fraction(1), _as_point(x, P.dim))


def dilate(P: Polytope, lam) -> Polytope:
    """Scale about the origin by a rational lam >= 0, with no hull."""
    lam = Fraction(lam)
    if lam < 0:
        raise BadParams("dilation factor must be nonnegative")
    if P.is_empty:
        return P
    if lam == 0:
        return Polytope(P.dim, 0, (((0,) * P.dim,), 1), _NO_FACETS, (0, 1))
    return _homothety(P, lam, (0,) * P.dim)


def clip_halfspace(P: Polytope, h: Halfspace) -> Polytope:
    """Exact intersection P ∩ h; may be empty or lower-dimensional.

    Its vertices are P's vertices in h and the crossings of the bounding
    hyperplane with the segments from a vertex strictly below it to one
    strictly above. For full-dimensional P only P's edges
    (vertex_adjacency) are crossed. A lower-dimensional P carries no facet
    incidence, so every such chord is crossed: each lies in P, so its
    crossing is in the clip, and the hull drops the interior ones. The
    sides are integer signs on P's rows, and only the kept rows and the
    crossings become Fraction points. A P inside h takes the same path and
    comes back as an equal body; an empty P comes back as itself.
    """
    z, b = h.normal, h.bound
    if len(z) != P.dim:
        raise DimensionMismatch("halfspace normal length mismatch")
    if not any(z):
        raise ZeroVector("halfspace with zero normal")
    if P.is_empty:
        return P
    if not all(type(c) is int for c in z):  # <x, t·z> <= t·b, t·z integer
        (z,), t = scale_to_int([z])
        b = Fraction(b) * t
    rows, s = P.ints
    bs = Fraction(b) * s
    # w[i] > 0 iff row i / s is beyond the hyperplane: <row_i, z> > b·s
    w = [bs.denominator * dot(z, row) - bs.numerator for row in rows]
    pts = {tuple(Fraction(c, s) for c in row) for row, x in zip(rows, w) if x <= 0}
    if not pts:
        return empty_polytope(P.dim)
    if P.is_full_dimensional:
        pairs = vertex_adjacency(P)
    else:
        pairs = combinations(range(len(rows)), 2)
    for i, j in pairs:
        if w[i] * w[j] < 0:
            # the crossing is (w[j]·row_i - w[i]·row_j) / ((w[j] - w[i])·s)
            den = (w[j] - w[i]) * s
            pts.add(tuple(Fraction(w[j] * a - w[i] * c, den)
                          for a, c in zip(rows[i], rows[j])))
    return _from_points(pts, P.dim)


def project_along(P: Polytope, v):
    """Project P along v onto the coordinate hyperplane {x_k = 0}, where k
    is the first nonzero coordinate of v.

    Each vertex x maps to x - (x_k/v_k)·v, and coordinate k is dropped.
    Returns (projection, |v_k|). By Cavalieri, vol_n(K + s·[0,v]) =
    vol_n(K) + s·|v_k|·vol_{n-1}(QK) for this oblique projection Q, so
    |v_k|·vol_{n-1}(QK) is the orthogonal projection's volume times ||v||,
    with no square root. The map is unchanged when v is scaled, so it runs
    on the primitive integer direction u of v: a vertex row x at scale s
    maps to the row (x_j·u_k - x_k·u_j)_{j != k} at scale s·|u_k|. Along an
    axis e_k (u_k = ±1) that deletes coordinate k. An integer v is reduced
    to u directly; any other v is first made exact as `Fraction`s.
    """
    if P.is_empty:
        raise DegenerateInput("projection of the empty polytope")
    v = tuple(v)
    n = P.dim
    if len(v) != n:
        raise DimensionMismatch("direction length mismatch")
    if all(type(c) is int for c in v):
        u = primitive(v)
    else:
        v = tuple(Fraction(c) for c in v)
        u = primitive_from_rational(v)
    k = next((i for i, c in enumerate(u) if c), None)
    if k is None:
        raise ZeroVector("projection direction is zero")
    sign = 1 if u[k] > 0 else -1
    coef = [(j, sign * u[k], sign * u[j]) for j in range(n) if j != k]
    rows, s = P.ints
    pts = [tuple(x[j] * a - x[k] * b for j, a, b in coef) for x in rows]
    return _from_int_points(pts, s * abs(u[k]), n - 1), Fraction(abs(v[k]))


def interior_point(P: Polytope) -> tuple[Fraction, ...]:
    """Vertex centroid; interior for full-dimensional P, relative interior
    otherwise."""
    if P.is_empty:
        raise DegenerateInput("interior point of the empty polytope")
    rows, s = P.ints
    m = len(rows) * s
    return tuple(Fraction(sum(col), m) for col in zip(*rows))


def contains_point(P: Polytope, x) -> bool:
    x = _as_point(x, P.dim)
    if P.is_empty:
        return False
    if P.is_full_dimensional:
        # <z, x> <= c / cd at x = X / t, in integers
        (X,), t = scale_to_int([x])
        frows, cd, _ = P.facet_ints
        return all(dot(z, X) * cd <= c * t for z, c, _, _ in frows)
    # lower-dimensional: x must lie in the affine hull and inside the hull
    # there; test by rebuilding the hull with x adjoined
    return _from_points(list(P.vertices) + [x], P.dim) == P


def vertex_adjacency(P: Polytope):
    """Edges of a full-dimensional polytope: the vertex pairs on at least
    n-1 common facets, as index pairs (i, j), i < j, in lex order.

    The facets through two vertices are those through the smallest face F
    that holds both. An edge lies on at least n-1 facets. For n <= 4
    (DIM_CAP) a larger F lies on fewer: P itself on none, a facet on one,
    and a face of dimension n-2 on exactly two (Ziegler, *Lectures on
    Polytopes*, section 2.3), fewer than n-1 = 3 at n = 4.
    """
    if not P.is_full_dimensional:
        raise DegenerateInput("adjacency requires a full-dimensional polytope")
    if P.dim == 1:  # the one edge is P, which lies on no facet
        return ((0, 1),)
    common = Counter(
        pair for _, _, inc, _ in P.facet_ints[0] for pair in combinations(sorted(inc), 2)
    )
    return tuple(sorted(pair for pair, k in common.items() if k >= P.dim - 1))
