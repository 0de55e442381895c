"""Mixed volumes by two independent exact algorithms, plus area measures.

The polarization evaluator expands n!·V(K_1,...,K_n) by inclusion-exclusion
over the n slots: sum over nonempty slot subsets S of (-1)^(n-|S|) times the
volume of the Minkowski sum over S; a subset whose affine dimensions add
up to less than n has a flat sum and is skipped. Repeated slots are summed
as dilates (K + K = 2K for convex K). Each sorted body tuple's sum is built
on its prefix's and kept in a bounded LRU cache, emptied by clear_caches,
so a subset shared by several sums is usually summed once.

The measure path represents V(L, K_1,...,K_{n-1}) = (1/n) sum of
h_L(z) * w(z) over the atoms of the mixed area measure of (K_1,...,K_{n-1});
atom weights are (n-1)-dimensional mixed volumes of faces, projected along
a coordinate axis; a normal at which some face is a point is skipped. Both
skips drop only terms that are 0 by a dimension count (Schneider, Convex
Bodies, 2nd ed., Thm 5.1.8), so the paths stay independent oracles.

A segment slot is taken by one rational projection (Schneider, Convex
Bodies, 2nd ed., section 5.1): with k the first nonzero coordinate of v and
Q the oblique projection x -> x - (x_k/v_k)·v onto {x_k = 0}, Cavalieri
gives vol_n(K + s·[0,v]) = vol_n(K) + s·|v_k|·vol_{n-1}(QK), and polarizing
gives V([0,v], K_2,...,K_n) = (|v_k|/n)·V(QK_2,...,QK_n).

The gap and search code in bezout.py uses a third, private evaluator that
takes exact shortcuts (equal slots, the first-variation sum over a body's
own facets, projection along a segment slot, and Minkowski's polynomial in
s for V(L, M, K[n-2]), whose values at s = 1, 2, ... are first-variation
sums over M + sK) and falls back to polarization; see _mixed_volume_fast.
Each first-variation sum runs in integers, on L's vertex rows and the
numerators of K's facet weights over their stored common denominator, and
makes one Fraction. Polarization likewise sums the bodies' volume
numerators over one common denominator, so neither evaluator builds a
body's Fraction facets or volume.

Weight convention: a stored atom weight w(z) at a primitive integer normal
z encodes true-measure(z/||z||) = w(z)·||z||, which keeps every stored value
rational. Support values are likewise denominator-cleared: h(z) = max<x,z>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm

from .errors import (
    BadArity,
    BadParams,
    DegenerateInput,
    DimensionLimit,
    DimensionMismatch,
    ZeroVector,
)
from .geometry import (
    DIM_CAP,
    Polytope,
    _support_rows,
    dilate,
    face_in_direction,
    facet_structure,
    minkowski_sum,
    project_along,
    support_value,
)
from .linalg import _eliminate, cross_rows, dot, primitive, solve, vsub


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many atoms on primitive integer normals; weights positive."""

    dim: int
    atoms: tuple[tuple[tuple[int, ...], Fraction], ...]  # sorted by normal

    def weight(self, z) -> Fraction:
        z = tuple(z)
        for normal, w in self.atoms:
            if normal == z:
                return w
        return Fraction(0)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(normal for normal, _ in self.atoms)

    def scaled(self, lam: Fraction) -> "DiscreteMeasure":
        """lam times this measure, for a rational lam >= 0."""
        lam = Fraction(lam)
        if lam < 0:
            raise BadParams("measure scale factor must be nonnegative")
        if lam == 0:
            return DiscreteMeasure(self.dim, ())
        return DiscreteMeasure(
            self.dim, tuple((z, w * lam) for z, w in self.atoms)
        )

    def as_dict(self):
        return dict(self.atoms)


def _make_measure(dim, weights: dict) -> DiscreteMeasure:
    atoms = tuple(sorted((z, w) for z, w in weights.items() if w != 0))
    return DiscreteMeasure(dim, atoms)


def _checked(bodies, missing: int):
    """The bodies as a list, checked to be n - missing nonempty Polytopes in
    one R^n with n <= DIM_CAP; returns (bodies, n)."""
    bodies = list(bodies)
    if not bodies:
        raise BadArity("empty body tuple")
    if not all(isinstance(b, Polytope) for b in bodies):
        raise DegenerateInput("inputs must be Polytope values")
    n = bodies[0].dim
    if n > DIM_CAP:
        raise DimensionLimit(f"ambient dimension {n} exceeds {DIM_CAP}")
    if len(bodies) != n - missing:
        raise BadArity(f"expected {n - missing} bodies, got {len(bodies)}")
    for b in bodies:
        if b.dim != n:
            raise DimensionMismatch(f"body of dimension {b.dim}, expected {n}")
        if b.is_empty:
            raise DegenerateInput("mixed volume of an empty polytope")
    return bodies, n


@lru_cache(maxsize=256)
def _subset_sum(bodies: tuple) -> Polytope:
    """Minkowski sum of a tuple of bodies sorted by key: the sum of the
    prefix, itself a cached sorted tuple, plus the trailing run of equal
    bodies folded as one dilate."""
    last = bodies[-1]
    k = bodies.index(last)  # sorted: bodies[k:] are the copies of last
    copies = len(bodies) - k
    part = dilate(last, copies) if copies > 1 else last
    return minkowski_sum(_subset_sum(bodies[:k]), part) if k else part


def clear_caches():
    """Empty every process-global cache of the package (there is one)."""
    _subset_sum.cache_clear()


def mixed_volume(bodies) -> Fraction:
    """Exact mixed volume of n bodies in R^n (repetitions allowed); a subset
    whose affine dimensions add up to less than n has a flat sum (dim(A + B)
    <= dim A + dim B), so its volume 0 is not computed."""
    bodies, n = _checked(bodies, 0)
    # sorted once, every index-ordered subset is a sorted tuple
    bodies.sort(key=Polytope.key)
    terms = []  # (signed volume numerator, its denominator)
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for subset in combinations(bodies, size):
            if sum(b.adim for b in subset) >= n:
                v, vd = _subset_sum(subset).volume_ints
                terms.append((sign * v, vd))
    D = lcm(*(vd for _, vd in terms))
    return Fraction(sum(v * (D // vd) for v, vd in terms), D * factorial(n))


def _mixed_volume_fast(bodies) -> Fraction:
    """mixed_volume(bodies), through the first exact shortcut that applies
    (Schneider, Convex Bodies, 2nd ed., section 5.1):

    - all slots equal: V(K,...,K) = vol K;
    - n-1 copies of a full-dimensional K: the first-variation formula
      V(L,K[n-1]) = (1/n)·sum over K's facets of h_L(z)·w(z);
    - a segment slot: projection along it, recursing in dimension n-1;
    - n-2 copies of a full-dimensional K beside L and M: Minkowski's
      polynomial V(L,(M+sK)[n-1]) = sum over j of
      C(n-1,j)·s^(n-1-j)·V(L,M[j],K[n-1-j]), whose values are
      first-variation sums over M + sK and whose j = 1 coefficient is
      solved for exactly (see _minkowski_coefficient);
    - otherwise polarization.

    A point slot needs no shortcut: every path gives exactly 0, a
    first-variation sum by Minkowski's relation (sum of w(z)·z over K's
    facets is 0) and polarization because a translate keeps the volume.

    Only the gap and search code uses it; public mixed_volume stays the
    polarization oracle.
    """
    bodies, n = _checked(bodies, 0)
    first = bodies[0]
    if all(b == first for b in bodies):
        return Fraction(*first.volume_ints)
    for K in bodies:
        if K.is_full_dimensional and sum(b == K for b in bodies) == n - 1:
            return _first_variation(next(b for b in bodies if b != K), K)
    for i, S in enumerate(bodies):
        if S.adim == 1:
            # V([a, b]/s, rest) = V([0, b - a], rest)/s
            (a, b), s = S.ints
            rest = bodies[:i] + bodies[i + 1 :]
            return _project_segment_slot(vsub(b, a), rest, _mixed_volume_fast) / s
    for K in bodies:
        if K.is_full_dimensional and sum(b == K for b in bodies) == n - 2:
            L, M = (b for b in bodies if b != K)
            if not M.is_full_dimensional:
                L, M = M, L
            return _minkowski_coefficient(L, M, K)
    return mixed_volume(bodies)


def _first_variation(L: Polytope, K: Polytope) -> Fraction:
    """V(L,K[n-1]) = (1/n)·sum of h_L(z)·w(z) over the facets of a
    full-dimensional K, summed in integers: with (rows, s) = L.ints,
    h_L(z) = max<z, row>/s, and w(z) = w/wd for K's weight numerators w
    over their common denominator wd (Polytope.facet_ints). So the value is
    one Fraction, sum of max<z, row>·w, over s·wd·n."""
    rows, s = L.ints
    frows, _, wd = K.facet_ints
    total = 0
    for z, _, _, w in frows:
        total += max(dot(z, row) for row in rows) * w
    return Fraction(total, s * wd * K.dim)


def _minkowski_coefficient(L: Polytope, M: Polytope, K: Polytope) -> Fraction:
    """V(L,M,K[n-2]) for a full-dimensional K, by Minkowski's polynomial
    theorem (Schneider, Convex Bodies, 2nd ed., section 5.1):

        f(s) = V(L,(M+sK)[n-1])
             = sum over j of C(n-1,j)·s^(n-1-j)·V(L,M[j],K[n-1-j]).

    The s^(n-1) coefficient V(L,K[n-1]) is a first-variation sum over K,
    and so is the constant V(L,M[n-1]) over M when M is full-dimensional.
    The unknown coefficients y_j = C(n-1,j)·V(L,M[j],K[n-1-j]) solve
    f(s) - s^(n-1)·V(L,K[n-1]) - V(L,M[n-1]) = sum of s^(n-1-j)·y_j at
    s = 1, 2, ..., one value of s per unknown (V(L,M[n-1]) is one of them
    when M is not full-dimensional). Each f(s) is a first-variation sum
    over the full-dimensional M + sK, and the matrix s^e, for consecutive
    exponents e, is a nonsingular scaled Vandermonde matrix. The answer is
    y_1/(n-1).
    """
    n = K.dim
    full = M.is_full_dimensional
    lead = _first_variation(L, K)
    const = _first_variation(L, M) if full else 0
    unknown = range(1, n - 1 if full else n)
    rows, rhs = [], []
    for s in range(1, len(unknown) + 1):
        f = _first_variation(L, minkowski_sum(M, dilate(K, s)))
        rows.append([s ** (n - 1 - j) for j in unknown])
        rhs.append(f - lead * s ** (n - 1) - const)
    return solve(rows, rhs)[0] / (n - 1)


def surface_area_measure(P: Polytope) -> DiscreteMeasure:
    """Atoms at facet normals; weight = normalized facet volume."""
    facets = facet_structure(P)
    return _make_measure(
        P.dim, {f.normal: f.normalized_volume for f in facets}
    )


def _flat_normal(P: Polytope):
    """Primitive normal of the affine hull of an (n-1)-dimensional P: the
    cross product of the n-1 pivot rows that integer elimination leaves of
    its vertex row differences."""
    base, *rest = P.ints[0]
    pivots, rows = _eliminate([vsub(v, base) for v in rest], P.dim)
    return primitive(cross_rows(rows[: len(pivots)]))


def mixed_area_measure(bodies) -> DiscreteMeasure:
    """Mixed area measure of n-1 bodies in R^n.

    Candidate normals are the facet normals of the bodies' Minkowski sum
    (the two hull-plane normals when that sum is (n-1)-dimensional); the
    atom weight at z is the (n-1)-dimensional mixed volume of the faces in
    direction z, projected along e_k for a coordinate k with maximal |z_k|
    and divided by |z_k|. Atoms of zero weight are dropped; so is z, before
    any face is built, when some face is a point (a point slot gives 0): one
    vertex row of its body is at the maximum of <., z>.
    """
    bodies, n = _checked(bodies, 1)
    total = _subset_sum(tuple(sorted(bodies, key=Polytope.key)))
    if total.adim == n:
        candidates = [z for z, *_ in total.facet_ints[0]]
    elif total.adim == n - 1:
        z0 = _flat_normal(total)
        candidates = [z0, tuple(-c for c in z0)]
    else:
        return _make_measure(n, {})

    weights = {}
    for z in candidates:
        if any((h := _support_rows(b, z)[0]).count(max(h)) == 1 for b in bodies):
            continue  # a point slot: the atom's weight is 0
        faces = [face_in_direction(b, z) for b in bodies]
        k = max(range(n), key=lambda i: abs(z[i]))
        axis = tuple(int(i == k) for i in range(n))
        w = mixed_volume([project_along(f, axis)[0] for f in faces])
        if w:
            weights[z] = w / abs(z[k])
    return _make_measure(n, weights)


def mixed_volume_via_measure(L: Polytope, bodies) -> Fraction:
    """(1/n) sum of h_L(z)·w(z) over the mixed area measure of the bodies;
    the measure-based oracle for mixed_volume(L, bodies...)."""
    bodies = list(bodies)
    n = L.dim
    measure = mixed_area_measure(bodies)
    if measure.dim != n:
        raise DimensionMismatch("L dimension differs from the bodies'")
    total = Fraction(0)
    for z, w in measure.atoms:
        total += support_value(L, z) * w
    return total / n


def segment_mixed_volume(v, bodies) -> Fraction:
    """V([0,v], K_2,...,K_n) = (|v_k|/n)·V(QK_2,...,QK_n), where Q is the
    oblique projection along v onto {x_k = 0} for the first nonzero
    coordinate k of v (see geometry.project_along); by Cavalieri, |v_k|
    times the (n-1)-volume of QK is ||v|| times that of K's orthogonal
    projection, so the value is rational."""
    bodies, n = _checked(bodies, 1)
    vv = tuple(Fraction(c) for c in v)
    if len(vv) != n:
        raise DimensionMismatch("segment direction length mismatch")
    if not any(vv):
        raise ZeroVector("segment direction is zero")
    return _project_segment_slot(vv, bodies, mixed_volume)


def _project_segment_slot(v, bodies, inner_mixed_volume) -> Fraction:
    """V([0,v], bodies) = |v_k|·V(QK_2,...,QK_n)/n for n-1 checked bodies
    in R^n and a nonzero rational v, Q the oblique projection of
    geometry.project_along (exact by Cavalieri, see there), with
    inner_mixed_volume evaluating the (n-1)-dimensional mixed volume of
    the projections. Each distinct body is projected once."""
    images = {}
    for body in bodies:
        if body.key() not in images:
            images[body.key()] = project_along(body, v)
    projected = [images[b.key()][0] for b in bodies]
    # the factor |v_k| depends on v alone
    scale = images[bodies[0].key()][1]
    return scale * inner_mixed_volume(projected) / len(v)
