"""Bezout-gap diagnostics on rational polytopes.

The central quantity is the gap
    gap = V(L,K[n-1])·V(M,K[n-1]) - V(L,M,K[n-2])·V_n(K)
(and its r-body generalization), which is nonnegative for every pair (L,M)
exactly when K is a simplex. This module provides the gap evaluators, the
facet-moving deformation K_{t,i} (a clip when inward, one uncached
polar-dual hull by _moved_vertices when outward) and its certified safe
range (one such hull), cap cuts,
measure-proportionality and homothety tests, a measure-power identity
checker, the per-facet simplex audit (it reads homothety of K_{t,i} and K
off K's support numbers, with no moved body built), and a deterministic
counterexample search over a finite family: segment pairs along edge
directions, then pairs of facet-moved copies of K.

Every mixed volume here goes through mixed._mixed_volume_fast, which takes
exact shortcuts and falls back to polarization; its values equal public
mixed_volume's exactly.

Facet displacements are denominator-cleared: MoveSpec.t shifts the bound of
the primitive-normal inequality <x, z_i> <= c_i by t directly (a geometric
displacement of t/||z_i|| along the unit normal). All identities checked
here are stated in that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple, Optional

from .errors import (
    BadArity,
    BadParams,
    BudgetExhausted,
    DegenerateInput,
    DimensionLimit,
    DimensionMismatch,
    EmptyOrFlat,
    InternalCheckError,
    RangeViolation,
)
from .geometry import (
    Halfspace,
    Polytope,
    clip_halfspace,
    project_along,
    support_value,
    vertex_adjacency,
    _from_int_points,
    _from_points,
    _homothety,
    _support_rows,
)
from .hull import hull_int
from .linalg import dot, primitive, primitive_from_rational, rank, vsub
from .mixed import (
    DiscreteMeasure,
    mixed_area_measure,
    surface_area_measure,
    _mixed_volume_fast,
)


@dataclass(frozen=True)
class MoveSpec:
    """Facet displacement: shift the facet_index-th inequality bound by t."""

    facet_index: int
    t: Fraction


@dataclass(frozen=True)
class BezoutCertificate:
    """Gap evaluation for (L, M) against K; K is stored so the gap can be
    recomputed from the certificate alone."""

    L: Polytope
    M: Polytope
    K: Polytope
    gap: Fraction
    verdict: str  # "satisfied" or "violated"
    equality: bool

    def recompute(self) -> Fraction:
        return bezout_gap(self.L, self.M, self.K).gap


@dataclass(frozen=True)
class FacetAuditRecord:
    facet_index: int
    t: Fraction  # midpoint of the positive safe half-range
    proportional: bool  # S(K_t) proportional to S(K)
    scale: Optional[Fraction]  # lambda at t, when proportional


@dataclass(frozen=True)
class AuditReport:
    records: tuple[FacetAuditRecord, ...]
    verdict: str  # "simplex" or "non-simplex"
    vertex_count: int


class LemmaCheck(NamedTuple):
    holds: bool
    scale: Fraction  # lambda = V(K_t,K[n-1]) / V_n(K)
    residual: tuple  # (normal, lhs weight, rhs weight) triples that differ


def bezout_gap(L: Polytope, M: Polytope, K: Polytope) -> BezoutCertificate:
    n = K.dim
    if n < 2:
        raise DimensionLimit("gap diagnostics need ambient dimension >= 2")
    if L.dim != n or M.dim != n:
        raise DimensionMismatch("L, M, K must share the ambient dimension")
    if not K.is_full_dimensional:
        raise DegenerateInput("K must be full-dimensional")
    gap = bezout_gap_general([L, M], K, 2)
    return BezoutCertificate(
        L, M, K, gap, "satisfied" if gap >= 0 else "violated", gap == 0
    )


def bezout_gap_general(bodies, delta: Polytope, r: int) -> Fraction:
    """gap = prod_i V(K_i, delta[n-1]) - V(K_1,..,K_r, delta[n-r])·V_n(delta)^(r-1)."""
    bodies = list(bodies)
    n = delta.dim
    if not 2 <= r <= n:
        raise BadArity(f"r={r} outside 2..{n}")
    if len(bodies) != r:
        raise BadArity(f"expected {r} bodies, got {len(bodies)}")
    if not delta.is_full_dimensional:
        raise DegenerateInput("delta must be full-dimensional")
    for b in bodies:
        if b.dim != n:
            raise DimensionMismatch("body dimension differs from delta's")
    rhs = Fraction(1)
    for b in bodies:
        rhs *= _mixed_volume_fast([b] + [delta] * (n - 1))
    v, vd = delta.volume_ints
    power = Fraction(v ** (r - 1), vd ** (r - 1))  # V_n(delta)^(r-1)
    lhs = _mixed_volume_fast(bodies + [delta] * (n - r)) * power
    return rhs - lhs


def _facet_ints(K: Polytope, i=None):
    """K.facet_ints; DegenerateInput for a flat K, whose facet rows are
    empty, and BadParams for a facet index i outside 0..F-1."""
    if not K.is_full_dimensional:
        raise DegenerateInput("facet structure requires a full-dimensional polytope")
    if i is not None and not 0 <= i < len(K.facet_ints[0]):
        raise BadParams(f"facet index {i} out of range")
    return K.facet_ints


def _moved_vertices(K: Polytope, i: int, t):
    """(vertices of K_t, kept) for full-dimensional K with the bound of its
    i-th facet raised by t > 0, kept telling whether K_t keeps every facet.

    Polar duality about K's vertex centroid c = C/q, C the sum of its m
    vertex rows at scale s and q = m·s, interior to K ⊆ K_t (de Berg et
    al., *Computational Geometry*, 3rd ed., section 11.4): constraint
    <z_j, x> <= b_j becomes the point z_j / (b_j - <z_j, c>), and it is a
    facet of K_t exactly when that point is a vertex of their hull. With
    D = lcm(cd, q, den t), O_j = D·(b_j - <z_j, c>) (plus D·t at j = i) and
    L = lcm(O), the points are the integer rows z_j·(L/O_j), and a facet
    {<a, Y> = e} of their hull gives the vertex C/q + a·L/(e·D).
    """
    rows, s = K.ints
    frows, cd, _ = K.facet_ints
    C = [sum(col) for col in zip(*rows)]
    q = len(rows) * s
    D = lcm(cd, q, t.denominator)
    O = [c * (D // cd) - dot(z, C) * (D // q) for z, c, _, _ in frows]
    O[i] += t.numerator * (D // t.denominator)
    L = lcm(*O)
    dual = [tuple(x * (L // o) for x in row[0]) for row, o in zip(frows, O)]
    hd = hull_int(dual, K.dim)
    verts = [tuple(Fraction(ci * D * hf.offset + a * L * q, q * D * hf.offset)
                   for ci, a in zip(C, hf.normal)) for hf in hd.facets]
    return verts, len(hd.vertex_indices) == len(frows)


def safe_move_range(K: Polytope, facet_index: int):
    """Certified interval [t_min, t_max] around 0 of bound shifts that keep
    every facet of K.

    With w = h_K(z_i) + h_K(-z_i) the width of K along z_i, t_max is the
    first of w, w/2, w/4, ... whose move keeps every facet, and t_min the
    first of -w/2, -w/4, .... The interval need not be maximal: a simplex
    keeps every t in (-w, oo), and its ends are -w/2 and w.

    For t != 0, K_t keeps every facet exactly when T_min < t < T_max, so
    each end is found by halving a number against one bound:
    - T_min is the largest, over facets j != i, of min <z_i, v> over the
      vertices v of F_j, minus h_i. For t < 0, K_t = K ∩ {<z_i, x> <=
      h_i + t}, so F_j(K_t) is F_j cut by that halfspace, and it is
      (n-1)-dimensional iff the open side meets F_j. No hull is needed.
    - T_max is the supremum of <z_i, x> over K without constraint i, minus
      h_i. For t > 0, K ⊂ K_t, so F_j(K) ⊂ F_j(K_t) for every j != i, and
      only facet i can vanish. One dual hull of K_w decides it: if facet i
      survives there, t_max = w; otherwise K_w is K without constraint i,
      and T_max is the largest <z_i, v> over its vertices, minus h_i.
    """
    frows, cd, _ = _facet_ints(K, facet_index)
    z, c, _, _ = frows[facet_index]
    h = Fraction(c, cd)
    rows, s = K.ints
    w = h - Fraction(min(dot(z, row) for row in rows), s)
    others = (inc for j, (_, _, inc, _) in enumerate(frows) if j != facet_index)
    lowest = max(min(dot(z, rows[k]) for k in inc) for inc in others)
    floor = Fraction(lowest, s) - h
    t_min = -w / 2
    while t_min <= floor:
        t_min /= 2
    t_max = w
    verts, kept = _moved_vertices(K, facet_index, w)
    if not kept:
        ceiling = max(dot(z, v) for v in verts) - h
        while t_max >= ceiling:
            t_max /= 2
    return t_min, t_max


def move_facet(K: Polytope, spec: MoveSpec) -> Polytope:
    """K_{t,i}: K with the i-th facet bound shifted by t; the clip
    K ∩ {<z_i, x> <= h_i + t} for t <= 0, the hull of _moved_vertices for
    t > 0. K_t is an intersection of K's halfspaces, so it keeps every
    facet normal of K iff it is full-dimensional with as many facets.
    Raises RangeViolation unless it does (every t in safe_move_range(K, i)
    does), DegenerateInput for a flat K and BadParams for i outside 0..F-1."""
    i = spec.facet_index
    frows, cd, _ = _facet_ints(K, i)
    t = Fraction(spec.t)
    if t > 0:
        Kt = _from_points(_moved_vertices(K, i, t)[0], K.dim)
    else:
        z, c, _, _ = frows[i]
        Kt = clip_halfspace(K, Halfspace(z, Fraction(c, cd) + t))
    if not Kt.is_full_dimensional or len(Kt.facet_ints[0]) != len(frows):
        raise RangeViolation(
            f"moving facet {i} by t={t} loses a facet or flattens or empties K"
        )
    return Kt


def cap_cut(K: Polytope, z, eps) -> Polytope:
    """K intersected with {<x,z> <= h(z) - eps}, for a full-dimensional K;
    must stay full-dimensional."""
    if not K.is_full_dimensional:
        raise DegenerateInput("cap cut target must be full-dimensional")
    eps = Fraction(eps)
    if eps <= 0:
        raise BadParams("cap depth must be positive")
    z = primitive_from_rational(tuple(z))
    bound = support_value(K, z) - eps
    P = clip_halfspace(K, Halfspace(z, bound))
    if P.adim < K.dim:
        raise EmptyOrFlat("cap cut removed the interior")
    return P


def projection_preserved(K: Polytope, M: Polytope, v) -> bool:
    """True iff M and K have identical projections along v (exact
    vertex-set equality of their images under geometry.project_along)."""
    pK, _ = project_along(K, v)
    pM, _ = project_along(M, v)
    return pK == pM


def support_drop_set(K: Polytope, M: Polytope):
    """Facet normals of K at which M ⊆ K has strictly smaller support.

    A facet of K through a vertex of M is never one, since there
    h_M(z) >= h_K(z) whether or not M ⊆ K, so M is scanned only for K's
    other facets. Vertices are matched as integer rows at lcm(s_K, s_M), and
    h_M(z) = max<z, row_M>/s_M < c/cd, K's offset, is compared as
    max<z, row_M>·cd < c·s_M."""
    frows, cd, _ = _facet_ints(K)
    (rk, sk), (rm, sm) = K.ints, M.ints
    s = lcm(sk, sm)
    a, b = s // sk, s // sm
    ours = {tuple(b * c for c in row) for row in rm}
    shared = {i for i, row in enumerate(rk) if tuple(a * c for c in row) in ours}
    return tuple(
        z
        for z, c, inc, _ in frows
        if shared.isdisjoint(inc) and max(_support_rows(M, z)[0]) * cd < c * sm
    )


def measures_proportional(a: DiscreteMeasure, b: DiscreteMeasure):
    """lambda with a = lambda·b if supports match and weights are in a
    single ratio; None otherwise."""
    if a.support() != b.support():
        return None
    if not a.atoms:
        return Fraction(1)
    lam = None
    for (_, wa), (_, wb) in zip(a.atoms, b.atoms):
        r = wa / wb
        if lam is None:
            lam = r
        elif r != lam:
            return None
    return lam


def homothety_check(K: Polytope, P: Polytope):
    """Scale lambda > 0 with P = lambda·K + x, or None.

    A map y -> lambda·y + x with lambda > 0 keeps the lex order of points,
    so it sends K's i-th sorted vertex row to P's i-th. lambda and x are
    read off the first two integer rows of each, and the image of K under
    _homothety must equal P. That rejects unequal vertex counts, and
    lambda <= 0, which reverses or collapses the order. No vertex view is
    built.
    """
    if K.dim != P.dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not (K.is_full_dimensional and P.is_full_dimensional):
        raise DegenerateInput("homothety check needs full-dimensional bodies")
    ((k0, k1, *_), sk), ((p0, p1, *_), sp) = K.ints, P.ints
    c = next(c for c in range(K.dim) if k1[c] != k0[c])
    lam = Fraction((p1[c] - p0[c]) * sk, (k1[c] - k0[c]) * sp)
    if lam <= 0:
        return None
    x = tuple(Fraction(b, sp) - lam * Fraction(a, sk) for a, b in zip(k0, p0))
    return lam if _homothety(K, lam, x) == P else None


def lemma_measure_power_identity(K: Polytope, spec: MoveSpec, r: int) -> LemmaCheck:
    """Check S(K_t[r], K[n-1-r], ·) = lambda^r · S(K, ·) atom by atom,
    lambda = V(K_t,K[n-1]) / V_n(K)."""
    n = K.dim
    if not 0 <= r <= n - 1:
        raise BadArity(f"r={r} outside 0..{n - 1}")
    Kt = move_facet(K, spec)
    lam = _mixed_volume_fast([Kt] + [K] * (n - 1)) / K.volume
    lhs = mixed_area_measure([Kt] * r + [K] * (n - 1 - r))
    rhs = surface_area_measure(K).scaled(lam**r)
    support = sorted(set(lhs.support()) | set(rhs.support()))
    residual = tuple(
        (z, lhs.weight(z), rhs.weight(z))
        for z in support
        if lhs.weight(z) != rhs.weight(z)
    )
    return LemmaCheck(not residual, lam, residual)


def af_spot_check(L: Polytope, M: Polytope, rest) -> Fraction:
    """Slack V(L,M,rest)^2 - V(L,L,rest)·V(M,M,rest); nonnegative always
    (a negative value indicates an implementation bug)."""
    rest = list(rest)
    n = L.dim
    if M.dim != n or any(b.dim != n for b in rest):
        raise DimensionMismatch("bodies must share the ambient dimension")
    if len(rest) != n - 2:
        raise BadArity(f"expected {n - 2} fixed bodies, got {len(rest)}")
    a = _mixed_volume_fast([L, M] + rest)
    b = _mixed_volume_fast([L, L] + rest)
    c = _mixed_volume_fast([M, M] + rest)
    return a * a - b * c


def simplex_audit(K: Polytope) -> AuditReport:
    """Per facet i: is S(K_t) proportional to S(K), for K_t = K_{i,t} and t
    the midpoint of the positive safe half-range? By Minkowski's uniqueness
    theorem it is exactly when K_t = lambda·K + x. Verdict "simplex" iff
    every facet passes; cross-checked against the vertex count n+1.

    The answer is read off K's support numbers h_j = h_K(z_j), with no
    moved body built. K_t keeps every facet, so its support numbers are
    h + t·e_i, and K_t = lambda·K + x exactly when
    t·e_i = (lambda - 1)·h + Z·x, Z the matrix of facet normals. [h | Z]
    has rank n + 1 (h = Z·x would make K - x the cone {Z·y <= 0}), so
    facet i is proportional iff [h | Z | e_i] has rank n + 1 too, for
    every t in the safe range alike. Then S(K_t) = lambda^(n-1)·S(K), and
    lambda = 1 + t·w_i/(n·V) with w_i facet i's weight and V = vol K, by
    the first variation V(K_t,K[n-1]) = V + t·w_i/n = lambda·V. The rank
    test and lambda read K's integer facet rows and volume numerator."""
    n = K.dim
    frows, _, wd = _facet_ints(K)
    v, vd = K.volume_ints
    records = []
    for i, (_, _, _, w) in enumerate(frows):
        t = safe_move_range(K, i)[1] / 2
        # integer offsets c_j = cd·h_j: a column scaled by cd > 0 keeps the rank
        rows = [(c, *z, int(j == i)) for j, (z, c, _, _) in enumerate(frows)]
        scale = None
        if rank(rows) == n + 1:
            scale = (1 + t * Fraction(w * vd, n * v * wd)) ** (n - 1)
        records.append(FacetAuditRecord(i, t, scale is not None, scale))
    verdict = "simplex" if all(r.proportional for r in records) else "non-simplex"
    count = len(K.ints[0])
    if (verdict == "simplex") != (count == n + 1):
        raise InternalCheckError("audit verdict disagrees with vertex count")
    return AuditReport(tuple(records), verdict, count)


def _canon_direction(d):
    d = primitive(d)
    for c in d:
        if c:
            return d if c > 0 else tuple(-x for x in d)
    raise InternalCheckError("zero edge direction")


def counterexample_search(K: Polytope, budget: int) -> BezoutCertificate:
    """Deterministic search for (L, M) with negative gap against K.

    The candidates form a finite family: (a) pairs of segments along K's
    edge directions, then (b) pairs of facet-moved copies K_{i,t} of K at
    half the safe ranges. Raises BudgetExhausted, carrying the number of
    gap evaluations made, when `budget` evaluations or the whole family
    pass without a violation; exhaustion is not a simplex verdict.

    Stage (b) refutes every non-simplex. For K_t = K_{i,t} write
    mu_t = V(K_t,K[n-1])·S(K) - V(K)·S(K_t,K[n-2]), which is V(K) times the
    residual of lemma_measure_power_identity(K, MoveSpec(i, t), 1) and t
    times a fixed measure. Moves in the safe range keep K's facet normals,
    though not always its fan (a move splits the non-simple vertices of
    cross_polytope(3)), so gap(K_{i,t}, K_{j,s}) = (s/n)·mu_t(z_j) and
    sum_j h_K(z_j)·mu_t(z_j) = 0. Gaps ignore translations; with the origin
    interior, h_K > 0, so a nonzero mu_t has an atom with mu_t(z_j) > 0,
    and the stage-(b) pair (K_{i,t_max/2}, K_{j,t_min/2}) has a negative
    gap. The paper's facet move makes mu_t nonzero on every non-simplex,
    so witnesses come from (a) or (b) alone, and on a simplex no pair has
    a negative gap. Any further candidates (cap cuts paired with axis
    segments, as in the strict command's probe, or random hull pairs)
    could never be the first to succeed, so the search does not try them.
    """
    if not isinstance(budget, int) or budget < 1:
        raise BadParams("budget must be a positive integer")
    n = K.dim
    if not K.is_full_dimensional:
        raise DegenerateInput("search target must be full-dimensional")

    def candidates():
        # (a) segments along edge directions, colex-ordered
        rows = K.ints[0]
        dirs = sorted(
            {
                _canon_direction(vsub(rows[j], rows[i]))
                for i, j in vertex_adjacency(K)
            },
            key=lambda d: tuple(reversed(d)),
        )
        segs = [_from_int_points([(0,) * n, d], 1, n) for d in dirs]
        yield from combinations(segs, 2)

        # (b) facet-move pairs at +-half of the safe ranges
        moved = []
        for i in range(len(K.facet_ints[0])):
            t_min, t_max = safe_move_range(K, i)
            moved.append(move_facet(K, MoveSpec(i, t_max / 2)))
            moved.append(move_facet(K, MoveSpec(i, t_min / 2)))
        yield from combinations(moved, 2)

    # counted, not sliced: islice rejects a budget above sys.maxsize
    evaluations = 0
    for L, M in candidates():
        evaluations += 1
        cert = bezout_gap(L, M, K)
        if cert.gap < 0:
            return cert
        if evaluations == budget:
            break
    raise BudgetExhausted(evaluations)


def facet_move_linearity_check(
    K: Polytope, P: Polytope, facet_index: int, t
) -> Fraction:
    """Residual n·V(K_t,P[n-1]) - n·V(K,P[n-1]) - t·w_P(z_i); exactly 0
    whenever P's facet normals all occur among K's (checked)."""
    t = Fraction(t)
    n = K.dim
    frows = _facet_ints(K, facet_index)[0]
    z = frows[facet_index][0]
    rows_P, _, wd = _facet_ints(P)
    if not {row[0] for row in rows_P} <= {row[0] for row in frows}:
        raise BadParams("P has facet normals outside K's fan")
    wP = next((Fraction(w, wd) for zP, _, _, w in rows_P if zP == z), Fraction(0))
    Kt = move_facet(K, MoveSpec(facet_index, t))
    base = [P] * (n - 1)
    return (
        n * _mixed_volume_fast([Kt] + base)
        - n * _mixed_volume_fast([K] + base)
        - t * wP
    )
