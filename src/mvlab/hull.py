"""Convex hull engine on integer coordinates, exact in all dimensions up to 4.

The 3D/4D path is an incremental (beneath-beyond) construction that keeps a
triangulation of the hull's boundary into (d-1)-simplices. Points are
deduplicated and sorted; the first d+1 affinely independent ones form the
initial simplex, then the skipped ones and the rest follow in lex order. A
simplex is visible from p when p lies strictly beyond its hyperplane, and
inserting p replaces the visible simplices by cones from p over the horizon
ridges. So the boundary stays a placing triangulation (De Loera, Rambau &
Santos, *Triangulations*, 2010, section 4.3.1), and every predicate is one
exact integer sign:

(a) A horizon ridge r lies in aff(G) for a visible G, and p is not in
    aff(G), so conv(r + p) is never flat.
(b) A point after the initial simplex is the lex maximum so far. The tangent
    cone at the previous maximum q is spanned by lex-negative vectors, and
    the lex-positive p - q leaves it, so some simplex at q, i.e. one that
    q's insertion made, is visible.
(c) A skipped point lies in the flat F spanned by the initial points before
    it. F meets the hull so far in a face whose points all precede p in lex
    order, so p lies outside that face and the hull: like every other
    point, it sees a simplex, and no point is dropped.
(d) The visible simplices are those of the visible true facets, which form
    a ball, so a walk across ridges from one of them reaches them all.

Each simplex lies in a true facet, so simplices merge into facets by their
hyperplane. With n = cross_rows(edge vectors), det(rows + [y]) == <n, y>:
the pyramid over a simplex from points[0] is (offset - <n, points[0]>)/d!,
and the simplex adds gcd(n)/(d-1)! to its facet's weight Vol_{d-1}/||z||,
z = n/gcd(n). A facet lists the extreme points of its simplices; a point
is a vertex exactly when the normals of its facets span R^d. That test is
one determinant in integers: take the first d-1 normals whose cross_rows
normal N is nonzero; they span a hyperplane, and the normals span R^d iff
some normal z has <N, z> = det(those d-1 normals + [z]) != 0. A simple
vertex costs one closed-form cross product and d dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import factorial

from .errors import InternalCheckError
from .linalg import cross_rows, dot, gcd_vec, rank, vsub


@dataclass(frozen=True)
class HullFacet:
    normal: tuple[int, ...]  # primitive integer, outward
    offset: int  # <normal, x> == offset on the facet
    weight: Fraction  # Vol_{d-1}(facet) / ||normal||, exact
    vertices: tuple[int, ...]  # extreme points on the facet, as indices into points


@dataclass(frozen=True)
class HullData:
    dim: int
    points: tuple[tuple[int, ...], ...]  # deduplicated, lex sorted
    vertex_indices: tuple[int, ...]  # extreme points, as indices into points
    facets: tuple[HullFacet, ...]  # sorted by normal
    volume: Fraction  # pyramid decomposition from points[0]


def hull_int(raw_points, dim: int) -> HullData:
    """Hull of integer points that affinely span R^dim (caller checks rank)."""
    pts = sorted(set(tuple(p) for p in raw_points))
    if dim == 1:
        return _hull_1d(pts)
    if dim == 2:
        return _hull_2d(pts)
    return _build(pts, dim)


def _hull_1d(pts) -> HullData:
    lo, hi = pts[0][0], pts[-1][0]
    facets = (
        HullFacet((-1,), -lo, Fraction(1), (0,)),
        HullFacet((1,), hi, Fraction(1), (len(pts) - 1,)),
    )
    return HullData(1, tuple(pts), (0, len(pts) - 1), facets, Fraction(hi - lo))


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts) -> HullData:
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]  # counterclockwise, strictly convex

    index = {p: i for i, p in enumerate(pts)}
    area2 = 0
    facets = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        area2 += a[0] * b[1] - a[1] * b[0]
        ex, ey = b[0] - a[0], b[1] - a[1]
        g = gcd_vec((ex, ey))
        z = (ey // g, -ex // g)  # outward for a counterclockwise ring
        ends = tuple(sorted((index[a], index[b])))
        facets.append(HullFacet(z, dot(z, a), Fraction(g), ends))
    facets.sort(key=lambda f: f.normal)
    return HullData(
        2,
        tuple(pts),
        tuple(sorted(index[p] for p in ring)),
        tuple(facets),
        Fraction(abs(area2), 2),
    )


def _spans(zs, d) -> bool:
    """Whether the integer vectors zs span R^d, d >= 2 (module docstring)."""
    for sub in combinations(zs, d - 1):
        n = cross_rows(sub)
        if any(n):
            return any(dot(n, z) for z in zs)
    return False


@dataclass(slots=True)
class _F:
    verts: tuple[int, ...]
    normal: tuple[int, ...]  # outward, nonzero
    offset: int


def _build(pts, d) -> HullData:
    # initial simplex: first d+1 affinely independent points in lex order
    init = [0]
    dirs: list[tuple[int, ...]] = []
    for i in range(1, len(pts)):
        cand = dirs + [vsub(pts[i], pts[0])]
        if rank(cand) == len(cand):
            dirs = cand
            init.append(i)
            if len(init) == d + 1:
                break
    if len(init) < d + 1:
        raise InternalCheckError("hull_int called on rank-deficient input")

    cen_sum = tuple(sum(pts[i][k] for i in init) for k in range(d))
    cen_cnt = d + 1

    def make_facet(verts) -> _F:
        base = pts[verts[0]]
        n = cross_rows([vsub(pts[i], base) for i in verts[1:]])
        if not any(n):
            raise InternalCheckError("flat boundary simplex")
        # the centroid of the initial simplex stays strictly inside
        offset = dot(n, base)
        if dot(n, cen_sum) - cen_cnt * offset > 0:
            return _F(verts, tuple(-x for x in n), -offset)
        return _F(verts, n, offset)

    def beyond(f: _F, ip: int) -> bool:
        return dot(f.normal, pts[ip]) > f.offset

    facets: dict[int, _F] = {}
    ridge_map: dict[frozenset, list[int]] = {}
    ids = count()

    def ridges(verts):
        return [frozenset(verts[:i] + verts[i + 1 :]) for i in range(len(verts))]

    def add_facet(f: _F) -> int:
        k = next(ids)
        facets[k] = f
        for r in ridges(f.verts):
            ridge_map.setdefault(r, []).append(k)
        return k

    for omit in range(d + 1):
        add_facet(make_facet(tuple(init[j] for j in range(d + 1) if j != omit)))

    # Every point sees a facet (facts b, c). A point past init[-1] sees one
    # the previous insertion made; skipped points before init[-1] and the
    # first point after it scan all facets. The visible facets are connected
    # (fact d): walk across ridges from the seed; the horizon is the ridges
    # between a visible and an invisible facet.
    at_prev = None
    for ip in range(len(pts)):
        if ip in init:
            continue
        cands = facets if at_prev is None else at_prev
        seed = next((k for k in cands if beyond(facets[k], ip)), None)
        if seed is None:
            raise InternalCheckError("inserted point sees no facet")
        seen, stack, horizon = {seed: True}, [seed], []
        while stack:
            k = stack.pop()
            for r in ridges(facets[k].verts):
                a, b = ridge_map[r]
                o = b if a == k else a
                if o not in seen:
                    seen[o] = beyond(facets[o], ip)
                    if seen[o]:
                        stack.append(o)
                if not seen[o]:
                    horizon.append(r)
        for k in [k for k, visible in seen.items() if visible]:
            f = facets.pop(k)
            for r in ridges(f.verts):
                owners = ridge_map[r]
                owners.remove(k)
                if not owners:
                    del ridge_map[r]
        new = [add_facet(make_facet(tuple(r) + (ip,))) for r in horizon]
        at_prev = new if ip > init[-1] else None

    # merge boundary simplices into true facets by supporting hyperplane;
    # each simplex adds its pyramid from pts[0] and its share of the weight
    apex = pts[0]
    vol_scaled = 0
    groups: dict[tuple[tuple[int, ...], int], list] = {}
    for f in facets.values():
        vol_scaled += f.offset - dot(f.normal, apex)
        g = gcd_vec(f.normal)
        key = (tuple(x // g for x in f.normal), f.offset // g)
        groups.setdefault(key, []).append((f.verts, g))

    # a group's points lie on its facet and include its extreme points; a
    # point is a vertex exactly when the normals of its groups span R^d
    on_facet = {key: {i for verts, _ in sl for i in verts} for key, sl in groups.items()}
    normals_at: dict[int, list] = {}
    for (z, _), idxs in on_facet.items():
        for i in idxs:
            normals_at.setdefault(i, []).append(z)
    vertex = {i for i, zs in normals_at.items() if len(zs) >= d and _spans(zs, d)}

    out = []
    for (z, c), simplex_list in groups.items():
        weight = Fraction(sum(g for _, g in simplex_list), factorial(d - 1))
        out.append(HullFacet(z, c, weight, tuple(sorted(on_facet[z, c] & vertex))))
    out.sort(key=lambda f: f.normal)

    volume = Fraction(vol_scaled, factorial(d))
    return HullData(d, tuple(pts), tuple(sorted(vertex)), tuple(out), volume)
