"""Convex hull engine on integer coordinates, exact in all dimensions up to 4.

The 3D/4D path is an incremental (beneath-beyond) construction run on a
symbolically perturbed copy of the input: point i is displaced by t*r_i for
a seeded integer vector r_i and an infinitesimal t > 0. Every predicate is
the sign of det(M + tR) as t -> 0+, computed exactly as the first nonzero
coefficient of the expansion, so coplanar vertices and other degeneracies
never require epsilon tolerances. The perturbed hull is simplicial; its
boundary simplices are merged back into true facets by their unperturbed
supporting hyperplane, and simplices that are flat at t=0 contribute zero
to every volume and facet weight, so all reported quantities are exact for
the unperturbed input.

Points are deduplicated, sorted and inserted in lexicographic order, so
each one after the initial simplex is outside the hull and sees a facet at
the previous lex maximum. An insertion searches those facets for a visible
seed and walks across ridges through the visible ones to the horizon; it
never scans the whole hull. Each output facet lists its extreme points,
taken from the boundary simplices merged into it, and a point is a vertex
exactly when the normals of its facets span R^d.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import factorial

from .errors import InternalCheckError
from .linalg import cross_rows, det, dot, gcd_vec, primitive, rank, vsub

_ATTEMPTS = 32
_PERTURB_BOUND = 1 << 30


class _PerturbationCollision(Exception):
    """The seeded perturbation failed to break a degeneracy; retry."""


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
    for attempt in range(_ATTEMPTS):
        try:
            return _build(pts, dim, attempt)
        except _PerturbationCollision:
            continue
    raise InternalCheckError("hull perturbation kept colliding; input suspect")


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


@dataclass(slots=True)
class _F:
    verts: tuple[int, ...]  # ordered so an interior point sees sign -1
    normal: tuple[int, ...] | None  # None when flat at t=0
    offset: int


def _build(pts, d, attempt: int) -> HullData:
    rng = random.Random(f"mvlab-hull:{d}:{attempt}:{len(pts)}")
    perturb = [
        tuple(rng.randrange(-_PERTURB_BOUND, _PERTURB_BOUND) for _ in range(d))
        for _ in pts
    ]
    cen_sum: tuple[int, ...] = ()
    cen_cnt = 0

    def orient(idxs, with_centroid=False) -> int:
        i0 = idxs[0]
        p0, r0 = pts[i0], perturb[i0]
        mrows = [vsub(pts[i], p0) for i in idxs[1:]]
        rrows = [vsub(perturb[i], r0) for i in idxs[1:]]
        if with_centroid:
            mrows.append(tuple(s - cen_cnt * x for s, x in zip(cen_sum, p0)))
            rrows.append(tuple(-cen_cnt * x for x in r0))
        c0 = det(mrows)
        if c0:
            return 1 if c0 > 0 else -1
        k = len(mrows)
        for deg in range(1, k + 1):
            coeff = 0
            for chosen in combinations(range(k), deg):
                rows = [rrows[i] if i in chosen else mrows[i] for i in range(k)]
                coeff += det(rows)
            if coeff:
                return 1 if coeff > 0 else -1
        raise _PerturbationCollision

    def make_facet(vert_seq) -> _F:
        vs = tuple(vert_seq)
        base = pts[vs[0]]
        n = cross_rows([vsub(pts[i], base) for i in vs[1:]])
        if any(n):
            # det(rows + [y]) == <n, y> gives the centroid's orientation,
            # nonzero as it is interior at t=0; a swap negates n and offset
            offset = dot(n, base)
            if dot(n, cen_sum) - cen_cnt * offset > 0:
                return _F((vs[1], vs[0]) + vs[2:], tuple(-x for x in n), -offset)
            return _F(vs, n, offset)
        if orient(vs, with_centroid=True) > 0:
            vs = (vs[1], vs[0]) + vs[2:]
        return _F(vs, None, 0)

    def side(f: _F, ip: int) -> int:
        if f.normal is not None:
            s = dot(f.normal, pts[ip]) - f.offset
            if s:
                return 1 if s > 0 else -1
        return orient(f.verts + (ip,))

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

    # A point past init[-1] lies outside and sees a facet at the previous
    # lex-maximum point, i.e. one the previous insertion made. Skipped points
    # before init[-1] (maybe inside) and the first after it scan all facets.
    # The visible facets are connected: walk across ridges from the seed;
    # the horizon is the ridges between a visible and an invisible facet.
    at_prev = None
    for ip in range(len(pts)):
        if ip in init:
            continue
        cands = facets if at_prev is None else at_prev
        seed = next((k for k in cands if side(facets[k], ip) > 0), None)
        if seed is None:
            if ip > init[-1]:
                raise InternalCheckError("lex-max point sees no facet at previous max")
            continue
        seen, stack, horizon = {seed: True}, [seed], []
        while stack:
            k = stack.pop()
            for r in ridges(facets[k].verts):
                a, b = ridge_map[r]
                o = b if a == k else a
                if o not in seen:
                    seen[o] = side(facets[o], ip) > 0
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
        new = [add_facet(make_facet(tuple(sorted(r)) + (ip,))) for r in horizon]
        at_prev = new if ip > init[-1] else None

    # exact volume: pyramids from the lexicographically smallest point,
    # one per boundary simplex of each facet's triangulation
    apex = pts[0]
    vol_scaled = 0
    for f in facets.values():
        base = pts[f.verts[0]]
        rows = [vsub(pts[i], base) for i in f.verts[1:]]
        rows.append(vsub(apex, base))
        vol_scaled += abs(det(rows))
    volume = Fraction(vol_scaled, factorial(d))

    # merge boundary simplices into true facets by supporting hyperplane
    groups: dict[tuple[tuple[int, ...], int], list] = {}
    for f in facets.values():
        if f.normal is None:
            continue  # flat at t=0: zero measure, no facet contribution
        g = gcd_vec(f.normal)
        key = (primitive(f.normal), f.offset // g)
        groups.setdefault(key, []).append(f.verts)

    # a group's points lie on its facet and include its extreme points; a
    # point is a vertex exactly when the normals of its groups span R^d
    on_facet = {key: {i for verts in sl for i in verts} for key, sl in groups.items()}
    normals_at: dict[int, list] = {}
    for (z, _), idxs in on_facet.items():
        for i in idxs:
            normals_at.setdefault(i, []).append(z)
    vertex = {i for i, zs in normals_at.items() if len(zs) >= d and rank(zs) == d}

    out = []
    for (z, c), simplex_list in groups.items():
        k = max(range(d), key=lambda i: abs(z[i]))
        area = 0
        for verts in simplex_list:
            base = pts[verts[0]]
            rows = [
                tuple(x for j, x in enumerate(vsub(pts[i], base)) if j != k)
                for i in verts[1:]
            ]
            area += abs(det(rows))
        weight = Fraction(area, factorial(d - 1) * abs(z[k]))
        out.append(HullFacet(z, c, weight, tuple(sorted(on_facet[z, c] & vertex))))
    out.sort(key=lambda f: f.normal)

    return HullData(d, tuple(pts), tuple(sorted(vertex)), tuple(out), volume)
