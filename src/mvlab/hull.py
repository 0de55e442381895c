"""Convex hull engine on integer coordinates, exact in all dimensions up to 4.

hull_int takes any nonempty point set in R^d, deduplicated and sorted.
d+1 affinely independent points, d >= 1, are a simplex, whose hull is built
in closed form (simplex rule, below). For any other set, one search
(_initial_simplex) finds r+1 affinely independent hull vertices, r the
affine dimension. A flat set (r < d) has no facets and volume 0; its
extreme points are all r+1 points, the lex ends of a line, or those of its
chart, the coordinates at the pivot columns of the echelon form of the r
directions. The chart is injective on the flat and keeps the lex order (an
echelon row vanishes before its pivot), so its vertex indices index pts.

A full-dimensional set in the plane goes to a monotone chain; in 1D, 3D
and 4D it goes to Quickhull (Barber, Dobkin & Huhdanpaa, *The Quickhull
algorithm for convex hulls*, ACM TOMS 22(4), 1996) on a triangulation of the
hull's boundary into (d-1)-simplices, each with its d neighbours and an
outside set. The initial simplex is the search's d+1 vertices, and in 1D
it is the whole hull. Every other point joins the outside set of the first
simplex it lies strictly beyond, or is dropped: a point in the hull so far
is not extreme. While a simplex G has a nonempty outside set, the point p
that maximises <z_G, p> over all points still in an outside set (the first
maximum of one list of their heights in index order: the lowest index on
ties) replaces the simplices it lies strictly beyond, the visible ones, by
cones from p over the horizon ridges. So the boundary stays a placing
triangulation (De Loera, Rambau & Santos, *Triangulations*, 2010, section
4.3.1), and every predicate is one exact integer sign:

(a) A horizon ridge r lies in aff(G) for a visible G, and p is not in
    aff(G), so conv(r + p) is never flat.
(b) The visible simplices are those of the visible true facets, which form
    a ball, so a walk across ridges from one of them reaches them all.
(c) A point q beyond a visible G that is still outside the new hull lies
    beyond a new simplex, so orphans are offered only the new ones. Else q
    lies in the tangent cone at p, which the facets through p cut out, each
    holding a new simplex: q = p + l(x - p) with x in the old hull and
    l > 1, and <z_G, y> - c_G, positive at p and at most 0 at x, is negative
    at q, so q is not beyond G.
(d) Every inserted point is a vertex. A point in no outside set lies in
    the hull so far, where <z_G, y> <= c_G, and G's outside set holds a y
    with <z_G, y> > c_G. So p maximises <z_G, .> over all points, and as
    the lowest index among the maximisers it is the lex-first point of a
    face, a vertex. The initial simplex is made of vertices too, so every
    point of every boundary simplex is a vertex.

Each simplex lies in a true facet, so simplices merge into facets by their
hyperplane. With n = cross_rows(edge vectors), det(rows + [y]) == <n, y>:
the pyramid over a simplex from points[0] is (offset - <n, points[0]>)/d!,
and the simplex adds gcd(n)/(d-1)! to its facet's weight Vol_{d-1}/||z||,
z = n/gcd(n). The simplices in a facet cover it, so by (d) a facet's
vertices are the points of its simplices, and the hull's vertices are the
union of those.

Weights and volumes stay integers: each facet's weight is returned as its
numerator over (d-1)!, the sum of its simplices' gcd(n), and the volume as
its numerator over d!, the sum of the pyramids' offset - <n, points[0]>.
Callers divide once, by those factorials and by the powers of their own
coordinate scale, and only when they need a Fraction.

Simplex rule. Let p_0 be the lex-first of d+1 points and e_k = p_k - p_0.
N_k = cross_rows(the edges other than e_k) is normal to the facet without
p_k, which passes through p_0, and <N_k, e_k> = +-det(e_1..e_d). So the
points are independent iff that is nonzero, and N_k turned so that
<N_k, e_k> < 0 is outward. Its length is (d-1)! Vol_{d-1} of the facet, so
by Minkowski's relation, sum over facets F of Vol_{d-1}(F) u_F = 0 with u_F
the outward unit normals, the outward N of the facet without p_0 is minus
the sum of the N_k. Each facet is one boundary simplex: its weight is
gcd(N)/(d-1)!, its vertices are its d points, and the volume is |det|/d!
(numerators gcd(N) and |det|).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, count
from math import gcd
from operator import mul

from .errors import InternalCheckError
from .linalg import _eliminate, cross_rows, dot, vsub


@dataclass(frozen=True)
class HullFacet:
    normal: tuple[int, ...]  # primitive integer, outward
    offset: int  # <normal, x> == offset on the facet
    weight: int  # (d-1)! Vol_{d-1}(facet) / ||normal||, an integer
    vertices: tuple[int, ...]  # extreme points on the facet, as indices into points


@dataclass(frozen=True)
class HullData:
    dim: int
    adim: int  # affine dimension of the points
    points: tuple[tuple[int, ...], ...]  # deduplicated, lex sorted
    vertex_indices: tuple[int, ...]  # extreme points, as indices into points
    facets: tuple[HullFacet, ...]  # sorted by normal; () when adim < dim
    volume: int  # d! Vol_d, by pyramids from points[0]; 0 when adim < dim


def hull_int(raw_points, dim: int) -> HullData:
    """Hull of a nonempty set of integer points in R^dim, dim >= 0, of any
    affine dimension (module docstring). A point in R^0 takes the flat
    path: it is its own r+1 = 1 extreme point."""
    pts = sorted(set(tuple(p) for p in raw_points))
    if len(pts) == dim + 1 > 1 and (hd := _simplex(pts, dim)) is not None:
        return hd
    init, dirs = _initial_simplex(pts, dim)
    r = len(dirs)
    if r == dim > 0:
        return _hull_2d(pts) if dim == 2 else _build(pts, dim, init)
    if len(pts) == r + 1:
        verts = range(len(pts))
    elif r == 1:
        verts = (0, len(pts) - 1)
    else:
        pivots, _ = _eliminate(dirs, dim)
        chart = [tuple(p[c] for c in pivots) for p in pts]
        verts = hull_int(chart, r).vertex_indices
    return HullData(dim, r, tuple(pts), tuple(verts), (), 0)


def _simplex(pts, d) -> HullData | None:
    """HullData of d+1 affinely independent points, d >= 1, in closed form;
    None when they are dependent (module docstring, simplex rule)."""
    p0 = pts[0]
    edges = [vsub(p, p0) for p in pts[1:]]
    normals = []  # normals[i]: outward, of the facet without vertex i
    for k, e in enumerate(edges):
        n = cross_rows(edges[:k] + edges[k + 1 :])
        det = dot(n, e)  # +-det(edges): zero for every k or for none
        if not det:
            return None
        normals.append(tuple(-x for x in n) if det > 0 else n)
    normals.insert(0, tuple(-sum(c) for c in zip(*normals)))
    facets = []
    for i, n in enumerate(normals):
        g = gcd(*n)
        z = tuple(x // g for x in n)
        on = pts[1] if i == 0 else p0
        verts = tuple(j for j in range(d + 1) if j != i)
        facets.append(HullFacet(z, dot(z, on), g, verts))
    facets.sort(key=lambda f: f.normal)
    return HullData(d, d, tuple(pts), tuple(range(d + 1)), tuple(facets), abs(det))


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
        g = gcd(ex, ey)
        z = (ey // g, -ex // g)  # outward for a counterclockwise ring
        ends = tuple(sorted((index[a], index[b])))
        facets.append(HullFacet(z, dot(z, a), g, ends))
    facets.sort(key=lambda f: f.normal)
    return HullData(
        2,
        2,
        tuple(pts),
        tuple(sorted(index[p] for p in ring)),
        tuple(facets),
        abs(area2),
    )


@dataclass(slots=True)
class _F:
    verts: tuple[int, ...]
    normal: tuple[int, ...]  # outward, nonzero
    offset: int
    nbrs: list  # nbrs[j]: the simplex across the ridge without verts[j]
    out: list  # outside set: unplaced points strictly beyond this simplex


# _AXES[d]: the unit rows of R^d, for every d that cross_rows serves
_AXES = tuple(
    tuple(tuple(int(j == k) for j in range(d)) for k in range(d)) for d in range(5)
)


def _initial_simplex(pts, d):
    """(init, dirs): r+1 affinely independent vertices of conv(pts), as
    indices, and the differences of the last r from the first, r the affine
    dimension of pts. The lex minimum pts[0] comes first; then, in turn, the
    point farthest from the flat so far along the first of its normals u
    that is not constant on pts. The lowest index among the farthest is the
    lex-first point of a face, so a vertex. The search stops when every
    such u is constant on pts, so that pts lie in the flat (these u span the
    complement of dirs), or when every point is used."""
    init, dirs = [0], []
    while len(dirs) < d and len(init) < len(pts):
        for e in combinations(_AXES[d], d - 1 - len(dirs)):
            u = cross_rows(dirs + list(e))
            h0 = dot(u, pts[0])
            heights = [abs(sum(map(mul, u, p)) - h0) for p in pts]
            h = max(heights)
            if h:
                break
        else:
            break
        init.append(heights.index(h))
        dirs.append(vsub(pts[init[-1]], pts[0]))
    return init, dirs


def _build(pts, d, init) -> HullData:
    cen_sum = tuple(sum(pts[i][k] for i in init) for k in range(d))

    def make_facet(verts, edges) -> _F:
        # edges: the rows from pts[verts[-1]] to the other points of verts
        n = cross_rows(edges)
        if not any(n):
            raise InternalCheckError("flat boundary simplex")
        # the centroid of the initial simplex stays strictly inside
        offset = dot(n, pts[verts[-1]])
        if dot(n, cen_sum) - (d + 1) * offset > 0:
            n, offset = tuple(-x for x in n), -offset
        return _F(verts, n, offset, [None] * d, [])

    def assign(ips, ks):
        # each point goes to the first simplex it is strictly beyond; one
        # beyond none lies in the hull so far and is not extreme
        planes = [(facets[k].normal, facets[k].offset, facets[k].out) for k in ks]
        for ip in ips:
            q = pts[ip]
            for z, c, out in planes:
                if sum(map(mul, z, q)) > c:
                    out.append(ip)
                    break
            else:
                outside.discard(ip)

    # simplex k omits init[k]; across its ridge without init[m] lies simplex m
    facets = {}
    for k in range(d + 1):
        verts = tuple(init[:k] + init[k + 1 :])
        facets[k] = make_facet(verts, [vsub(pts[i], pts[verts[-1]]) for i in verts[:-1]])
        facets[k].nbrs = [init.index(v) for v in verts]
    ids = count(d + 1)
    outside = set(range(len(pts))) - set(init)
    assign(sorted(outside), list(facets))

    # insert, of all points still outside, the one furthest along the
    # normal of a simplex with a nonempty outside set, the lowest index
    # among the furthest: a vertex (fact d); the visible simplices form a
    # ball (fact b): walk across ridges from this one; the horizon is the
    # ridges between a visible and an invisible simplex
    pending = [k for k, f in facets.items() if f.out]
    while pending:
        k = pending.pop()
        if k not in facets:
            continue
        z = facets[k].normal
        scan = sorted(outside)
        heights = [sum(map(mul, z, pts[i])) for i in scan]
        ip = scan[heights.index(max(heights))]
        outside.discard(ip)
        p = pts[ip]
        seen, stack, horizon = {k: True}, [k], []
        while stack:
            a = stack.pop()
            for j, b in enumerate(facets[a].nbrs):
                if b not in seen:
                    fb = facets[b]
                    seen[b] = sum(map(mul, fb.normal, p)) > fb.offset
                    if seen[b]:
                        stack.append(b)
                if not seen[b]:
                    horizon.append((a, j, b))
        # cone each horizon ridge to p, each edge row from p made once; two
        # new simplices meet on a ridge through p, keyed by its other vertices
        ridges = [facets[a].verts[:j] + facets[a].verts[j + 1 :] for a, j, _ in horizon]
        edge = {v: vsub(pts[v], p) for v in set(chain.from_iterable(ridges))}
        new, glue = [], {}
        for (a, _, b), ridge in zip(horizon, ridges):
            c = next(ids)
            facets[c] = f = make_facet(ridge + (ip,), [edge[v] for v in ridge])
            f.nbrs[-1] = b
            nb = facets[b].nbrs
            nb[nb.index(a)] = c
            for i in range(d - 1):
                key = frozenset(ridge[:i] + ridge[i + 1 :])
                if key in glue:
                    o, oi = glue.pop(key)
                    f.nbrs[i], facets[o].nbrs[oi] = o, c
                else:
                    glue[key] = (c, i)
            new.append(c)
        # an orphan still outside the hull is beyond a new simplex (fact c)
        orphans = [i for a, v in seen.items() if v for i in facets.pop(a).out]
        assign([i for i in orphans if i != ip], new)
        pending += [c for c in new if facets[c].out]

    # merge boundary simplices into true facets by supporting hyperplane;
    # each simplex adds its pyramid from pts[0] and its share of the weight;
    # its points are vertices (fact d), so they are its facet's vertices
    apex = pts[0]
    vol_scaled = 0
    groups: dict[tuple[tuple[int, ...], int], list] = {}
    for f in facets.values():
        vol_scaled += f.offset - dot(f.normal, apex)
        g = gcd(*f.normal)
        key = (tuple(x // g for x in f.normal), f.offset // g)
        groups.setdefault(key, []).append((f.verts, g))

    out = []
    for (z, c), simplex_list in groups.items():
        weight = sum(g for _, g in simplex_list)
        on_facet = sorted({i for verts, _ in simplex_list for i in verts})
        out.append(HullFacet(z, c, weight, tuple(on_facet)))
    out.sort(key=lambda f: f.normal)

    vertex = sorted({i for f in facets.values() for i in f.verts})
    return HullData(d, d, tuple(pts), tuple(vertex), tuple(out), vol_scaled)
