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

Cone step. A boundary simplex is the cone from its last point p over the
others, with normal n = cross_rows(the rows from p to them) turned so that
<n, w> < 0, w = s - (d+1)p, s the sum of the initial simplex's points: the
centroid s/(d+1) stays strictly inside, so <n, w> = 0 only if n = 0, which
(a) rules out, and each insertion makes one w. Two new simplices meet on p
and a sub-ridge, d-2 points of a horizon ridge, keyed by their sorted pair
at d = 4 and by its point at d = 3 (none at d = 1; d = 2 takes the chain).

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
from itertools import combinations
from math import gcd
from operator import mul, neg

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
    ring = []  # the lower chain, then the upper: counterclockwise, strictly convex
    for seq in (pts, pts[::-1]):
        half: list[tuple[int, int]] = []
        for p in seq:
            while len(half) >= 2 and _cross2(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        ring += half[:-1]

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
    verts = tuple(sorted(index[p] for p in ring))
    return HullData(2, 2, tuple(pts), verts, tuple(facets), abs(area2))


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

    # simplex k omits init[k]; across its ridge without init[m] lies simplex
    # m; it is the cone from its last point p (cone step)
    facets = {}
    for k in range(d + 1):
        verts = tuple(init[:k] + init[k + 1 :])
        p = pts[verts[-1]]
        n = cross_rows([vsub(pts[i], p) for i in verts[:-1]])
        if (s := dot(n, cen_sum) - (d + 1) * dot(n, p)) > 0:
            n = tuple(map(neg, n))
        elif not s:
            raise InternalCheckError("flat boundary simplex")
        facets[k] = _F(verts, n, dot(n, p), [m for m in range(d + 1) if m != k], [])
    top = d + 1  # the next simplex id
    outside = set(range(len(pts))) - set(init)
    assign(sorted(outside), list(facets))

    # insert the point furthest along the normal of a simplex with a nonempty
    # outside set, a vertex (fact d); walk the visible ball (fact b) across
    # ridges from this simplex to the horizon, the visible-invisible ridges
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
            va = facets[a].verts
            for j, b in enumerate(facets[a].nbrs):
                vis = seen.get(b)
                if vis is None:
                    fb = facets[b]
                    vis = seen[b] = sum(map(mul, fb.normal, p)) > fb.offset
                    if vis:
                        stack.append(b)
                if not vis:
                    horizon.append((a, b, va[:j] + va[j + 1 :]))
        # cone each horizon ridge to p, each edge row from p made once; two
        # new simplices meet on a ridge through p, keyed by its sub-ridge
        edge = {v: vsub(pts[v], p) for v in {v for *_, r in horizon for v in r}}
        w = [c - (d + 1) * x for c, x in zip(cen_sum, p)]
        new, glue = range(top, top + len(horizon)), {}
        top += len(horizon)
        for c, (a, b, ridge) in zip(new, horizon):
            n = cross_rows([edge[v] for v in ridge])
            if (s := sum(map(mul, n, w))) > 0:
                n = tuple(map(neg, n))
            elif not s:
                raise InternalCheckError("flat boundary simplex")
            facets[c] = f = _F(ridge + (ip,), n, sum(map(mul, n, p)), [None] * d, [])
            f.nbrs[-1] = b
            nb = facets[b].nbrs
            nb[nb.index(a)] = c
            if d == 4:  # sorted vertex pairs
                r0, r1, r2 = ridge
                keys = (
                    (r1, r2) if r1 < r2 else (r2, r1),
                    (r0, r2) if r0 < r2 else (r2, r0),
                    (r0, r1) if r0 < r1 else (r1, r0),
                )
            else:  # one vertex at d = 3, none at d = 1
                keys = ridge[::-1]
            for i, key in enumerate(keys):
                if (o := glue.pop(key, None)) is None:
                    glue[key] = (c, i)
                else:
                    f.nbrs[i], facets[o[0]].nbrs[o[1]] = o[0], c
        # an orphan still outside the hull is beyond a new simplex (fact c)
        orphans = [i for a, v in seen.items() if v for i in facets.pop(a).out]
        assign([i for i in orphans if i != ip], new)
        pending += [c for c in new if facets[c].out]

    # merge boundary simplices into true facets by supporting hyperplane;
    # each simplex adds its pyramid from pts[0] and its share of the weight;
    # its points are vertices (fact d), so they are its facet's vertices
    apex, vol_scaled = pts[0], 0
    weight: dict[tuple[tuple[int, ...], int], int] = {}  # keyed by (z, c)
    on: dict[tuple[tuple[int, ...], int], set] = {}
    for f in facets.values():
        n, c = f.normal, f.offset
        vol_scaled += c - sum(map(mul, n, apex))
        g = gcd(*n)
        key = (n, c) if g == 1 else (tuple([x // g for x in n]), c // g)
        weight[key] = weight.get(key, 0) + g
        on.setdefault(key, set()).update(f.verts)
    out = [HullFacet(*key, weight[key], tuple(sorted(on[key]))) for key in sorted(on)]
    vertex = sorted(set().union(*on.values()))
    return HullData(d, d, tuple(pts), tuple(vertex), tuple(out), vol_scaled)
