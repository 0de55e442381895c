"""Hull engine: pinned outputs, a brute-force facet oracle on general,
interior-heavy and all-vertex clouds, facet incidence, insertion-order
paths, flat and 1D input, and spies on the boundary simplices the kernel
makes and on its rank decisions."""

import hashlib
from fractions import Fraction as F
from functools import partial, reduce
from itertools import combinations, product
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mvlab.generators import ball_approx_3d, cross_polytope, cube, generate, simplex
from mvlab.geometry import convex_hull, dilate, minkowski_sum, translate
from mvlab import hull, linalg
from mvlab.hull import hull_int
from mvlab.linalg import (
    cross_rows, dot, primitive_from_rational, rank, scale_to_int, vsub,
)


def _digest(P):
    text = repr((P.vertices, P.facets, P.volume))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _image(rows, pts):
    return [tuple(dot(r, p) for r in rows) for p in pts]


def _box(sides):
    return list(product(*(range(s + 1) for s in sides)))


# unimodular maps: integer matrices of determinant +-1
_U2 = ((2, 1), (1, 1))
_U3 = ((1, 2, 0), (0, 1, 3), (1, 2, 1))
_U4 = ((1, 1, 0, 2), (0, 1, 2, 0), (0, 0, 1, -1), (1, 1, 0, 1))


def _sum_case(n, k):
    return lambda: minkowski_sum(cube(n), dilate(cross_polytope(n), F(1, k)))


def _lower(pts, n):
    return lambda: convex_hull(pts, n, allow_lower=True)


# every lattice point of each box, so the facets carry many coplanar points
CASES = {
    "cube3+cross3/2": _sum_case(3, 2),
    "cube3+cross3/3": _sum_case(3, 3),
    "cube4+cross4/2": _sum_case(4, 2),
    "cube4+cross4/3": _sum_case(4, 3),
    "U3.box(2,1,3)": lambda: convex_hull(_image(_U3, _box((2, 1, 3))), 3),
    "U4.box(2,1,1,2)": lambda: convex_hull(_image(_U4, _box((2, 1, 1, 2))), 4),
    "U4.box(1,1,1,1)/3": lambda: convex_hull(
        [tuple(F(x, 3) for x in p) for p in _image(_U4, _box((1, 1, 1, 1)))], 4
    ),
    "plane.d3": _lower(
        [(F(x, 2), F(y, 3), 1 - F(x, 2) - F(y, 3)) for x in range(4) for y in range(3)],
        3,
    ),
    "line.d4": _lower([(k, 2 * k, -k, F(k, 5)) for k in range(-3, 4)], 4),
    "plane.d4": _lower(_image(_U4, [p + (0, 0) for p in _box((2, 2))]), 4),
    "3flat.d4": _lower(_image(_U4, [p + (0,) for p in _box((2, 1, 2))]), 4),
    "regular_polygon:64,1000000": lambda: generate("regular_polygon", [64, 1000000]),
    # edge midpoints of 2*cross(4) lie on four facets whose normals have rank 3
    "lattice(2*cross4)": lambda: convex_hull(
        [p for p in product(range(-2, 3), repeat=4) if sum(map(abs, p)) <= 2], 4
    ),
}

# digests of (vertices, facets, volume), computed before the hull engine
# took its incidence from the boundary simplices and walked visible facets
PINNED = {
    "cube3+cross3/2": "10446eca3b711131",
    "cube3+cross3/3": "af5cc12b748c2f4f",
    "cube4+cross4/2": "b8e1b22e66df3c1c",
    "cube4+cross4/3": "e995e9745c267dde",
    "U3.box(2,1,3)": "7f282e2c3395ef8c",
    "U4.box(2,1,1,2)": "77e36d63fc6cf28e",
    "U4.box(1,1,1,1)/3": "f4eaa9a973854882",
    "plane.d3": "2854b6183e2a987a",
    "line.d4": "6d2d84aaa39798c0",
    "plane.d4": "93b461084dbb8e67",
    "3flat.d4": "a5e6c5e6817c5d2a",
    "regular_polygon:64,1000000": "2620809de7d4974e",
    "lattice(2*cross4)": "f3c2001ca6926d6b",
}


def test_pinned_digests():
    got = {name: _digest(build()) for name, build in CASES.items()}
    assert got == PINNED


coord = st.integers(min_value=-3, max_value=3)


@st.composite
def clouds(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    size = {"min_size": n + 1, "max_size": 3 * n + 6}
    pts = draw(st.lists(st.tuples(*[coord] * n), **size))
    den = draw(st.integers(min_value=1, max_value=3))
    return n, [tuple(F(x, den) for x in p) for p in pts]


@given(clouds())
def test_facet_incidence_matches_scan(cloud):
    n, pts = cloud
    P = convex_hull(pts, n, allow_lower=True)
    for f in P.facets:
        on = tuple(i for i, v in enumerate(P.vertices) if dot(f.normal, v) == f.offset)
        assert f.vertices == on


def _mapped(P, perm):
    """P's vertices, facets and volume as sets, with coordinates permuted."""

    def move(v):
        return tuple(v[i] for i in perm)

    facets = {
        (move(f.normal), f.offset, frozenset(move(P.vertices[j]) for j in f.vertices),
         f.normalized_volume)
        for f in P.facets
    }
    return {move(v) for v in P.vertices}, facets, P.volume


unit = st.integers(min_value=-1, max_value=1)


@st.composite
def full_clouds(draw):
    """Full-dimensional 3D/4D clouds: points of the {-1,0,1}^d lattice,
    rationals with denominator at most 2, or lattice points after a
    collinear lex prefix, so that ties and skipped points are common."""
    d = draw(st.integers(min_value=3, max_value=4))
    kind = draw(st.sampled_from(["lattice", "half", "prefix"]))
    size = {"min_size": d + 1, "max_size": 2 * d + 4}
    if kind == "half":
        x = st.builds(F, st.integers(min_value=-2, max_value=2), st.integers(1, 2))
        pts = draw(st.lists(st.tuples(*[x] * d), **size))
    else:
        pts = draw(st.lists(st.tuples(*[unit] * d), **size))
    if kind == "prefix":
        w = draw(st.tuples(*[unit] * (d - 1)).filter(any))
        k = draw(st.integers(min_value=2, max_value=4))
        pts += [(-2,) + tuple(t * x for x in w) for t in range(k)]
    pts = sorted(set(pts))
    assume(rank([vsub(p, pts[0]) for p in pts[1:]]) == d)
    return d, pts


def _brute_force(pts, d):
    """Facet hyperplanes (z, c), <z, x> <= c on every point, found over all
    d-point subsets, and the points at which their normals have rank d."""
    planes = set()
    for sub in combinations(pts, d):
        n = cross_rows([vsub(p, sub[0]) for p in sub[1:]])
        if not any(n):
            continue
        z = primitive_from_rational(n)
        c = dot(z, sub[0])
        values = [dot(z, p) for p in pts]
        if max(values) == c:
            planes.add((z, c))
        if min(values) == c:
            planes.add((tuple(-x for x in z), -c))
    vertices = {
        p for p in pts if rank([z for z, c in planes if dot(z, p) == c]) == d
    }
    return planes, vertices


# 2*cross(4) and its edge midpoints: each midpoint lies on an edge and is no
# vertex
_CROSS4_MIDPOINTS = sorted(
    {p for p in product(range(-2, 3), repeat=4) if sum(map(abs, p)) == 2}
)


# 2*cube(3), its 12 edge midpoints and its 6 facet centres: all of
# {0,1,2}^3 but the centre; the initial simplex's first scan finds nine
# points at the top height and must take the lowest index among them
_CUBE3_TIES = sorted(p for p in product(range(3), repeat=3) if p != (1, 1, 1))
# here the first insertion scan finds (1,0,0), (1,1,0) and (1,2,0) at the
# top height, and the middle one is no vertex
_SCAN_TIE = [(0, 0, 0), (0, 2, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 2, 2),
             (2, 0, 1)]


@settings(max_examples=80)
@example((4, _CROSS4_MIDPOINTS))
@example((3, _CUBE3_TIES))
@example((3, _SCAN_TIE))
@given(full_clouds())
def test_hull_matches_brute_force(cloud):
    d, pts = cloud
    P = convex_hull(pts, d)
    planes, vertices = _brute_force(pts, d)
    assert {(f.normal, f.offset) for f in P.facets} == planes
    assert set(P.vertices) == vertices
    assert P.volume == sum(f.offset * f.normalized_volume for f in P.facets) / d
    assert all(f.normalized_volume > 0 for f in P.facets)


@st.composite
def interior_heavy_clouds(draw):
    """A lattice simplex, box or cross-polytope in R^3 or R^4, dilated by 1
    or 2, plus lattice points of it: interior ones and ones on its facets
    and edges, at most 20 points in all."""
    d = draw(st.integers(min_value=3, max_value=4))
    kind = draw(st.sampled_from(["simplex", "box", "cross"]))
    k = draw(st.integers(min_value=1, max_value=2))
    if kind == "simplex":
        base = draw(st.lists(st.tuples(*[unit] * d), min_size=d + 1, max_size=d + 1))
        assume(rank([vsub(p, base[0]) for p in base[1:]]) == d)
    elif kind == "box":
        sides = draw(st.tuples(*[st.integers(1, 2)] * d))
        base = list(product(*[(0, s) for s in sides]))
    else:
        radii = draw(st.tuples(*[st.integers(1, 2)] * d))
        base = [tuple(s * r * (i == j) for i in range(d))
                for j, r in enumerate(radii) for s in (1, -1)]
    base = [tuple(k * x for x in p) for p in base]
    hd = hull_int(base, d)
    box = [range(min(c), max(c) + 1) for c in zip(*base)]
    inside = [p for p in product(*box)
              if p not in base and all(dot(f.normal, p) <= f.offset for f in hd.facets)]
    assume(inside)
    extra = draw(st.lists(st.sampled_from(inside), min_size=1,
                          max_size=min(20 - len(base), 12), unique=True))
    return d, base + extra


@settings(max_examples=40, deadline=None)
@given(interior_heavy_clouds())
def test_interior_heavy_matches_brute_force(cloud):
    d, pts = cloud
    P = convex_hull(pts, d)
    planes, vertices = _brute_force(pts, d)
    assert {(f.normal, f.offset) for f in P.facets} == planes
    assert set(P.vertices) == vertices
    assert P.volume == sum(f.offset * f.normalized_volume for f in P.facets) / d


@settings(max_examples=60)
# here the furthest point of a simplex's own outside set, (-1, -1, -1), is
# no vertex
@example((3, [(-2, -2, -2), (-2, 0, 0), (-1, -1, -1), (-1, 1, 0), (0, -2, -1),
              (0, 1, 1)]))
@example((3, _CUBE3_TIES))
@example((3, _SCAN_TIE))
@given(st.one_of(full_clouds(), interior_heavy_clouds()))
def test_every_inserted_point_is_a_vertex(cloud):
    # the initial simplex is made of vertices, and each inserted point
    # maximises a simplex's normal over every point still outside, so every
    # point of every boundary simplex the kernel makes is a vertex; d+1
    # points are a simplex, which the kernel builds in closed form with no
    # boundary simplices, and each of them is a vertex
    d, pts = cloud
    rows, _ = scale_to_int(pts)
    made = []
    make = hull._F

    def spy(verts, *rest):
        made.append(verts)
        return make(verts, *rest)

    with patch.object(hull, "_F", spy):
        hd = hull_int(rows, d)
    if len(hd.points) == d + 1:
        assert not made and hd.vertex_indices == tuple(range(d + 1))
    else:
        assert made
        assert {i for verts in made for i in verts} <= set(hd.vertex_indices)


def _spied_hull(rows, d):
    """hull_int(rows, d) and the vertex tuples of every boundary simplex it
    made, by a spy on the one record constructor _F."""
    made = []
    make = hull._F

    def spy(verts, *rest):
        made.append(verts)
        return make(verts, *rest)

    with patch.object(hull, "_F", spy):
        return hull_int(rows, d), made


# two segments and two triangles in R^4, the bodies of a 4D mixed volume,
# and the six sums of two or more of them that its polarization builds in
# full dimension
_MV4_BODIES = {
    "seg_a": [(0, 0, 0, 0), (1, 2, 0, -1)],
    "seg_b": [(1, 0, 1, 0), (0, F(1, 2), -1, 2)],
    "tri_a": [(0, 0, 0, 0), (1, 2, 0, 1), (0, 1, 3, 0)],
    "tri_b": [(1, 0, 0, 2), (0, 0, 2, 1), (2, 1, F(1, 2), 0)],
}


def _mv4_sum(name):
    parts = name.split("+")
    return reduce(minkowski_sum, [_lower(_MV4_BODIES[b], 4)() for b in parts])


# bodies whose own vertex rows are fed back to the kernel, so that every
# point is inserted; all but the icosphere have non-simplicial facets
ALL_VERTEX = {
    **{name: partial(_mv4_sum, name) for name in (
        "tri_a+tri_b", "seg_a+seg_b+tri_a", "seg_a+seg_b+tri_b",
        "seg_a+tri_a+tri_b", "seg_b+tri_a+tri_b", "seg_a+seg_b+tri_a+tri_b",
    )},
    "cube4+simplex4/3": lambda: minkowski_sum(cube(4), dilate(simplex(4), F(1, 3))),
    "ball_approx_3d(1,500)": lambda: ball_approx_3d(1, 500),
}


@pytest.mark.parametrize("name", [*ALL_VERTEX, "line.d1"])
def test_all_vertex_hulls_match_brute_force(name):
    # every point of an all-vertex cloud is inserted by a cone step, whose
    # sub-ridge keys glue the new simplices, and coplanar simplices merge
    # into the non-simplicial facets; a 1D line has inner points and no
    # sub-ridge keys at all
    if name == "line.d1":
        rows = [(5,), (-3,), (0,), (9,), (2,), (7,)]
    else:
        rows = list(ALL_VERTEX[name]().ints[0])
    d = len(rows[0])
    hd, made = _spied_hull(rows, d)
    planes, vertices = _brute_force(rows, d)
    assert {(f.normal, f.offset) for f in hd.facets} == planes
    assert {hd.points[i] for i in hd.vertex_indices} == vertices
    assert hd.volume == sum(f.offset * f.weight for f in hd.facets)
    assert made and {i for verts in made for i in verts} <= set(hd.vertex_indices)
    if name in ALL_VERTEX:
        assert hd.vertex_indices == tuple(range(len(rows)))
        simplicial = name.startswith("ball")
        assert (max(len(f.vertices) for f in hd.facets) == d) == simplicial
    else:
        assert hd.vertex_indices == (0, len(hd.points) - 1)


@st.composite
def simplex_clouds(draw):
    """d+1 distinct integer points in R^d, d = 1..4, with coordinates up to
    2 or up to 10^12 in size. The last point is an integer affine
    combination of the others when the cloud is to be dependent."""
    d = draw(st.integers(min_value=1, max_value=4))
    span = draw(st.sampled_from([2, 10**12]))
    x = st.integers(min_value=-span, max_value=span)
    pts = draw(st.lists(st.tuples(*[x] * d), min_size=d, max_size=d, unique=True))
    if draw(st.booleans()):
        pts.append(draw(st.tuples(*[x] * d)))
    else:
        c = draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
        pts.append(tuple(p0 + sum(t * (q[j] - p0) for t, q in zip(c, pts[1:]))
                         for j, p0 in enumerate(pts[0])))
    assume(len(set(pts)) == d + 1)
    return d, pts


@settings(max_examples=150)
@example((4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))
@example((3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]))
@given(simplex_clouds())
def test_simplex_closed_form(cloud):
    # d+1 affinely independent points get the HullData that the kernel's
    # search and Quickhull (or the monotone chain at d = 2) would build;
    # dependent ones keep the flat path
    d, pts = cloud
    hd = hull_int(pts, d)
    pts = sorted(pts)
    closed = hull._simplex(pts, d)
    r = rank([vsub(p, pts[0]) for p in pts[1:]])
    if r < d:
        assert closed is None
        assert (hd.dim, hd.adim, hd.facets, hd.volume) == (d, r, (), 0)
        assert {0, d} <= set(hd.vertex_indices)
    elif d == 2:
        assert hd == closed == hull._hull_2d(pts)
    else:
        assert hd == closed == hull._build(pts, d, hull._initial_simplex(pts, d)[0])


@settings(max_examples=80)
@given(full_clouds(), st.data())
def test_coordinate_permutation_invariance(cloud, data):
    # permuting coordinates changes the lex order, hence the insertion order
    d, pts = cloud
    perm = data.draw(st.permutations(range(d)))
    P = convex_hull(pts, d)
    Q = convex_hull([tuple(p[i] for i in perm) for p in pts], d)
    assert _mapped(P, perm) == _mapped(Q, range(d))


def test_points_before_initial_simplex():
    # the first lex points are collinear, so the initial simplex skips some
    # of them: it takes the vertices farthest along normals of the flat so
    # far, and the inner points of a run are never farthest. In the third
    # cloud (0, 1, 1) lies on an edge of the initial facet in the plane
    # x = 0, and in the fourth (0, 1, 0) does; neither is beyond a simplex,
    # so both are dropped, and (0, 1, 0) ends in the relative interior of
    # the facet x = 0. Reversing the coordinates changes the lex order, and
    # translating changes no hull at all. The expected hulls were computed
    # with the symbolically perturbed engine.
    clouds = [
        ([(0, 0, k) for k in range(5)]
         + [(0, 1, 0), (0, 2, 3), (1, 0, 0), (1, 1, 1), (2, -1, 2), (1, 1, 4)],
         (0, 0, 1), None),
        ([(0, 0, 0), (0, 0, 1), (0, 0, 2), (2, 1, 3), (2, 2, 0), (3, 2, 0)],
         (0, 0, 1), None),
        ([(0, 0, 0), (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 0), (1, 2, 1)],
         (0, 1, 1),
         ({(0, 0, 0), (0, 0, 2), (0, 2, 0), (1, 0, 0), (1, 2, 1)}, F(5, 3), 6)),
        ([(0, 0, 0), (0, 0, 1), (0, 1, -2), (0, 1, 0), (0, 2, 0), (1, 0, 0),
          (1, 1, 1), (2, 0, -1)],
         (0, 1, 0),
         ({(0, 0, 0), (0, 0, 1), (0, 1, -2), (0, 2, 0), (1, 1, 1), (2, 0, -1)},
          F(3), 7)),
    ]
    for base, inner, expected in clouds:
        P = convex_hull(base, 3)
        flipped = convex_hull([p[::-1] for p in base], 3)
        assert _mapped(P, (0, 1, 2)) == _mapped(flipped, (2, 1, 0))
        shift = (F(1, 2), 3, -1)
        Q = convex_hull([tuple(a + b for a, b in zip(p, shift)) for p in base], 3)
        assert translate(P, shift) == Q
        assert translate(P, shift).facets == Q.facets
        assert inner not in P.vertices and (0, 0, 0) in P.vertices
        if expected is not None:
            assert (set(P.vertices), P.volume, len(P.facets)) == expected


@st.composite
def flat_clouds(draw):
    """(r, n, perm, cloud): a lattice cloud in R^r, r = 1..3, to be lifted
    to R^n, r < n <= 4, with its coordinates permuted by perm after the
    lift (_lift). It holds r+1 affinely independent points, alone or with a
    collinear run from the first through the second and more points of R^r,
    so points inside the flat hull and on its boundary are common. Some
    permutations make the first r coordinates of the lift constant."""
    r = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=r + 1, max_value=4))
    base = draw(st.lists(st.tuples(*[coord] * r), min_size=r + 1, max_size=r + 1))
    assume(rank([vsub(p, base[0]) for p in base[1:]]) == r)
    step = vsub(base[1], base[0])
    run = [tuple(a + t * b for a, b in zip(base[0], step))
           for t in range(2, 2 + draw(st.integers(min_value=0, max_value=2)))]
    extra = draw(st.lists(st.tuples(*[coord] * r), max_size=2 * r + 2))
    perm = draw(st.permutations(range(n)))
    return r, n, perm, sorted(set(base + run + extra))


_LIFTS = {2: _U2, 3: _U3, 4: _U4}


def _lift(pts, r, n, perm):
    """Points of R^r, zero-padded to R^n, mapped by a unimodular matrix and
    with their coordinates permuted: an injective affine map."""
    lifted = _image(_LIFTS[n], [p + (0,) * (n - r) for p in pts])
    return [tuple(q[i] for i in perm) for q in lifted]


@settings(max_examples=80)
@example((3, 4, (0, 1, 2, 3), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
@example((2, 3, (0, 1, 2), [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)]))
@example((2, 4, (2, 0, 1, 3), [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)]))
@given(flat_clouds())
def test_flat_hull_vertices(cloud):
    # the lift is injective and affine, so the flat hull's extreme points
    # are the images of the cloud's, found over all its r-subsets
    r, n, perm, pts = cloud
    hd = hull_int(_lift(pts, r, n, perm), n)
    assert (hd.dim, hd.adim, hd.facets, hd.volume) == (n, r, (), 0)
    _, extreme = _brute_force(pts, r)
    assert {hd.points[i] for i in hd.vertex_indices} == set(_lift(extreme, r, n, perm))


@given(st.lists(st.integers(-10**6, 10**6), min_size=2, unique=True))
def test_line_hull(xs):
    # at d = 1 the kernel's two-point initial simplex is the whole hull
    m, lo, hi = len(xs), min(xs), max(xs)
    facets = (hull.HullFacet((-1,), -lo, F(1), (0,)),
              hull.HullFacet((1,), hi, F(1), (m - 1,)))
    points = tuple(sorted((x,) for x in xs))
    assert hull_int([(x,) for x in xs], 1) == hull.HullData(
        1, 1, points, (0, m - 1), facets, F(hi - lo))


def test_point_hull():
    # one point, also in R^0, is its own extreme point: no facets, volume 0
    for d in range(5):
        p = tuple(range(3, 3 + d))
        assert hull_int([p, p], d) == hull.HullData(d, 0, (p,), (0,), (), F(0))


def _rank_decisions(pts, d):
    """The dimensions of the initial-simplex searches and the row counts of
    the eliminations, in the hull kernel and in linalg, that building
    convex_hull(pts, d, allow_lower=True) makes."""
    searches, rows = [], []
    search, eliminate = hull._initial_simplex, linalg._eliminate

    def spy_search(points, dim):
        searches.append(dim)
        return search(points, dim)

    def spy_eliminate(mat, ncols):
        rows.append(len(mat))
        return eliminate(mat, ncols)

    with patch.object(hull, "_initial_simplex", spy_search), \
            patch.object(hull, "_eliminate", spy_eliminate), \
            patch.object(linalg, "_eliminate", spy_eliminate):
        convex_hull(pts, d, allow_lower=True)
    return searches, rows


def test_one_rank_decision_per_hull():
    # a simplex is built in closed form, with no search
    for d in range(1, 5):
        assert _rank_decisions([(0,) * d] + list(hull._AXES[d]), d) == ([], []), d
    # any other full-dimensional hull is one search and no elimination
    for d, pts in ((1, [(3,), (-1,), (0,)]),
                   (2, _image(_U2, _box((2, 3)))),
                   (3, _image(_U3, _box((2, 1, 3)))),
                   (4, _image(_U4, _box((2, 1, 1, 2))))):
        assert _rank_decisions(pts, d) == ([d], []), d
    # a flat one eliminates only its r basis rows, and its chart is one
    # more hull; a line or r+1 points need neither
    for r, pts in ((2, _box((2, 2))), (3, _box((2, 1, 2)))):
        assert _rank_decisions(_lift(pts, r, 4, range(4)), 4) == ([4, r], [r]), r
    line = [(k,) for k in range(5)]
    assert _rank_decisions(_lift(line, 1, 4, range(4)), 4) == ([4], [])
    triangle = _box((1, 1))[:3]
    assert _rank_decisions(_lift(triangle, 2, 4, range(4)), 4) == ([4], [])
