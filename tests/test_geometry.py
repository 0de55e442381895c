import copy
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rand_body, rand_full_body
from mvlab import geometry
from mvlab.bezout import (
    MoveSpec,
    bezout_gap,
    move_facet,
    safe_move_range,
    simplex_audit,
)
from mvlab.errors import (
    BadParams,
    DegenerateInput,
    DimensionLimit,
    DimensionMismatch,
    EmptyIntersection,
    Unbounded,
    ZeroVector,
)
from mvlab.generators import cross_polytope, cube, random_points
from mvlab.geometry import (
    _from_int_points,
    FacetData,
    Halfspace,
    Polytope,
    clip_halfspace,
    contains_point,
    convex_hull,
    dilate,
    empty_polytope,
    face_in_direction,
    facet_structure,
    interior_point,
    minkowski_sum,
    project_along,
    support_value,
    translate,
    vertex_adjacency,
    vertex_enumeration,
)
from mvlab.hull import hull_int
from mvlab.linalg import cross_rows, dot, primitive_from_rational, rank, scale_to_int

F = Fraction


def square():
    return convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)


def triangle():
    return convex_hull([(0, 0), (1, 0), (0, 1)], 2)


# ---------------------------------------------------------------- hulls


def test_hull_drops_interior_and_duplicate_points():
    P = convex_hull(
        [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2)), (1, 1)], 2
    )
    assert P.vertices == square().vertices
    assert P.volume == 1


def test_hull_degenerate_without_flag():
    with pytest.raises(DegenerateInput):
        convex_hull([(0, 0), (1, 1), (2, 2)], 2)
    with pytest.raises(DegenerateInput):
        convex_hull([], 2)
    with pytest.raises(DegenerateInput):
        facet_structure(convex_hull([(0, 0), (1, 1)], 2, allow_lower=True))


def test_hull_lower_dimensional():
    seg = convex_hull([(0, 0), (1, 1), (2, 2)], 2, allow_lower=True)
    assert seg.dim == 2 and seg.adim == 1
    assert seg.vertices == ((F(0), F(0)), (F(2), F(2)))
    assert seg.volume == 0  # ambient 2-volume, not intrinsic length
    pt = convex_hull([(1, 1)], 2, allow_lower=True)
    assert pt.adim == 0 and pt.volume == 0


def test_hull_dim_cap():
    with pytest.raises(DimensionLimit):
        convex_hull([tuple(int(i == j) for j in range(5)) for i in range(5)]
                    + [(0,) * 5], 5)


def test_triangle_facets():
    got = [(f.normal, f.offset, f.normalized_volume) for f in triangle().facets]
    assert got == [
        ((-1, 0), 0, 1),
        ((0, -1), 0, 1),
        ((1, 1), 1, 1),
    ]


def test_volumes():
    assert square().volume == 1
    assert triangle().volume == F(1, 2)
    c3 = convex_hull(
        [tuple((m >> i) & 1 for i in range(3)) for m in range(8)], 3
    )
    assert c3.volume == 1
    cross = convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 3
    )
    assert cross.volume == F(4, 3)
    s4 = convex_hull(
        [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)], 4
    )
    assert s4.volume == F(1, 24)


# ---------------------------------------------------------------- clipping


def test_clip_pentagon():
    P = clip_halfspace(square(), Halfspace((1, 1), F(3, 2)))
    assert P.vertices == tuple(
        sorted([(F(0), F(0)), (F(1), F(0)), (F(1), F(1, 2)),
                (F(1, 2), F(1)), (F(0), F(1))])
    )


def test_clip_noop_and_empty():
    assert clip_halfspace(square(), Halfspace((1, 0), 2)) == square()
    assert clip_halfspace(square(), Halfspace((1, 0), -1)).is_empty
    E = empty_polytope(2)
    assert clip_halfspace(E, Halfspace((1, 0), 0)) is E
    with pytest.raises(ZeroVector):
        clip_halfspace(square(), Halfspace((0, 0), 1))
    with pytest.raises(DimensionMismatch):
        clip_halfspace(square(), Halfspace((1, 0, 0), 1))


def test_clip_ge_sense():
    # y >= 1/2, written as -y <= -1/2
    upper = clip_halfspace(square(), Halfspace((0, -1), F(-1, 2)))
    assert upper.volume == F(1, 2)
    assert min(v[1] for v in upper.vertices) == F(1, 2)


@pytest.mark.parametrize("P, z, b", [
    (cube(2), (1.0, 0), F(1, 2)),
    (cube(2), (0.5, -0.25), F(1, 8)),
    (cube(3), (1, 0.0, -1.5), 0.25),
    (cross_polytope(4), (0.5, 0.5, 0, -2.0), F(1, 3)),
], ids=["square", "square_halves", "cube3", "cross4"])
def test_clip_float_normal_matches_fraction_normal(P, z, b):
    # a float normal is made exact before the side values are formed, so
    # it cuts the body its Fraction value cuts
    Q = clip_halfspace(P, Halfspace(z, b))
    R = clip_halfspace(P, Halfspace(tuple(map(F, z)), F(b)))
    assert Q.is_full_dimensional and 0 < Q.volume < P.volume
    assert (Q.ints, Q.facet_ints, Q.volume_ints) == (R.ints, R.facet_ints, R.volume_ints)


# ---------------------------------------------------------------- enumeration


def test_vertex_enumeration_square():
    hs = [
        Halfspace((1, 0), 1), Halfspace((-1, 0), 0),
        Halfspace((0, 1), 1), Halfspace((0, -1), 0),
    ]
    assert vertex_enumeration(hs, 2) == square()
    # a non-primitive normal scales its bound too: 2x <= 1 is x <= 1/2
    hs[0] = Halfspace((2, 0), 1)
    half = convex_hull([(0, 0), (F(1, 2), 0), (0, 1), (F(1, 2), 1)], 2)
    assert vertex_enumeration(hs, 2) == half


def test_vertex_enumeration_rational_normals():
    # each normal scales to primitive form, and its bound by the same factor
    hs = [
        Halfspace((F(1, 2), 0), F(1, 2)), Halfspace((F(-2, 3), 0), 0),
        Halfspace((0, F(3, 4)), F(3, 4)), Halfspace((0, -1), 0),
    ]
    assert vertex_enumeration(hs, 2) == square()
    # x/2 <= 1 is x <= 2
    hs[0] = Halfspace((F(1, 2), 0), 1)
    wide = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1)], 2)
    assert vertex_enumeration(hs, 2) == wide
    # a float normal is made exact, its bound scaled by the same factor
    hs[0] = Halfspace((1.0, 0), 1)
    assert vertex_enumeration(hs, 2) == square()
    hs[0] = Halfspace((0.5, 0), 1)
    assert vertex_enumeration(hs, 2) == wide


def test_vertex_enumeration_unbounded():
    with pytest.raises(Unbounded):
        vertex_enumeration([Halfspace((1, 0), 1), Halfspace((0, 1), 1)], 2)
    with pytest.raises(Unbounded):
        vertex_enumeration([], 2)
    # more than n normals, but of rank 2 < 3: the x_3 axis is free
    slab = [Halfspace(z, 1) for z in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))]
    with pytest.raises(Unbounded):
        vertex_enumeration(slab, 3)


def test_vertex_enumeration_empty():
    hs = [
        Halfspace((1, 0), -1), Halfspace((-1, 0), 0),
        Halfspace((0, 1), 1), Halfspace((0, -1), 0),
    ]
    with pytest.raises(EmptyIntersection):
        vertex_enumeration(hs, 2)


def _per_subset_vertex_enumeration(halfspaces, dim):
    """vertex_enumeration as it was with n cross_rows calls per n-subset,
    before the cofactors were shared per (n-1)-subset: the reference for
    the differential test below."""
    if dim < 1 or dim > geometry.DIM_CAP:
        raise DimensionLimit(f"ambient dimension {dim} outside 1..{geometry.DIM_CAP}")
    if len(halfspaces) > 128:
        raise BadParams("more than 128 halfspaces")
    tight = {}
    for h in halfspaces:
        z = h.normal
        if not any(z):
            raise ZeroVector("halfspace with zero normal")
        if len(z) != dim:
            raise DimensionMismatch("halfspace normal length mismatch")
        u = primitive_from_rational(z)
        k = next(k for k, c in enumerate(z) if c)
        b = F(h.bound) * u[k] / F(z[k])
        if u not in tight or b < tight[u]:
            tight[u] = b
    normals = sorted(tight)
    if not geometry._origin_interior(normals, dim):
        raise Unbounded("constraint normals do not positively span R^n")
    D = lcm(*(b.denominator for b in tight.values()))
    rows = [(z, tight[z].numerator * (D // tight[z].denominator)) for z in normals]
    candidates = set()
    for subset in combinations(rows, dim):
        a = [z for z, _ in subset]
        cof = [
            tuple((-1) ** (dim - 1 - j) * c for c in cross_rows(a[:j] + a[j + 1 :]))
            for j in range(dim)
        ]
        det = dot(cof[-1], a[-1])
        if det == 0:
            continue
        X = [sum(bj * C[i] for (_, bj), C in zip(subset, cof)) for i in range(dim)]
        if det < 0:
            det, X = -det, [-c for c in X]
        if all(dot(z, X) <= bz * det for z, bz in rows):
            candidates.add(tuple(F(c, det * D) for c in X))
    if not candidates:
        raise EmptyIntersection("halfspace intersection is empty")
    return geometry._from_points(candidates, dim)


def _seeded_halfspaces(seed):
    """A box about the origin in R^n, n = 2..4, plus random cuts, among
    them duplicate normals, parallel (scaled) normals and redundant cuts;
    bounds of either sign, so some sets are empty."""
    rng = random.Random(f"venum-diff:{seed}")
    n = 2 + seed % 3
    hs = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        hs.append(Halfspace(e, F(rng.randrange(1, 7), rng.randrange(1, 4))))
        hs.append(Halfspace(tuple(-x for x in e), F(rng.randrange(0, 7), rng.randrange(1, 4))))
    for _ in range(rng.randrange(1, 6)):
        z = tuple(rng.randrange(-3, 4) for _ in range(n))
        if not any(z):
            continue
        b = F(rng.randrange(-4, 9), rng.randrange(1, 5))
        hs.append(Halfspace(z, b))
        kind = rng.randrange(4)
        if kind == 0:  # the same normal again, with another bound
            hs.append(Halfspace(z, b + F(rng.randrange(-2, 3), 3)))
        elif kind == 1:  # a parallel normal, scaled
            k = rng.randrange(2, 4)
            hs.append(Halfspace(tuple(k * x for x in z), k * b + rng.randrange(-1, 2)))
        elif kind == 2:  # redundant: far beyond the box
            hs.append(Halfspace(z, F(100)))
    rng.shuffle(hs)
    return hs, n


def _box_with(n, extra):
    hs = [Halfspace(tuple(s * int(j == i) for j in range(n)), 1)
          for i in range(n) for s in (1, -1)]
    return hs + extra


_VENUM_EDGE_CASES = [
    # x <= 0 and -x <= 0: the intersection is a lower-dimensional face
    (_box_with(2, [Halfspace((1, 0), 0), Halfspace((-1, 0), 0)]), 2),
    (_box_with(3, [Halfspace((1, 0, 0), 0), Halfspace((-1, 0, 0), 0)]), 3),
    (_box_with(4, [Halfspace((0, 1, 1, 0), 0), Halfspace((0, -1, -1, 0), 0)]), 4),
    # x >= 1/2 and x <= -1/2: empty
    (_box_with(3, [Halfspace((1, 0, 0), F(-1, 2)), Halfspace((-1, 0, 0), F(-1, 2))]), 3),
]


@pytest.mark.parametrize(
    "hs, dim",
    [_seeded_halfspaces(seed) for seed in range(36)] + _VENUM_EDGE_CASES,
    ids=[f"seed{seed}" for seed in range(36)] + ["flat2", "flat3", "flat4", "empty3"],
)
def test_vertex_enumeration_matches_per_subset_solver(hs, dim):
    def run(solve):
        try:
            P = solve(hs, dim)
        except Exception as exc:  # both sides must raise the same type
            return type(exc)
        return P.adim, P.ints, P.facet_ints, P.volume_ints

    assert run(vertex_enumeration) == run(_per_subset_vertex_enumeration)


def test_vertex_enumeration_halfspace_cap():
    """At most C(128, 2) n-subsets of the input: one more halfspace is
    refused before any work, even on a set that is also unbounded, and
    the most allowed (the box's halfspaces repeated) give the box."""
    hs = [Halfspace((1, k), k) for k in range(200)]
    with pytest.raises(BadParams):
        vertex_enumeration(hs, 2)
    for dim, most in ((2, 128), (3, 37), (4, 22)):
        box = _box_with(dim, [])
        assert vertex_enumeration((box * most)[:most], dim) == vertex_enumeration(box, dim)
        unbounded = [Halfspace((1, k) + (0,) * (dim - 2), k) for k in range(most + 1)]
        with pytest.raises(BadParams, match=f"{most + 1} halfspaces"):
            vertex_enumeration(unbounded, dim)


@pytest.mark.parametrize("hs, dim, error", [
    ([Halfspace((1,), 1), Halfspace((-1,), 0)], 0, DimensionLimit),
    ([Halfspace((1,) * 5, 1)], 5, DimensionLimit),
    ([Halfspace((1, 0), 1), Halfspace((0, 0), 1)], 2, ZeroVector),
    ([Halfspace((1, 0), 1), Halfspace((0, 1, 0), 1)], 2, DimensionMismatch),
], ids=["dim_0", "dim_5", "zero_normal", "normal_length"])
def test_vertex_enumeration_input_guards(hs, dim, error):
    with pytest.raises(error):
        vertex_enumeration(hs, dim)


# ---------------------------------------------------------------- support & faces


def test_support_values():
    sq = square()
    assert support_value(sq, (1, 1)) == 2
    assert support_value(sq, (-1, 0)) == 0
    assert support_value(sq, (3, -2)) == 3
    with pytest.raises(ZeroVector):
        support_value(sq, (0, 0))
    with pytest.raises(DegenerateInput):
        support_value(empty_polytope(2), (1, 0))
    # a short or long direction used to be truncated to the body's length
    for z in ((1,), (1, 0, 5)):
        with pytest.raises(DimensionMismatch):
            support_value(triangle(), z)
        with pytest.raises(DimensionMismatch):
            face_in_direction(triangle(), z)


def test_face_in_direction():
    sq = square()
    v = face_in_direction(sq, (1, 1))
    assert v.adim == 0 and v.vertices == ((F(1), F(1)),)
    e = face_in_direction(sq, (1, 0))
    assert e.adim == 1 and set(e.vertices) == {(F(1), F(0)), (F(1), F(1))}


def test_float_directions_are_exact():
    """A direction that is not all-int is made exact: support values are
    Fractions, and face ties are exact. Along (0.1, 0.2), which is 0.1·(1, 2)
    exactly, (0, 6) and (2, 5) tie, though their float dot products
    1.2000000000000002 and 1.2 do not."""
    assert support_value(square(), (0.5, 1)) == F(3, 2)
    assert support_value(square(), (Decimal("0.1"), -1)) == F(1, 10)
    P = convex_hull([(0, 0), (0, 6), (2, 5)], 2)
    assert support_value(P, (0.1, 0.2)) == 12 * F(0.1)
    for z in ((0.1, 0.2), (Decimal("0.1"), Decimal("0.2")), (1, 2.0)):
        face = face_in_direction(P, z)
        assert face == face_in_direction(P, (1, 2)) and face.adim == 1


def test_minkowski_triangle_plus_segment():
    seg = convex_hull([(0, 0), (1, 0)], 2, allow_lower=True)
    s = minkowski_sum(triangle(), seg)
    assert s.vertices == tuple(
        sorted([(F(0), F(0)), (F(0), F(1)), (F(1), F(1)), (F(2), F(0))])
    )
    assert s.volume == F(3, 2)
    assert minkowski_sum(triangle(), empty_polytope(2)).is_empty
    assert minkowski_sum(empty_polytope(2), seg).is_empty
    with pytest.raises(DimensionMismatch):
        minkowski_sum(triangle(), convex_hull([(0, 0, 0), (1, 0, 0)], 3, True))


def test_translate_dilate():
    sq = square()
    t = translate(sq, (F(1, 2), -1))
    assert t.volume == 1
    assert min(v[0] for v in t.vertices) == F(1, 2)
    d = dilate(sq, F(3, 2))
    assert d.volume == F(9, 4)
    assert facet_structure(d)[0].normal in [f.normal for f in sq.facets]
    o = dilate(sq, 0)
    assert o.adim == 0 and o.vertices == ((F(0), F(0)),)
    with pytest.raises(BadParams):
        dilate(sq, -1)
    with pytest.raises(DimensionMismatch):
        translate(sq, (1, 0, 0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_translate_dilate_build_no_hull(n, monkeypatch):
    """translate and dilate map a body's integers without a hull, for
    full, lower-dimensional, point and empty bodies alike."""
    bodies = _view_bodies(n)[:3] + [empty_polytope(n)]
    calls = []
    monkeypatch.setattr(geometry, "hull_int",
                        lambda *args: calls.append(args) or hull_int(*args))
    for P in bodies:
        moved = [translate(P, (F(1, 3),) * n), dilate(P, F(5, 3)), dilate(P, 7)]
        assert [Q.adim for Q in moved] == [P.adim] * 3
        assert dilate(P, 0).adim == min(P.adim, 0)
    assert calls == []


def test_interior_and_contains():
    sq = square()
    c = interior_point(sq)
    assert contains_point(sq, c)
    assert contains_point(sq, (0, 0))
    assert not contains_point(sq, (2, 0))
    seg = convex_hull([(0, 0), (2, 2)], 2, allow_lower=True)
    assert contains_point(seg, (1, 1))
    assert not contains_point(seg, (3, 3))  # on its line, beyond an end
    assert not contains_point(seg, (1, 0))  # off its line
    assert not contains_point(empty_polytope(2), (0, 0))
    with pytest.raises(DegenerateInput):
        interior_point(empty_polytope(2))


def test_flat_contains_point_builds_no_view():
    """On a flat body the query rebuilds the hull from P's integer rows and
    x over one common scale, so P's vertex view is never built; x may have
    other denominators than P's rows."""
    tri = convex_hull([(0, 0, 0), (F(1, 2), 0, 1), (0, F(1, 3), 1)], 3,
                      allow_lower=True)
    seg = convex_hull([(0, 0), (2, 2)], 2, allow_lower=True)
    for P, x, inside in (
        (tri, (F(1, 8), F(1, 12), F(1, 2)), True),
        (tri, (F(1, 2), 0, 1), True),
        (tri, (F(1, 4), F(1, 6), 1), True),  # on an edge
        (tri, (F(1, 4), F(1, 5), F(11, 10)), False),  # in the plane, outside
        (tri, (F(1, 8), F(1, 12), F(1, 3)), False),  # off the plane
        (tri, (0.125, 0.0, 0.25), True),
        (seg, (F(7, 5), F(7, 5)), True),
        (seg, (3, 3), False),
    ):
        assert contains_point(P, x) is inside
        assert P._vertices is None


def test_vertex_adjacency_square():
    edges = vertex_adjacency(square())
    assert len(edges) == 4
    degree = [0, 0, 0, 0]
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert degree == [2, 2, 2, 2]
    with pytest.raises(DegenerateInput):
        vertex_adjacency(convex_hull([(0, 0), (1, 0)], 2, allow_lower=True))


def test_project_along_diagonal():
    # along (1,1) onto {x_1 = 0}: x -> x_2 - x_1, so the square maps onto
    # [-1, 1] with factor |v_1| = 1
    P, factor = project_along(square(), (1, 1))
    assert factor == 1
    assert P.dim == 1 and P.volume == 2
    assert P.vertices == ((F(-1),), (F(1),))
    # scaling v keeps the map and scales the factor
    Q, factor = project_along(square(), (2, 2))
    assert Q == P and factor == 2


def test_project_along_axis():
    P, factor = project_along(square(), (0, 1))
    assert factor == 1
    assert P.volume == 1


def test_project_along_from_line():
    # R^1 projects onto R^0: one point, the empty tuple
    for v in ((1,), (F(-2, 3),)):
        P, factor = project_along(cube(1), v)
        assert (P.dim, P.adim, P.vertices, P.volume) == (0, 0, ((),), 0)
        assert factor == abs(v[0])


def test_project_along_zero_direction():
    with pytest.raises(ZeroVector):
        project_along(square(), (0, 0))
    with pytest.raises(DegenerateInput):
        project_along(empty_polytope(2), (1, 0))
    with pytest.raises(DimensionMismatch):
        project_along(square(), (1, 0, 0))


# ---------------------------------------------------------------- integer rows


def assert_rows(P):
    """P.ints = (rows, s): integer rows in lex order, rows[i] / s equal to
    vertices[i]."""
    rows, s = P.ints
    assert type(s) is int and s > 0
    assert all(type(c) is int for row in rows for c in row)
    assert list(rows) == sorted(rows)
    assert tuple(tuple(F(c, s) for c in row) for row in rows) == P.vertices


def _third_square():
    return convex_hull([(0, 0), (F(1, 3), 0), (0, F(1, 3)), (F(1, 3), F(1, 3))], 2)


def _half_triangle():
    return convex_hull([(F(1, 2), 0), (1, F(1, 2)), (0, 1)], 2)


def _cube3():
    return convex_hull([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], 3)


BUILDERS = {
    "empty": lambda: empty_polytope(2),
    "point": lambda: convex_hull([(F(1, 2), F(-2, 3))] * 2, 2, allow_lower=True),
    "lower": lambda: convex_hull([(0, 0), (F(1, 2), F(1, 4)), (1, F(1, 2))], 2, True),
    "full": lambda: convex_hull([(F(1, 2), 0), (0, 1), (1, 1), (F(1, 3), F(1, 2))], 2),
    "minkowski_scales": lambda: minkowski_sum(_third_square(), _half_triangle()),
    "dilate_0": lambda: dilate(_half_triangle(), 0),
    "dilate_int": lambda: dilate(_half_triangle(), 3),
    "dilate_p_q": lambda: dilate(_half_triangle(), F(2, 3)),
    "translate": lambda: translate(_half_triangle(), (F(-1, 5), 2)),
    "project_axis": lambda: project_along(_cube3(), (0, 0, 1))[0],
    "project_oblique": lambda: project_along(_cube3(), (-2, 1, F(1, 2)))[0],
    "face_vertex": lambda: face_in_direction(_half_triangle(), (0, 1)),
    "face_edge": lambda: face_in_direction(_third_square(), (1, 0)),
    "clip": lambda: clip_halfspace(_half_triangle(), Halfspace((1, 1), F(5, 4))),
    "enumeration": lambda: vertex_enumeration(
        [Halfspace((1, 0), F(1, 2)), Halfspace((0, 1), F(2, 3)),
         Halfspace((-1, -1), 1)], 2
    ),
    "shift_facet": lambda: move_facet(_cube3(), MoveSpec(0, F(1, 3))),
    "positional": lambda: Polytope(2, 0, (((1, 6),), 2), ((), 1, 1), (0, 1)),
}
builders = pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())


@builders
def test_integer_rows(build):
    assert_rows(build())


@builders
def test_fresh_body_has_no_views(build):
    """Every body is built from its integer encodings alone: no vertex,
    facet or volume view exists until one is read."""
    P = build()
    assert (P._vertices, P._facets, P._volume) == (None, None, None)


def test_integer_rows_reference_images():
    """The integer paths agree with the Fraction formulas they replace."""
    A, B = _third_square(), _half_triangle()
    assert A.ints[1] == 3 and B.ints[1] == 2
    sums = [tuple(a + b for a, b in zip(p, q)) for p in A.vertices for q in B.vertices]
    assert minkowski_sum(A, B) == convex_hull(sums, 2)
    K = _cube3()
    for v in ((0, 0, 1), (-2, 1, F(1, 2)), (0, F(-3, 2), 1), (0.5, -1, 0.25)):
        k = next(i for i, c in enumerate(v) if c)
        images = [
            tuple(x[j] - x[k] * F(v[j]) / F(v[k]) for j in range(3) if j != k)
            for x in K.vertices
        ]
        P, factor = project_along(K, v)
        assert P == convex_hull(images, 2) and factor == abs(F(v[k]))
        assert type(factor) is F
    assert interior_point(B) == tuple(sum(c) / 3 for c in zip(*B.vertices))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minkowski_point_is_translation(n):
    """A sum with a point, in either operand order, and the translate by
    that point equal the hull of the moved rows, facets, volume and integer
    rows included, for full, lower-dimensional and point bodies."""
    rng = random.Random(f"minkowski-point:{n}")
    for _ in range(3):
        q = convex_hull(random_points(rng, n, 1, 3, 3), n, allow_lower=True)
        bodies = [rand_full_body(rng, n), rand_body(rng, n, count=2),
                  rand_body(rng, n, count=n), rand_body(rng, n, count=1)]
        for K in bodies:
            (rk, sk), (rq, sq) = K.ints, q.ints
            s = lcm(sk, sq)
            a, b = s // sk, s // sq
            rows = [tuple(a * x + b * y for x, y in zip(r, rq[0])) for r in rk]
            ref = _from_int_points(rows, s, n)
            for got in (minkowski_sum(K, q), minkowski_sum(q, K),
                        translate(K, q.vertices[0])):
                assert (got, got.adim, got.facets, got.volume, got.ints) == (
                    ref, ref.adim, ref.facets, ref.volume, ref.ints)
                assert_rows(got)


@builders
def test_integer_rows_ignored_by_equality(build):
    """Equality, hashing and key() see the point set, not the scale: a
    body is the same as a copy of its rows at 7 times its scale, whose
    vertex view is built from those rows, and as a copy of its own Fraction
    vertices cleared at the least scale."""
    P = build()
    rows, s = P.ints
    scaled = (tuple(tuple(7 * c for c in r) for r in rows), 7 * s)
    least, t = scale_to_int(P.vertices)
    Q = Polytope(P.dim, P.adim, scaled, P.facet_ints, P.volume_ints)
    R = Polytope(P.dim, P.adim, (tuple(least), t), P.facet_ints, P.volume_ints)
    assert Q.ints != P.ints
    for X in (Q, R):
        assert X == P and P == X and not X != P
        assert hash(X) == hash(P) and X.key() == P.key()
        assert_rows(X)
    assert Q.vertices == P.vertices
    for X in (pickle.loads(pickle.dumps(P)), copy.deepcopy(Q)):
        assert (X, X.adim, X.facets, X.volume) == (P, P.adim, P.facets, P.volume)
    assert P != Polytope(P.dim + 1, P.adim, P.ints, P.facet_ints, P.volume_ints)
    assert P.__eq__(P.ints) is NotImplemented and P != P.ints
    with pytest.raises(AttributeError):
        P.adim = 0
    if rows:
        moved = (rows[:-1] + (tuple(c + 1 for c in rows[-1]),), s)
        assert P != Polytope(P.dim, P.adim, moved, P.facet_ints, P.volume_ints)


def test_vertex_view_built_only_when_read():
    """The gap of two segments against a 4-simplex reads K's integer rows
    alone; K's Fraction vertices are built on the first read, as rows / s."""
    n = 4
    L = convex_hull([(0, 0, 0, 0), (1, F(1, 2), 0, 0)], n, allow_lower=True)
    M = convex_hull([(0, F(1, 3), 0, 0), (0, 0, 2, -1)], n, allow_lower=True)
    K = convex_hull([(0, 0, 0, 0)] + [tuple(F(i == j, j + 2) for j in range(n))
                                      for i in range(n)], n)
    assert bezout_gap(L, M, K).gap >= 0
    assert K._vertices is None
    rows, s = K.ints
    view = K.vertices
    assert view == tuple(tuple(F(c, s) for c in row) for row in rows)
    assert all(type(c) is F for v in view for c in v)
    assert K.vertices is view


def _fraction_views(P):
    """(facets, volume) of P by the Fraction formula of an eager build:
    hull_int on P's own rows at scale s, each offset over s, each weight
    Fraction(w, (n-1)!) over s^(n-1) and the volume Fraction(v, n!) over
    s^n; () and Fraction(0) for a lower-dimensional or empty P."""
    n = P.dim
    if not P.is_full_dimensional:
        return (), F(0)
    rows, s = P.ints
    hd = hull_int(rows, n)
    position = {i: k for k, i in enumerate(hd.vertex_indices)}
    facets = tuple(
        FacetData(hf.normal, F(hf.offset, s), tuple(position[i] for i in hf.vertices),
                  F(hf.weight, factorial(n - 1)) / s ** (n - 1))
        for hf in hd.facets
    )
    return facets, F(hd.volume, factorial(n)) / s**n


def _view_bodies(n):
    """Bodies in R^n (R^(n-1) for the projection) from every constructor
    that builds or moves facet data."""
    rng = random.Random(f"views:{n}")
    K = rand_full_body(rng, n)
    flat = rand_body(rng, n, count=n)
    point = convex_hull(random_points(rng, n, 1, 3, 3), n, allow_lower=True)
    (x,) = random_points(rng, n, 1, 3, 4)
    z = tuple(rng.choice((-2, -1, 1, 3)) for _ in range(n))
    mid = (support_value(K, z) - support_value(K, tuple(-c for c in z))) / 2
    box = [Halfspace(tuple(s * int(i == j) for j in range(n)), b)
           for i in range(n) for s, b in ((1, 1), (-1, 0))]
    return [
        K, flat, point,
        translate(K, x), translate(flat, x),
        dilate(K, F(5, 3)), dilate(flat, F(5, 3)), dilate(K, 0),
        minkowski_sum(K, point), minkowski_sum(point, K), minkowski_sum(flat, point),
        clip_halfspace(K, Halfspace(z, mid)),
        project_along(K, z)[0],
        face_in_direction(K, z), face_in_direction(K, K.facet_ints[0][0][0]),
        vertex_enumeration(box + [Halfspace(z, F(1, 2))], n),
        empty_polytope(n),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_facet_and_volume_views_match_fraction_formula(n):
    """The views built from the integer facet data equal, value, type and
    repr, the Fractions of an eager build; a lower-dimensional body has no
    facets and the volume Fraction(0)."""
    for P in _view_bodies(n):
        facets, volume = _fraction_views(P)
        assert (P.facets, P.volume) == (facets, volume)
        assert repr((P.facets, P.volume)) == repr((facets, volume))
        assert type(P.volume) is F
        for f in P.facets:
            assert type(f.offset) is F and type(f.normalized_volume) is F
        if not P.is_full_dimensional:
            assert P.facets == () and P.volume == 0


def test_facet_and_volume_views_built_only_when_read():
    """The gap, the safe move range, facet moves of either sign and the
    simplex audit read the integer facet data of their bodies alone; pickle
    and deepcopy carry the integers, so neither copy nor original gets a
    view built."""
    n = 3
    simplex = [(0, 0, 0), (1, F(1, 2), 0), (0, F(2, 3), 1), (F(1, 3), 0, 2)]
    cases = [
        ([(0, 0, 0), (1, F(1, 2), 0)], [(0, F(1, 3), 0), (0, 0, 2)], simplex),
        (simplex, [(0, 0, 0), (1, 0, 0), (0, F(1, 2), 1)],
         [(a, b, c) for a in (0, F(1, 2)) for b in (0, 1) for c in (0, 2)]),
    ]
    for lp, mp, kp in cases:
        L, M = (convex_hull(p, n, allow_lower=True) for p in (lp, mp))
        K = convex_hull(kp, n)
        bezout_gap(L, M, K)
        for P in (L, M, K):
            assert P._facets is None and P._volume is None
    for body in (simplex, cases[1][2]):
        K = convex_hull(body, n)
        moved = []
        for i in range(len(K.facet_ints[0])):
            t_min, t_max = safe_move_range(K, i)
            moved += [move_facet(K, MoveSpec(i, t)) for t in (t_min / 2, t_max / 2)]
        simplex_audit(K)
        for P in [K] + moved:
            assert P._facets is None and P._volume is None
    P = convex_hull(kp, n)
    for X in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P)):
        assert X == P and X.facet_ints == P.facet_ints
        for Y in (X, P):
            assert Y._facets is None and Y._volume is None
        assert (X.facets, X.volume) == _fraction_views(P)


# bool, float, Decimal and numeric strings go through Fraction(); int and
# Fraction coordinates are kept as given
MIXED_POINTS = [
    (False, "0"),
    (1.5, Decimal("0")),
    ("3/2", True),
    (F(1, 4), 0.75),
    (Decimal("0.5"), "1.25"),
]


def test_coordinate_types():
    exact = [tuple(F(c) for c in p) for p in MIXED_POINTS]
    P, Q = convex_hull(MIXED_POINTS, 2), convex_hull(exact, 2)
    assert (P.vertices, P.ints, P.facets, P.volume) == (Q.vertices, Q.ints, Q.facets, Q.volume)
    assert P.vertices == ((0, 0), (F(1, 4), F(3, 4)), (F(1, 2), F(5, 4)),
                          (F(3, 2), 0), (F(3, 2), 1))
    assert all(type(c) is F for v in P.vertices for c in v)
    S = convex_hull([(0, 0), (2, 1)], 2, allow_lower=True)
    for x in MIXED_POINTS + [(1, F(1, 2)), (True, 0.5), ("1", Decimal("0.5"))]:
        y = tuple(F(c) for c in x)
        assert contains_point(P, x) == contains_point(P, y)
        assert contains_point(S, x) == contains_point(S, y)
    assert contains_point(S, (True, 0.5)) and not contains_point(S, ("1", "1"))
    for bad in ("x", "1/0x", float("nan")):
        with pytest.raises(ValueError):
            convex_hull([(0, 0), (1, 0), (0, bad)], 2)
        with pytest.raises(ValueError):
            contains_point(P, (bad, 0))
    with pytest.raises(OverflowError):
        convex_hull([(0, 0), (1, 0), (0, float("inf"))], 2)
    with pytest.raises(TypeError):
        convex_hull([(0, 0), (1, 0), (0, None)], 2)



def test_clip_leaves_vertex_view_unbuilt():
    """clip_halfspace crosses edges on the integer rows: clipping a fresh
    hull, full or flat, builds none of its Fraction vertices, whether the
    cut keeps it, empties it or crosses its edges. test_clip_matches_all_chords
    checks the clipped bodies."""
    flat = [(0, 0, 0), (1, 0, 0), (0, F(1, 2), 0)]
    for build in (_cube3, lambda: convex_hull(flat, 3, allow_lower=True)):
        for b in (3, -1, F(5, 2), F(1, 3)):
            K = build()
            clip_halfspace(K, Halfspace((1, 1, 1), b))
            assert K._vertices is None and K._facets is None

# ---------------------------------------------------------------- properties

coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
point2 = st.tuples(coord, coord)
pts2 = st.lists(point2, min_size=3, max_size=7)


def _full(points):
    P = convex_hull(points, 2, allow_lower=True)
    return P if P.is_full_dimensional else None


@given(pts2)
def test_hull_idempotent(points):
    P = convex_hull(points, 2, allow_lower=True)
    if P.is_empty:
        return
    assert convex_hull(P.vertices, 2, allow_lower=True).vertices == P.vertices


@given(pts2)
def test_round_trip_via_enumeration(points):
    P = _full(points)
    if P is None:
        return
    hs = [Halfspace(f.normal, f.offset) for f in P.facets]
    assert vertex_enumeration(hs, 2) == P


@given(pts2, st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coord)
def test_clip_volume_additivity(points, z, b):
    P = _full(points)
    if P is None or z == (0, 0):
        return
    lo = clip_halfspace(P, Halfspace(z, b))
    hi = clip_halfspace(P, Halfspace(tuple(-c for c in z), -b))
    assert lo.volume + hi.volume == P.volume


@given(pts2, point2)
def test_translation_invariance(points, x):
    P = _full(points)
    if P is None:
        return
    assert translate(P, x).volume == P.volume


@given(pts2)
def test_facet_identity(points):
    """n·vol = sum of offset·weight once the origin is interior."""
    P = _full(points)
    if P is None:
        return
    P = translate(P, tuple(-c for c in interior_point(P)))
    total = sum(f.offset * f.normalized_volume for f in P.facets)
    assert total == 2 * P.volume


@given(pts2, pts2, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_minkowski_support_additive(pa, pb, z):
    if z == (0, 0):
        return
    A = convex_hull(pa, 2, allow_lower=True)
    B = convex_hull(pb, 2, allow_lower=True)
    s = minkowski_sum(A, B)
    assert support_value(s, z) == support_value(A, z) + support_value(B, z)


@settings(max_examples=15)
@given(st.integers(0, 10**6))
def test_round_trip_3d_random(seed):
    rng = random.Random(f"geom3:{seed}")
    P = rand_full_body(rng, 3)
    hs = [Halfspace(f.normal, f.offset) for f in P.facets]
    assert vertex_enumeration(hs, 3) == P


def test_round_trip_4d_samples():
    rng = random.Random("geom4")
    for _ in range(3):
        P = rand_full_body(rng, 4, count=6)
        hs = [Halfspace(f.normal, f.offset) for f in P.facets]
        assert vertex_enumeration(hs, 4) == P


def test_clip_additivity_3d():
    rng = random.Random("clip3")
    for _ in range(10):
        P = rand_full_body(rng, 3)
        z = tuple(rng.randrange(-3, 4) for _ in range(3))
        if not any(z):
            continue
        b = F(rng.randrange(-2, 3), rng.randrange(1, 3))
        lo = clip_halfspace(P, Halfspace(z, b))
        hi = clip_halfspace(P, Halfspace(tuple(-c for c in z), -b))
        assert lo.volume + hi.volume == P.volume


def test_hull_random_contains_all_inputs():
    rng = random.Random("contain")
    for _ in range(10):
        pts = random_points(rng, 3, 8, 3, 2)
        P = convex_hull(pts, 3, allow_lower=True)
        if not P.is_full_dimensional:
            continue
        assert all(contains_point(P, p) for p in pts)


# ---------------------------------------------------------------- integer cuts
# clip_halfspace crosses only P's edges, vertex_adjacency counts common
# facets and vertex_enumeration solves by integer Cramer's rule; the
# all-chords clip and the rank edge test below are their references.


def _clip_all_chords(P, h):
    """Reference clip: the hull of the kept vertices and of every crossing
    of a chord from a vertex strictly below the bound to one strictly
    above, in Fractions."""
    z, b = h.normal, h.bound
    vals = [dot(z, v) for v in P.vertices]
    pts = {v for v, val in zip(P.vertices, vals) if val <= b}
    if not pts:
        return empty_polytope(P.dim)
    for v, val in zip(P.vertices, vals):
        for w, wal in zip(P.vertices, vals):
            if val < b < wal:
                t = (b - val) / (wal - val)
                pts.add(tuple(a + t * (c - a) for a, c in zip(v, w)))
    return convex_hull(pts, P.dim, allow_lower=True)


def _adjacency_by_rank(P):
    """Reference edges: vertex pairs whose common facets have normals of
    rank n-1."""
    incident = [
        {fi for fi, f in enumerate(P.facets) if vi in f.vertices}
        for vi in range(len(P.vertices))
    ]
    return tuple(
        (i, j)
        for i, j in combinations(range(len(P.vertices)), 2)
        if rank([P.facets[fi].normal for fi in incident[i] & incident[j]])
        == P.dim - 1
    )


def _cut_body(n, kind, seed):
    """cube(n), cross_polytope(n), or a seeded hull: of rational points
    ("full"), of lattice points in [-2, 2]^n, which have many vertices on
    more than n facets ("lattice"), or of points in the hyperplane
    x_n = x_1, lower-dimensional for n >= 2 ("flat")."""
    rng = random.Random(f"cut:{n}:{kind}:{seed}")
    if kind == "cube":
        return cube(n)
    if kind == "cross":
        return cross_polytope(n)
    if kind == "full":
        return rand_full_body(rng, n)
    if kind == "lattice":
        return rand_full_body(rng, n, count=n + 3, span=2, max_den=1)
    pts = random_points(rng, n, n + 3, 3, 2)
    return convex_hull([p[:-1] + (p[0],) for p in pts], n, allow_lower=True)


cut_dims = st.integers(1, 4)
seeds = st.integers(0, 10**6)


@given(cut_dims, st.sampled_from(["full", "lattice", "flat"]), seeds, st.booleans())
@example(4, "cube", 0, True)
@example(4, "cube", 1, False)
@example(4, "cross", 0, True)
@example(4, "cross", 1, False)
def test_clip_matches_all_chords(n, kind, seed, through_vertex):
    rng = random.Random(f"clip:{seed}")
    P = _cut_body(n, kind, seed)
    z = (0,) * n
    while not any(z):
        z = tuple(rng.randrange(-3, 4) for _ in range(n))
    if through_vertex:
        b = dot(z, rng.choice(P.vertices))
    else:
        b = F(rng.randrange(-4, 5), rng.randrange(1, 4))
    h = Halfspace(z, b)
    got, ref = clip_halfspace(P, h), _clip_all_chords(P, h)
    assert got == ref and got.adim == ref.adim
    assert set(got.facets) == set(ref.facets) and got.volume == ref.volume


@given(cut_dims, st.sampled_from(["full", "lattice"]), seeds)
@example(4, "cube", 0)
@example(4, "cross", 0)
def test_vertex_adjacency_matches_rank(n, kind, seed):
    P = _cut_body(n, kind, seed)
    assert vertex_adjacency(P) == _adjacency_by_rank(P)


@given(st.integers(3, 4), st.sampled_from(["full", "lattice"]), seeds)
@example(4, "cube", 0)
@example(4, "cross", 0)
def test_round_trip_via_enumeration_nd(n, kind, seed):
    """Facets of lattice bodies and of cross_polytope(4) give singular
    n-subsets and vertices on more than n facets."""
    P = _cut_body(n, kind, seed)
    Q = vertex_enumeration([Halfspace(f.normal, f.offset) for f in P.facets], n)
    assert Q == P and set(Q.facets) == set(P.facets) and Q.volume == P.volume
