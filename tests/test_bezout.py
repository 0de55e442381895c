import random
from fractions import Fraction

import pytest

from conftest import (
    nonsimplex_hull,
    rand_affine_simplex,
    rand_body,
    rand_full_body,
    rand_segment,
)
from mvlab import bezout
from mvlab.bezout import (
    FacetAuditRecord,
    MoveSpec,
    af_spot_check,
    bezout_gap,
    bezout_gap_general,
    cap_cut,
    counterexample_search,
    facet_move_linearity_check,
    homothety_check,
    lemma_measure_power_identity,
    measures_proportional,
    move_facet,
    projection_preserved,
    safe_move_range,
    simplex_audit,
    support_drop_set,
    _moved_vertices,
)
from mvlab.errors import (
    BadArity,
    BadParams,
    BudgetExhausted,
    DegenerateInput,
    DimensionLimit,
    DimensionMismatch,
    EmptyIntersection,
    EmptyOrFlat,
    RangeViolation,
    ZeroVector,
)
from mvlab.generators import (
    cross_polytope,
    cube,
    prism,
    random_hull,
    regular_polygon,
    simplex,
    truncated_simplex,
)
from mvlab.geometry import (
    Halfspace,
    clip_halfspace,
    contains_point,
    convex_hull,
    dilate,
    facet_structure,
    interior_point,
    support_value,
    translate,
    vertex_enumeration,
)
from mvlab.linalg import dot, primitive_from_rational
from mvlab.mixed import surface_area_measure, DiscreteMeasure

F = Fraction


def seg(a, b, n):
    return convex_hull([a, b], n, allow_lower=True)


def square_pyramid():
    return convex_hull(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (F(1, 2), F(1, 2), 1)], 3
    )


def pyramid_4d():
    """Pyramid over square_pyramid(): two facets miss exactly one vertex."""
    return convex_hull(
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
         (F(1, 2), F(1, 2), 1, 0), (F(1, 2), F(1, 2), F(1, 2), 1)],
        4,
    )


def unit_segs(n):
    z = (0,) * n
    return [seg(z, tuple(int(i == j) for j in range(n)), n) for i in range(n)]


# ---------------------------------------------------------------- gaps


def test_gap_square_segments():
    L, M = unit_segs(2)
    cert = bezout_gap(L, M, cube(2))
    assert cert.gap == F(-1, 4)
    assert cert.verdict == "violated" and not cert.equality
    assert cert.recompute() == cert.gap


def test_gap_triangle_segments_equality():
    L, M = unit_segs(2)
    cert = bezout_gap(L, M, simplex(2))
    assert cert.gap == 0 and cert.equality and cert.verdict == "satisfied"


def test_gap_cube_segments():
    L, M, _ = unit_segs(3)
    assert bezout_gap(L, M, cube(3)).gap == F(-1, 18)


def test_gap_general_r3_cube():
    assert bezout_gap_general(unit_segs(3), cube(3), 3) == F(-7, 54)


def test_gap_general_r2_matches_special_form():
    rng = random.Random("gapgen")
    for _ in range(5):
        K = rand_full_body(rng, 2)
        L = rand_body(rng, 2)
        M = rand_body(rng, 2)
        assert bezout_gap_general([L, M], K, 2) == bezout_gap(L, M, K).gap


def test_gap_identity_slot():
    rng = random.Random("gapid")
    K = rand_full_body(rng, 3)
    M = rand_body(rng, 3)
    assert bezout_gap(K, M, K).gap == 0


def test_gap_errors():
    sq = cube(2)
    with pytest.raises(DimensionMismatch):
        bezout_gap(sq, cube(3), cube(3))
    with pytest.raises(DegenerateInput):
        bezout_gap(sq, sq, seg((0, 0), (1, 0), 2))
    with pytest.raises(BadArity):
        bezout_gap_general([sq], sq, 2)
    with pytest.raises(BadArity):
        bezout_gap_general([sq, sq], sq, 5)
    with pytest.raises(DegenerateInput):
        bezout_gap_general([sq, sq], seg((0, 0), (1, 0), 2), 2)
    with pytest.raises(DimensionMismatch):
        bezout_gap_general([sq, cube(3)], sq, 2)
    unit = cube(1)
    with pytest.raises(DimensionLimit):
        bezout_gap(unit, unit, unit)


# ---------------------------------------------------------------- facet moves


def test_safe_move_range_square():
    sq = cube(2)
    for i in range(4):
        t_min, t_max = safe_move_range(sq, i)
        assert t_min <= F(-1, 4) and t_max >= F(1, 2)
        assert t_min < 0 < t_max


def test_safe_move_range_triangle():
    tri = simplex(2)
    for i in range(3):
        t_min, t_max = safe_move_range(tri, i)
        assert t_min < 0 < t_max


def test_move_facet_square():
    sq = cube(2)
    i = next(
        j for j, f in enumerate(facet_structure(sq)) if f.normal == (0, 1)
    )
    Kt = move_facet(sq, MoveSpec(i, F(1, 2)))
    assert Kt.vertices == tuple(
        sorted([(F(0), F(0)), (F(1), F(0)), (F(0), F(3, 2)), (F(1), F(3, 2))])
    )


def test_move_facet_accepts_exactly_facet_keeping_moves():
    # every move that keeps every facet is accepted, inside the certified
    # range or not; moves that flatten, empty or lose a facet are not
    sq = cube(2)
    t_min, t_max = safe_move_range(sq, 0)
    assert move_facet(sq, MoveSpec(0, t_max)).is_full_dimensional
    assert move_facet(sq, MoveSpec(0, t_min)).is_full_dimensional
    assert move_facet(sq, MoveSpec(0, 2 * t_max)) == _brute_shift(sq, 0, 2 * t_max)
    w = _width(sq, 0)
    for t in (-w, -2 * w):
        with pytest.raises(RangeViolation):
            move_facet(sq, MoveSpec(0, t))
    K = truncated_simplex(2, F(1, 4))
    i = next(j for j, f in enumerate(facet_structure(K)) if f.normal == (1, 0))
    with pytest.raises(RangeViolation):
        move_facet(K, MoveSpec(i, F(1, 4)))


def test_facet_index_guards():
    sq = cube(2)
    for i in (-1, len(facet_structure(sq))):
        with pytest.raises(BadParams):
            safe_move_range(sq, i)
        with pytest.raises(BadParams):
            move_facet(sq, MoveSpec(i, F(1, 8)))
        with pytest.raises(BadParams):
            facet_move_linearity_check(sq, sq, i, F(1, 8))


def test_move_facet_preserves_fan_random():
    rng = random.Random("fan")
    for _ in range(8):
        n = rng.choice([2, 3])
        K = rand_full_body(rng, n)
        i = rng.randrange(len(facet_structure(K)))
        t_min, t_max = safe_move_range(K, i)
        t = rng.choice([t_max / 2, t_min / 2, t_max / 3, t_min / 3])
        Kt = move_facet(K, MoveSpec(i, t))
        assert {f.normal for f in facet_structure(Kt)} == {
        f.normal for f in facet_structure(K)
        }


def _brute_shift(K, i, t):
    """Reference K_t: public vertex_enumeration of the shifted halfspaces."""
    return vertex_enumeration(
        [
            Halfspace(f.normal, f.offset + (t if j == i else 0))
            for j, f in enumerate(facet_structure(K))
        ],
        K.dim,
    )


def _width(K, i):
    z = facet_structure(K)[i].normal
    return support_value(K, z) + support_value(K, tuple(-c for c in z))


def _keeps(K, i, t):
    """True iff move_facet accepts K_t, that is, K_t keeps every facet of K."""
    try:
        move_facet(K, MoveSpec(i, t))
    except RangeViolation:
        return False
    return True


def _move_bodies():
    """The bodies of acceptance criteria 5 and 6, cross_polytope(3) and the
    square pyramid."""
    rng = random.Random("acc5")
    bodies = [simplex(2), simplex(3), cube(2), cube(3)]
    bodies += [rand_full_body(rng, 2) for _ in range(5)]
    bodies += [rand_full_body(rng, 3) for _ in range(5)]
    bodies += [
        simplex(4), cross_polytope(2), cross_polytope(3),
        prism(simplex(2), 1),
        truncated_simplex(2, F(1, 4)), truncated_simplex(3, F(1, 3)),
        square_pyramid(),
    ]
    bodies += [nonsimplex_hull(2, i) for i in range(10)]
    bodies += [nonsimplex_hull(3, 100 + i) for i in range(10)]
    return bodies


def test_shift_facet_matches_brute_force():
    for K in _move_bodies():
        normals = {f.normal for f in facet_structure(K)}
        for i in range(len(facet_structure(K))):
            t_min, t_max = safe_move_range(K, i)
            for t in (t_max, t_max / 2, 0, t_min, t_min / 2):
                Kt = move_facet(K, MoveSpec(i, t))
                ref = _brute_shift(K, i, t)
                assert Kt == ref, (K, i, t)
                assert Kt.facets == ref.facets and Kt.volume == ref.volume
                assert {f.normal for f in Kt.facets} == normals


def test_shift_facet_centroid_outside():
    # at t_min = -w/2 the centroid of simplex(2) lies beyond the moved
    # bound; an inward move is a clip of K, which needs no interior point
    K = simplex(2)
    g = interior_point(K)
    for i, f in enumerate(facet_structure(K)):
        t_min, _ = safe_move_range(K, i)
        assert t_min == -_width(K, i) / 2
        assert dot(f.normal, g) > f.offset + t_min
        Kt = move_facet(K, MoveSpec(i, t_min))
        assert Kt == _brute_shift(K, i, t_min)
        assert Kt.volume == K.volume / 4


def test_shift_facet_flat_and_empty():
    for K in (simplex(2), cube(3), cross_polytope(3)):
        for i in range(len(facet_structure(K))):
            w = _width(K, i)
            with pytest.raises(RangeViolation):
                move_facet(K, MoveSpec(i, -w))
            assert _brute_shift(K, i, -w).adim < K.dim
            with pytest.raises(RangeViolation):
                move_facet(K, MoveSpec(i, -2 * w))
            with pytest.raises(EmptyIntersection):
                _brute_shift(K, i, -2 * w)


def test_shift_facet_vanishing_facet():
    # the cut x_1 <= 3/4 of truncated_simplex(2, 1/4) vanishes at t = 1/4;
    # the vertices of the moved body still come back, with kept false
    K = truncated_simplex(2, F(1, 4))
    i = next(j for j, f in enumerate(facet_structure(K)) if f.normal == (1, 0))
    for t in (F(1, 4), F(1, 2)):
        verts, kept = _moved_vertices(K, i, t)
        assert not kept
        ref = _brute_shift(K, i, t)
        assert ref == simplex(2) and len(ref.facets) == 3
        assert convex_hull(verts, 2) == ref
    assert safe_move_range(K, i)[1] == F(3, 16)


def test_safe_move_range_ladder():
    # each end is the first rung of w, w/2, ... or -w/2, -w/4, ... whose
    # move keeps every facet; a simplex keeps every t in (-w, oo), so its
    # ladders stop at their first rungs, -w/2 and w
    for K in _move_bodies():
        for i in range(len(facet_structure(K))):
            w = _width(K, i)
            t_min, t_max = safe_move_range(K, i)
            for ratio in (w / t_max, -w / 2 / t_min):
                assert ratio.denominator == 1
                assert ratio.numerator & (ratio.numerator - 1) == 0
            if t_max < w:
                assert not _keeps(K, i, 2 * t_max)
            if t_min > -w / 2:
                assert not _keeps(K, i, 2 * t_min)
            if len(K.vertices) == K.dim + 1:
                assert (t_min, t_max) == (-w / 2, w)
                for t in (-3 * w / 4, 4 * w):
                    assert _keeps(K, i, t)


def test_move_facet_dual_hull_only_outward(monkeypatch):
    # an inward move is a clip of K and takes no dual hull; an outward move
    # takes exactly one
    hulls, hull = [], bezout.hull_int
    monkeypatch.setattr(bezout, "hull_int", lambda *a: hulls.append(a) or hull(*a))
    for K in _move_bodies():
        for i in range(len(K.facet_ints[0])):
            t_min, t_max = safe_move_range(K, i)
            before = len(hulls)
            move_facet(K, MoveSpec(i, t_min / 2))
            assert len(hulls) == before
            move_facet(K, MoveSpec(i, t_max / 2))
            assert len(hulls) == before + 1


def test_facet_moves_refuse_flat_bodies():
    # a flat body has no facet rows; that is DegenerateInput, never a bad
    # facet index
    flat = (seg((0, 0), (1, 2), 2),
            convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 3, allow_lower=True))
    for K in flat:
        assert K.facet_ints == ((), 1, 1)
        with pytest.raises(DegenerateInput):
            safe_move_range(K, 0)
        for t in (F(1, 2), F(-1, 2)):
            with pytest.raises(DegenerateInput):
                move_facet(K, MoveSpec(0, t))
        with pytest.raises(DegenerateInput):
            simplex_audit(K)


def _reference_ladder(K, i, start):
    """The first of start·w, start·w/2, ... whose move vertex_enumeration
    finds keeping every facet of K, w the width of K along z_i."""
    t = start * _width(K, i)
    while True:
        Kt = _brute_shift(K, i, t)
        if Kt.adim == K.dim and len(Kt.facets) == len(K.facets):
            return t
        t /= 2


def test_safe_move_range_matches_reference_ladder():
    # the interval's ends are open: on the cut facet (1, 0) of
    # truncated_simplex(2, 1/2), the move 2·t_max = 1/2 = w loses the
    # facet, and on the hexagon both ends of every facet fall on a rung
    cut = truncated_simplex(2, F(1, 2))
    hexagon = convex_hull([(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)], 2)
    for K in [cut, hexagon] + _move_bodies():
        for i in range(len(facet_structure(K))):
            assert safe_move_range(K, i) == (
                _reference_ladder(K, i, F(-1, 2)),
                _reference_ladder(K, i, 1),
            ), (K, i)
    i = next(j for j, f in enumerate(facet_structure(cut)) if f.normal == (1, 0))
    assert safe_move_range(cut, i)[1] == F(1, 4)


def test_safe_move_range_thin_body():
    # the cut of truncated_simplex(2, 10^-21) is an edge of length about
    # 10^-21·sqrt(2): moves that lose it lie 69 and 70 rungs down the
    # ladders, and the audit still gives a verdict
    K = truncated_simplex(2, F(1, 10**21))
    rungs = []
    for i in range(len(facet_structure(K))):
        w = _width(K, i)
        t_min, t_max = safe_move_range(K, i)
        rungs += [(w / t_max).numerator.bit_length() - 1,
                  (-w / 2 / t_min).numerator.bit_length() - 1]
        assert move_facet(K, MoveSpec(i, t_min)) == _brute_shift(K, i, t_min)
    assert max(rungs) == 70
    assert simplex_audit(K).verdict == "non-simplex"


def test_safe_move_range_builds_no_body(monkeypatch):
    # each range costs one dual hull, of K_w; K_t is built only by
    # move_facet
    bodies = (cube(3), random_hull(4, 7, 2), truncated_simplex(2, F(1, 10**21)))
    calls, hulls = [], []
    build, hull = bezout._from_points, bezout.hull_int
    monkeypatch.setattr(
        bezout, "_from_points", lambda *a: calls.append(a) or build(*a)
    )
    monkeypatch.setattr(bezout, "hull_int", lambda *a: hulls.append(a) or hull(*a))
    for K in bodies:
        for i in range(len(facet_structure(K))):
            before = len(hulls)
            safe_move_range(K, i)
            assert len(hulls) == before + 1
    assert calls == []
    move_facet(bodies[0], MoveSpec(0, F(1, 2)))
    assert len(calls) == 1


def test_safe_range_deterministic():
    tri = simplex(2)
    assert safe_move_range(tri, 0) == safe_move_range(tri, 0)


# ---------------------------------------------------------------- caps & projections


def test_cap_cut_square_diagonal():
    P = cap_cut(cube(2), (1, 1), F(1, 2))
    assert P == clip_halfspace(cube(2), Halfspace((1, 1), F(3, 2)))
    assert len(P.vertices) == 5


def test_cap_cut_rational_direction():
    # the direction is scaled to its primitive normal, whatever its type
    P = cap_cut(cube(2), (1, 0), F(1, 10))
    assert cap_cut(cube(2), (F(1, 2), 0), F(1, 10)) == P
    assert cap_cut(cube(2), (0.5, 0.0), F(1, 10)) == P
    assert cap_cut(cube(2), (3, 0), F(1, 10)) == P


def test_cap_cut_errors():
    with pytest.raises(BadParams):
        cap_cut(cube(2), (1, 0), 0)
    with pytest.raises(EmptyOrFlat):
        cap_cut(cube(2), (1, 0), 2)
    # a flat body never had an interior to lose
    segment = convex_hull([(0, 0), (1, 1)], 2, allow_lower=True)
    triangle = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 3, allow_lower=True)
    for K, z in ((segment, (1, 1)), (triangle, (1, 1, 0))):
        with pytest.raises(DegenerateInput, match="must be full-dimensional"):
            cap_cut(K, z, F(1, 10))


def test_projection_preserved():
    sq = cube(2)
    M = cap_cut(sq, (1, 1), F(1, 5))
    assert projection_preserved(sq, M, (1, 0))
    Mx = cap_cut(sq, (1, 0), F(1, 5))
    assert projection_preserved(sq, Mx, (1, 0))
    assert not projection_preserved(sq, Mx, (0, 1))
    # the corner cut keeps the extent of x_2 - x_1 but not of x_1 + x_2
    assert projection_preserved(sq, M, (1, 1))
    assert not projection_preserved(sq, M, (1, -1))
    with pytest.raises(ZeroVector):
        projection_preserved(sq, M, (0, 0))
    # segments of R^1 project onto the same point of R^0
    seg = convex_hull([(0,), (3,)], 1)
    assert projection_preserved(seg, convex_hull([(1,), (2,)], 1), (1,))


def test_support_drop_set():
    sq = cube(2)
    assert support_drop_set(sq, cap_cut(sq, (1, 1), F(1, 5))) == ()
    assert support_drop_set(sq, cap_cut(sq, (1, 0), F(1, 5))) == ((1, 0),)
    with pytest.raises(DegenerateInput):
        support_drop_set(seg((0, 0), (1, 0), 2), sq)


def _scanned_drop_set(K, M):
    """support_drop_set by its definition: M scanned at every facet of K."""
    return tuple(f.normal for f in K.facets if support_value(M, f.normal) < f.offset)


def _drop_set_pairs():
    """(K, M) with M a cap cut of K, K halved about its vertex centroid
    (inside K, sharing no vertex), and the hull of n-1 of K's vertices and
    a far point (sticking out of K)."""
    for i in range(30):
        n = 2 + i % 3
        rng = random.Random(f"drop-set:{i}")
        K = rand_full_body(rng, n, count=n + 3)
        z = primitive_from_rational([rng.randint(-2, 2) or 1 for _ in range(n)])
        width = support_value(K, z) + support_value(K, tuple(-c for c in z))
        yield K, cap_cut(K, z, width * F(rng.randint(1, 9), 10))
        g = interior_point(K)
        yield K, translate(dilate(translate(K, tuple(-c for c in g)), F(1, 2)), g)
        far = tuple(3 * c for c in K.vertices[-1])
        yield K, convex_hull(list(K.vertices[: n - 1]) + [far], n, allow_lower=True)
    for m in (64, 7):
        K = regular_polygon(m, 10**6)
        z = primitive_from_rational(max(K.vertices))
        for eps in (F(1, 10), F(1, 1000), F(3, 2)):
            yield K, cap_cut(K, z, eps)


def test_support_drop_set_matches_scan(monkeypatch):
    """Skipping the facets through a vertex of M changes nothing, whether
    or not M lies in K, and M is scanned only at K's other facets."""
    scans = []
    rows_of = bezout._support_rows
    monkeypatch.setattr(
        bezout, "_support_rows", lambda P, z: scans.append(z) or rows_of(P, z)
    )
    kinds = set()
    for K, M in _drop_set_pairs():
        scans.clear()
        got = support_drop_set(K, M)
        assert got == _scanned_drop_set(K, M)
        shared = set(K.vertices) & set(M.vertices)
        assert scans == [f.normal for f in K.facets
                         if not shared & {K.vertices[i] for i in f.vertices}]
        kinds.add((bool(got), bool(shared), all(contains_point(K, v) for v in M.vertices)))
    assert kinds >= {(True, True, True), (True, False, True), (False, True, False)}


# ---------------------------------------------------------------- measures & homothety


def test_measures_proportional():
    sq = cube(2)
    rect = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1)], 2)
    assert measures_proportional(
        surface_area_measure(dilate(sq, 3)), surface_area_measure(sq)
    ) == 3
    assert measures_proportional(
        surface_area_measure(rect), surface_area_measure(sq)
    ) is None
    empty = DiscreteMeasure(2, ())
    assert measures_proportional(empty, empty) == 1


def test_homothety_check():
    sq = cube(2)
    P = translate(dilate(sq, F(5, 2)), (F(1, 3), -2))
    assert homothety_check(sq, P) == F(5, 2)
    rect = convex_hull([(0, 0), (2, 0), (0, 1), (2, 1)], 2)
    assert homothety_check(sq, rect) is None
    with pytest.raises(DimensionMismatch):
        homothety_check(sq, cube(3))
    with pytest.raises(DegenerateInput):
        homothety_check(sq, seg((0, 0), (1, 0), 2))


def test_homothety_check_builds_no_view():
    """lambda and x come from the integer rows and the image of K is
    compared by its integers, so neither body gets a vertex view."""
    K = truncated_simplex(3, F(1, 3))
    slab = convex_hull([(a + c, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], 3)
    cases = [
        (K, translate(dilate(K, F(2, 7)), (F(-5, 2), 1, F(1, 9))), F(2, 7)),
        (simplex(2), convex_hull([(0, 0), (1, 0), (1, 1)], 2), None),  # lambda = 0
        (cube(3), slab, None),
        (cube(3), cross_polytope(3), None),
    ]
    for K, P, lam in cases:
        assert homothety_check(K, P) == lam
        assert K._vertices is None and P._vertices is None


def test_homothety_iff_proportional_random():
    rng = random.Random("homo")
    for _ in range(12):
        n = rng.choice([2, 3, 4])
        K = rand_full_body(rng, n)
        if rng.random() < 0.5:
            lam = F(rng.randrange(1, 5), rng.randrange(1, 3))
            P = translate(dilate(K, lam), tuple(F(1, 2) for _ in range(n)))
        else:
            P = rand_full_body(rng, n)
        prop = measures_proportional(
            surface_area_measure(P), surface_area_measure(K)
        )
        got = homothety_check(K, P)
        assert (got is not None) == (prop is not None)
        if got is not None:
            assert prop == got ** (n - 1)


def _reflect(K, x):
    return convex_hull([tuple(c - a for a, c in zip(v, x)) for v in K.vertices], K.dim)


def test_homothety_check_cases():
    # a negative scale keeps the measure's support only for centrally
    # symmetric bodies, and then the body is a translate
    tri = simplex(2)
    assert homothety_check(tri, _reflect(tri, (1, 1))) is None
    # the first two vertices give lambda = 0
    assert homothety_check(tri, convex_hull([(0, 0), (1, 0), (1, 1)], 2)) is None
    for n in (2, 3):
        assert homothety_check(cube(n), _reflect(cube(n), (F(1, 3),) * n)) == 1
    K = truncated_simplex(3, F(1, 3))
    assert homothety_check(K, _reflect(K, (0, 0, 0))) is None
    P = translate(dilate(K, F(2, 7)), (F(-5, 2), 1, F(1, 9)))
    assert homothety_check(K, P) == F(2, 7)
    assert homothety_check(P, K) == F(7, 2)
    # equal vertex counts, not homothetic: a box and a parallelepiped
    box = convex_hull([(a, b, 2 * c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], 3)
    slab = convex_hull([(a + c, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], 3)
    for P in (box, slab):
        assert len(P.vertices) == 8
        assert homothety_check(cube(3), P) is None
    assert homothety_check(cube(3), cross_polytope(3)) is None


# ---------------------------------------------------------------- lemma identity


def test_lemma_holds_on_triangle():
    tri = simplex(2)
    for i in range(3):
        _, t_max = safe_move_range(tri, i)
        for t in (t_max / 2, t_max / 4):
            for r in (0, 1):
                chk = lemma_measure_power_identity(tri, MoveSpec(i, t), r)
                assert chk.holds and chk.residual == ()


def test_lemma_scale_example():
    tri = simplex(2)
    chk = lemma_measure_power_identity(tri, MoveSpec(0, F(1, 2)), 1)
    assert chk.holds and chk.scale == F(3, 2)


def test_lemma_fails_on_square():
    sq = cube(2)
    i = next(
        j for j, f in enumerate(facet_structure(sq)) if f.normal == (0, 1)
    )
    chk = lemma_measure_power_identity(sq, MoveSpec(i, F(1, 2)), 1)
    assert not chk.holds and chk.scale == F(5, 4)
    res = {z: (lhs, rhs) for z, lhs, rhs in chk.residual}
    assert res[(1, 0)] == (F(3, 2), F(5, 4))
    assert res[(-1, 0)] == (F(3, 2), F(5, 4))


def test_lemma_r_zero_is_identity():
    sq = cube(2)
    chk = lemma_measure_power_identity(sq, MoveSpec(0, F(1, 4)), 0)
    assert chk.holds


def test_lemma_bad_r():
    with pytest.raises(BadArity):
        lemma_measure_power_identity(simplex(2), MoveSpec(0, F(1, 4)), 2)


# ---------------------------------------------------------------- AF & linearity


def test_af_slack_examples():
    L, M = unit_segs(2)
    assert af_spot_check(L, M, []) == F(1, 4)
    L3, M3, _ = unit_segs(3)
    assert af_spot_check(L3, M3, [cube(3)]) == F(1, 36)


def test_af_errors():
    L, M = unit_segs(2)
    with pytest.raises(BadArity):
        af_spot_check(L, M, [cube(2)])
    with pytest.raises(DimensionMismatch):
        af_spot_check(L, cube(3), [])


def test_af_nonnegative_random():
    rng = random.Random("afmini")
    for _ in range(20):
        n = rng.choice([2, 3])
        L = rand_body(rng, n)
        M = rand_body(rng, n)
        rest = [rand_body(rng, n) for _ in range(n - 2)]
        assert af_spot_check(L, M, rest) >= 0


def test_linearity_residual_zero():
    sq = cube(2)
    for i in range(4):
        assert facet_move_linearity_check(sq, sq, i, F(1, 2)) == 0
        assert facet_move_linearity_check(sq, sq, i, F(-1, 4)) == 0


def test_linearity_reads_integer_facet_rows():
    """The check reads P's normals and its weight at z_i from P's integer
    facet rows, so no facet view of P (or of K) is built; the residual
    stays 0, also at a facet of K whose normal P lacks (w_P = 0)."""
    K = clip_halfspace(cube(3), Halfspace((1, 1, 1), F(5, 2)))
    corner = next(i for i, f in enumerate(K.facet_ints[0]) if f[0] == (1, 1, 1))
    for i, P in ((0, cube(3)), (corner, cube(3)), (1, dilate(cube(3), F(2, 3)))):
        K = clip_halfspace(cube(3), Halfspace((1, 1, 1), F(5, 2)))
        assert facet_move_linearity_check(K, P, i, F(1, 4)) == 0
        assert (K._facets, P._facets) == (None, None)


def test_linearity_requires_subfan():
    with pytest.raises(BadParams):
        facet_move_linearity_check(cube(2), simplex(2), 0, F(1, 4))


def test_linearity_random_moved_copies():
    rng = random.Random("linmove")
    for _ in range(6):
        n = rng.choice([2, 3])
        K = rand_full_body(rng, n)
        nf = len(facet_structure(K))
        j = rng.randrange(nf)
        tj_min, tj_max = safe_move_range(K, j)
        P = move_facet(K, MoveSpec(j, tj_max / 2))
        i = rng.randrange(nf)
        ti_min, ti_max = safe_move_range(K, i)
        t = rng.choice([ti_max / 2, ti_min / 2])
        assert facet_move_linearity_check(K, P, i, t) == 0


# ---------------------------------------------------------------- audit & search


def test_audit_simplices():
    for n in (2, 3):
        rep = simplex_audit(simplex(n))
        assert rep.verdict == "simplex"
        assert rep.vertex_count == n + 1
        assert all(r.proportional and r.scale is not None for r in rep.records)


def test_audit_non_simplices():
    for K in (cube(2), cross_polytope(2), cube(3)):
        rep = simplex_audit(K)
        assert rep.verdict == "non-simplex"
        assert any(not r.proportional for r in rep.records)


def test_audit_matches_measure_oracle():
    # the audit reads homothety off support numbers; the measure route
    # S(K_t) = lambda^(n-1)·S(K) must agree at t and at t/2, and its
    # factor is the record's scale. cross_polytope(3) is not simple.
    bodies = [
        simplex(2), simplex(3), simplex(4), cube(2), cube(3),
        cross_polytope(3), prism(simplex(2), 1), truncated_simplex(3, F(1, 3)),
        square_pyramid(), pyramid_4d(),
        random_hull(2, 6, 0), random_hull(3, 7, 2), random_hull(4, 7, 2),
    ]
    proportional = 0
    for K in bodies:
        sK = surface_area_measure(K)

        def ratio(i, t):
            return measures_proportional(
                surface_area_measure(move_facet(K, MoveSpec(i, t))), sK
            )

        for rec in simplex_audit(K).records:
            assert ratio(rec.facet_index, rec.t) == rec.scale
            assert (ratio(rec.facet_index, rec.t / 2) is not None) == rec.proportional
            proportional += rec.proportional
    assert proportional == 3 + 4 + 5 + 1 + 2


def test_audit_pyramid_records():
    # moving a facet that misses one vertex only is a homothety about that
    # vertex: the pyramid's base, lambda = 1 + (1/2)·1/(3·1/3) = 3/2
    rep = simplex_audit(square_pyramid())
    assert rep.verdict == "non-simplex"
    assert [r for r in rep.records if r.proportional] == [
        FacetAuditRecord(2, F(1, 2), True, F(9, 4))
    ]
    rep = simplex_audit(pyramid_4d())
    assert [r.facet_index for r in rep.records if r.proportional] == [2, 3]


def test_audit_builds_no_moved_body(monkeypatch):
    def forbidden(*args):
        raise AssertionError("simplex_audit built a moved body or a measure")

    for name in ("move_facet", "_from_points", "surface_area_measure"):
        monkeypatch.setattr(bezout, name, forbidden)
    for K in (simplex(3), cube(3), square_pyramid()):
        simplex_audit(K)


def test_audit_climbs_only_the_ladder_it_reports(monkeypatch):
    # the audit's t is half the positive ladder's end; it never tries a
    # move with t <= 0
    seen = []
    rung = bezout._moved_vertices

    def spy(K, i, t):
        seen.append(t)
        return rung(K, i, t)

    bodies = [
        simplex(3), cube(3), cross_polytope(3), square_pyramid(),
        random_hull(3, 7, 2),
    ]
    monkeypatch.setattr(bezout, "_moved_vertices", spy)
    reports = [simplex_audit(K) for K in bodies]
    monkeypatch.undo()
    assert seen and all(t > 0 for t in seen)
    for K, rep in zip(bodies, reports):
        for rec in rep.records:
            assert rec.t == safe_move_range(K, rec.facet_index)[1] / 2


def test_search_square_certificate():
    cert = counterexample_search(cube(2), 10000)
    assert cert.gap == F(-1, 4)
    assert cert.L.vertices == ((F(0), F(0)), (F(1), F(0)))
    assert cert.M.vertices == ((F(0), F(0)), (F(0), F(1)))
    assert cert.verdict == "violated"


def test_search_exhaustion():
    # on a simplex the finite family runs out: C(C(n+1,2),2) segment pairs
    # plus C(2(n+1),2) facet-move pairs, for K and for an affine image of it
    for n, size in ((2, 18), (3, 43), (4, 90)):
        rng = random.Random(f"search-exhaustion:{n}")
        for K in (simplex(n), rand_affine_simplex(rng, n)):
            with pytest.raises(BudgetExhausted) as exc:
                counterexample_search(K, 10000)
            assert exc.value.evaluations == size
            assert f"within {size} gap" in str(exc.value)
    # a budget below the family size is spent in full
    with pytest.raises(BudgetExhausted) as exc:
        counterexample_search(simplex(2), 12)
    assert exc.value.evaluations == 12
    assert "12" in str(exc.value)


def _mu(K, i, t):
    """mu_t = V(K_t,K[n-1])·S(K) - V(K)·S(K_t,K[n-2]) as {normal: weight},
    read off the r=1 measure-power residual."""
    res = lemma_measure_power_identity(K, MoveSpec(i, t), 1).residual
    return {z: K.volume * (rhs - lhs) for z, lhs, rhs in res}


def test_facet_move_gap_is_mu():
    # the identity behind the search's stage (b): gap(K_{0,t}, K_{j,s}) =
    # (s/n)·mu_t(z_j), and a nonzero mu_t has atoms of both signs. The
    # cross-polytope and the square pyramid have non-simple vertices, where
    # a move keeps K's facet normals but not its fan.
    bodies = [
        cube(3),
        truncated_simplex(3, F(1, 3)),
        prism(simplex(2), 1),
        random_hull(2, 6, 3),
        cross_polytope(3),
        square_pyramid(),
        simplex(3),
    ]
    for K in bodies:
        n = K.dim
        facets = facet_structure(K)
        _, t_max = safe_move_range(K, 0)
        t = t_max / 2
        Kt = move_facet(K, MoveSpec(0, t))
        if K == cross_polytope(3):
            assert (len(K.vertices), len(Kt.vertices)) == (6, 9)
        mu = _mu(K, 0, t)
        for j, f in enumerate(facets):
            for s in safe_move_range(K, j):
                Ks = move_facet(K, MoveSpec(j, s / 2))
                assert bezout_gap(Kt, Ks, K).gap == s / 2 / n * mu.get(f.normal, 0)
        if len(K.vertices) == n + 1:
            assert mu == {}
        else:
            assert min(mu.values()) < 0 < max(mu.values())


def test_search_refutes_non_simplices():
    for K in (
        cube(2),
        cube(3),
        cross_polytope(2),
        cross_polytope(3),
        prism(simplex(2), 1),
        truncated_simplex(2, F(1, 4)),
        truncated_simplex(3, F(1, 3)),
    ):
        assert counterexample_search(K, 10**4).gap < 0


def test_search_budget_validation():
    with pytest.raises(BadParams):
        counterexample_search(cube(2), 0)


def test_search_needs_full_dim():
    with pytest.raises(DegenerateInput):
        counterexample_search(seg((0, 0), (1, 0), 2), 10)
