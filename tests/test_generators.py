from fractions import Fraction

import pytest

from mvlab import generators

from mvlab.documents import document_digest, serialize_polytope
from mvlab.errors import BadParams
from mvlab.generators import (
    POINT_CAP,
    ball_approx_3d,
    cross_polytope,
    cube,
    generate,
    prism,
    random_hull,
    regular_polygon,
    simplex,
    truncated_simplex,
)
from mvlab.geometry import contains_point, convex_hull

F = Fraction


def test_simplex():
    for n in (2, 3, 4):
        s = simplex(n)
        assert len(s.vertices) == n + 1
        assert s.volume == F(1, __import__("math").factorial(n))
    with pytest.raises(BadParams):
        simplex(5)
    with pytest.raises(BadParams):
        simplex(0)


def test_cube():
    for n in (2, 3, 4):
        c = cube(n)
        assert len(c.vertices) == 2**n
        assert c.volume == 1
        assert len(c.facets) == 2 * n


def test_cross_polytope():
    for n in (2, 3):
        x = cross_polytope(n)
        assert len(x.vertices) == 2 * n
        assert x.volume == F(2**n, __import__("math").factorial(n))
    assert cross_polytope(1) == convex_hull([(-1,), (1,)], 1)


def test_prism():
    p = prism(simplex(2), 1)
    assert p.dim == 3 and len(p.vertices) == 6
    assert p.volume == F(1, 2)
    tall = prism(cube(2), F(3, 2))
    assert tall.volume == F(3, 2)
    assert prism(cube(3), 1).dim == 4
    with pytest.raises(BadParams):
        prism(simplex(2), 0)
    with pytest.raises(BadParams):
        prism(cube(4), 1)  # would be dimension 5


def test_prism_rejects_flat_base():
    segment = convex_hull([(0, 0), (1, 0)], 2, allow_lower=True)
    with pytest.raises(BadParams):
        prism(segment, 1)


def test_random_hull_deterministic():
    a = random_hull(2, 6, 7)
    b = random_hull(2, 6, 7)
    assert a == b
    assert a.is_full_dimensional
    c = random_hull(3, 6, 0)
    assert c.is_full_dimensional
    assert document_digest(serialize_polytope(c)) == (
        "4ccd0eb0399fd5c99b20b3da21b1e2f87171ff0f2305cc45d933bacdbb548738"
    )
    assert random_hull(2, 6, 8) != a
    with pytest.raises(BadParams):
        random_hull(2, 2, 0)
    # the count is checked before any point is drawn
    assert len(random_hull(2, POINT_CAP, 0).vertices) >= 3
    for m in (POINT_CAP + 1, 10**9):
        with pytest.raises(BadParams):
            random_hull(2, m, 0)


def test_regular_polygon():
    g = regular_polygon(64, 10**6)
    assert g.dim == 2 and len(g.vertices) == 64
    assert (F(1), F(0)) in g.vertices
    assert (F(0), F(1)) in g.vertices
    assert max(c.denominator for v in g.vertices for c in v) <= 10**6
    with pytest.raises(BadParams):
        regular_polygon(2, 100)
    for m in (POINT_CAP + 1, 10**9):
        with pytest.raises(BadParams):
            regular_polygon(m, 100)
    with pytest.raises(BadParams):
        regular_polygon(8, 0)


def _fraction_cap_rounding(cap):
    """generators.Fraction with limit_denominator held to the Fraction cap,
    whatever cap the generator passes: the rounding as it was before the
    generators passed an int cap."""

    class Rounding(Fraction):
        def limit_denominator(self, max_denominator=None):
            return Fraction.limit_denominator(self, Fraction(cap))

    return Rounding


@pytest.mark.parametrize("cap", [F(7, 2), 1000, 10**6])
@pytest.mark.parametrize("build", [lambda cap: regular_polygon(64, cap),
                                   lambda cap: ball_approx_3d(1, cap)],
                         ids=["regular_polygon", "ball_approx_3d"])
def test_int_cap_matches_fraction_cap(build, cap, monkeypatch):
    # the convergents' denominators are integers, so an integer cap keeps
    # every rounding
    got = build(cap)
    monkeypatch.setattr(generators, "Fraction", _fraction_cap_rounding(cap))
    want = build(cap)
    assert (got.ints, got.facet_ints, got.volume_ints) == (
        want.ints, want.facet_ints, want.volume_ints)


def test_regular_polygon_small():
    g = regular_polygon(6, 100)
    assert 3 <= len(g.vertices) <= 6
    assert g.is_full_dimensional


def test_ball_approx():
    b0 = ball_approx_3d(0, 1000)
    assert b0.dim == 3 and b0.is_full_dimensional
    assert len(b0.vertices) <= 12
    b1 = ball_approx_3d(1, 1000)
    assert len(b1.vertices) > len(b0.vertices)
    assert 0 < b1.volume < 5
    assert contains_point(b1, (0, 0, 0))
    with pytest.raises(BadParams):
        ball_approx_3d(4, 1000)
    with pytest.raises(BadParams):
        ball_approx_3d(1, 0)


def test_truncated_simplex():
    t = truncated_simplex(2, F(1, 4))
    assert len(t.vertices) == 4
    assert t.volume == F(1, 2) - F(1, 32)
    t3 = truncated_simplex(3, F(1, 2))
    assert len(t3.vertices) == 6
    with pytest.raises(BadParams):
        truncated_simplex(2, 1)
    with pytest.raises(BadParams):
        truncated_simplex(2, 0)


def test_generate_dispatch():
    assert generate("simplex", [3]) == simplex(3)
    assert generate("cube", [2]) == cube(2)
    assert generate("prism", ["triangle", 1]) == prism(simplex(2), 1)
    assert generate("prism", ["square", 2]) == prism(cube(2), 2)
    assert generate("prism", [simplex(2), 1]) == prism(simplex(2), 1)
    assert generate("truncated_simplex", [2, F(1, 4)]) == truncated_simplex(2, F(1, 4))
    with pytest.raises(BadParams):
        generate("dodecahedron", [])
    with pytest.raises(BadParams):
        generate("cube", [2, 3])
    with pytest.raises(BadParams):
        generate("prism", ["hexagon", 1])
