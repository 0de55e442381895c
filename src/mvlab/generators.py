"""Polytope generators for experiments.

All outputs are exact rational polytopes. The round-body approximations
(regular_polygon, ball_approx_3d) rationalize trigonometric coordinates by
continued-fraction best approximation with a denominator cap; nothing
downstream relies on exact regularity, only on convexity.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import BadParams
from .geometry import DIM_CAP, Halfspace, Polytope, clip_halfspace, convex_hull

POINT_CAP = 1024  # m for random_hull and regular_polygon, checked before any point


def _check_dim(n):
    if not isinstance(n, int) or not 1 <= n <= DIM_CAP:
        raise BadParams(f"dimension {n!r} outside 1..{DIM_CAP}")


def _count(v, what: str) -> int:
    if not isinstance(v, int):
        raise BadParams(f"{what} must be an integer, got {v!r}")
    return v


def _rational(v, what: str) -> Fraction:
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise BadParams(f"{what} must be a rational number, got {v!r}") from None


def simplex(n: int) -> Polytope:
    """conv{0, e_1, ..., e_n}."""
    _check_dim(n)
    pts = [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
    return convex_hull(pts, n)


def cube(n: int) -> Polytope:
    """[0,1]^n."""
    _check_dim(n)
    pts = [[(mask >> i) & 1 for i in range(n)] for mask in range(1 << n)]
    return convex_hull(pts, n)


def cross_polytope(n: int) -> Polytope:
    """conv{+-e_1, ..., +-e_n}."""
    _check_dim(n)
    pts = []
    for i in range(n):
        for s in (1, -1):
            pts.append([s * int(i == j) for j in range(n)])
    return convex_hull(pts, n)


def prism(base: Polytope, height) -> Polytope:
    """base x [0, height] in one dimension higher."""
    h = _rational(height, "prism height")
    if h <= 0:
        raise BadParams("prism height must be positive")
    if not base.is_full_dimensional:
        raise BadParams("prism base must be full-dimensional")
    n = base.dim + 1
    _check_dim(n)
    pts = [list(v) + [lvl] for v in base.vertices for lvl in (Fraction(0), h)]
    return convex_hull(pts, n)


def random_points(rng: random.Random, n: int, count: int, span: int, max_den: int):
    """count points of R^n drawn from rng; each coordinate is a/b with a
    uniform in -span..span and b uniform in 1..max_den."""
    return [
        tuple(
            Fraction(rng.randrange(-span, span + 1), rng.randrange(1, max_den + 1))
            for _ in range(n)
        )
        for _ in range(count)
    ]


def random_hull(n: int, m: int, seed: int) -> Polytope:
    """Hull of m seeded random rational points, n + 1 <= m <= POINT_CAP,
    redrawn until full-dimensional."""
    _check_dim(n)
    if not n + 1 <= _count(m, "point count") <= POINT_CAP:
        raise BadParams(f"point count {m} outside {n + 1}..{POINT_CAP}")
    _count(seed, "seed")
    rng = random.Random(f"mvlab-gen:{n}:{m}:{seed}")
    for _ in range(64):
        pts = random_points(rng, n, m, 10, 4)
        poly = convex_hull(pts, n, allow_lower=True)
        if poly.is_full_dimensional:
            return poly
    raise BadParams("random points kept collapsing; bad parameters")


def regular_polygon(m: int, max_denominator: int) -> Polytope:
    """m-gon with vertices rationally rounded from the unit circle,
    3 <= m <= POINT_CAP."""
    if not 3 <= _count(m, "vertex count") <= POINT_CAP:
        raise BadParams(f"vertex count {m} outside 3..{POINT_CAP}")
    max_denominator = _rational(max_denominator, "denominator cap")
    if max_denominator < 1:
        raise BadParams("denominator cap must be positive")
    max_denominator = math.floor(max_denominator)  # int-only comparisons
    pts = []
    for k in range(m):
        angle = 2 * math.pi * k / m
        pts.append(
            (
                Fraction(math.cos(angle)).limit_denominator(max_denominator),
                Fraction(math.sin(angle)).limit_denominator(max_denominator),
            )
        )
    return convex_hull(pts, 2)


_ICO_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


def ball_approx_3d(subdivisions: int, max_denominator: int) -> Polytope:
    """Rationalized icosphere: icosahedron faces subdivided on the unit
    sphere, coordinates rounded to denominators <= max_denominator."""
    if not 0 <= _count(subdivisions, "subdivision count") <= 3:
        raise BadParams("subdivisions outside 0..3")
    max_denominator = _rational(max_denominator, "denominator cap")
    if max_denominator < 1:
        raise BadParams("denominator cap must be positive")
    max_denominator = math.floor(max_denominator)
    phi = (1 + math.sqrt(5)) / 2
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]

    def unit(p):
        r = math.sqrt(sum(c * c for c in p))
        return tuple(c / r for c in p)

    verts = [unit(p) for p in raw]
    faces = list(_ICO_FACES)
    for _ in range(subdivisions):
        midpoint: dict = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                verts.append(
                    unit(tuple((a + b) / 2 for a, b in zip(verts[i], verts[j])))
                )
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            nxt += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = nxt

    pts = [
        tuple(Fraction(c).limit_denominator(max_denominator) for c in p)
        for p in verts
    ]
    return convex_hull(pts, 3)


def truncated_simplex(n: int, eps) -> Polytope:
    """Standard simplex with the vertex e_1 cut off at depth eps."""
    _check_dim(n)
    e = _rational(eps, "truncation depth")
    if not 0 < e < 1:
        raise BadParams("truncation depth must be in (0, 1)")
    z = tuple(int(j == 0) for j in range(n))
    return clip_halfspace(simplex(n), Halfspace(z, 1 - e))


_KINDS = {
    "simplex": (simplex, 1),
    "cube": (cube, 1),
    "cross_polytope": (cross_polytope, 1),
    "prism": (prism, 2),
    "random_hull": (random_hull, 3),
    "regular_polygon": (regular_polygon, 2),
    "ball_approx_3d": (ball_approx_3d, 2),
    "truncated_simplex": (truncated_simplex, 2),
}

_PRISM_BASES = {"triangle": lambda: simplex(2), "square": lambda: cube(2)}


def generate(kind: str, params) -> Polytope:
    """Dispatch to a named generator; params is the positional argument list.

    prism accepts a Polytope base or one of the names "triangle"/"square".
    """
    if kind not in _KINDS:
        raise BadParams(f"unknown generator kind {kind!r}")
    fn, arity = _KINDS[kind]
    params = list(params)
    if len(params) != arity:
        raise BadParams(f"{kind} takes {arity} parameter(s), got {len(params)}")
    if kind == "prism" and not isinstance(params[0], Polytope):
        base = _PRISM_BASES.get(params[0])
        if base is None:
            raise BadParams(f"unknown prism base {params[0]!r}")
        params[0] = base()
    return fn(*params)
