"""Seeded workloads for the mvlab benchmark.

A workload is an endless sequence of cycles; cycle c is built from
``random.Random(f"{name}:{seed}:{c}")`` alone, so the same seed always gives
the same inputs. The generators here hand mvlab only rational point lists,
halfspaces or CLI argv: every Polytope is built inside the timed call.

Each cycle has a fixed mix of operation kinds. A fixed mix keeps the
throughput of a run independent of which kinds a seed happens to draw, and
the kinds are counted so that the median and the 90th percentile of the
per-op latency each fall inside one kind's block, not on a jump between two.

Every Op carries an exact check, run outside the timed interval. Ops whose
check is an exact equality also carry a ``perturb`` function, which the
self-test uses to show that a result off by 1/10^9 is counted as failed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

EPS = Fraction(1, 10**9)

# strict-mechanism gap of regular_polygon(64, 10**6); the same frozen
# constant as the acceptance test (the polygon's vertices come from libm)
GAP_64GON = Fraction(
    -50147947404272050988691846280296952283183124319713450503201,
    1708015192770678167938512793600142796012432962616734887072050,
)


@dataclass
class Op:
    """One timed call. ``call(m)`` gets the mvlab package and runs inside the
    timed interval; ``collect`` turns its return value into the checked
    value (reading a report file, say) and ``check`` judges that value;
    both run outside the interval."""

    label: str
    call: Callable[[Any], Any]
    check: Callable[[Any], bool]
    collect: Callable[[Any], Any] = lambda r: r
    perturb: Optional[Callable[[Any], Any]] = None


# ---------------------------------------------------------------- inputs


def _rat(rng, span, den):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))


def _points(rng, n, count, span=3, den=2):
    return [tuple(_rat(rng, span, den) for _ in range(n)) for _ in range(count)]


def _segment(rng, n):
    while True:
        a, b = _points(rng, n, 2)
        if a != b:
            return [a, b]


def _body(rng, n, kind):
    """Point list of a segment, a triangle or an (n+2)-point hull: the three
    body kinds of tests/conftest.py::mix_body."""
    if kind == "seg":
        return _segment(rng, n)
    return _points(rng, n, 3 if kind == "tri" else n + 2)


def _det(rows):
    """Exact determinant by Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in r] for r in rows]
    n, total = len(mat), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            total = -total
        total *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return total


def _affine_simplex(rng, n, span=3, den=2):
    """Vertices of a random invertible rational affine image of the
    standard simplex (like tests/conftest.py::rand_affine_simplex)."""
    while True:
        cols = [[_rat(rng, span, den) for _ in range(n)] for _ in range(n)]
        if _det(cols) != 0:
            break
    shift = [_rat(rng, span, den) for _ in range(n)]
    return [tuple(shift)] + [tuple(c + s for c, s in zip(col, shift)) for col in cols]


def _unimodular(rng, n, steps=None):
    """Integer matrix of determinant 1: a product of random shears."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps or 2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def _affine(a, shift, pts):
    return [
        tuple(sum(r * x for r, x in zip(row, p)) + s for row, s in zip(a, shift))
        for p in pts
    ]


def _cube_pts(n):
    return [tuple((k >> i) & 1 for i in range(n)) for k in range(1 << n)]


def _cross_pts(n):
    return [
        tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)
    ]


def _unit_seg(n, i):
    return [(0,) * n, tuple(int(j == i) for j in range(n))]


def _shift(rng, n, span=5, den=3):
    return [_rat(rng, span, den) for _ in range(n)]


# ---------------------------------------------------------------- gap_sweep


def _gap_op(label, n, lp, mp, kp, check, perturb=None):
    def call(m):
        hull = m.convex_hull
        return m.bezout_gap(
            hull(lp, n, allow_lower=True), hull(mp, n, allow_lower=True), hull(kp, n)
        ).gap

    return Op(label, call, check, perturb=perturb)


def _general_op(label, n, bodies, kp, r, check, perturb=None):
    def call(m):
        hull = m.convex_hull
        return m.bezout_gap_general(
            [hull(b, n, allow_lower=True) for b in bodies], hull(kp, n), r
        )

    return Op(label, call, check, perturb=perturb)


def _nonneg(gap):
    return gap >= 0


def _equals(value):
    return lambda gap: gap == value


def _add_eps(gap):
    return gap + EPS


def _pinned(rng, kind):
    """A cube or cross-polytope K with a gap known in closed form, moved by
    a seeded unimodular map and per-body translations.

    For L=[0,e1], M=[0,e2] and the unit n-cube, V(L,K[n-1]) = 1/n and
    V(L,M,K[n-2]) = 1/(n(n-1)), so gap = -1/(n^2(n-1)): -1/4 and -1/18.
    A linear map A scales every mixed volume by |det A|, hence the gap by
    det(A)^2 (and the r-body gap by |det A|^r); translating one body changes
    no mixed volume. The cross-polytope conv(+-e1, +-e2) is the square under
    A = [[1,-1],[1,1]] (det 2) moved by (0,-1), so its gap with the images
    of e1 and e2 is 4 * (-1/4) = -1. The r=3 cube value -7/54 is pinned by
    the acceptance test.
    """
    if kind == "cross2":
        n, kp = 2, _cross_pts(2)
        lp, mp = [(0, 0), (1, 1)], [(0, 0), (-1, 1)]
        expected = Fraction(-1)
    elif kind == "general3":
        n = 3
        kp = _cube_pts(3)
        bodies = [_unit_seg(3, i) for i in range(3)]
        expected = Fraction(-7, 54)
    else:
        n = int(kind[-1])
        kp, lp, mp = _cube_pts(n), _unit_seg(n, 0), _unit_seg(n, 1)
        expected = Fraction(-1, n * n * (n - 1))
    a = _unimodular(rng, n)
    kp = _affine(a, _shift(rng, n), kp)
    label = f"pinned.{kind}"
    if kind == "general3":
        moved = [_affine(a, _shift(rng, n), b) for b in bodies]
        return _general_op(label, n, moved, kp, 3, _equals(expected), _add_eps)
    lp = _affine(a, _shift(rng, n), lp)
    mp = _affine(a, _shift(rng, n), mp)
    return _gap_op(label, n, lp, mp, kp, _equals(expected), _add_eps)


# the 4D cube's gap (-1/48) takes over a second to evaluate, more than a
# whole cycle, so it is left out of the rotation
_PINNED = ("cube2", "cross2", "cube3", "general3")


# body kinds of (L, M) per pair, by dimension: mostly segments, some
# triangles, a few fatter hulls, as tests/conftest.py::mix_body draws them,
# but in fixed proportions so that every cycle costs about the same. At n=4
# the pairs are segments, as acceptance criterion 2 mostly draws them: a
# triangle there doubles the cost, and three like-priced ops keep the 90th
# percentile in the middle of one block (the n=4 equality op still takes a
# triangle for M)
_PAIRS = {
    2: (("seg", "seg"), ("tri", "seg"), ("fat", "tri")),
    3: (("seg", "seg"), ("seg", "tri"), ("tri", "seg"), ("fat", "seg")),
    4: (("seg", "seg"), ("seg", "seg"), ("seg", "seg")),
}


def gap_sweep_cycle(rng, c, workdir):
    """15 ops: n=2 (3 pairs + the L=K equality), n=3 (4 pairs, equality,
    one r-body gap), n=4 (3 pairs + equality) and one pinned K. Each random
    K is a fresh affine simplex shared by its group's ops. By seed-code
    latency the n=2 and pinned ops are small, the n=3 ops sit around the
    median and the n=4 pairs are the top fifth, so the 90th percentile
    falls among them."""
    ops = []
    for n, pairs in _PAIRS.items():
        kp = _affine_simplex(rng, n)
        for lk, mk in pairs:
            ops.append(
                _gap_op(f"simplex.d{n}.{lk}-{mk}", n, _body(rng, n, lk),
                        _body(rng, n, mk), kp, _nonneg)
            )
        mp = _body(rng, n, "tri")
        ops.append(_gap_op(f"equality.d{n}", n, kp, mp, kp, _equals(0), _add_eps))
        if n == 3:
            r = 2 + c % 2
            bodies = [_body(rng, n, k) for k in ("seg", "tri", "seg")[:r]]
            ops.append(_general_op(f"general.d3.r{r}", n, bodies, kp, r, _nonneg))
    ops.append(_pinned(rng, _PINNED[c % len(_PINNED)]))
    return ops


# ---------------------------------------------------------------- hull_heavy


def _int_rows(points):
    """Points as integer rows over one common denominator."""
    den = math.lcm(*(Fraction(x).denominator for p in points for x in p))
    return [tuple(int(Fraction(x) * den) for x in p) for p in points], den


def _inside(P, points):
    """Every point satisfies every facet inequality of P (integer test)."""
    rows, den = _int_rows(points)
    for f in P.facets:
        num, fden = f.offset.numerator, f.offset.denominator
        bound = num * den
        for r in rows:
            if sum(z * x for z, x in zip(f.normal, r)) * fden > bound:
                return False
    return True


def check_body(P, n, points=None):
    """Exact consistency of a full-dimensional hull: every input point (or,
    without inputs, every vertex) lies in every facet halfspace, vertices
    are input points, each facet holds at least n vertices on its plane,
    and volume == (1/n)·sum(offset·normalized_volume), which holds for any
    origin and is computed from the facets, not from the volume routine."""
    if P.dim != n or P.adim != n or not P.facets:
        return False
    if points is not None:
        pts = {tuple(Fraction(x) for x in p) for p in points}
        if not set(P.vertices) <= pts:
            return False
    if not _inside(P, points if points is not None else P.vertices):
        return False
    for f in P.facets:
        if len(f.vertices) < n:
            return False
        if any(
            sum(z * x for z, x in zip(f.normal, P.vertices[i])) != f.offset
            for i in f.vertices
        ):
            return False
    pyramid = sum((f.offset * f.normalized_volume for f in P.facets), Fraction(0))
    return P.volume > 0 and P.volume == pyramid / n


def _perturb_volume(P):
    return type(P)(P.dim, P.adim, P.vertices, P.facets, P.volume + EPS)


def _hull_op(label, n, pts):
    return Op(
        label,
        lambda m: m.convex_hull(pts, n),
        lambda P: check_body(P, n, pts),
        perturb=_perturb_volume,
    )


def _cloud(rng, n, count, span, den):
    """Random rational cloud, redrawn until it spans R^n."""
    while True:
        pts = _points(rng, n, count, span, den)
        if _det([[a - b for a, b in zip(p, pts[0])] for p in pts[1 : n + 1]]):
            return pts


def _ball_op(rng, subdivisions):
    den = rng.randrange(200, 1001)
    return Op(
        f"ball.s{subdivisions}",
        lambda m: m.ball_approx_3d(subdivisions, den),
        lambda P: check_body(P, 3),
        perturb=_perturb_volume,
    )


def _minkowski_op(rng, n, second):
    """minkowski_sum(cube(n), second/k), both moved by integer shifts."""
    k = rng.randrange(2, 6)
    ta, tb = _int_shift(rng, n), _int_shift(rng, n)
    cp = [tuple(x + s for x, s in zip(p, ta)) for p in _cube_pts(n)]
    raw = _cross_pts(n) if second == "cross" else _unit_seg(n, 0)[:1] + [
        _unit_seg(n, i)[1] for i in range(n)
    ]
    sp = [tuple(Fraction(x, k) + s for x, s in zip(p, tb)) for p in raw]
    sums = [tuple(x + y for x, y in zip(p, q)) for p in cp for q in sp]
    return Op(
        f"minkowski.d{n}.{second}",
        lambda m: m.minkowski_sum(m.convex_hull(cp, n), m.convex_hull(sp, n)),
        lambda P: check_body(P, n, sums),
        perturb=_perturb_volume,
    )


def _int_shift(rng, n):
    return [rng.randrange(-50, 51) for _ in range(n)]


def _halfspaces(rng, n, cuts):
    """The unit cube's facets plus `cuts` random halfspaces that keep the
    cube's centre strictly inside, as (normal, bound) pairs. Normals are
    primitive, as the facet normals mvlab itself passes are:
    vertex_enumeration reduces a normal to primitive form without dividing
    its bound."""
    hs = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        hs.append((e, Fraction(1)))
        hs.append((tuple(-x for x in e), Fraction(0)))
    centre = [Fraction(1, 2)] * n
    while len(hs) < 2 * n + cuts:
        z = tuple(rng.randrange(-3, 4) for _ in range(n))
        if math.gcd(*z) == 1:
            margin = Fraction(rng.randrange(1, 8), rng.randrange(4, 16))
            hs.append((z, sum(a * b for a, b in zip(z, centre)) + margin))
    return hs


def _venum_op(rng, n, cuts):
    hs = _halfspaces(rng, n, cuts)

    def check(P):
        return check_body(P, n) and _inside_halfspaces(P.vertices, hs)

    return Op(
        f"venum.d{n}",
        lambda m: m.vertex_enumeration([m.Halfspace(z, b) for z, b in hs], n),
        check,
        perturb=_perturb_volume,
    )


def _inside_halfspaces(points, hs):
    return all(sum(a * b for a, b in zip(z, p)) <= b0 for z, b0 in hs for p in points)


def _clip_op(rng, n, count, span, den):
    pts = _cloud(rng, n, count, span, den)
    centre = [sum(c) / len(pts) for c in zip(*pts)]
    while True:
        z = tuple(rng.randrange(-3, 4) for _ in range(n))
        if any(z):
            break
    bound = sum(a * b for a, b in zip(z, centre))

    def call(m):
        return m.clip_halfspace(m.convex_hull(pts, n), m.Halfspace(z, bound))

    def check(P):
        return check_body(P, n) and _inside_halfspaces(P.vertices, [(z, bound)])

    return Op(f"clip.d{n}", call, check, perturb=_perturb_volume)


def hull_heavy_cycle(rng, c, workdir):
    """28 ops, no mixed volume and no shared input. By seed-code latency:
    10 small (2D/3D clouds, 3D clips, a 3D cube + cross/k sum), 8 medium
    (4D clouds), 6 upper (42-point icospheres, 4D halfspace sets, 4D clips)
    and 4 large (three 4D cube + simplex/k sums, then ball_approx_3d(2, d)
    or the 4D cube + cross/k sum in turn). As many ops lie below the 4D
    clouds as above them, so the median falls in the middle of their block,
    and the 90th percentile falls inside the block of the simplex sums."""
    ops = [_hull_op("cloud.d2", 2, _cloud(rng, 2, 300, 50, 9)) for _ in range(3)]
    for _ in range(4):
        ops.append(_hull_op("cloud.d3", 3, _cloud(rng, 3, 40, 20, 7)))
    for _ in range(2):
        ops.append(_clip_op(rng, 3, 30, 10, 5))
    ops.append(_minkowski_op(rng, 3, "cross"))
    for _ in range(8):
        ops.append(_hull_op("cloud.d4", 4, _cloud(rng, 4, 25, 20, 7)))
    for _ in range(2):
        ops.append(_ball_op(rng, 1))
    for _ in range(2):
        ops.append(_venum_op(rng, 4, 3))
    for _ in range(2):
        ops.append(_clip_op(rng, 4, 14, 6, 3))
    for _ in range(3):
        ops.append(_minkowski_op(rng, 4, "simplex"))
    ops.append(_ball_op(rng, 2) if c % 2 == 0 else _minkowski_op(rng, 4, "cross"))
    return ops


# ---------------------------------------------------------------- cli_session


def _doc(pts, name):
    return {
        "name": name,
        "dim": len(pts[0]),
        "vertices": [
            [[Fraction(x).numerator, Fraction(x).denominator] for x in p] for p in pts
        ],
    }


class _Files:
    """Input documents and report paths of one cycle, under the work dir."""

    def __init__(self, workdir, c):
        self.dir = os.path.join(workdir, f"c{c}")
        os.makedirs(self.dir, exist_ok=True)
        self.count = 0

    def doc(self, pts):
        self.count += 1
        path = os.path.join(self.dir, f"in{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_doc(pts, f"body{self.count}"), fh)
        return path

    def out(self):
        self.count += 1
        return os.path.join(self.dir, f"out{self.count}.json")


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _frac(pair):
    return Fraction(pair[0], pair[1])


def _cli_op(label, argv, out, check, perturb=None):
    argv = argv + ["--out", out]

    def collect(code):
        return code, _read_report(out)

    return Op(label, lambda m: m.cli.main(argv), check, collect, perturb)


def _expect(code, verdict_key, verdict):
    def check(value):
        got, rep = value
        return got == code and rep.get("verdicts", {}).get(verdict_key) == verdict

    return check


def _perturb_result(key):
    def perturb(value):
        code, rep = value
        rep = json.loads(json.dumps(rep))
        v = _frac(rep["results"][key]) + EPS
        rep["results"][key] = [v.numerator, v.denominator]
        return code, rep

    return perturb


def _mv_check(value):
    code, rep = value
    res = rep.get("results", {})
    return (
        code == 0
        and rep.get("verdicts", {}).get("oracle_agrees") is True
        and _frac(res["mixed_volume"]) == _frac(res["measure_oracle"])
        and _frac(res["mixed_volume"]) >= 0
    )


def _strict_check(expected_gap):
    def check(value):
        code, rep = value
        if code != 0 or rep.get("verdicts", {}).get("mechanism_fired") is not True:
            return False
        gap = _frac(rep["results"]["gap"])
        return gap == expected_gap if expected_gap is not None else gap < 0

    return check


def _search_found_check(value):
    code, rep = value
    res = rep.get("results", {})
    return (
        code == 0
        and rep.get("verdicts", {}).get("verdict") == "violated"
        and res.get("found") is True
        and _frac(res["gap"]) < 0
    )


def _search_exhausted_check(budget):
    def check(value):
        code, rep = value
        res = rep.get("results", {})
        return (
            code == 1
            and rep.get("verdicts", {}).get("verdict") == "exhausted"
            and res.get("evaluations") == budget
        )

    return check


def cli_session_cycle(rng, c, workdir):
    """14 CLI commands on bodies no other command sees. By seed-code
    latency: 4 small (mv and audits of a simplex and a non-simplex at n=2, a
    search exhausting --budget 12 on a 2D simplex), 7 medium around the
    median (audits of 3D and 4D simplices, a search that finds a violation
    at n=3, mv at n=3, three 2-sample af_fuzz runs) and 3 large around the
    90th percentile (two mv at n=4, strict on a rational 64-gon). Cycle 0's
    polygon is regular_polygon:64,1000000, whose gap is pinned. Bodies come
    from --input documents written here and from --gen specs with seeds
    unique to the op."""
    files = _Files(workdir, c)
    uniq = rng.randrange(10**9)  # seed base for --gen and af_fuzz
    ops = []

    def mv(label, argv):
        ops.append(
            _cli_op(label, argv, files.out(), _mv_check, _perturb_result("mixed_volume"))
        )

    def audit(n, pts, simplex):
        code, verdict = (0, "simplex") if simplex else (1, "non-simplex")
        ops.append(
            _cli_op(
                f"audit.{verdict}.d{n}",
                ["audit", "--input", files.doc(pts)],
                files.out(),
                _expect(code, "verdict", verdict),
            )
        )

    # small
    mv("mv.d2", ["mv", "--input", files.doc(_points(rng, 2, 4)),
                 "--gen", f"random_hull:2,4,{uniq}"])
    audit(2, _affine_simplex(rng, 2), True)
    audit(2, _nonsimplex(rng, 2, 5), False)
    budget = 12
    ops.append(
        _cli_op(
            "search.exhausted.d2",
            ["search", "--input", files.doc(_affine_simplex(rng, 2)),
             "--budget", str(budget)],
            files.out(),
            _search_exhausted_check(budget),
        )
    )
    # medium
    audit(3, _affine_simplex(rng, 3), True)
    audit(4, _affine_simplex(rng, 4), True)
    ops.append(
        _cli_op(
            "search.found.d3",
            ["search", "--input", files.doc(_nonsimplex(rng, 3, 6)), "--budget", "10000"],
            files.out(),
            _search_found_check,
        )
    )
    mv("mv.d3", ["mv", "--input", files.doc(_points(rng, 3, 5)),
                 "--gen", f"random_hull:3,5,{uniq + 1}",
                 "--input", files.doc(_points(rng, 3, 5))])
    for k in (2, 3, 4):
        ops.append(
            _cli_op(
                "af_fuzz",
                ["af_fuzz", "--samples", "2", "--seed", str(uniq + k)],
                files.out(),
                _expect(0, "verdict", "all_nonnegative"),
            )
        )
    # large
    if c == 0:
        spec, expected = "regular_polygon:64,1000000", GAP_64GON
    else:
        spec, expected = f"regular_polygon:64,{rng.randrange(1000, 10**6)}", None
    ops.append(
        _cli_op(
            "strict",
            ["strict", "--gen", spec],
            files.out(),
            _strict_check(expected),
            _perturb_result("gap") if expected is not None else None,
        )
    )
    for _ in range(2):
        args = ["mv"]
        for pts in (_segment(rng, 4), _segment(rng, 4), _points(rng, 4, 3),
                    _points(rng, 4, 3)):
            args += ["--input", files.doc(pts)]
        mv("mv.d4", args)
    return ops


def _nonsimplex(rng, n, count):
    """Vertices of a random full-dimensional body that is not a simplex."""
    while True:
        pts = _cloud(rng, n, count, 4, 2)
        if _vertex_lower_bound(pts, n) > n + 1:
            return pts


def _vertex_lower_bound(pts, n):
    """A lower bound on the vertex count of conv(pts): each point that is
    the unique maximiser of some integer direction is a vertex."""
    rng = random.Random(repr(pts))
    rows, _ = _int_rows(pts)  # a positive common scale keeps every maximiser
    found = set()
    for _ in range(64):
        z = [rng.randrange(-9, 10) for _ in range(n)]
        vals = [sum(a * b for a, b in zip(z, r)) for r in rows]
        top = max(vals)
        if vals.count(top) == 1:
            found.add(vals.index(top))
    return len(found)


WORKLOADS = {
    "gap_sweep": gap_sweep_cycle,
    "hull_heavy": hull_heavy_cycle,
    "cli_session": cli_session_cycle,
}
