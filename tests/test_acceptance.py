"""Acceptance gate: eight criteria, every comparison at tolerance 0
(exact rational equality). Run with -v to get one pass/fail line per
criterion; each also prints a one-line summary on success."""

import random
import time
from fractions import Fraction

from conftest import (
    mix_body,
    nonsimplex_hull,
    rand_affine_simplex,
    rand_body,
    rand_full_body,
)
from mvlab.bezout import (
    MoveSpec,
    af_spot_check,
    bezout_gap,
    bezout_gap_general,
    cap_cut,
    counterexample_search,
    facet_move_linearity_check,
    lemma_measure_power_identity,
    move_facet,
    projection_preserved,
    safe_move_range,
    simplex_audit,
    support_drop_set,
)
from mvlab.generators import (
    cross_polytope,
    cube,
    prism,
    regular_polygon,
    simplex,
    truncated_simplex,
)
from mvlab.geometry import convex_hull, facet_structure, support_value
from mvlab.linalg import dot, primitive_from_rational
from mvlab.mixed import (
    clear_caches,
    mixed_area_measure,
    mixed_volume,
    mixed_volume_via_measure,
    segment_mixed_volume,
    surface_area_measure,
)

F = Fraction


def seg(a, b, n):
    return convex_hull([a, b], n, allow_lower=True)


def unit_segs(n):
    origin = (0,) * n
    return [seg(origin, tuple(int(i == j) for j in range(n)), n) for i in range(n)]


# 64-gon strict-mechanism gap, frozen after first computation
GAP_64GON = F(
    -50147947404272050988691846280296952283183124319713450503201,
    1708015192770678167938512793600142796012432962616734887072050,
)


def test_criterion_1_exact_counterexamples():
    clear_caches()
    start = time.perf_counter()
    L2, M2 = unit_segs(2)
    assert bezout_gap(L2, M2, cube(2)).gap == F(-1, 4)
    segs3 = unit_segs(3)
    assert bezout_gap(segs3[0], segs3[1], cube(3)).gap == F(-1, 18)
    assert bezout_gap_general(segs3, cube(3), 3) == F(-7, 54)
    # same values through the measure-based algorithm
    assert mixed_volume_via_measure(L2, [cube(2)]) * mixed_volume_via_measure(
        M2, [cube(2)]
    ) - mixed_volume_via_measure(L2, [M2]) * cube(2).volume == F(-1, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS (square -1/4, cube -1/18, r=3 -7/54, {elapsed:.3f}s)")


def test_criterion_2_simplex_satisfaction():
    clear_caches()
    for n in (2, 3, 4):
        rng = random.Random(f"acc2:{n}")
        simplices = [simplex(n)] + [rand_affine_simplex(rng, n) for _ in range(20)]
        pairs = 0
        for idx, K in enumerate(simplices):
            for j in range(10):
                L = mix_body(rng, n, segments_only=(n == 4 and j % 3 != 0))
                M = mix_body(rng, n, segments_only=(n == 4))
                assert bezout_gap(L, M, K).gap >= 0
                pairs += 1
            M = mix_body(rng, n)
            assert bezout_gap(K, M, K).gap == 0  # L = K forces equality
        assert pairs >= 200
        for r in range(2, n + 1):
            for j in range(50):
                K = simplices[j % len(simplices)]
                bodies = [
                    mix_body(rng, n, segments_only=(n == 4)) for _ in range(r)
                ]
                assert bezout_gap_general(bodies, K, r) >= 0
    print("criterion 2: PASS (n=2,3,4: 210 pairs, 21 equalities, 50 r-tuples per r, all gaps >= 0)")


def test_criterion_3_oracle_equivalence():
    clear_caches()
    for n in (2, 3):
        rng = random.Random(f"acc3:{n}")
        for _ in range(100):
            bodies = [rand_body(rng, n) for _ in range(n)]
            assert mixed_volume(bodies) == mixed_volume_via_measure(
                bodies[0], bodies[1:]
            )
    count = 0
    for n in (2, 3):
        rng = random.Random(f"acc3seg:{n}")
        while count < 50 * (n - 1):
            v = tuple(rng.randrange(-3, 4) for _ in range(n))
            if not any(v):
                continue
            bodies = [rand_body(rng, n) for _ in range(n - 1)]
            L = seg((0,) * n, v, n)
            assert segment_mixed_volume(v, bodies) == mixed_volume([L] + bodies)
            count += 1
    assert count >= 100
    print("criterion 3: PASS (100+100 oracle tuples, 100 segment reductions, exact)")


def test_criterion_4_lemma_identity():
    clear_caches()
    for n in (2, 3, 4):
        K = simplex(n)
        for i in range(len(facet_structure(K))):
            t_min, t_max = safe_move_range(K, i)
            for t in (t_max / 2, t_max / 4, t_min / 2):
                for r in range(n):
                    chk = lemma_measure_power_identity(K, MoveSpec(i, t), r)
                    assert chk.holds, (n, i, t, r, chk.residual)
    # regression: the identity must fail on the square
    sq = cube(2)
    i = next(j for j, f in enumerate(facet_structure(sq)) if f.normal == (0, 1))
    chk = lemma_measure_power_identity(sq, MoveSpec(i, F(1, 2)), 1)
    assert not chk.holds and chk.scale == F(5, 4)
    res = {z: (lhs, rhs) for z, lhs, rhs in chk.residual}
    assert res[(1, 0)] == (F(3, 2), F(5, 4))
    assert res[(-1, 0)] == (F(3, 2), F(5, 4))
    print("criterion 4: PASS (simplices n=2,3,4 exact; square fails at +-e1 as pinned)")


def test_criterion_5_support_stability():
    clear_caches()
    rng = random.Random("acc5")
    bodies = [simplex(2), simplex(3), cube(2), cube(3)]
    bodies += [rand_full_body(rng, 2) for _ in range(5)]
    bodies += [rand_full_body(rng, 3) for _ in range(5)]
    checks = 0
    for K in bodies:
        n = K.dim
        target = surface_area_measure(K).support()
        for i in range(len(facet_structure(K))):
            t_min, t_max = safe_move_range(K, i)
            for t in (t_max / 2, t_max / 4, t_min / 2):
                Kt = move_facet(K, MoveSpec(i, t))
                for r in range(n):
                    mam = mixed_area_measure([Kt] * r + [K] * (n - 1 - r))
                    assert mam.support() == target
                    checks += 1
    print(f"criterion 5: PASS ({checks} support checks on {len(bodies)} bodies)")


def test_criterion_6_audit_and_refutation():
    clear_caches()
    for n in (2, 3, 4):
        assert simplex_audit(simplex(n)).verdict == "simplex"
    non_simplices = [
        cube(2), cube(3),
        cross_polytope(2), cross_polytope(3),
        prism(simplex(2), 1),
        truncated_simplex(2, F(1, 4)), truncated_simplex(3, F(1, 3)),
    ]
    non_simplices += [nonsimplex_hull(2, i) for i in range(10)]
    non_simplices += [nonsimplex_hull(3, 100 + i) for i in range(10)]
    for K in non_simplices:
        assert simplex_audit(K).verdict == "non-simplex"
        cert = counterexample_search(K, 10**4)
        assert cert.gap < 0
        assert cert.recompute() == cert.gap
    print(f"criterion 6: PASS (3 simplices, {len(non_simplices)} non-simplices refuted within 10^4)")


def test_criterion_7_strict_point_mechanism():
    clear_caches()
    K = regular_polygon(64, 10**6)
    z = primitive_from_rational(max(K.vertices))  # a vertex direction
    assert z == (1, 0)
    eps = F(1, 10)
    bound = support_value(K, z) - eps
    swallowed = [v for v in K.vertices if dot(z, v) > bound]
    assert len(swallowed) >= 3  # at least 2 whole edges vanish
    M = cap_cut(K, z, eps)
    axis = (1, 0)
    L = seg((-1, 0), (1, 0), 2)
    assert projection_preserved(K, M, axis)
    assert support_drop_set(K, M) != ()
    cert = bezout_gap(L, M, K)
    assert cert.gap < 0
    assert cert.gap == GAP_64GON  # frozen regression constant

    sq = cube(2)
    zs = primitive_from_rational(max(sq.vertices))
    assert zs == (1, 1)
    Ms = cap_cut(sq, zs, eps)
    Ls = seg((-1, 0), (1, 0), 2)
    assert projection_preserved(sq, Ms, (1, 0))
    assert support_drop_set(sq, Ms) == ()
    assert bezout_gap(Ls, Ms, sq).gap == 0
    print("criterion 7: PASS (64-gon fires with frozen gap; square evades with gap 0)")


def test_criterion_8_af_and_linearity():
    clear_caches()
    for i in range(500):
        n = 2 + (i % 2)
        rng = random.Random(f"acc8af:{i}")
        L = rand_body(rng, n)
        M = rand_body(rng, n)
        rest = [rand_body(rng, n) for _ in range(n - 2)]
        assert af_spot_check(L, M, rest) >= 0
    for i in range(100):
        n = 2 + (i % 2)
        rng = random.Random(f"acc8lin:{i}")
        K = rand_full_body(rng, n)
        nf = len(facet_structure(K))
        j = rng.randrange(nf)
        P = move_facet(K, MoveSpec(j, safe_move_range(K, j)[1] / 2))
        i2 = rng.randrange(nf)
        lo, hi = safe_move_range(K, i2)
        t = rng.choice([hi / 2, lo / 2, hi / 3])
        assert facet_move_linearity_check(K, P, i2, t) == 0
    print("criterion 8: PASS (500 quadratic slacks >= 0, 100 zero linearity residuals)")
