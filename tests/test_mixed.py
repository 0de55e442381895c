import itertools
import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from conftest import (
    mix_body,
    rand_affine_simplex,
    rand_body,
    rand_full_body,
    rand_segment,
)
from mvlab import mixed
from mvlab.bezout import MoveSpec, move_facet, safe_move_range
from mvlab.errors import (
    BadArity,
    BadParams,
    DegenerateInput,
    DimensionLimit,
    DimensionMismatch,
    ZeroVector,
)
from mvlab.generators import cross_polytope, random_points, simplex
from mvlab.geometry import (
    Halfspace,
    Polytope,
    _from_points,
    clip_halfspace,
    convex_hull,
    dilate,
    empty_polytope,
    face_in_direction,
    minkowski_sum,
    project_along,
    support_value,
    translate,
)
from mvlab.mixed import (
    _mixed_volume_fast,
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


def square():
    return convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)], 2)


def triangle():
    return convex_hull([(0, 0), (1, 0), (0, 1)], 2)


def cube3():
    return convex_hull([tuple((m >> i) & 1 for i in range(3)) for m in range(8)], 3)


def test_diagonal_is_volume():
    assert mixed_volume([square(), square()]) == 1
    assert mixed_volume([triangle(), triangle()]) == F(1, 2)
    c = cube3()
    assert mixed_volume([c, c, c]) == 1


def test_unit_segment_pair():
    L = seg((0, 0), (1, 0), 2)
    M = seg((0, 0), (0, 1), 2)
    assert mixed_volume([L, M]) == F(1, 2)
    assert mixed_volume([L, L]) == 0


def test_triangle_with_segment():
    L = seg((0, 0), (1, 0), 2)
    assert mixed_volume([triangle(), L]) == F(1, 2)


def test_three_segments_cube_frame():
    e = [seg((0, 0, 0), tuple(int(i == j) for j in range(3)), 3) for i in range(3)]
    assert mixed_volume(e) == F(1, 6)


def test_arity_and_dimension_errors():
    with pytest.raises(BadArity):
        mixed_volume([square()])
    with pytest.raises(BadArity):
        mixed_volume([square(), square(), square()])
    with pytest.raises(DimensionMismatch):
        mixed_volume([square(), cube3()])
    with pytest.raises(DimensionMismatch):
        mixed_volume_via_measure(cube3(), [square()])
    with pytest.raises(BadArity):
        mixed_volume([])
    with pytest.raises(DegenerateInput):
        mixed_volume([square(), empty_polytope(2)])
    with pytest.raises(DimensionMismatch):
        segment_mixed_volume((1, 0, 0), [square()])


@pytest.mark.parametrize(
    "evaluate, missing",
    [
        (mixed_volume, 0),
        (_mixed_volume_fast, 0),
        (mixed_area_measure, 1),
        (lambda bodies: segment_mixed_volume((1,) + (0,) * len(bodies), bodies), 1),
    ],
    ids=["mixed_volume", "fast", "mixed_area_measure", "segment_mixed_volume"],
)
def test_input_checks_type_first_and_cap(evaluate, missing):
    """Each evaluator takes n - missing bodies in R^n."""
    with pytest.raises(DegenerateInput, match="Polytope values"):
        evaluate([(0, 0)] + [square()] * (1 - missing))
    big = Polytope(5, 5, (((0,) * 5,), 1), ((), 1, 1), (0, 1))
    with pytest.raises(DimensionLimit, match="ambient dimension 5 exceeds 4"):
        evaluate([big] * (5 - missing))


def test_surface_area_measure_square():
    m = surface_area_measure(square())
    assert m.as_dict() == {
        (-1, 0): 1, (0, -1): 1, (0, 1): 1, (1, 0): 1,
    }
    assert m.weight((1, 1)) == 0


def test_surface_area_measure_triangle():
    m = surface_area_measure(triangle())
    # diagonal facet: Vol_1 = sqrt(2), primitive normal norm sqrt(2), ratio 1
    assert m.as_dict() == {(-1, 0): 1, (0, -1): 1, (1, 1): 1}


def test_mixed_area_measure_full_dim_pair():
    m = mixed_area_measure([square()])
    assert m.as_dict() == surface_area_measure(square()).as_dict()


def test_mixed_area_measure_segment_cube():
    L = seg((0, 0, 0), (1, 0, 0), 3)
    m = mixed_area_measure([L, cube3()])
    assert m.as_dict() == {
        (0, -1, 0): F(1, 2), (0, 0, -1): F(1, 2),
        (0, 0, 1): F(1, 2), (0, 1, 0): F(1, 2),
    }


def test_mixed_area_measure_flat_sum():
    # two parallel segments: the sum is a segment, measure lives on its
    # two hyperplane normals
    L = seg((0, 0), (1, 0), 2)
    m = mixed_area_measure([L])
    assert set(m.support()) == {(0, 1), (0, -1)}
    assert m.weight((0, 1)) == 1


def test_mixed_area_measure_point_sum():
    p = convex_hull([(0, 0, 0)], 3, allow_lower=True)
    m = mixed_area_measure([p, p])
    assert m.atoms == ()


def test_measure_oracle_matches_examples():
    L = seg((0, 0), (1, 0), 2)
    assert mixed_volume_via_measure(L, [triangle()]) == F(1, 2)
    assert mixed_volume_via_measure(triangle(), [triangle()]) == F(1, 2)
    c = cube3()
    assert mixed_volume_via_measure(c, [c, c]) == 1


def test_segment_mixed_volume_examples():
    assert segment_mixed_volume((1, 0), [triangle()]) == F(1, 2)
    assert segment_mixed_volume((1, 1), [square()]) == 1
    # cube = sum of the three axis segments, so multilinearity gives
    # V([0,v],C,C) = (|v1|+|v2|+|v3|)/3
    c = cube3()
    assert segment_mixed_volume((0, 0, 1), [c, c]) == F(1, 3)
    assert segment_mixed_volume((1, 1, 1), [c, c]) == 1
    with pytest.raises(ZeroVector):
        segment_mixed_volume((0, 0), [triangle()])


def test_segment_mixed_volume_matches_polarization():
    rng = random.Random("segmv")
    for _ in range(20):
        n = rng.choice([2, 3])
        v = tuple(rng.randrange(-3, 4) for _ in range(n))
        if not any(v):
            continue
        bodies = [rand_body(rng, n) for _ in range(n - 1)]
        L = seg((0,) * n, v, n)
        assert segment_mixed_volume(v, bodies) == mixed_volume([L] + bodies)
    # non-primitive rational directions, two of them with v_1 = 0, so the
    # projection runs along a later coordinate k with |v_k| != 1
    for v in ((0, F(1, 2), F(-3, 4)), (0, 0, 2, -1), (F(2, 3), 0, 0, -1)):
        n = len(v)
        L = seg((0,) * n, v, n)
        for _ in range(2):
            bodies = [rand_body(rng, n) for _ in range(n - 1)]
            assert segment_mixed_volume(v, bodies) == mixed_volume([L] + bodies)


def test_symmetry_all_permutations():
    rng = random.Random("perm")
    for _ in range(5):
        bodies = [rand_body(rng, 3) for _ in range(3)]
        vals = {mixed_volume(list(p)) for p in itertools.permutations(bodies)}
        assert len(vals) == 1


def test_multilinearity_first_slot():
    rng = random.Random("lin")
    for _ in range(8):
        n = rng.choice([2, 3])
        A = rand_body(rng, n)
        B = rand_body(rng, n)
        rest = [rand_body(rng, n) for _ in range(n - 1)]
        lhs = mixed_volume([minkowski_sum(A, B)] + rest)
        assert lhs == mixed_volume([A] + rest) + mixed_volume([B] + rest)


def test_dilation_scales_linearly():
    rng = random.Random("dil")
    for _ in range(5):
        A = rand_full_body(rng, 2)
        rest = [rand_body(rng, 2)]
        assert mixed_volume([dilate(A, 3)] + rest) == 3 * mixed_volume([A] + rest)


def test_translation_invariance():
    rng = random.Random("trans")
    for _ in range(8):
        n = rng.choice([2, 3])
        bodies = [rand_body(rng, n) for _ in range(n)]
        shifted = list(bodies)
        k = rng.randrange(n)
        shifted[k] = translate(bodies[k], tuple(F(1, 2) for _ in range(n)))
        assert mixed_volume(bodies) == mixed_volume(shifted)


def test_monotonicity_under_inclusion():
    rng = random.Random("mono")
    for _ in range(10):
        n = rng.choice([2, 3])
        B = rand_body(rng, n, count=n + 3)
        if len(B.vertices) < 2:
            continue
        k = rng.randrange(1, len(B.vertices))
        A = convex_hull(B.vertices[:k], n, allow_lower=True)
        rest = [rand_body(rng, n) for _ in range(n - 1)]
        assert mixed_volume([A] + rest) <= mixed_volume([B] + rest)


def test_oracle_equivalence_random():
    rng = random.Random("oracle")
    for _ in range(15):
        n = rng.choice([2, 3])
        bodies = [rand_body(rng, n) for _ in range(n)]
        assert mixed_volume(bodies) == mixed_volume_via_measure(
            bodies[0], bodies[1:]
        )


def test_oracle_equivalence_mv_d4_shape():
    """(segment, segment, triangle, triangle) in R^4, the shape of the 4D
    mv command in the benchmark session: both oracles agree."""
    rng = random.Random("oracle4")
    clear_caches()
    for _ in range(20):
        bodies = [rand_segment(rng, 4), rand_segment(rng, 4)]
        bodies += [rand_body(rng, 4, count=3) for _ in range(2)]
        assert mixed_volume(bodies) == mixed_volume_via_measure(
            bodies[0], bodies[1:]
        )


def test_measure_support_matches_surface_measure():
    rng = random.Random("supp")
    for _ in range(8):
        n = rng.choice([2, 3])
        K = rand_full_body(rng, n)
        mam = mixed_area_measure([K] * (n - 1))
        assert mam.support() == surface_area_measure(K).support()


def test_measure_scaled():
    m = surface_area_measure(square()).scaled(F(3, 2))
    assert m.weight((1, 0)) == F(3, 2)
    assert m.scaled(0).atoms == ()
    # weights stay positive: a negative factor is refused, as dilate does
    with pytest.raises(BadParams):
        m.scaled(-1)


def test_clear_caches_is_safe():
    # the Minkowski subset-sum cache is the package's only cache
    v1 = mixed_volume([square(), triangle()])
    info = mixed._subset_sum.cache_info()
    assert info.currsize > 0 and info.maxsize is not None
    clear_caches()
    assert mixed._subset_sum.cache_info().currsize == 0
    assert mixed_volume([square(), triangle()]) == v1


# ---------------------------------------------------------------- shortcuts


def _criterion2_triples(n):
    """(L, M, K) in the order acceptance criterion 2 draws them at n."""
    rng = random.Random(f"acc2:{n}")
    simplices = [simplex(n)] + [rand_affine_simplex(rng, n) for _ in range(20)]
    for K in simplices:
        for j in range(10):
            L = mix_body(rng, n, segments_only=(n == 4 and j % 3 != 0))
            M = mix_body(rng, n, segments_only=(n == 4))
            yield L, M, K
        yield K, mix_body(rng, n), K


def _criterion8_triples(count):
    """(L, M, rest) in the order acceptance criterion 8 draws them."""
    for i in range(count):
        n = 2 + (i % 2)
        rng = random.Random(f"acc8af:{i}")
        L = rand_body(rng, n)
        M = rand_body(rng, n)
        yield L, M, [rand_body(rng, n) for _ in range(n - 2)]


@pytest.mark.parametrize("n, count", [(2, 66), (3, 33), (4, 11)])
def test_fast_evaluator_matches_polarization_on_gap_tuples(n, count):
    for L, M, K in itertools.islice(_criterion2_triples(n), count):
        base = [K] * (n - 2)
        for bodies in ([L, K] + base, [M, K] + base, [L, M] + base):
            assert _mixed_volume_fast(bodies) == mixed_volume(bodies)


def _n4_pair_tuples(count):
    """Seeded n=4 [L, M, K, K]: L and M triangles or (n+2)-point hulls, K a
    random simplex, so the evaluator takes the Minkowski-polynomial case."""
    rng = random.Random("mvpoly4")
    for i in range(count):
        L = rand_body(rng, 4, count=3 if i % 2 else 6)
        M = rand_body(rng, 4, count=3 if i % 3 else 6)
        K = rand_affine_simplex(rng, 4)
        yield [L, M, K, K]


def test_fast_evaluator_matches_polarization_on_af_tuples():
    for L, M, rest in _criterion8_triples(60):
        for bodies in ([L, M] + rest, [L, L] + rest, [M, M] + rest):
            assert _mixed_volume_fast(bodies) == mixed_volume(bodies)
    for bodies in _n4_pair_tuples(6):
        assert _mixed_volume_fast(bodies) == mixed_volume(bodies)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_variation_matches_fraction_sum(n):
    # the integer sum against the Fraction sum over K's facets; the K
    # constructions store rows at scales above the least and weights with
    # unequal denominators, and the L's have rows at scales above 1
    rng = random.Random(f"first-variation:{n}")
    base = rand_full_body(rng, n)
    z = tuple(rng.choice((-2, -1, 1, 3)) for _ in range(n))
    mid = (support_value(base, z) - support_value(base, tuple(-c for c in z))) / 2
    Ks = [
        base,
        dilate(base, F(5, 3)),
        translate(base, random_points(rng, n, 1, 3, 4)[0]),
        clip_halfspace(base, Halfspace(z, mid)),
        move_facet(base, MoveSpec(0, safe_move_range(base, 0)[1])),
    ]
    if n < 4:  # a hull is built in R^4 at most
        up = rand_full_body(rng, n + 1)
        Ks.append(project_along(up, (2,) + random_points(rng, n, 1, 3, 1)[0])[0])
    triangle = rand_body(rng, n, count=3)
    while triangle.adim != 2:
        triangle = rand_body(rng, n, count=3)
    Ls = [
        convex_hull(random_points(rng, n, 1, 3, 3), n, allow_lower=True),
        rand_segment(rng, n, max_den=3),
        triangle,
        rand_full_body(rng, n),
    ]
    for K in Ks:
        assert K.is_full_dimensional
        for L in Ls:
            ref = sum((support_value(L, f.normal) * f.normalized_volume for f in K.facets), F(0))
            assert mixed._first_variation(L, K) == ref / n


def test_fast_evaluator_branches(monkeypatch):
    def flat(*points):
        return convex_hull(points, len(points[0]), allow_lower=True)

    seg4 = [seg((0,) * 4, tuple(int(i == j) for j in range(4)), 4) for i in range(2)]
    tri3 = flat((0, 0, 0), (1, 2, 0), (0, 1, 3))
    tri3b = flat((1, 0, 0), (0, 0, 2), (2, 1, 1))
    tri3c = flat((0, 1, 0), (3, 0, 1), (1, 1, 2))
    tri4 = flat((0, 0, 0, 0), (1, 2, 0, 1), (0, 1, 3, 0))
    tri4b = flat((1, 0, 0, 2), (0, 0, 2, 1), (2, 1, 1, 0))
    point3 = flat((1, 2, 3))
    others4 = [
        dilate(simplex(4), 2),
        flat((1, 1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
        flat((0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3)),
    ]
    cases = [
        # (bodies, evaluated by polarization)
        ([cube3()] * 3, False),
        ([point3, cube3(), simplex(3)], False),
        ([tri3, simplex(3), simplex(3)], False),
        ([seg((0, 0), (1, 2), 2), seg((1, 0), (0, 3), 2)], False),
        ([seg((0, 0, 0), (1, 1, 2), 3), tri3, cube3()], False),
        (seg4 + [simplex(4)] * 2, False),
        # Minkowski polynomial: L, M and n-2 copies of a full-dimensional K;
        # two flat slots take one more interpolation point
        ([cube3(), simplex(3), cross_polytope(3)], False),
        ([tri3, tri3b, cube3()], False),
        ([tri3, tri3, cube3()], False),
        ([tri4, tri4b, simplex(4), simplex(4)], False),
        # no full-dimensional body, or none in n-2 slots
        ([tri3, tri3b, tri3c], True),
        ([simplex(4)] + others4, True),
    ]
    for bodies, falls_back in cases:
        expected = mixed_volume(bodies)
        calls = []
        monkeypatch.setattr(
            mixed, "mixed_volume", lambda b: calls.append(b) or mixed_volume(b)
        )
        assert _mixed_volume_fast(bodies) == expected
        assert bool(calls) == falls_back
        monkeypatch.undo()


# ------------------------------------------------------- cache and zero terms


def _sum_tuples(n):
    """Seeded sorted body tuples for _subset_sum at n: mixed dimensions,
    a repeated body (the dilate fold) and a point body."""
    rng = random.Random(f"subsetsum:{n}")
    for pattern in ((0, 1, 2, 0), (0, 0, 0, 1), (3, 1, 2, 0), (3, 0, 0, 2)):
        pool = [
            rand_body(rng, n, count=n + 1),
            rand_segment(rng, n),
            rand_body(rng, n, count=3),
            rand_body(rng, n, count=1),  # a point
        ]
        bodies = [pool[i] for i in pattern[:n]]
        yield tuple(sorted(bodies, key=Polytope.key))


def _canonical_ints(P):
    """P.ints reduced to the least scale: equal for any two scales that
    represent the same vertex rows."""
    rows, s = P.ints
    g = gcd(s, *(c for row in rows for c in row))
    return tuple(tuple(c // g for c in row) for row in rows), s // g


def _fingerprint(P):
    return P.adim, P.vertices, P.facets, P.volume, _canonical_ints(P)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subset_sum_independent_of_cache_state(n):
    """Each sum equals the hull of all vertex sums, whether it is built
    from a cold cache or on prefixes cached in shuffled order."""
    rng = random.Random(f"prefill:{n}")
    for bodies in _sum_tuples(n):
        brute = _from_points(
            {
                tuple(sum(c) for c in zip(*vs))
                for vs in itertools.product(*(b.vertices for b in bodies))
            },
            n,
        )
        clear_caches()
        cold = mixed._subset_sum(bodies)
        clear_caches()
        prefixes = [bodies[:k] for k in range(1, len(bodies))]
        rng.shuffle(prefixes)
        for prefix in prefixes:
            mixed._subset_sum(prefix)
        warm = mixed._subset_sum(bodies)
        assert _fingerprint(cold) == _fingerprint(brute)
        assert (_fingerprint(warm), warm.ints) == (_fingerprint(cold), cold.ints)
    clear_caches()


def _zero_term_tuples():
    """Seeded tuples at n = 2..4 with point faces at most normals and
    subsets of too few dimensions: points, segments and triangles."""
    rng = random.Random("zeroterms")
    for n, count in ((2, 6), (3, 6), (4, 4)):
        for i in range(count):
            bodies = [rand_segment(rng, n), rand_body(rng, n, count=3)]
            bodies += [rand_body(rng, n, count=(3, n + 1)[i % 2])
                       for _ in range(n - 2)]
            if i == 1:
                bodies[-1] = rand_body(rng, n, count=1)  # a point
            yield bodies


def _fold(bodies):
    total = bodies[0]
    for body in bodies[1:]:
        total = minkowski_sum(total, body)
    return total


def _reference_mixed_volume(bodies):
    """Polarization over every slot subset, each sum folded from scratch
    with no cache and no skip."""
    n = len(bodies)
    total = Fraction(0)
    for size in range(1, n + 1):
        for subset in itertools.combinations(bodies, size):
            total += (-1) ** (n - size) * _fold(subset).volume
    return total / factorial(n)


def _candidates(bodies):
    """The candidate normals of mixed_area_measure, from the folded sum."""
    n = bodies[0].dim
    total = _fold(bodies)
    if total.adim == n:
        return [f.normal for f in total.facets]
    if total.adim == n - 1:
        z0 = mixed._flat_normal(total)
        return [z0, tuple(-c for c in z0)]
    return []


def _reference_measure(bodies):
    """mixed_area_measure's atoms with every candidate normal polarized by
    the reference, point faces included."""
    n = bodies[0].dim
    atoms = []
    for z in _candidates(bodies):
        k = max(range(n), key=lambda i: abs(z[i]))
        axis = tuple(int(i == k) for i in range(n))
        faces = [project_along(face_in_direction(b, z), axis)[0] for b in bodies]
        w = _reference_mixed_volume(faces)
        if w:
            atoms.append((z, w / abs(z[k])))
    return tuple(sorted(atoms))


def test_skipped_terms_are_zero():
    """Without either skip the value and the atoms are the same, so every
    term skipped is 0."""
    clear_caches()
    for bodies in _zero_term_tuples():
        assert mixed_volume(bodies) == _reference_mixed_volume(bodies)
        assert mixed_area_measure(bodies[1:]).atoms == _reference_measure(bodies[1:])


def test_mixed_volume_requests_no_flat_sum(monkeypatch):
    """mixed_volume asks _subset_sum for no subset whose affine dimensions
    add up to less than n, though such subsets occur; a sum it asks for
    may still build a flat prefix, one level down."""
    real = mixed._subset_sum
    requests, depth = [], [0]

    def spy(bodies):
        if depth[0] == 0:
            requests.append(bodies)
        depth[0] += 1
        try:
            return real(bodies)
        finally:
            depth[0] -= 1

    flat = 0
    clear_caches()
    monkeypatch.setattr(mixed, "_subset_sum", spy)
    for bodies in _zero_term_tuples():
        n = len(bodies)
        for k in range(1, n + 1):
            flat += sum(
                sum(b.adim for b in s) < n for s in itertools.combinations(bodies, k)
            )
        mixed_volume(bodies)
    assert flat and requests
    assert all(sum(b.adim for b in s) >= s[0].dim for s in requests)
    monkeypatch.undo()
    clear_caches()


def test_measure_polarizes_no_point_face(monkeypatch):
    """mixed_area_measure calls mixed_volume on no face tuple that holds a
    point, though such normals occur."""
    calls, point_faces = [], 0
    monkeypatch.setattr(
        mixed, "mixed_volume", lambda b: calls.append(list(b)) or mixed_volume(b)
    )
    for bodies in _zero_term_tuples():
        rest = bodies[1:]
        for z in _candidates(rest):
            point_faces += any(face_in_direction(b, z).adim == 0 for b in rest)
        mixed_area_measure(rest)
    assert calls and point_faces
    assert all(b.adim > 0 for faces in calls for b in faces)
