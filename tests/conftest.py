from hypothesis import HealthCheck, settings

settings.register_profile(
    "mvlab",
    deadline=None,
    derandomize=True,
    max_examples=30,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)
settings.load_profile("mvlab")

from mvlab.generators import random_hull, random_points  # noqa: E402
from mvlab.geometry import convex_hull  # noqa: E402
from mvlab.linalg import det  # noqa: E402


def rand_body(rng, n, count=None, span=3, max_den=2):
    """Small random body; may be lower-dimensional."""
    if count is None:
        count = n + 2
    pts = random_points(rng, n, count, span, max_den)
    return convex_hull(pts, n, allow_lower=True)


def rand_full_body(rng, n, count=None, span=3, max_den=2):
    while True:
        P = rand_body(rng, n, count, span, max_den)
        if P.is_full_dimensional:
            return P


def nonsimplex_hull(n, idx):
    """random_hull(n, n + 3, seed) for the first seed idx, idx + 1000, ...
    whose hull is not a simplex."""
    seed = idx
    while True:
        P = random_hull(n, n + 3, seed)
        if len(P.vertices) > n + 1:
            return P
        seed += 1000


def rand_segment(rng, n, span=3, max_den=2):
    while True:
        a, b = random_points(rng, n, 2, span, max_den)
        if a != b:
            return convex_hull([a, b], n, allow_lower=True)


def rand_affine_simplex(rng, n, span=3, max_den=2):
    """Image of conv{0, e_1..e_n} under a random invertible rational affine map."""
    while True:
        cols = random_points(rng, n, n, span, max_den)
        if det([[cols[j][i] for j in range(n)] for i in range(n)]) != 0:
            break
    (shift,) = random_points(rng, n, 1, span, max_den)
    verts = [shift] + [
        tuple(c + s for c, s in zip(col, shift)) for col in cols
    ]
    return convex_hull(verts, n)


def mix_body(rng, n, segments_only=False):
    """Body mix used by the randomized gap sweeps: mostly segments, some
    triangles, occasionally a fatter hull. Segments keep Minkowski sums
    tiny, which matters in dimension 4."""
    roll = rng.random()
    if segments_only or roll < 0.5:
        return rand_segment(rng, n)
    if roll < 0.8:
        return rand_body(rng, n, count=3)
    return rand_body(rng, n, count=n + 2)
