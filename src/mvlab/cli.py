"""Command line experiment drivers.

Every command assembles a Report dict (exact rationals as [num, den]
pairs), prints it as JSON or CSV, and encodes its verdict in the process
exit status: 0 when the expected property held, 1 when the run's verdict
went the other way (a violation where none was expected, or a search that
found nothing), 2 for usage or operation errors.

Bodies arrive through --input FILE (PolytopeDocument JSON) and --gen
KIND:PARAMS, in command-line order, freely interleaved.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction

from . import bezout as bz
from .documents import (
    document_digest,
    load_polytope_text,
    report_csv,
    report_json,
    serialize_polytope,
)
from .errors import BadArity, BadParams, BudgetExhausted, MvlabError, ParseError
from .generators import generate, random_points
from .geometry import DIM_CAP, convex_hull
from .linalg import primitive
from .mixed import mixed_volume, mixed_volume_via_measure


def _dim_cap() -> int:
    env = os.environ.get("MVLAB_DIM_LIMIT")
    if env is None or not env.strip():
        return DIM_CAP
    try:
        v = int(env)
    except ValueError:
        raise BadParams(f"MVLAB_DIM_LIMIT must be an integer, got {env!r}")
    if v < 2:
        raise BadParams(f"MVLAB_DIM_LIMIT must be at least 2, got {v}")
    return min(DIM_CAP, v)  # may lower the cap, never raise it


def _coerce_param(tok: str):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    return tok


def _parse_gen_spec(spec: str):
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if not kind:
        raise BadParams(f"--gen spec {spec!r} has no generator kind")
    params = [_coerce_param(t) for t in rest.split(",")] if rest else []
    return kind, params


def _load_bodies(ns):
    cap = _dim_cap()
    out = []
    for source, value in ns.bodies or []:
        if source == "input":
            try:
                with open(value, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"{value}: {exc}") from exc
            poly, name, digest = load_polytope_text(text)
            label = name if name is not None else value
        else:
            kind, params = _parse_gen_spec(value)
            poly = generate(kind, params)
            label = value
            digest = document_digest(serialize_polytope(poly))
        if not 2 <= poly.dim <= cap:
            raise BadParams(f"{label}: dimension {poly.dim} outside 2..{cap}")
        out.append(
            (
                poly,
                {
                    "name": label,
                    "source": source,
                    "digest": digest,
                    "dim": poly.dim,
                    "vertex_count": len(poly.ints[0]),
                },
            )
        )
    return out


def _polys(bodies):
    return [poly for poly, _ in bodies]


def _cmd_mv(ns, bodies):
    if not bodies:
        raise BadArity("mv needs n bodies of ambient dimension n")
    polys = _polys(bodies)
    value = mixed_volume(polys)
    oracle = mixed_volume_via_measure(polys[0], polys[1:])
    agree = value == oracle
    results = {
        "dimension": polys[0].dim,
        "mixed_volume": value,
        "measure_oracle": oracle,
    }
    verdicts = {"oracle_agrees": agree}
    return results, verdicts, 0 if agree else 1


def _cmd_bezout(ns, bodies):
    polys = _polys(bodies)
    r = 2 if ns.r is None else ns.r
    if r < 2:
        raise BadArity(f"--r {r} is below 2")
    if len(polys) != r + 1:
        raise BadArity(
            "bezout needs exactly three bodies: L, M, K"
            if ns.r is None
            else f"--r {r} needs {r} bodies plus the reference body last,"
            f" got {len(polys)}"
        )
    gap = bz.bezout_gap_general(polys[:-1], polys[-1], r)
    results = {"gap": gap} if ns.r is None else {"r": r, "gap": gap}
    verdicts = {
        "verdict": "satisfied" if gap >= 0 else "violated",
        "equality": gap == 0,
    }
    return results, verdicts, 0 if gap >= 0 else 1


def _cmd_audit(ns, bodies):
    if len(bodies) != 1:
        raise BadArity("audit takes exactly one body")
    rep = bz.simplex_audit(bodies[0][0])
    results = {
        "vertex_count": rep.vertex_count,
        "facets": [
            {
                "facet_index": r.facet_index,
                "t": r.t,
                "proportional": r.proportional,
                "scale": r.scale,
            }
            for r in rep.records
        ],
    }
    verdicts = {"verdict": rep.verdict}
    return results, verdicts, 0 if rep.verdict == "simplex" else 1


def _cmd_search(ns, bodies):
    if len(bodies) != 1:
        raise BadArity("search takes exactly one body")
    try:
        cert = bz.counterexample_search(bodies[0][0], ns.budget)
    except BudgetExhausted as exc:
        results = {
            "found": False,
            "budget": ns.budget,
            "evaluations": exc.evaluations,
        }
        return results, {"verdict": "exhausted"}, 1
    results = {
        "found": True,
        "budget": ns.budget,
        "gap": cert.gap,
        "witness_L": cert.L,
        "witness_M": cert.M,
    }
    return results, {"verdict": cert.verdict}, 0


def _cmd_strict(ns, bodies):
    if len(bodies) != 1:
        raise BadArity("strict takes exactly one body")
    K = bodies[0][0]
    apex = K.ints[0][-1]  # the lex-max vertex row fixes the cap direction
    if not any(apex):
        raise BadParams("lex-max vertex is the origin; translate the body first")
    z = primitive(apex)
    eps = Fraction(1, 10)
    k = max(range(K.dim), key=lambda i: (abs(z[i]), -i))
    axis = tuple(int(i == k) for i in range(K.dim))
    M = bz.cap_cut(K, z, eps)
    L = convex_hull([tuple(-c for c in axis), axis], K.dim, allow_lower=True)
    preserved = bz.projection_preserved(K, M, axis)
    drop = bz.support_drop_set(K, M)
    cert = bz.bezout_gap(L, M, K)
    fired = preserved and bool(drop) and cert.gap < 0
    results = {
        "cap_direction": list(z),
        "cap_depth": eps,
        "axis": list(axis),
        "projection_preserved": preserved,
        "support_drop_set": [list(d) for d in drop],
        "gap": cert.gap,
    }
    verdicts = {"mechanism_fired": fired}
    return results, verdicts, 0 if fired else 1


def _cmd_af_fuzz(ns, bodies):
    if len(bodies) > 1:
        raise BadArity("af_fuzz takes at most one body")
    fixed = bodies[0][0] if bodies else None
    if ns.samples < 1:
        raise BadParams("--samples must be positive")
    negatives = []
    min_slack = None
    for i in range(ns.samples):
        n = fixed.dim if fixed is not None else 2 + (i % 2)
        rng = random.Random(f"mvlab-af:{ns.seed}:{i}")

        def body():
            return convex_hull(random_points(rng, n, n + 2, 5, 3), n, allow_lower=True)

        L, M = body(), body()
        rest = [fixed] * (n - 2) if fixed is not None else [
            body() for _ in range(n - 2)
        ]
        slack = bz.af_spot_check(L, M, rest)
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if slack < 0:
            negatives.append({"index": i, "slack": slack})
    results = {
        "samples": ns.samples,
        "min_slack": min_slack,
        "negative": negatives,
    }
    ok = not negatives
    verdicts = {"verdict": "all_nonnegative" if ok else "violations"}
    return results, verdicts, 0 if ok else 1


_HANDLERS = {
    "mv": _cmd_mv,
    "bezout": _cmd_bezout,
    "audit": _cmd_audit,
    "search": _cmd_search,
    "strict": _cmd_strict,
    "af_fuzz": _cmd_af_fuzz,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlab",
        description="Exact mixed-volume and Bezout-gap experiments on"
        " rational polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        # both flags append (source, value) to one list, keeping their order
        sp.add_argument(
            "--input",
            dest="bodies",
            action="append",
            type=lambda v: ("input", v),
            metavar="FILE",
            help="polytope document (JSON); repeatable",
        )
        sp.add_argument(
            "--gen",
            dest="bodies",
            action="append",
            type=lambda v: ("gen", v),
            metavar="KIND:PARAMS",
            help="generated body, e.g. cube:3 or random_hull:2,6,0;"
            " repeatable, order shared with --input",
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", metavar="FILE", help="write the report here")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        return sp

    add("mv", "mixed volume of n bodies, cross-checked by two algorithms")
    b = add("bezout", "Bezout gap for (L, M, K), or --r for the general form")
    b.add_argument("--r", type=int, default=None)
    add("audit", "facet-move proportionality audit of one body")
    s = add("search", "staged search for a Bezout violation against one body")
    s.add_argument("--budget", type=int, default=10000)
    add("strict", "cap-cut mechanism probe on one body")
    f = add("af_fuzz", "random quadratic-inequality slack sampling")
    f.add_argument("--samples", type=int, default=500)
    return parser


# parsing leaves the parser unchanged, so one serves every main() call
_PARSER = build_parser()


def _echo_params(ns) -> dict:
    params = {"format": ns.format}
    for key in ("r", "budget", "samples"):
        if hasattr(ns, key):
            params[key] = getattr(ns, key)
    if getattr(ns, "out", None):
        params["out"] = ns.out
    return params


def _emit(report: dict, ns) -> None:
    text = report_json(report) if ns.format == "json" else report_csv(report)
    if getattr(ns, "out", None):
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    try:
        bodies = _load_bodies(ns)
        results, verdicts, code = _HANDLERS[ns.command](ns, bodies)
        report = {
            "command": ns.command,
            "inputs": [meta for _, meta in bodies],
            "params": _echo_params(ns),
            "results": results,
            "verdicts": verdicts,
            "seed": ns.seed,
            "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
    except MvlabError as exc:
        report = {
            "command": ns.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
        }
        code = 2
    try:
        _emit(report, ns)
    except OSError as exc:
        print(f"mvlab: cannot write report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
