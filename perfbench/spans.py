"""Span tracing for the traced benchmark run.

The tracer wraps the public entry points of each mvlab module from outside
the package: it replaces every module attribute that is bound to the
original function (the defining module's own name and each ``from .x
import f`` copy in a calling module) with a wrapper. No file under src/
changes, and an untraced run installs nothing.

A span is (name, start, end, parent, op id, ok). Spans stay in memory and
are written out when the run ends. A span's self time is its duration minus
the durations of its direct children; in this single-threaded program the
children run one after another inside the parent, so their sum is the part
of the parent's interval they cover.
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, function): calls get a span
SPANNED = [
    ("hull", "hull_int"),
    ("linalg", "rank"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("geometry", "convex_hull"),
    ("geometry", "minkowski_sum"),
    ("geometry", "vertex_enumeration"),
    ("geometry", "clip_halfspace"),
    ("geometry", "face_in_direction"),
    ("geometry", "project_along"),
    ("geometry", "_from_points"),
    ("mixed", "mixed_volume"),
    ("mixed", "mixed_area_measure"),
    ("mixed", "mixed_volume_via_measure"),
    ("mixed", "segment_mixed_volume"),
    ("bezout", "bezout_gap"),
    ("bezout", "bezout_gap_general"),
    ("bezout", "safe_move_range"),
    ("bezout", "simplex_audit"),
    ("bezout", "af_spot_check"),
    ("bezout", "counterexample_search"),
    ("generators", "generate"),
    ("documents", "load_polytope_text"),
    ("documents", "report_json"),
    ("cli", "main"),
]
# calls are only counted: det runs in the hull's innermost predicate, where
# a span would cost more than the determinant
COUNTED = [("linalg", "det")]
# rebound only in the modules that import them: geometry's own calls to
# _from_points belong to the public function's self time, and det's
# recursion inside linalg is not a separate request
OUTSIDE_ONLY = {"_from_points", "det"}

# (span, ancestor): spans of the first name opened inside the second
NESTED = [
    ("geometry.minkowski_sum", "mixed.mixed_volume"),
    ("geometry.vertex_enumeration", "bezout.safe_move_range"),
    ("bezout.bezout_gap", "bezout.counterexample_search"),
]


def _hull_attrs(args, result):
    pts = args[0]
    bits = max((abs(x).bit_length() for p in pts for x in p), default=0)
    return (args[1], len(pts), len(result.facets), bits)


def _gap_attrs(args, result):
    return args[2].dim


ATTRS = {"hull.hull_int": _hull_attrs, "bezout.bezout_gap": _gap_attrs}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, ok, attrs]
        self.counts = {}
        self.op = -1
        self._stack = []
        self._active = {}

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        stack, active = self._stack, self._active
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
        for child, ancestor in NESTED:
            if child == name and active.get(ancestor):
                key = f"{child}<{ancestor}"
                self.counts[key] = self.counts.get(key, 0) + 1
        stack.append(len(self.spans))
        self.spans.append(rec)
        active[name] = active.get(name, 0) + 1
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            active[name] -= 1
            stack.pop()
        rec[5] = True
        attrs = ATTRS.get(name)
        if attrs is not None:
            rec[6] = attrs(args, result)
        return result

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Rebind every mvlab module attribute bound to a traced function."""
        mods = [
            mod
            for key, mod in sys.modules.items()
            if key == "mvlab" or key.startswith("mvlab.")
        ]
        targets = [(t, self._spanned) for t in SPANNED] + [
            (t, self._counted) for t in COUNTED
        ]
        for (modname, fname), make in targets:
            home = sys.modules[f"mvlab.{modname}"]
            orig = getattr(home, fname)
            wrapper = make(f"{modname}.{fname}", orig)
            for mod in mods:
                if fname in OUTSIDE_ONLY and mod is home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op,ok\n")
            for name, start, end, parent, op, ok, _ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op},{int(ok)}\n")


# (metric, unit, better); the traced run reports every one of them
CATALOGUE = (
    [(f"hull.hull_int.calls.d{d}", "calls/op", "lower") for d in (2, 3, 4)]
    + [(f"hull.hull_int.self_s.d{d}", "s/op", "lower") for d in (2, 3, 4)]
    + [
        ("hull.hull_int.points_in", "points/op", "lower"),
        ("hull.hull_int.facets_out", "facets/op", "lower"),
        ("hull.hull_int.max_bits", "bits", "lower"),
    ]
    + [
        (f"linalg.{f}.{k}", u, "lower")
        for f in ("rank", "rref", "solve")
        for k, u in (("calls", "calls/op"), ("self_s", "s/op"))
    ]
    + [("linalg.det.calls", "calls/op", "lower")]
    + [
        (f"geometry.{f}.{k}", u, "lower")
        for f in (
            "convex_hull",
            "minkowski_sum",
            "vertex_enumeration",
            "clip_halfspace",
            "face_in_direction",
            "project_along",
            "_from_points",
        )
        for k, u in (("calls", "calls/op"), ("self_s", "s/op"))
    ]
    + [
        (f"mixed.{f}.{k}", u, "lower")
        for f in (
            "mixed_volume",
            "mixed_area_measure",
            "mixed_volume_via_measure",
            "segment_mixed_volume",
        )
        for k, u in (("calls", "calls/op"), ("total_s", "s/op"))
    ]
    + [("mixed.mixed_volume.sums_per_call", "sums/call", "lower")]
    + [("bezout.bezout_gap.calls", "calls/op", "lower")]
    + [(f"bezout.bezout_gap.p50_ms.d{d}", "ms", "lower") for d in (2, 3, 4)]
    + [
        (f"bezout.{f}.{k}", u, "lower")
        for f in (
            "bezout_gap_general",
            "safe_move_range",
            "simplex_audit",
            "af_spot_check",
            "counterexample_search",
        )
        for k, u in (("calls", "calls/op"), ("total_s", "s/op"))
    ]
    + [
        ("bezout.safe_move_range.enumerations_per_call", "enums/call", "lower"),
        ("bezout.counterexample_search.evaluations_per_call", "evals/call", "lower"),
        ("bezout.counterexample_search.found_ratio", "ratio", "higher"),
        ("generators.generate.self_s", "s/op", "lower"),
        ("documents.load_polytope_text.self_s", "s/op", "lower"),
        ("documents.report_json.self_s", "s/op", "lower"),
        ("cli.main.self_s", "s/op", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.spans_per_op", "spans/op", "lower"),
    ]
)


def layer_metrics(tracer, ops, busy_s):
    """Per-layer metrics from the spans of a run of `ops` completed ops that
    spent busy_s seconds inside timed calls."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, total_s, ok = {}, {}, {}, {}
    hull_calls, hull_self = {}, {}
    points_in = facets_out = max_bits = 0
    gap_ms = {}
    for i, (name, start, end, parent, _, good, attrs) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        # total time counts only the outermost of nested same-name spans
        anc, same = parent, False
        while anc >= 0 and not same:
            same = spans[anc][0] == name
            anc = spans[anc][3]
        if not same:
            total_s[name] = total_s.get(name, 0.0) + dur
        ok[name] = ok.get(name, 0) + good
        if name == "hull.hull_int" and attrs is not None:
            d, npts, nfac, bits = attrs
            hull_calls[d] = hull_calls.get(d, 0) + 1
            hull_self[d] = hull_self.get(d, 0.0) + dur - child[i]
            points_in += npts
            facets_out += nfac
            max_bits = max(max_bits, bits)
        elif name == "bezout.bezout_gap" and attrs is not None:
            gap_ms.setdefault(attrs, []).append(dur * 1000.0)

    per_op = 1.0 / ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for d in (2, 3, 4):
        out[f"hull.hull_int.calls.d{d}"] = hull_calls.get(d, 0) * per_op
        out[f"hull.hull_int.self_s.d{d}"] = hull_self.get(d, 0.0) * per_op
    out["hull.hull_int.points_in"] = points_in * per_op
    out["hull.hull_int.facets_out"] = facets_out * per_op
    out["hull.hull_int.max_bits"] = max_bits
    out["linalg.det.calls"] = tracer.counts.get("linalg.det", 0) * per_op
    sums = {"calls": calls, "self_s": self_s, "total_s": total_s}
    for metric, _, _ in CATALOGUE:
        name, kind = metric.rsplit(".", 1)
        if metric not in out and kind in sums:
            out[metric] = sums[kind].get(name, 0) * per_op
    for d in (2, 3, 4):
        samples = gap_ms.get(d)
        out[f"bezout.bezout_gap.p50_ms.d{d}"] = (
            statistics.median(samples) if samples else 0.0
        )
    out["mixed.mixed_volume.sums_per_call"] = ratio(
        tracer.counts.get("geometry.minkowski_sum<mixed.mixed_volume", 0),
        calls.get("mixed.mixed_volume", 0),
    )
    out["bezout.safe_move_range.enumerations_per_call"] = ratio(
        tracer.counts.get("geometry.vertex_enumeration<bezout.safe_move_range", 0),
        calls.get("bezout.safe_move_range", 0),
    )
    search = "bezout.counterexample_search"
    out[f"{search}.evaluations_per_call"] = ratio(
        tracer.counts.get(f"bezout.bezout_gap<{search}", 0), calls.get(search, 0)
    )
    out[f"{search}.found_ratio"] = ratio(ok.get(search, 0), calls.get(search, 0))
    out["trace.ops_per_s"] = ratio(ops, busy_s)
    out["trace.spans_per_op"] = len(spans) * per_op
    return out
