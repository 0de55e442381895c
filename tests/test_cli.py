import hashlib
import json
import re
import sys
from fractions import Fraction

import pytest

from mvlab import bezout, mixed
from mvlab.cli import main
from mvlab.documents import canonical_json, serialize_polytope
from mvlab.generators import cube
from mvlab.geometry import convex_hull
from mvlab.mixed import clear_caches, mixed_volume


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def write_segment_doc(path, a, b, name):
    seg = convex_hull([a, b], 2, allow_lower=True)
    path.write_text(json.dumps(serialize_polytope(seg, name=name)))
    return str(path)


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing_ms"}


def test_mv_agreement(capsys):
    code, rep = run_json(capsys, ["mv", "--gen", "cube:2", "--gen", "simplex:2"])
    assert code == 0
    assert rep["verdicts"]["oracle_agrees"] is True
    assert rep["results"]["mixed_volume"] == rep["results"]["measure_oracle"]
    assert rep["results"]["mixed_volume"] == [1, 1]


def test_bezout_segment_violation(tmp_path, capsys):
    lf = write_segment_doc(tmp_path / "L.json", (0, 0), (1, 0), "e1")
    mf = write_segment_doc(tmp_path / "M.json", (0, 0), (0, 1), "e2")
    code, rep = run_json(
        capsys,
        ["bezout", "--input", lf, "--input", mf, "--gen", "cube:2"],
    )
    assert code == 1
    assert rep["results"]["gap"] == [-1, 4]
    assert rep["verdicts"]["verdict"] == "violated"
    assert [i["name"] for i in rep["inputs"]] == ["e1", "e2", "cube:2"]
    assert all(len(i["digest"]) == 64 for i in rep["inputs"])


def test_bezout_triangle_equality(tmp_path, capsys):
    lf = write_segment_doc(tmp_path / "L.json", (0, 0), (1, 0), "e1")
    mf = write_segment_doc(tmp_path / "M.json", (0, 0), (0, 1), "e2")
    code, rep = run_json(
        capsys,
        ["bezout", "--input", lf, "--input", mf, "--gen", "simplex:2"],
    )
    assert code == 0
    assert rep["results"]["gap"] == [0, 1]
    assert rep["verdicts"]["equality"] is True


def test_bezout_general_r(capsys):
    argv = ["bezout", "--r", "2"] + sum(
        [["--gen", g] for g in ("simplex:2", "simplex:2", "simplex:2")], []
    )
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["results"]["r"] == 2
    assert rep["verdicts"]["verdict"] == "satisfied"


def test_bezout_default_r_is_r_2(tmp_path, capsys):
    """bezout without --r is --r 2: the same gap, verdicts and exit code;
    the reports differ only in params.r and results.r."""
    lf = write_segment_doc(tmp_path / "L.json", (0, 0), (1, 0), "e1")
    mf = write_segment_doc(tmp_path / "M.json", (0, 0), (0, 1), "e2")
    for K, expected in (("cube:2", 1), ("simplex:2", 0)):
        bodies = ["--input", lf, "--input", mf, "--gen", K]
        code, rep = run_json(capsys, ["bezout"] + bodies)
        code_r, rep_r = run_json(capsys, ["bezout", "--r", "2"] + bodies)
        assert code == code_r == expected
        assert rep["params"].pop("r") is None
        assert rep_r["params"].pop("r") == 2
        assert "r" not in rep["results"] and rep_r["results"].pop("r") == 2
        assert strip_timing(rep) == strip_timing(rep_r)
    two = ["--gen", "cube:2", "--gen", "cube:2"]
    for argv, message in (
        (["bezout"] + two, "bezout needs exactly three bodies: L, M, K"),
        (["bezout", "--r", "2"] + two,
         "--r 2 needs 2 bodies plus the reference body last, got 2"),
    ):
        code, rep = run_json(capsys, argv)
        assert code == 2
        assert rep["error"] == {"type": "BadArity", "message": message}


def test_input_gen_order_interleaved(tmp_path, capsys):
    lf = write_segment_doc(tmp_path / "L.json", (0, 0), (1, 0), "e1")
    code, rep = run_json(capsys, ["mv", "--input", lf, "--gen", "cube:2"])
    assert code == 0
    assert [i["name"] for i in rep["inputs"]] == ["e1", "cube:2"]
    assert [i["source"] for i in rep["inputs"]] == ["input", "gen"]
    code2, rep2 = run_json(capsys, ["mv", "--gen", "cube:2", "--input", lf])
    assert code2 == 0
    assert [i["name"] for i in rep2["inputs"]] == ["cube:2", "e1"]
    assert rep2["results"]["mixed_volume"] == rep["results"]["mixed_volume"]


def test_audit_exit_codes(capsys):
    assert main(["audit", "--gen", "simplex:3"]) == 0
    capsys.readouterr()
    assert main(["audit", "--gen", "cube:2"]) == 1
    capsys.readouterr()


def test_audit_report_shape(capsys):
    code, rep = run_json(capsys, ["audit", "--gen", "simplex:2"])
    assert code == 0
    assert rep["verdicts"]["verdict"] == "simplex"
    assert rep["results"]["vertex_count"] == 3
    assert len(rep["results"]["facets"]) == 3
    assert all(r["proportional"] for r in rep["results"]["facets"])


# a budget beyond sys.maxsize is valid: the family is finite
HUGE_BUDGET = 10**23 - 1


def test_search_found(capsys):
    for budget in (500, HUGE_BUDGET):
        argv = ["search", "--gen", "cube:2", "--budget", str(budget)]
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert rep["results"]["found"] is True
        assert rep["results"]["gap"] == [-1, 4]
        assert rep["results"]["witness_L"]["dim"] == 2
        assert rep["verdicts"]["verdict"] == "violated"


def test_search_exhausted(capsys):
    for budget in (60, HUGE_BUDGET):
        argv = ["search", "--gen", "simplex:2", "--budget", str(budget)]
        code, rep = run_json(capsys, argv)
        assert code == 1
        # the 2D family holds 18 pairs, fewer than the budget
        assert rep["results"] == {"found": False, "budget": budget, "evaluations": 18}
        assert rep["verdicts"]["verdict"] == "exhausted"


def test_strict_polygon_fires(capsys):
    code, rep = run_json(
        capsys, ["strict", "--gen", "regular_polygon:64,1000000"]
    )
    assert code == 0
    assert rep["results"]["projection_preserved"] is True
    assert rep["results"]["support_drop_set"]
    assert rep["results"]["cap_depth"] == [1, 10]
    assert rep["results"]["gap"][0] < 0
    assert rep["verdicts"]["mechanism_fired"] is True


def test_strict_square_evades(capsys):
    code, rep = run_json(capsys, ["strict", "--gen", "cube:2"])
    assert code == 1
    assert rep["results"]["cap_direction"] == [1, 1]
    assert rep["results"]["axis"] == [1, 0]
    assert rep["results"]["support_drop_set"] == []
    assert rep["results"]["gap"] == [0, 1]
    assert rep["verdicts"]["mechanism_fired"] is False


def test_af_fuzz_small(capsys):
    code, rep = run_json(capsys, ["af_fuzz", "--samples", "6", "--seed", "5"])
    assert code == 0
    assert rep["results"]["samples"] == 6
    assert rep["results"]["min_slack"] == [815, 18]
    assert rep["results"]["negative"] == []
    assert rep["verdicts"]["verdict"] == "all_nonnegative"


def test_af_fuzz_with_fixed_body(capsys):
    code, rep = run_json(
        capsys, ["af_fuzz", "--samples", "4", "--gen", "cube:3"]
    )
    assert code == 0


def test_af_fuzz_fills_no_polarization_cache(capsys):
    """Fresh bodies in every sample: af_fuzz's mixed volumes take shortcuts
    and never store a Minkowski subset sum that no later call reuses."""
    clear_caches()
    code, _ = run(capsys, ["af_fuzz", "--samples", "20", "--seed", "5"])
    assert code == 0
    assert mixed._subset_sum.cache_info().currsize == 0


def test_report_determinism(capsys):
    code1, rep1 = run_json(capsys, ["af_fuzz", "--samples", "5", "--seed", "9"])
    code2, rep2 = run_json(capsys, ["af_fuzz", "--samples", "5", "--seed", "9"])
    assert code1 == code2 == 0
    assert strip_timing(rep1) == strip_timing(rep2)
    _, rep3 = run_json(capsys, ["af_fuzz", "--samples", "5", "--seed", "10"])
    assert strip_timing(rep3) != strip_timing(rep1)


def test_search_determinism(capsys):
    _, rep1 = run_json(capsys, ["search", "--gen", "cube:2"])
    _, rep2 = run_json(capsys, ["search", "--gen", "cube:2"])
    assert strip_timing(rep1) == strip_timing(rep2)


PINNED_REPORTS = [
    ("audit --gen simplex:3", 0,
     "c3e26022df88d49dfce69b740d926acd45d528ba91f069f9ed23e5f6721f8f14"),
    ("audit --gen cube:3", 1,
     "ff0e55a1e2d5fc0c23301ce56dad25211bf321fafade9cdd72235b609db0543c"),
    ("audit --gen truncated_simplex:4,1/1000", 1,
     "912ed84f19a2dbefd86b8e616dc5a0f6a962e26de9660dbde5f4859d0397442d"),
    ("search --gen cube:3", 0,
     "ea3fa8ba09b8aed7e3afd139c78c3fd41a7c10d4274c024f126c1bbc56cc296d"),
    ("strict --gen regular_polygon:64,1000000", 0,
     "be5459211ad0de97a1743240a897b3f51ae06be5adc5a590fd4df4e2b9edf187"),
    ("mv --gen cube:3 --gen cross_polytope:3 --gen simplex:3", 0,
     "7780f8c49eddded15f3165c4827a3ed0740d9e5e3ee44546b9e54981c0ceefe6"),
    ("af_fuzz --samples 6 --seed 3", 0,
     "bb432907f94a8bb116ebba69adad8cc6d9f4101838e7d07e06404f91cc9e0c16"),
]


@pytest.mark.parametrize(
    "command, code, digest", PINNED_REPORTS, ids=[c for c, _, _ in PINNED_REPORTS]
)
def test_pinned_report_digests(capsys, command, code, digest):
    """sha256 of the canonical report without timing_ms, and the exit code:
    any change to a report's bytes must be deliberate."""
    got, rep = run_json(capsys, command.split())
    text = canonical_json(strip_timing(rep))
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)


MV4_DOCS = {
    "seg_a": [(0, 0, 0, 0), (1, 2, 0, -1)],
    "seg_b": [(1, 0, 1, 0), (0, Fraction(1, 2), -1, 2)],
    "tri_a": [(0, 0, 0, 0), (1, 2, 0, 1), (0, 1, 3, 0)],
    "tri_b": [(1, 0, 0, 2), (0, 0, 2, 1), (2, 1, Fraction(1, 2), 0)],
}


def test_pinned_mv_d4_input_digest(tmp_path, capsys):
    """A 4D mv on (segment, segment, triangle, triangle) documents read by
    --input, the shape whose zero terms both oracles skip."""
    argv = ["mv"]
    for name, points in MV4_DOCS.items():
        body = convex_hull(points, 4, allow_lower=True)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize_polytope(body, name=name)))
        argv += ["--input", str(path)]
    code, rep = run_json(capsys, argv)
    assert rep["results"]["mixed_volume"] == [49, 48]
    text = canonical_json(strip_timing(rep))
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == (
        0,
        "fbdbca2b679f68e7196bc6e4695e2a72dee13feac019d3df8df416135b96c66b",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--gen", "cube:3"],
        ["search", "--gen", "cross_polytope:4"],
        ["strict", "--gen", "regular_polygon:64,1000000"],
        ["af_fuzz", "--samples", "6", "--seed", "5"],
        ["af_fuzz", "--samples", "4", "--gen", "cube:3"],
        ["af_fuzz", "--samples", "4", "--gen", "cube:4"],
        ["bezout", "--input", "tri3a", "--input", "tri3b", "--gen", "cube:3"],
        ["bezout", "--input", "tri4a", "--input", "tri4b", "--gen", "simplex:4"],
    ],
)
def test_reports_match_polarization(monkeypatch, capsys, tmp_path, argv):
    """The shortcut evaluator behind the gap and search code leaves each
    report byte-identical, apart from timing_ms, to the polarization one."""
    triangles = {
        "tri3a": [(0, 0, 0), (1, 2, 0), (0, 1, 3)],
        "tri3b": [(1, 0, 0), (0, 0, 2), (2, 1, 1)],
        "tri4a": [(0, 0, 0, 0), (1, 2, 0, 1), (0, 1, 3, 0)],
        "tri4b": [(1, 0, 0, 2), (0, 0, 2, 1), (2, 1, 1, 0)],
    }
    for name, points in triangles.items():
        tri = convex_hull(points, len(points[0]), allow_lower=True)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize_polytope(tri)))
        argv = [str(path) if a == name else a for a in argv]

    def untimed(argv):
        code, out = run(capsys, argv)
        return code, re.sub(r'"timing_ms": [-+.\deE]+', "", out)

    fast = untimed(argv)
    monkeypatch.setattr(bezout, "_mixed_volume_fast", mixed_volume)
    assert untimed(argv) == fast


def test_csv_output(capsys):
    code, out = run(
        capsys, ["bezout", "--format", "csv", "--gen", "simplex:2",
                 "--gen", "simplex:2", "--gen", "simplex:2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value,decimal_lossy"
    assert any(line.startswith("results.gap,") for line in lines)


def test_csv_beyond_float_range(tmp_path, capsys):
    """A rational beyond the float range gets a scientific-notation decimal
    cell instead of an OverflowError; its exact cell is unchanged."""
    big = 10**170
    tri = convex_hull([(0, 0), (big, 0), (0, big)], 2)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(serialize_polytope(tri)))
    code, out = run(
        capsys, ["mv", "--input", str(path), "--input", str(path), "--format", "csv"]
    )
    assert code == 0
    rows = out.splitlines()
    assert f"results.mixed_volume,{big * big // 2}/1,5e+339" in rows
    assert f"results.measure_oracle,{big * big // 2}/1,5e+339" in rows
    assert "verdicts.oracle_agrees,True," in rows


def test_csv_polytope_values(capsys):
    # a witness body is flattened into its dim and one row per coordinate
    code, out = run(capsys, ["search", "--format", "csv", "--gen", "cube:2"])
    assert code == 0
    rows = out.splitlines()
    assert "results.witness_L.dim,2," in rows
    assert "results.witness_L.vertices[0][0],0/1,0.0" in rows
    assert "results.witness_L.vertices[1][0],1/1,1.0" in rows
    assert "results.witness_M.vertices[1][1],1/1,1.0" in rows
    assert not any(r.startswith("results.witness_L.vertices[2]") for r in rows)


def test_csv_integer_vectors(capsys):
    # integer 2-vectors are vectors, not rationals
    code, out = run(capsys, ["strict", "--format", "csv", "--gen", "cube:2"])
    assert code == 1
    rows = out.splitlines()
    assert "results.axis[0],1," in rows and "results.axis[1],0," in rows
    assert "results.cap_direction[1],1," in rows
    assert "results.cap_depth,1/10,0.1" in rows
    assert "results.gap,0/1,0.0" in rows
    code, out = run(
        capsys, ["strict", "--format", "csv", "--gen", "regular_polygon:8,1000"]
    )
    assert code == 1
    rows = out.splitlines()
    assert "results.axis[0],1," in rows and "results.axis[1],0," in rows
    assert "verdicts.mechanism_fired,False," in rows


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(
        capsys, ["mv", "--gen", "cube:2", "--gen", "cube:2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["command"] == "mv"
    # a report that cannot be written is an operation error
    missing = tmp_path / "missing" / "report.json"
    assert main(["mv", "--gen", "cube:2", "--gen", "cube:2", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write report" in captured.err


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_operation_error_report(tmp_path, capsys):
    origin_max = tmp_path / "origin_max.json"
    tri = convex_hull([(0, 0), (-1, 0), (0, -1)], 2)
    origin_max.write_text(json.dumps(serialize_polytope(tri)))
    flat = {}
    for name, pts, n in (("segment", [(0, 0), (1, 1)], 2),
                         ("triangle", [(0, 0, 0), (1, 0, 0), (0, 1, 0)], 3)):
        flat[name] = tmp_path / f"{name}.json"
        body = convex_hull(pts, n, allow_lower=True)
        flat[name].write_text(json.dumps(serialize_polytope(body)))
    two = ["--gen", "cube:2", "--gen", "cube:2"]
    for argv, error in (
        (["audit"] + two, "BadArity"),
        (["mv"], "BadArity"),
        (["bezout"] + two, "BadArity"),
        (["bezout", "--r", "2"] + two, "BadArity"),
        (["bezout", "--r", "-1"], "BadArity"),
        (["bezout", "--r", "1"] + two, "BadArity"),
        (["search"] + two, "BadArity"),
        (["strict"] + two, "BadArity"),
        (["af_fuzz"] + two, "BadArity"),
        (["af_fuzz", "--samples", "0"], "BadParams"),
        (["strict", "--input", str(origin_max)], "BadParams"),
        # a flat body has no interior for the cap cut to keep
        (["strict", "--input", str(flat["segment"])], "DegenerateInput"),
        (["strict", "--input", str(flat["triangle"])], "DegenerateInput"),
    ):
        code, rep = run_json(capsys, argv)
        assert code == 2, argv
        assert rep["error"]["type"] == error, argv


def test_bad_gen_spec(capsys):
    # malformed numbers are usage errors (exit 2), never a verdict (exit 1)
    for spec in (
        "klein_bottle:2",
        "regular_polygon:7/2,100",
        "regular_polygon:5,x",
        "ball_approx_3d:1/2,100",
        "ball_approx_3d:1,x",
        "prism:triangle,x",
        "truncated_simplex:3,x",
        "random_hull:3,7/2,1",
        "prism:3,1",
        "random_hull:2,3,x",
        "random_hull:2,3,1/2",
        "random_hull:2,3,1.5",
        "random_hull:2,1000000000,0",
        "regular_polygon:1000000000,100",
        ":3",
    ):
        code, rep = run_json(capsys, ["mv", "--gen", spec])
        assert code == 2, spec
        assert rep["error"]["type"] == "BadParams", spec


def test_strict_rejects_line(capsys):
    # strict needs a body of dimension 2..4; a segment is a usage error
    # (exit 2), not a verdict
    code, rep = run_json(capsys, ["strict", "--gen", "cube:1"])
    assert code == 2
    assert rep["error"]["type"] == "BadParams"


@pytest.mark.parametrize(
    "spec",
    ["prism:triangle,1/0", "regular_polygon:8,1/0", "truncated_simplex:3,1/0",
     "ball_approx_3d:1,1/0"],
)
def test_gen_zero_denominator(capsys, spec):
    # a rational parameter with denominator 0 is a usage error (exit 2), not
    # an escaped ZeroDivisionError, whose exit 1 would read as a verdict
    code, rep = run_json(capsys, ["audit", "--gen", spec])
    assert code == 2
    assert rep["error"]["type"] == "BadParams"
    assert "1/0" in rep["error"]["message"]


def test_gen_decimal_denominator_cap(capsys):
    code, rep = run_json(
        capsys,
        ["mv", "--gen", "regular_polygon:64,1e6", "--gen", "regular_polygon:64,1000000"],
    )
    assert code == 0
    assert rep["inputs"][0]["digest"] == rep["inputs"][1]["digest"]


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[[1, 0], [0, 1]]]}')
    code, rep = run_json(capsys, ["audit", "--input", str(bad)])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"
    assert "zero denominator" in rep["error"]["message"]
    # an integer over the int/str digit limit (Python 3.11+; 0 = no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    huge = tmp_path / "huge.json"
    digits = "1" + "0" * limit
    huge.write_text(
        '{"dim": 2, "vertices": [[[0, 1], [0, 1]], [[' + digits
        + ', 1], [0, 1]], [[0, 1], [1, 1]]]}'
    )
    code, rep = run_json(capsys, ["mv", "--input", str(huge), "--input", str(huge)])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"


def test_missing_file(capsys):
    code, rep = run_json(capsys, ["audit", "--input", "/nonexistent/x.json"])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"


def test_dim_limit_env(monkeypatch, capsys):
    monkeypatch.setenv("MVLAB_DIM_LIMIT", "2")
    code, rep = run_json(capsys, ["audit", "--gen", "cube:3"])
    assert code == 2
    assert rep["error"]["type"] == "BadParams"
    monkeypatch.setenv("MVLAB_DIM_LIMIT", "9")  # cannot raise the cap
    code, rep = run_json(capsys, ["mv", "--gen", "cube:2", "--gen", "cube:2"])
    assert code == 0
    monkeypatch.setenv("MVLAB_DIM_LIMIT", "many")
    assert main(["audit", "--gen", "cube:2"]) == 2
    capsys.readouterr()
    for limit in ("0", "-3"):
        monkeypatch.setenv("MVLAB_DIM_LIMIT", limit)
        code, rep = run_json(capsys, ["audit", "--gen", "cube:2"])
        assert code == 2
        assert rep["error"] == {
            "type": "BadParams",
            "message": f"MVLAB_DIM_LIMIT must be at least 2, got {limit}",
        }


def test_gen_fraction_param(capsys):
    code, rep = run_json(
        capsys, ["audit", "--gen", "truncated_simplex:2,1/4"]
    )
    assert code == 1
    assert rep["verdicts"]["verdict"] == "non-simplex"
