"""Polytope documents and report serialization.

Exact rationals travel as [numerator, denominator] integer pairs with
positive denominators in lowest terms. Canonical JSON (sorted keys, no
whitespace) feeds the sha256 input digest so formatting differences do not
change identity. CSV output is a lossy decimal convenience and is flagged
as such in the header.
"""

from __future__ import annotations

import hashlib
import io
import json
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from .errors import MvlabError, ParseError
from .geometry import Polytope, convex_hull


def rat(x) -> list:
    f = Fraction(x)
    return [f.numerator, f.denominator]


def _parse_rat(obj, where: str) -> Fraction:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(c, int) and not isinstance(c, bool) for c in obj)
    ):
        raise ParseError(f"{where}: expected [numerator, denominator] integers")
    num, den = obj
    if den == 0:
        raise ParseError(f"{where}: zero denominator")
    if den < 0:
        raise ParseError(f"{where}: denominator must be positive")
    return Fraction(num, den)


def parse_polytope(doc) -> Polytope:
    """Build a Polytope from a vertex document. Lower-dimensional bodies
    (segments, flat faces) are legitimate inputs for mixed-volume slots."""
    if not isinstance(doc, dict):
        raise ParseError("document: expected a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("dim: expected an integer")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise ParseError("vertices: expected a non-empty list")
    pts = []
    for i, row in enumerate(verts):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"vertices[{i}]: expected {dim} coordinates")
        pts.append(
            tuple(
                _parse_rat(c, f"vertices[{i}][{j}]") for j, c in enumerate(row)
            )
        )
    try:
        return convex_hull(pts, dim, allow_lower=True)
    except MvlabError as exc:
        raise ParseError(f"vertices: {exc}") from exc


def serialize_polytope(poly: Polytope, name: str | None = None) -> dict:
    doc = {
        "dim": poly.dim,
        "vertices": [[rat(c) for c in v] for v in poly.vertices],
    }
    if name is not None:
        doc["name"] = name
    return doc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def document_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def load_polytope_text(text: str) -> tuple[Polytope, str | None, str]:
    """Parse document text; returns (polytope, optional name, digest)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ParseError(f"document: invalid JSON ({exc})") from exc
    poly = parse_polytope(doc)
    name = doc.get("name") if isinstance(doc, dict) else None
    if name is not None and not isinstance(name, str):
        raise ParseError("name: expected a string")
    return poly, name, document_digest(doc)


def encode(obj):
    """Recursively convert report values to JSON-ready form.

    Fractions become [num, den]; Polytopes become vertex documents.
    """
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return rat(obj)
    if isinstance(obj, Polytope):
        return serialize_polytope(obj)
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, (int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__}")


def report_json(report: dict) -> str:
    return json.dumps(encode(report), sort_keys=True, indent=2) + "\n"


def _decimal(num: int, den: int) -> str:
    """Lossy decimal cell for num/den: the float repr, or, beyond the float
    range, 17 significant digits in scientific notation, rounded from the
    exact integers."""
    try:
        return repr(num / den)
    except OverflowError:
        with localcontext(Context(prec=17)):
            return f"{(Decimal(num) / Decimal(den)).normalize():e}"


def _flatten(prefix: str, obj, rows: list):
    """Rows for the report value obj: each Fraction is one rational cell,
    and every list or tuple, integer pairs included, is walked by index."""
    if isinstance(obj, Polytope):
        verts = [[Fraction(c) for c in v] for v in obj.vertices]
        obj = {"dim": obj.dim, "vertices": verts}
    if isinstance(obj, dict):
        for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])):
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(obj, Fraction):
        num, den = obj.numerator, obj.denominator
        rows.append((prefix, f"{num}/{den}", _decimal(num, den)))
    elif obj is None:
        rows.append((prefix, "", ""))
    else:
        rows.append((prefix, str(encode(obj)), ""))


def report_csv(report: dict) -> str:
    """Flattened key/value view. Decimal column is lossy by construction."""
    rows: list = []
    _flatten("", report, rows)
    out = io.StringIO()
    out.write("field,value,decimal_lossy\n")
    for field, value, dec in rows:
        cells = []
        for cell in (field, value, dec):
            if any(ch in cell for ch in ',"\n'):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        out.write(",".join(cells) + "\n")
    return out.getvalue()
