"""Machine-readable report assembly: canonical JSON and CSV.

Reports are reproducible artifacts: they embed the tool version, the sha256
of the canonical input serialization, and the segment-indexing convention,
and they contain nothing run-dependent (no timestamps, no worker counts), so
identical inputs and flags produce byte-identical bytes.  Big counts are
decimal strings, rationals are {"num", "den"} pairs; nothing is ever rounded.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .crossings import SEGMENT_INDEXING
from .geometry import PointSet


def frac_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def jsonify(obj):
    """Recursively convert report values to JSON-safe, lossless primitives."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return frac_json(obj)
    if isinstance(obj, int):
        return obj if abs(obj) < 2**53 else str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def envelope(subcommand: str, ps: PointSet | None) -> dict:
    return {
        "tool": "planegraphs",
        "version": __version__,
        "subcommand": subcommand,
        "input_sha256": ps.sha256() if ps is not None else None,
        "segment_indexing": SEGMENT_INDEXING,
    }


def dumps_json(payload: dict) -> str:
    return json.dumps(jsonify(payload), indent=2, sort_keys=True) + "\n"


def csv_header(subcommand: str, ps: PointSet | None) -> list[str]:
    lines = [f"# planegraphs {__version__} {subcommand}"]
    if ps is not None:
        lines.append(f"# input_sha256={ps.sha256()}")
    lines.append(f"# segment_indexing={SEGMENT_INDEXING}")
    return lines


def dumps_csv(subcommand: str, ps: PointSet | None, header: list[str], rows: list[list]) -> str:
    lines = csv_header(subcommand, ps)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)
