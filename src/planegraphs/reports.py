"""Machine-readable report assembly: canonical JSON and CSV.

Reports are reproducible artifacts: they embed the tool version, the sha256
of the canonical input serialization, and the segment-indexing convention,
and they contain nothing run-dependent (no timestamps, no worker counts), so
identical inputs and flags produce byte-identical bytes.  Big counts are
decimal strings, rationals are {"num", "den"} pairs; nothing is ever rounded.

``dumps_json`` writes the text in one recursive pass over the payload,
without a converted copy of it.  A payload holds dicts with str keys,
lists, str, int, bool, None, Fraction and float, of exactly those types;
anything else raises ``TypeError``.  Its bytes are those of
``json.dumps(indent=2, sort_keys=True)`` on the lossless form of the
payload: a Fraction becomes a {"den", "num"} object of decimal strings, and
an int of magnitude at least 2^53 a decimal string.  Each separator and
indent goes out in one chunk with the scalar or bracket that follows it, as
in the stdlib encoder, so the chunk list stays short.

The writer dispatches on the exact type, and a dict writes its str and
small-int values, and a list its small ints, in its own loop without a
call.  Reports repeat a few dict shapes many times, so each call keeps a
cache from a dict's key tuple to its sorted, encoded keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable

from . import __version__
from .crossings import SEGMENT_INDEXING
from .geometry import PointSet

_EXACT = 2**53  # ints of at least this magnitude are written as decimal strings


def envelope(subcommand: str, ps: PointSet | None) -> dict:
    return {
        "tool": "planegraphs",
        "version": __version__,
        "subcommand": subcommand,
        "input_sha256": ps.sha256() if ps is not None else None,
        "segment_indexing": SEGMENT_INDEXING,
    }


def dumps_json(payload: dict) -> str:
    """The canonical JSON text of `payload`, newline-terminated: the bytes of
    ``json.dumps(..., indent=2, sort_keys=True)`` on its lossless form."""
    chunks: list[str] = []
    _write_json(payload, "", "\n", chunks.append, {})
    chunks.append("\n")
    return "".join(chunks)


def _write_json(obj, lead: str, newline: str, out: Callable[[str], None], shapes: dict) -> None:
    """Pass `lead` and then the JSON text of `obj` to `out`, with nested
    lines starting at `newline` plus two spaces.  `lead` goes out in the same
    chunk as a scalar or an opening bracket.  `shapes` is the key cache of
    one ``dumps_json`` call: a dict's key tuple to its sorted pairs of key
    and encoded ``"key": ``.  Key types are checked on a cache miss, so a
    str subclass key equal to a str one already cached is written as text."""
    kind = type(obj)
    if kind is str:
        out(lead + _encode_str(obj))
    elif kind is int:
        out(lead + (int.__repr__(obj) if -_EXACT < obj < _EXACT else f'"{obj}"'))
    elif (kind is dict or kind is list) and not obj:
        out(lead + ("{}" if kind is dict else "[]"))
    elif kind is dict:
        inner = newline + "  "
        comma = "," + inner
        shape = tuple(obj)
        names = shapes.get(shape)
        if names is None:
            if not all(type(k) is str for k in shape):
                raise TypeError("cannot serialize a dict key that is not a str")
            names = shapes[shape] = [(k, _encode_str(k) + ": ") for k in sorted(shape)]
        sep = lead + "{" + inner
        for key, name in names:
            value = obj[key]
            kind = type(value)
            if kind is str:
                out(sep + name + _encode_str(value))
            elif kind is int and -_EXACT < value < _EXACT:
                out(sep + name + int.__repr__(value))
            else:
                _write_json(value, sep + name, inner, out, shapes)
            sep = comma
        out(newline + "}")
    elif kind is list:
        inner = newline + "  "
        comma = "," + inner
        sep = lead + "[" + inner
        for value in obj:
            if type(value) is int and -_EXACT < value < _EXACT:
                out(sep + int.__repr__(value))  # the bulk of list items, without a call
            else:
                _write_json(value, sep, inner, out, shapes)
            sep = comma
        out(newline + "]")
    elif obj is None:
        out(lead + "null")
    elif kind is bool:
        out(lead + ("true" if obj else "false"))
    elif kind is Fraction:
        inner = newline + "  "
        out(f'{lead}{{{inner}"den": "{obj.denominator}",{inner}"num": "{obj.numerator}"{newline}}}')
    elif kind is float:
        out(lead + json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


def dumps_csv(subcommand: str, ps: PointSet | None, header: list[str], rows: list[list]) -> str:
    lines = [f"# planegraphs {__version__} {subcommand}"]
    if ps is not None:
        lines.append(f"# input_sha256={ps.sha256()}")
    lines.append(f"# segment_indexing={SEGMENT_INDEXING}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)
