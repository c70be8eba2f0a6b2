"""Exact integer geometric predicates and point sets in general position.

Everything downstream (crossing tables, enumeration, charging) reduces to the
orientation of triples of points, so it is kept exact: coordinates are
integers capped at |x|, |y| <= 2**20, which keeps every 3x3 orientation
determinant well inside 64 bits.  There is no floating point anywhere in this
module.  A point is its ``(x, y)`` pair, and its label is its index in the set.

A :class:`PointSet` is the one gate for coordinates (a non-int raises
``TypeError``, one past the cap ``ValueError``) and is in general position by
construction: all points distinct and no three collinear.  One pass when it
is built computes each of its C(n,3) triple determinants once.  A degenerate
input raises :class:`GeneralPositionError` with the explicit list of
violations instead of being silently repaired; otherwise the signs are kept
as ``ps.ccw``, one bit-vector per ordered pair, which the crossing table and
:func:`convex_hull` read.  :func:`orientation` (the sign -1, 0 or 1) is the
one predicate on points one at a time, for the random generator and tests;
which segments cross is decided in :mod:`planegraphs.crossings` alone.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Iterable, Sequence

COORD_LIMIT = 1 << 20
_DECIMAL = re.compile(r"[+-]?[0-9]+")  # a .pts number: optional sign, ASCII digits


class GeneralPositionError(ValueError):
    """Raised when a point set has duplicate points or a collinear triple."""

    def __init__(self, violations: list[tuple]):
        self.violations = violations
        super().__init__(
            "point set is not in general position: "
            + "; ".join(f"{kind}{labels}" for kind, labels in violations[:10])
            + ("; ..." if len(violations) > 10 else "")
        )


class PtsFormatError(ValueError):
    """Raised for malformed ``.pts`` input."""


class PointSet:
    """An immutable point set in general position: it validates itself on construction.

    ``ccw[i][j]`` is the bit-vector of the points k with (i, j, k)
    counter-clockwise, so ``ccw[j][i]`` is the clockwise side of i -> j and
    the two sides of every line partition the other points.  Points are
    stored as tuples, so the set stays hashable; equality and hash are those
    of ``points``.
    """

    __slots__ = ("points", "ccw")

    def __init__(self, points: Iterable[tuple[int, int]]):
        points = tuple((x, y) for x, y in points)
        for x, y in points:
            # type, not isinstance: a bool is an int, which .pts would write as "True"
            if type(x) is not int or type(y) is not int:
                raise TypeError(f"coordinates must be integers, got ({x!r}, {y!r})")
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
                raise ValueError(f"|coordinate| of point ({x}, {y}) exceeds {COORD_LIMIT}")
        violations, ccw = _orientations(points)
        if violations:
            raise GeneralPositionError(violations)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ccw", ccw)

    def __setattr__(self, name, value):
        raise AttributeError(f"PointSet is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PointSet is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return self.points == other.points if type(other) is PointSet else NotImplemented

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet(points={self.points!r})"

    def __reduce__(self):
        return PointSet, (self.points,)

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[int, int]]) -> "PointSet":
        return cls(tuple(coords))

    def coords(self) -> tuple[tuple[int, int], ...]:
        return self.points

    def drop(self, i: int) -> "PointSet":
        """The point set without point i; the points after it move down one label."""
        return PointSet(self.points[:i] + self.points[i + 1:])

    def to_pts(self) -> str:
        lines = [str(self.n)]
        lines += [f"{x} {y}" for x, y in self.points]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        """Hash of the canonical ``.pts`` serialization: identifies the input."""
        import hashlib  # on first use: a run that writes no report never loads it

        return hashlib.sha256(self.to_pts().encode()).hexdigest()


def orientation(a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]) -> int:
    """Sign of the determinant (b - a) x (c - a), computed exactly: 1 when
    a, b, c turn counter-clockwise, -1 clockwise, 0 collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _orientations(pts: Sequence[tuple[int, int]]) -> tuple[list[tuple], tuple[tuple[int, ...], ...]]:
    """Every violation of general position, and the ``ccw`` masks of the points.

    Violations are (kind, labels) tuples: each duplicate as (first, later),
    then each collinear triple i < j < k.  One exact determinant per triple
    fills all six of its orders when it is nonzero.
    """
    n = len(pts)
    violations: list[tuple] = []
    seen: dict[tuple[int, int], int] = {}
    for i, p in enumerate(pts):
        first = seen.setdefault(p, i)
        if first != i:
            violations.append(("duplicate", (first, i)))
    masks = [[0] * n for _ in range(n)]
    for i, (ax, ay) in enumerate(pts):
        bit_i = 1 << i
        for j in range(i + 1, n):
            bit_j = 1 << j
            bx, by = pts[j][0] - ax, pts[j][1] - ay
            for k in range(j + 1, n):
                cx, cy = pts[k]
                bit_k = 1 << k
                det = bx * (cy - ay) - by * (cx - ax)
                if det > 0:
                    masks[i][j] |= bit_k
                    masks[j][k] |= bit_i
                    masks[k][i] |= bit_j
                elif det < 0:
                    masks[j][i] |= bit_k
                    masks[k][j] |= bit_i
                    masks[i][k] |= bit_j
                else:
                    violations.append(("collinear", (i, j, k)))
    return violations, tuple(map(tuple, masks))


def convex_hull(ps: PointSet) -> tuple[int, ...]:
    """Hull vertex labels in CCW order, from the leftmost point (lowest on a tie).

    Read off ``ps.ccw``: the next vertex after i is the j with every other
    point to the left of i -> j.
    """
    n = ps.n
    if n < 3:
        raise ValueError("convex hull requires at least 3 points")
    everyone = (1 << n) - 1
    start = i = min(range(n), key=ps.points.__getitem__)
    hull = []
    while True:
        hull.append(i)
        row = ps.ccw[i]
        i = next(j for j in range(n) if row[j] == everyone ^ (1 << i) ^ (1 << j))
        if i == start:
            return tuple(hull)


def is_triangular_hull(ps: PointSet) -> bool:
    return ps.n >= 3 and len(convex_hull(ps)) == 3


def parse_pts(text: str, check_count: Callable[[int], None] | None = None) -> PointSet:
    """Parse the ``.pts`` format: first line n, then n lines ``x y``, every
    number in ASCII decimal.  `check_count`, if given, gets n as soon as
    the first line is read, before the coordinate lines are counted or
    parsed, and refuses the text by raising."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise PtsFormatError("empty .pts input")
    if not _DECIMAL.fullmatch(lines[0]):
        raise PtsFormatError(f"first line must be a point count, got {lines[0]!r}")
    n = int(lines[0])
    if check_count is not None:
        check_count(n)
    if n < 0 or len(lines) != n + 1:
        raise PtsFormatError(f"expected {n} coordinate lines, got {len(lines) - 1}")
    coords = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise PtsFormatError(f"expected 'x y', got {ln!r}")
        if not all(map(_DECIMAL.fullmatch, parts)):
            raise PtsFormatError(f"non-integer coordinate in {ln!r}")
        coords.append((int(parts[0]), int(parts[1])))
    return PointSet.from_coords(coords)


def load_pts(path: str | Path, check_count: Callable[[int], None] | None = None) -> PointSet:
    """The point set of a ``.pts`` file, read and parsed once (see
    :func:`parse_pts`, which passes the declared point count to
    `check_count` before any coordinate is parsed)."""
    return parse_pts(Path(path).read_text(), check_count)


def save_pts(ps: PointSet, path: str | Path) -> None:
    Path(path).write_text(ps.to_pts())
