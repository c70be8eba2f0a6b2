"""Exact integer geometric predicates and point-set validation.

Everything downstream (crossing tables, enumeration, charging) reduces to the
predicates in this module, so they are kept exact: coordinates are integers
capped at |x|, |y| <= 2**20, which keeps every 3x3 orientation determinant
well inside 64 bits.  There is no floating point anywhere in this module.
The predicates are :func:`orientation`, :func:`segments_cross` and
:func:`ccw_masks`, which packs the orientation of every triple of a point set
into one bit-vector per ordered pair (the crossing table reads only that).

A :class:`PointSet` is in general position by construction: all points
distinct and no three collinear.  It validates itself when it is built, and a
degenerate input raises :class:`GeneralPositionError` with the explicit list
of violations instead of being silently repaired.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence

COORD_LIMIT = 1 << 20


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


class Orientation(IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


@dataclass(frozen=True)
class Point:
    """A labelled integer point.  Labels are the 0-based input order."""

    x: int
    y: int
    label: int

    def __post_init__(self):
        if not (isinstance(self.x, int) and isinstance(self.y, int)):
            raise TypeError("coordinates must be integers")
        if abs(self.x) > COORD_LIMIT or abs(self.y) > COORD_LIMIT:
            raise ValueError(
                f"|coordinate| of point {self.label} exceeds {COORD_LIMIT}"
            )


@dataclass(frozen=True)
class PointSet:
    """An immutable point set in general position: it validates itself on construction."""

    points: tuple[Point, ...]

    def __post_init__(self):
        violations = general_position_violations(self.points)
        if violations:
            raise GeneralPositionError(violations)

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def from_coords(cls, coords: Iterable[tuple[int, int]]) -> "PointSet":
        return cls(tuple(Point(int(x), int(y), i) for i, (x, y) in enumerate(coords)))

    def coords(self) -> tuple[tuple[int, int], ...]:
        return tuple((p.x, p.y) for p in self.points)

    def drop(self, label: int) -> "PointSet":
        """The point set with one point removed; remaining labels are renumbered."""
        return PointSet.from_coords([(p.x, p.y) for p in self.points if p.label != label])

    def to_pts(self) -> str:
        lines = [str(self.n)]
        lines += [f"{p.x} {p.y}" for p in self.points]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        """Hash of the canonical ``.pts`` serialization: identifies the input."""
        return hashlib.sha256(self.to_pts().encode()).hexdigest()


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Sign of the determinant (b - a) x (c - a), computed exactly."""
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if det > 0:
        return Orientation.CCW
    if det < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def ccw_masks(ps: PointSet) -> list[list[int]]:
    """masks[i][j] = bit-vector of the points k with (i, j, k) counter-clockwise.

    One exact determinant per unordered triple fills all six of its orders, so
    masks[j][i] is the clockwise side of i -> j; a PointSet has no collinear
    triple, so the two sides of every line partition the other points.
    """
    pts = ps.points
    n = len(pts)
    masks = [[0] * n for _ in range(n)]
    for i in range(n):
        a = pts[i]
        bit_i = 1 << i
        for j in range(i + 1, n):
            b = pts[j]
            bit_j = 1 << j
            bx, by = b.x - a.x, b.y - a.y
            for k in range(j + 1, n):
                c = pts[k]
                bit_k = 1 << k
                if bx * (c.y - a.y) - by * (c.x - a.x) > 0:
                    masks[i][j] |= bit_k
                    masks[j][k] |= bit_i
                    masks[k][i] |= bit_j
                else:
                    masks[j][i] |= bit_k
                    masks[k][j] |= bit_i
                    masks[i][k] |= bit_j
    return masks


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the open segments ab and cd share an interior point.

    Segments that share an endpoint never cross.  A collinear triple among
    the four points (impossible in general position) raises
    GeneralPositionError.
    """
    if {(a.x, a.y), (b.x, b.y)} == {(c.x, c.y), (d.x, d.y)}:
        raise ValueError("segments_cross requires two distinct segments")
    for p in (a, b):
        for q in (c, d):
            if p.x == q.x and p.y == q.y:
                return False
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if Orientation.COLLINEAR in (o1, o2, o3, o4):
        raise GeneralPositionError(
            [("collinear", (a.label, b.label, c.label, d.label))]
        )
    return o1 != o2 and o3 != o4


def general_position_violations(points: Sequence[Point]) -> list[tuple]:
    """Every duplicate pair and collinear triple, as (kind, labels) tuples."""
    violations: list[tuple] = []
    n = len(points)
    seen: dict[tuple[int, int], int] = {}
    for p in points:
        key = (p.x, p.y)
        if key in seen:
            violations.append(("duplicate", (seen[key], p.label)))
        else:
            seen[key] = p.label
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orientation(points[i], points[j], points[k]) == Orientation.COLLINEAR:
                    violations.append(("collinear", (i, j, k)))
    return violations


def convex_hull(ps: PointSet) -> tuple[int, ...]:
    """Hull vertex labels in CCW order (monotone chain, exact arithmetic)."""
    if ps.n < 3:
        raise ValueError("convex hull requires at least 3 points")
    pts = sorted(ps.points, key=lambda p: (p.x, p.y))

    def half(chain_pts):
        out: list[Point] = []
        for p in chain_pts:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) != Orientation.CCW:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return tuple(p.label for p in hull)


def is_triangular_hull(ps: PointSet) -> bool:
    return ps.n >= 3 and len(convex_hull(ps)) == 3


def parse_pts(text: str) -> PointSet:
    """Parse the ``.pts`` format: first line n, then n lines ``x y``."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PtsFormatError("empty .pts input")
    try:
        n = int(lines[0])
    except ValueError:
        raise PtsFormatError(f"first line must be a point count, got {lines[0]!r}")
    if n < 0 or len(lines) != n + 1:
        raise PtsFormatError(f"expected {n} coordinate lines, got {len(lines) - 1}")
    coords = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise PtsFormatError(f"expected 'x y', got {ln!r}")
        try:
            coords.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise PtsFormatError(f"non-integer coordinate in {ln!r}")
    return PointSet.from_coords(coords)


def load_pts(path: str | Path) -> PointSet:
    return parse_pts(Path(path).read_text())


def save_pts(ps: PointSet, path: str | Path) -> None:
    Path(path).write_text(ps.to_pts())
