"""Candidate segment table and the pairwise crossing (conflict) relation.

The n(n-1)/2 unordered point pairs are indexed lexicographically by
(i, j) with i < j; this indexing is fixed forever because every serialized
graph encoding depends on it.  All per-segment sets (crossings, incidences)
are bit-vectors over segment indices, stored as Python ints with bit k =
segment k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .geometry import PointSet, segments_cross

SEGMENT_INDEXING = "lexicographic (i,j) pairs with i<j; bit k of edge masks = segment k"


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """All candidate segments of a point set, with their incidences."""

    n: int
    segments: tuple[tuple[int, int], ...]
    index_of: dict[tuple[int, int], int]
    incident_masks: tuple[int, ...]      # per point: mask of incident segments

    @property
    def m(self) -> int:
        return len(self.segments)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


@dataclass(frozen=True, eq=False)
class CrossingSets:
    """cross[k] = bit-vector of segments properly crossing segment k."""

    cross: tuple[int, ...]

    @property
    def total_crossing_pairs(self) -> int:
        return sum(c.bit_count() for c in self.cross) // 2


def build_segment_table(ps: PointSet) -> SegmentTable:
    n = ps.n
    segments = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    index_of = {seg: k for k, seg in enumerate(segments)}
    incident = [0] * n
    for k, (i, j) in enumerate(segments):
        incident[i] |= 1 << k
        incident[j] |= 1 << k
    return SegmentTable(n=n, segments=segments, index_of=index_of, incident_masks=tuple(incident))


def build_crossing_sets(ps: PointSet, table: SegmentTable) -> CrossingSets:
    pts = ps.points
    m = table.m
    cross = [0] * m
    for k in range(m):
        i, j = table.segments[k]
        for l in range(k + 1, m):
            p, q = table.segments[l]
            if segments_cross(pts[i], pts[j], pts[p], pts[q]):
                cross[k] |= 1 << l
                cross[l] |= 1 << k
    return CrossingSets(cross=tuple(cross))


@lru_cache(maxsize=64)
def structures(ps: PointSet) -> tuple[SegmentTable, CrossingSets]:
    """Cached (table, crossings) pair for a validated point set."""
    table = build_segment_table(ps)
    return table, build_crossing_sets(ps, table)
