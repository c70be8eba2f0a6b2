"""Candidate segment table and the pairwise crossing (conflict) relation.

The n(n-1)/2 unordered point pairs are indexed lexicographically by
(i, j) with i < j; this indexing is fixed forever because every serialized
graph encoding depends on it.  All per-segment sets (crossings, incidences)
are bit-vectors over segment indices, stored as Python ints with bit k =
segment k.  :func:`build_crossing_sets` reads whatever segment sequence it
is given: bit l of a row stands for ``segments[l]``, in any order, so the
counting kernel gets its rows in its own segment order from the same pass.

The crossing table is read off the point set's orientation masks
(``PointSet.ccw``, each of the C(n,3) triple determinants computed once when
the set was built): segment (i, j) is crossed by exactly the (p, q) with p
left of i -> j, q right of it, and i, j on opposite sides of p -> q.  The
work is one step per crossing pair and side; no pair of segments is tested
on its own, which would take C(m,2) tests.  :func:`crossed` is the same rule
for one segment, as a yes or no: O(n) steps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .geometry import PointSet

SEGMENT_INDEXING = "lexicographic (i,j) pairs with i<j; bit k of edge masks = segment k"


class SegmentTable(NamedTuple):
    """All candidate segments of a point set, with their incidences."""

    segments: tuple[tuple[int, int], ...]
    incident_masks: tuple[int, ...]      # per point: mask of incident segments

    @property
    def m(self) -> int:
        return len(self.segments)

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1


class CrossingSets(NamedTuple):
    """cross[k] = bit-vector of segments properly crossing segment k."""

    cross: tuple[int, ...]

    @property
    def total_crossing_pairs(self) -> int:
        return sum(c.bit_count() for c in self.cross) // 2


def build_segment_table(ps: PointSet) -> SegmentTable:
    n = ps.n
    segments = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    incident = [0] * n
    for k, (i, j) in enumerate(segments):
        incident[i] |= 1 << k
        incident[j] |= 1 << k
    return SegmentTable(segments=segments, incident_masks=tuple(incident))


def build_crossing_sets(ps: PointSet, segments: Sequence[tuple[int, int]]) -> CrossingSets:
    """Row l holds bit l' iff ``segments[l']`` crosses ``segments[l]``; the
    segments are distinct point pairs of `ps`, in any order."""
    ccw = ps.ccw
    bit = [[0] * ps.n for _ in range(ps.n)]   # bit[p][q] = 1 << place of segment {p, q}
    for k, (i, j) in enumerate(segments):
        bit[i][j] = bit[j][i] = 1 << k
    cross = []
    for i, j in segments:
        ccw_i, ccw_j = ccw[i], ccw[j]
        left, right = ccw_i[j], ccw_j[i]
        row = 0
        while left:
            low = left & -left
            p = low.bit_length() - 1
            left ^= low
            bit_p = bit[p]
            rest = right & (ccw_i[p] ^ ccw_j[p])
            while rest:
                low = rest & -rest
                row |= bit_p[low.bit_length() - 1]
                rest ^= low
        cross.append(row)
    return CrossingSets(cross=tuple(cross))


def crossed(ps: PointSet, i: int, j: int) -> bool:
    """True iff some segment of `ps` crosses segment (i, j): the row rule of
    :func:`build_crossing_sets`, stopped at the first crossing it finds."""
    ccw_i, ccw_j = ps.ccw[i], ps.ccw[j]
    left, right = ccw_i[j], ccw_j[i]
    return any(left >> p & 1 and right & (ccw_i[p] ^ ccw_j[p]) for p in range(ps.n))


@lru_cache(maxsize=64)
def structures(ps: PointSet) -> tuple[SegmentTable, CrossingSets]:
    """Cached (table, crossings) pair for a validated point set."""
    table = build_segment_table(ps)
    return table, build_crossing_sets(ps, table.segments)
