"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: rational
line-intersection for crossing tests, an interval-decomposition convolution
recurrence for convex-position counts, hull-of-four for convex quadruples,
a scan of all 2^m edge subsets for plane-graph counts, and plain visitor
enumeration for degree histograms.  The charging argument's per-graph
helpers (a point's potential and its family) also live here: they read the
workspace's blocked masks, and no command needs them.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

import pytest

from planegraphs import (
    EnumerationLimitError,
    GeneralPositionError,
    PointSet,
    SelfCheckError,
    enumerate_plane_graphs,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
)
from planegraphs.crossings import structures
from planegraphs.enumeration import workspace

# Seeds are frozen so every run exercises identical point sets.
RANDOM_SEEDS = {5: (1, 2), 6: (1, 2), 7: (1, 2), 8: (1, 2), 9: (1,)}
BRUTEFORCE_SEGMENT_LIMIT = 22


def frames_below() -> int:
    """The caller's recursion depth as CPython's recursion limit counts it,
    so ``sys.setrecursionlimit(frames_below() + k)`` leaves the caller about
    k frames.  Under pytest on CPython 3.11 this is 7 more than the Python
    frames on the stack, since C-level calls on pytest's call path count
    too.  It is found by bisection: here, one frame above the caller,
    ``sys.setrecursionlimit`` accepts a limit exactly when it exceeds the
    depth here."""
    limit = sys.getrecursionlimit()
    low, high = 1, limit
    while low < high:
        mid = (low + high) // 2
        try:
            sys.setrecursionlimit(mid)
        except RecursionError:
            low = mid + 1
        else:
            high = mid
            sys.setrecursionlimit(limit)
    return low - 2


def coords(*pairs) -> PointSet:
    return PointSet.from_coords(pairs)


def gp_violations(pairs) -> list[tuple]:
    """The general-position violations of a coordinate list, as the
    `PointSet` constructor reports them; [] when it builds."""
    try:
        PointSet.from_coords(pairs)
    except GeneralPositionError as exc:
        return exc.violations
    return []


@pytest.fixture(scope="session")
def triangle() -> PointSet:
    return coords((0, 0), (4, 0), (0, 4))


@pytest.fixture(scope="session")
def convex4() -> PointSet:
    return gen_convex_chain(4)


def segments_cross_oracle(a, b, c, d) -> bool:
    """Rational line-intersection oracle: solve for the crossing parameter
    exactly and require it strictly inside both open segments."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    dx, dy = d
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    if denom == 0:
        return False  # parallel lines never cross properly
    t = Fraction((cx - ax) * sy - (cy - ay) * sx, denom)
    u = Fraction((cx - ax) * ry - (cy - ay) * rx, denom)
    return 0 < t < 1 and 0 < u < 1


def convex_count_recurrence(m_max: int) -> list[int]:
    """Counts of crossing-free chord sets on m points in convex position.

    Splitting on the longest chord from the first point gives
    N(L) = 2 N(L-1) + sum_{t=2}^{L-1} N(t) N(L-t+1), N(1) = 1.
    """
    n = [0] * (m_max + 1)
    n[0] = 1
    if m_max >= 1:
        n[1] = 1
    for size in range(2, m_max + 1):
        total = 2 * n[size - 1]
        for t in range(2, size):
            total += n[t] * n[size - t + 1]
        n[size] = total
    return n


def potential(ps: PointSet, edges: int, p: int) -> int:
    """deg(p) plus the visibility of p in the graph `edges`: the family's visibility.

    The edges of a plane graph cross none of its edges, so this counts the
    segments at p outside blocked(edges).
    """
    ws = workspace(ps)
    return (ws.table.incident_masks[p] & ~ws.blocked(edges)).bit_count()


def family_root(ps: PointSet, edges: int, p: int) -> int:
    """`edges` minus the edges at p: the 0-ving graph of the family of (p, edges)."""
    return edges & ~workspace(ps).table.incident_masks[p]


def family_members(ps: PointSet, root: int, p: int) -> list[int]:
    """All 2^j graphs reachable by connecting p to visible vertices of `root`."""
    ws = workspace(ps)
    if root & ws.table.incident_masks[p]:
        raise ValueError(f"point {p} is not isolated in the given root graph")
    visible = ws.table.incident_masks[p] & ~ws.blocked(root)
    members = []
    add = 0
    while True:  # submasks of `visible` in increasing order
        edges = root | add
        if ws.blocked(add) & edges:
            raise SelfCheckError("family member has a crossing pair")
        members.append(edges)
        add = (add - visible) & visible
        if not add:
            return members


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def count_convex_quadruples(ps: PointSet) -> int:
    """Brute-force scan: a 4-subset is in convex position iff no point of it
    lies inside the triangle of the other three."""
    from planegraphs import orientation

    pts = ps.points
    n = len(pts)

    def inside(p, a, b, c):
        o1 = orientation(a, b, p)
        o2 = orientation(b, c, p)
        o3 = orientation(c, a, p)
        return o1 == o2 == o3 != 0

    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    quad = [pts[i], pts[j], pts[k], pts[l]]
                    if not any(
                        inside(quad[x], *[quad[y] for y in range(4) if y != x])
                        for x in range(4)
                    ):
                        count += 1
    return count


def count_plane_graphs_bruteforce(ps: PointSet) -> int:
    """Independent oracle: scan all 2^m edge subsets."""
    ws = workspace(ps)
    m = ws.m
    if m > BRUTEFORCE_SEGMENT_LIMIT:
        raise EnumerationLimitError(
            f"brute force limited to {BRUTEFORCE_SEGMENT_LIMIT} segments, got {m}"
        )
    cross = ws.cross
    # valid[mask] extends valid[mask without top bit] iff the top segment
    # conflicts with nothing below it.
    valid = bytearray(1 << m)
    valid[0] = 1
    count = 1
    for mask in range(1, 1 << m):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if valid[rest] and not (cross[top] & rest):
            valid[mask] = 1
            count += 1
    return count


def brute_degree_rows(ps: PointSet) -> tuple[tuple[int, ...], ...]:
    """rows[p][d] = number of graphs in which p has degree d, by visiting
    every graph and tallying the popcount of its edges at each point."""
    table, _ = structures(ps)
    rows = [[0] * ps.n for _ in range(ps.n)]

    def visit(edges):
        for p in range(ps.n):
            rows[p][(edges & table.incident_masks[p]).bit_count()] += 1

    enumerate_plane_graphs(ps, visit)
    return tuple(map(tuple, rows))


def standard_small_sets() -> list[PointSet]:
    """A mixed bag of small validated sets for cross-checking invariants."""
    return [
        gen_convex_chain(3),
        gen_convex_chain(4),
        gen_convex_chain(5),
        gen_cap_with_apex(5),
        gen_triangular_hull_random(5, seed=1),
        gen_triangular_hull_random(6, seed=2),
    ]


@pytest.fixture(scope="session")
def small_sets() -> list[PointSet]:
    return standard_small_sets()
