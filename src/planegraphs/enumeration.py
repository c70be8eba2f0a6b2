"""Enumeration and exact counting of plane graphs (crossing-free edge sets).

A plane graph of a point set P is exactly an independent set of the segment
crossing relation, so everything here is independent-set machinery over the
conflict bit-vectors of :mod:`planegraphs.crossings`:

* ``_Workspace.enumerate_restricted`` walks a depth-first 2-way branch over
  segment indices (skip / choose) and visits every crossing-free subset in
  lexicographic order.  The visitor receives ``(edges, blocked)``, where
  ``blocked`` is the OR of the crossing masks of the chosen edges: the
  segments that cross some edge of the graph.  Since the graph is
  crossing-free, ``edges & blocked == 0``, and the potential of a point p is
  ``popcount(inc[p] & ~blocked)``.  The charge audit scans with it, and the
  visibility verifier searches it for a witness; ``enumerate_plane_graphs``
  is the public form that hands out :class:`PlaneGraph` objects.

* ``count_plane_graphs`` / ``expected_degree_vector`` never materialize
  graphs.  They use a memoized counting routine that strips conflict-free
  segments in bulk, splits the conflict graph into connected components, and
  branches on a maximum-degree pivot.  Counting runs serially.  Degree
  statistics come from counting, for every point p and every subset E of its
  incident segments, the graphs whose edge set at p is exactly E; subsets of
  segments at a common endpoint never cross, so those counts partition the
  graph census.  The per-point rows may be spread over worker processes.

All aggregates are exact big integers / rationals, and parallel runs return
per-point integer rows in point order, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .crossings import SegmentTable, structures
from .geometry import PointSet

DEFAULT_MAX_N = 12
BRUTEFORCE_SEGMENT_LIMIT = 22


class EnumerationLimitError(RuntimeError):
    """Refusal to enumerate a point set above the configured cap."""


def work_estimate(n: int) -> str:
    low, high = 11.65 ** n, 23.32 ** n
    return f"roughly 11.65^{n} = {low:.3g} to 23.32^{n} = {high:.3g} plane graphs"


def _check_cap(ps: PointSet, max_n: int | None) -> None:
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if ps.n > cap:
        raise EnumerationLimitError(
            f"n={ps.n} exceeds the cap of {cap}; expect {work_estimate(ps.n)}. "
            f"Pass a higher cap explicitly to proceed."
        )


@dataclass(frozen=True)
class PlaneGraph:
    """One crossing-free edge subset, as a bit-vector over segment indices."""

    edges: int
    n: int

    def to_hex(self) -> str:
        """Lowercase hex of the edge bit-vector (LSB = segment 0)."""
        return f"{self.edges:x}"

    @classmethod
    def from_hex(cls, text: str, n: int) -> "PlaneGraph":
        return cls(edges=int(text, 16), n=n)

    def edge_count(self) -> int:
        return self.edges.bit_count()

    def degree(self, p: int, table: SegmentTable) -> int:
        return (self.edges & table.incident_masks[p]).bit_count()


@dataclass(frozen=True)
class DegreeExpectation:
    """Exact degree statistics of the uniform random plane graph of a set."""

    pg: int                                    # |G(P)|
    ving_counts: tuple[int, ...]               # ving_counts[i] = sum_G v_i(G)
    vhat: tuple[Fraction, ...]                 # vhat[i] = ving_counts[i] / pg
    per_point: tuple[tuple[int, ...], ...]     # per_point[p][i] = #graphs with deg(p) = i


@dataclass(frozen=True)
class TriangulationRecord:
    graph: PlaneGraph
    v3: int
    v4: int
    histogram: tuple[int, ...]


@dataclass(frozen=True)
class TriangulationStats:
    count: int
    records: tuple[TriangulationRecord, ...]


class _Workspace:
    """Per-point-set enumeration state: conflict masks, the count memo and
    the triangulations, once walked."""

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.table, self.crossings = structures(ps)
        self.cross = self.crossings.cross
        self.m = self.table.m
        self.full = self.table.full_mask
        self.memo: dict[int, int] = {}
        self.triangulations: TriangulationStats | None = None

    # -- memoized independent-set counting over an available-segment mask ----

    def count_independent(self, avail: int) -> int:
        if avail == 0:
            return 1
        memo = self.memo
        hit = memo.get(avail)
        if hit is not None:
            return hit
        cross = self.cross
        # Segments with no conflict inside `avail` contribute a free factor 2.
        free = 0
        active = 0
        mm = avail
        while mm:
            lsb = mm & -mm
            if cross[lsb.bit_length() - 1] & avail:
                active |= lsb
            else:
                free += 1
            mm ^= lsb
        if active == 0:
            result = 1 << free
            memo[avail] = result
            return result
        # Connected component of the lowest active segment.
        comp = active & -active
        frontier = comp
        while frontier:
            grow = 0
            ff = frontier
            while ff:
                lsb = ff & -ff
                grow |= cross[lsb.bit_length() - 1] & active & ~comp
                ff ^= lsb
            comp |= grow
            frontier = grow
        rest = active & ~comp
        if rest:
            result = self.count_independent(comp) * self.count_independent(rest) << free
            memo[avail] = result
            return result
        # Branch on a maximum-conflict-degree pivot inside the component.
        best_deg, pivot = -1, -1
        mm = comp
        while mm:
            lsb = mm & -mm
            k = lsb.bit_length() - 1
            deg = (cross[k] & comp).bit_count()
            if deg > best_deg:
                best_deg, pivot = deg, k
            mm ^= lsb
        without = self.count_independent(comp & ~(1 << pivot))
        with_it = self.count_independent(comp & ~(1 << pivot) & ~cross[pivot])
        result = (without + with_it) << free
        memo[avail] = result
        return result

    # -- streaming enumeration over a restricted universe --------------------

    def enumerate_restricted(self, avail: int, visitor: Callable[[int, int], None]) -> int:
        """Call `visitor(edges, blocked)` on every independent subset of `avail`,
        in lexicographic order; `blocked` equals ``self.blocked(edges)``."""
        indices = []
        mm = avail
        while mm:
            lsb = mm & -mm
            indices.append(lsb.bit_length() - 1)
            mm ^= lsb
        cross = self.cross
        count = 0
        total = len(indices)

        def rec(pos: int, chosen: int, forbidden: int) -> None:
            nonlocal count
            if pos == total:
                visitor(chosen, forbidden)
                count += 1
                return
            k = indices[pos]
            bit = 1 << k
            if forbidden & bit:
                rec(pos + 1, chosen, forbidden)
                return
            rec(pos + 1, chosen, forbidden)
            rec(pos + 1, chosen | bit, forbidden | cross[k])

        rec(0, 0, 0)
        return count

    # -- blocked masks -------------------------------------------------------

    def blocked(self, edges: int) -> int:
        """OR of `cross[e]` over the edges e: every segment some edge crosses."""
        cross = self.cross
        blocked = 0
        while edges:
            lsb = edges & -edges
            blocked |= cross[lsb.bit_length() - 1]
            edges ^= lsb
        return blocked


@lru_cache(maxsize=64)
def _workspace(ps: PointSet) -> _Workspace:
    return _Workspace(ps)


def workspace(ps: PointSet) -> _Workspace:
    return _workspace(ps)


# ---------------------------------------------------------------------------
# Worker-process plumbing for per-point degree rows.  Tasks carry only a
# point label; the point set is rebuilt once per worker, and rows come back
# in point order, so aggregates cannot depend on scheduling.
# ---------------------------------------------------------------------------

_POOL_WS: _Workspace | None = None


def _pool_init(coords: tuple[tuple[int, int], ...]) -> None:
    global _POOL_WS
    _POOL_WS = _Workspace(PointSet.from_coords(coords, validate=False))


def _pool_point_degrees(p: int) -> tuple[int, ...]:
    assert _POOL_WS is not None
    return _point_degree_row(_POOL_WS, p)


def _pool_degree_rows(ps: PointSet, workers: int) -> list[tuple[int, ...]]:
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(ps.coords(),)
    ) as pool:
        return list(pool.map(_pool_point_degrees, range(ps.n)))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def enumerate_plane_graphs(
    ps: PointSet,
    visitor: Callable[[PlaneGraph], None],
    max_n: int | None = None,
) -> int:
    """Invoke `visitor` once per plane graph of P (the empty graph included).

    Single-threaded, deterministic lexicographic order over the presence
    vector (segment 0 varies last).  Returns the visit count.
    """
    _check_cap(ps, max_n)
    ws = workspace(ps)
    n = ps.n
    return ws.enumerate_restricted(
        ws.full, lambda edges, blocked: visitor(PlaneGraph(edges, n))
    )


def count_plane_graphs(ps: PointSet, max_n: int | None = None) -> int:
    """pg(P) = number of plane graphs of P, exactly."""
    _check_cap(ps, max_n)
    ws = workspace(ps)
    return ws.count_independent(ws.full)


def count_plane_graphs_bruteforce(ps: PointSet) -> int:
    """Independent oracle: scan all 2^m edge subsets.  Test use only."""
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


def _point_degree_row(ws: _Workspace, p: int) -> tuple[int, ...]:
    """row[d] = number of plane graphs in which point p has degree d.

    Fix the exact set E of edges at p (any subset of incident segments is
    internally crossing-free since they share the endpoint p), remove from
    the universe all other incident segments and everything E crosses, and
    count the remaining independent sets.
    """
    n = ws.table.n
    inc_mask = ws.table.incident_masks[p]
    incident = []
    mm = inc_mask
    while mm:
        lsb = mm & -mm
        incident.append(lsb.bit_length() - 1)
        mm ^= lsb
    base = ws.full & ~inc_mask
    row = [0] * n
    subsets = 1 << len(incident)
    forbidden = [0] * subsets
    for eb in range(1, subsets):
        low = eb & -eb
        forbidden[eb] = forbidden[eb ^ low] | ws.cross[incident[low.bit_length() - 1]]
    for eb in range(subsets):
        row[eb.bit_count()] += ws.count_independent(base & ~forbidden[eb])
    return tuple(row)


def expected_degree_vector(
    ps: PointSet,
    max_n: int | None = None,
    workers: int = 1,
) -> DegreeExpectation:
    """Exact v-hat vector: expected number of degree-i vertices for each i."""
    _check_cap(ps, max_n)
    ws = workspace(ps)
    n = ps.n
    if workers <= 1:
        rows = [_point_degree_row(ws, p) for p in range(n)]
    else:
        rows = _pool_degree_rows(ps, workers)
    pg = ws.count_independent(ws.full)
    for row in rows:
        if sum(row) != pg:
            raise AssertionError("per-point degree counts must partition the census")
    ving = tuple(sum(row[i] for row in rows) for i in range(n))
    vhat = tuple(Fraction(v, pg) for v in ving)
    return DegreeExpectation(pg=pg, ving_counts=ving, vhat=vhat, per_point=tuple(rows))


def total_edge_incidences(ps: PointSet, max_n: int | None = None) -> int:
    """Sum over all plane graphs of their edge count (for the 2|E| identity)."""
    _check_cap(ps, max_n)
    ws = workspace(ps)
    total = 0
    for k in range(ws.m):
        total += ws.count_independent(ws.full & ~(1 << k) & ~ws.cross[k])
    return total


def is_triangulation(ps: PointSet, g: PlaneGraph) -> bool:
    """Maximality test: no segment can be added without a crossing."""
    ws = workspace(ps)
    return not (ws.full & ~g.edges & ~ws.blocked(g.edges))


def containing_triangulation(ps: PointSet, g: PlaneGraph) -> PlaneGraph:
    """The triangulation obtained by repeatedly adding the lowest addable segment."""
    ws = workspace(ps)
    edges = g.edges
    blocked = ws.blocked(edges)
    if blocked & edges:
        raise ValueError("input edge set has a crossing pair")
    avail = ws.full & ~edges & ~blocked
    while avail:
        lsb = avail & -avail
        edges |= lsb
        avail &= ~ws.cross[lsb.bit_length() - 1]
        avail ^= lsb
    return PlaneGraph(edges, ps.n)


def enumerate_triangulations(ps: PointSet, max_n: int | None = None) -> TriangulationStats:
    """Visit exactly the maximal plane graphs; record per-graph degree data.

    Depth-first over segment indices: a skipped segment must later be crossed
    by a chosen one (tracked in `pending`), otherwise the branch cannot reach
    a maximal graph and is pruned.  The result is kept on the point set's
    workspace, so a second call returns it without a walk.
    """
    _check_cap(ps, max_n)
    ws = workspace(ps)
    if ws.triangulations is not None:
        return ws.triangulations
    n, m = ps.n, ws.m
    cross = ws.cross
    inc = ws.table.incident_masks
    records: list[TriangulationRecord] = []

    suffix = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix[k] = suffix[k + 1] | (1 << k)

    def emit(edges: int) -> None:
        g = PlaneGraph(edges, n)
        hist = [0] * n
        for p in range(n):
            hist[(edges & inc[p]).bit_count()] += 1
        v3 = hist[3] if n > 3 else 0
        v4 = hist[4] if n > 4 else 0
        records.append(
            TriangulationRecord(graph=g, v3=v3, v4=v4, histogram=tuple(hist))
        )

    def rec(k: int, chosen: int, forbidden: int, pending: int) -> None:
        if k == m:
            if pending == 0:
                emit(chosen)
            return
        bit = 1 << k
        if forbidden & bit:
            rec(k + 1, chosen, forbidden, pending)
            return
        rec(k + 1, chosen | bit, forbidden | cross[k], pending & ~cross[k])
        if cross[k] & suffix[k + 1] & ~forbidden:
            rec(k + 1, chosen, forbidden, pending | bit)

    rec(0, 0, 0, 0)
    ws.triangulations = TriangulationStats(count=len(records), records=tuple(records))
    return ws.triangulations
