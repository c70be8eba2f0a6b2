"""Enumeration and exact counting of plane graphs (crossing-free edge sets).

A plane graph of a point set P is exactly an independent set of the segment
crossing relation, so everything here is independent-set machinery over the
conflict bit-vectors of :mod:`planegraphs.crossings`:

* ``_Workspace.independent_sets`` is a generator over every crossing-free
  subset in lexicographic order: a depth-first skip / choose branch over
  segment indices on an explicit stack, so it never recurses.  It yields
  ``(edges, blocked)``, where ``blocked`` is the OR of the crossing masks of
  the chosen edges: the segments that cross some edge of the graph.  Since
  the graph is crossing-free, ``edges & blocked == 0``, and the potential of
  a point p is ``popcount(inc[p] & ~blocked)``.  The charge audit loops over
  it, and the visibility verifier returns its first witness from it;
  ``enumerate_plane_graphs`` is the public form that hands each edge mask
  to a visitor.  A plane graph is its edge mask everywhere in the package:
  an int whose bit k is segment k, written ``f"{edges:x}"`` in reports.

* ``enumerate_triangulations`` lists the maximal independent sets, which
  are the triangulations, with the pivot rule of Bron-Kerbosch as analysed
  by Tomita, Tanaka and Takahashi (TCS 2006), on an explicit stack.  Each
  node branches only on the candidates that lie in the smallest set
  ``cand & (cross[u] | u)``: any maximal set below the node holds u or a
  segment crossing u.  On random 12-point sets this visits 35k-49k nodes,
  where a recursive skip/choose branch in index order made 0.7M-1.7M calls.
  The search tree is at most m deep, but the walk never recurses.

* ``count_plane_graphs`` / ``expected_degree_vector`` never materialize
  graphs.  They use a memoized counting routine on one fixed segment order,
  by descending crossing count.  Each call splits its segments into
  connected components of the conflict graph, which multiply; a lone
  segment is a factor 2, and any other component is memoized by its mask
  and branches on its first segment in the order.  A fixed order makes the
  leftover components of different branches the same masks, so the memo
  hits: convex_chain(20), the worst case, ends with 7,104 entries, where a
  pivot chosen afresh in each component leaves 50,734.  Counting runs
  serially.  Degree statistics come from one weighted pass per point p: the
  same routine gives each segment at p the weight x, so a lone weighted
  segment contributes (1 + x) and a weighted branch segment adds x times
  its "with" branch.  The result is p's degree polynomial sum_d row[d] x^d,
  packed into one integer at x = 2^(m+1), whose digits are the row.  The
  per-point rows may be spread over worker processes.

All aggregates are exact big integers / rationals, and parallel runs return
per-point integer rows in point order, so results are bit-identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from .crossings import structures
from .geometry import PointSet

DEFAULT_MAX_N = 12
BRUTEFORCE_SEGMENT_LIMIT = 22


class EnumerationLimitError(RuntimeError):
    """Refusal to enumerate a point set above the configured cap."""


def _check_cap(ps: PointSet, max_n: int | None) -> None:
    cap = DEFAULT_MAX_N if max_n is None else max_n
    if ps.n > cap:
        raise EnumerationLimitError(f"n={ps.n} exceeds the cap of {cap}")


@dataclass(frozen=True)
class DegreeExpectation:
    """Exact degree statistics of the uniform random plane graph of a set."""

    pg: int                                    # |G(P)|
    ving_counts: tuple[int, ...]               # ving_counts[i] = sum_G v_i(G)
    vhat: tuple[Fraction, ...]                 # vhat[i] = ving_counts[i] / pg
    per_point: tuple[tuple[int, ...], ...]     # per_point[p][i] = #graphs with deg(p) = i


@dataclass(frozen=True)
class TriangulationRecord:
    edges: int
    v3: int
    v4: int
    histogram: tuple[int, ...]


@dataclass(frozen=True)
class TriangulationStats:
    count: int
    records: tuple[TriangulationRecord, ...]


class _Workspace:
    """Per-point-set enumeration state: conflict masks, the count memo, and
    the degree vector and the triangulations, once computed."""

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.table, self.crossings = structures(ps)
        self.cross = self.crossings.cross
        self.m = self.table.m
        self.full = self.table.full_mask
        self.digit_bits = self.m + 1
        # The counting kernel's segment order: rank[k] is segment k's place
        # by descending crossing count, and rcross is cross in rank space.
        order = sorted(range(self.m), key=lambda k: -self.cross[k].bit_count())
        self.rank = [0] * self.m
        for r, k in enumerate(order):
            self.rank[k] = r
        self.rcross = [self._ranked(self.cross[k]) for k in order]
        self.memo: dict[int, int] = {}
        self.degrees: DegreeExpectation | None = None
        self.triangulations: TriangulationStats | None = None

    # -- memoized independent-set counting on a fixed segment order ---------

    def count_independent(self, weighted: int = 0) -> int:
        """Number of plane graphs, or, with `weighted`, their packed polynomial
        sum_d c_d x^d, where c_d counts the graphs holding d segments of
        `weighted` (a mask over segment indices).

        The polynomial is evaluated at x = 2^B with B = ``self.digit_bits`` =
        m + 1.  Every coefficient counts edge sets, so it is at most 2^m < 2^B,
        and each c_d is the B-bit digit d of the result.  A digit that carried
        would break ``sum(row) == pg`` in :func:`expected_degree_vector`.

        The count runs in rank space: bit ``rank[k]`` stands for segment k,
        with the segments sorted by descending crossing count, ties by index,
        so the lowest bit of any mask is its segment with the most crossings.
        :meth:`_count` splits the segments into connected components and
        branches on the lowest bit of each.  Components without a weighted
        segment have plain counts and go to the shared ``self.memo``; the
        others go to a memo of this call alone.
        """
        ranked = self._ranked(weighted)
        return self._count(self.full, ranked, {} if ranked else self.memo)

    def _ranked(self, mask: int) -> int:
        """`mask`, a set of segment indices, in rank space."""
        rank = self.rank
        out = 0
        while mask:
            lsb = mask & -mask
            out |= 1 << rank[lsb.bit_length() - 1]
            mask ^= lsb
        return out

    def _count(self, avail: int, weighted: int, memo: dict[int, int]) -> int:
        """The count of :meth:`count_independent` over the rank-space mask
        `avail`: one pass splits it into connected components, which multiply.
        A lone segment is a factor 2, or (1 + x) if weighted; any other
        component branches on its lowest bit, without it and with it (its
        crossings removed, times x if weighted)."""
        rcross = self.rcross
        result = 1
        single = single_weighted = 0
        while avail:
            bit = avail & -avail
            comp = frontier = bit
            while frontier:
                grow = 0
                while frontier:
                    lsb = frontier & -frontier
                    grow |= rcross[lsb.bit_length() - 1]
                    frontier ^= lsb
                frontier = grow & avail & ~comp
                comp |= frontier
            avail ^= comp
            if comp == bit:
                if weighted & bit:
                    single_weighted += 1
                else:
                    single += 1
                continue
            table = memo if weighted & comp else self.memo
            count = table.get(comp)
            if count is None:
                rest = comp ^ bit
                with_it = self._count(rest & ~rcross[bit.bit_length() - 1], weighted, memo)
                if weighted & bit:
                    with_it <<= self.digit_bits
                count = self._count(rest, weighted, memo) + with_it
                table[comp] = count
            result *= count
        if single_weighted:
            result *= ((1 << self.digit_bits) + 1) ** single_weighted
        return result << single

    # -- streaming enumeration over a restricted universe --------------------

    def independent_sets(self, avail: int) -> Iterator[tuple[int, int]]:
        """Yield `(edges, blocked)` for every independent subset of `avail`, in
        lexicographic order; `blocked` equals ``self.blocked(edges)``.

        An explicit stack of ``(rest, chosen, blocked)``: a popped node skips
        the segments of `rest` one by one, lowest first, pushing for each the
        branch that takes it, and yields the graph at the end of that path.
        """
        cross = self.cross
        stack = [(avail, 0, 0)]
        while stack:
            rest, chosen, blocked = stack.pop()
            while rest:
                bit = rest & -rest
                rest ^= bit
                crossed = cross[bit.bit_length() - 1]
                stack.append((rest & ~crossed, chosen | bit, blocked | crossed))
            yield chosen, blocked

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
    _POOL_WS = _Workspace(PointSet.from_coords(coords))


def _pool_point_degrees(p: int) -> tuple[int, ...]:
    assert _POOL_WS is not None
    return _point_degree_row(_POOL_WS, p)


def _pool_degree_rows(ps: PointSet, workers: int) -> list[tuple[int, ...]]:
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_pool_init, initargs=(ps.coords(),)
    ) as pool:
        return list(pool.map(_pool_point_degrees, range(ps.n)))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def enumerate_plane_graphs(
    ps: PointSet,
    visitor: Callable[[int], None],
    max_n: int | None = None,
) -> int:
    """Invoke `visitor(edges)` once per plane graph of P (the empty graph included).

    Single-threaded, deterministic lexicographic order over the presence
    vector (segment 0 varies last).  Returns the visit count.
    """
    _check_cap(ps, max_n)
    ws = workspace(ps)
    count = 0
    for edges, _ in ws.independent_sets(ws.full):
        visitor(edges)
        count += 1
    return count


def count_plane_graphs(ps: PointSet, max_n: int | None = None) -> int:
    """pg(P) = number of plane graphs of P, exactly."""
    _check_cap(ps, max_n)
    ws = workspace(ps)
    return ws.count_independent()


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

    One weighted count over the whole universe, with weight x on the
    segments at p, gives sum_d row[d] x^d packed at x = 2^B, B = m + 1 (see
    :meth:`_Workspace.count_independent`).  No row entry exceeds pg <= 2^m,
    so the B-bit digits do not carry; the ``sum(row) == pg`` assertion in
    :func:`expected_degree_vector` would catch one that did.
    """
    poly = ws.count_independent(ws.table.incident_masks[p])
    bits = ws.digit_bits
    digit = (1 << bits) - 1
    return tuple(poly >> (d * bits) & digit for d in range(ws.table.n))


def expected_degree_vector(
    ps: PointSet,
    max_n: int | None = None,
    workers: int = 1,
) -> DegreeExpectation:
    """Exact v-hat vector: expected number of degree-i vertices for each i.

    The per-point rows are spread over min(workers, n) processes, serially
    when that is at most 1.  The result is kept on the point set's
    workspace, so a second call returns it without a count.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    _check_cap(ps, max_n)
    ws = workspace(ps)
    if ws.degrees is not None:
        return ws.degrees
    n = ps.n
    workers = min(workers, n)
    if workers <= 1:
        rows = [_point_degree_row(ws, p) for p in range(n)]
    else:
        rows = _pool_degree_rows(ps, workers)
    pg = ws.count_independent()
    for row in rows:
        if sum(row) != pg:
            raise AssertionError("per-point degree counts must partition the census")
    ving = tuple(sum(row[i] for row in rows) for i in range(n))
    vhat = tuple(Fraction(v, pg) for v in ving)
    ws.degrees = DegreeExpectation(pg=pg, ving_counts=ving, vhat=vhat, per_point=tuple(rows))
    return ws.degrees


def is_triangulation(ps: PointSet, edges: int) -> bool:
    """Maximality test: no segment can be added without a crossing."""
    ws = workspace(ps)
    return not (ws.full & ~edges & ~ws.blocked(edges))


def containing_triangulation(ps: PointSet, edges: int) -> int:
    """The triangulation obtained by repeatedly adding the lowest addable segment."""
    ws = workspace(ps)
    blocked = ws.blocked(edges)
    if blocked & edges:
        raise ValueError("input edge set has a crossing pair")
    avail = ws.full & ~edges & ~blocked
    while avail:
        lsb = avail & -avail
        edges |= lsb
        avail &= ~ws.cross[lsb.bit_length() - 1]
        avail ^= lsb
    return edges


def enumerate_triangulations(ps: PointSet, max_n: int | None = None) -> TriangulationStats:
    """Visit exactly the maximal plane graphs; record per-graph degree data.

    A triangulation is a maximal independent set of the crossing graph, so
    the walk is the pivoted Bron-Kerbosch search (Tomita-Tanaka-Takahashi)
    over an explicit stack of ``(chosen, cand, excl)``: `cand` holds the
    segments that may still be added, `excl` the skipped ones that no chosen
    segment crosses yet.  A node branches on the segments of `cand` that lie
    in the smallest set ``cand & (cross[u] | u)`` over u in ``cand | excl``,
    and a branch moves its segment from `cand` to `excl` for its later
    siblings.  A node with nothing left in `cand` is a triangulation iff
    `excl` is empty.  The records are sorted into the order of
    :func:`enumerate_plane_graphs` reversed: descending in the bit-reversed
    edge mask.  The result is kept on the point set's workspace, so a second
    call returns it without a walk.
    """
    _check_cap(ps, max_n)
    ws = workspace(ps)
    if ws.triangulations is not None:
        return ws.triangulations
    n, m = ps.n, ws.m
    cross = ws.cross
    inc = ws.table.incident_masks

    found: list[int] = []
    stack = [(0, ws.full, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if not cand:
            if not excl:
                found.append(chosen)
            continue
        branch, size = 0, m + 1
        mm = cand | excl
        while mm:
            lsb = mm & -mm
            mm ^= lsb
            b = cand & (cross[lsb.bit_length() - 1] | lsb)
            c = b.bit_count()
            if c < size:
                branch, size = b, c
                if c <= 1:  # only 0 beats 1, and then the one branch dies too
                    break
        while branch:
            v = branch & -branch
            branch ^= v
            keep = ~(cross[v.bit_length() - 1] | v)
            stack.append((chosen | v, cand & keep, excl & keep))
            cand ^= v
            excl |= v
    found.sort(key=lambda edges: format(edges, f"0{m}b")[::-1], reverse=True)

    records: list[TriangulationRecord] = []
    for edges in found:
        hist = [0] * n
        for p in range(n):
            hist[(edges & inc[p]).bit_count()] += 1
        v3 = hist[3] if n > 3 else 0
        v4 = hist[4] if n > 4 else 0
        records.append(TriangulationRecord(edges=edges, v3=v3, v4=v4, histogram=tuple(hist)))
    ws.triangulations = TriangulationStats(count=len(records), records=tuple(records))
    return ws.triangulations
