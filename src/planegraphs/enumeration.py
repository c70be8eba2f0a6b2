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
  graphs.  They use a memoized counting routine on one fixed segment order.
  One splitter, ``_Workspace._components``, cuts each call's segments into
  the connected components of the conflict graph, and stops once every
  segment is reached.  Components multiply; a lone segment is a factor 2,
  any other is memoized by its mask and branches on its first segment in
  the order.  A fixed order makes the leftover components of different
  branches the same masks, so the memo hits.  The order depends on the
  input.  When more than half of the points are hull vertices, the segments
  go by a sweep around one hull vertex, in the order of their earlier
  endpoint.  The segments at one point (a star) never cross, and a chord
  between hull vertices separates, so the branches through a star leave
  the polygon minus one vertex, a leftover that recurs.  convex_chain(20)
  ends with 1,305 entries, where descending crossing count leaves 7,104 and
  a pivot chosen afresh in each component 50,734, and the recursion runs
  about 2n deep instead of about n^2 / 2.  Every other set, a triangular
  hull included, keeps descending crossing count: on
  triangular_hull_random(16, seed=1) the sweep would leave 6,540 entries,
  not 1,803.  Counting runs serially.  Degree statistics come from one more
  pass of the same recursion, memoized by component for that call alone.
  For a component C it keeps, for each point p, p's degree polynomial over
  C, sum_d c_d x^d with c_d the independent sets of C that hold d segments
  at p.  A point that touches no segment of C takes the plain count of C;
  components multiply point by point; a lone segment contributes (1 + x) at
  its endpoints and 2 elsewhere; and the branch on a segment (a, b) adds x
  times its "with" branch at a and b.  Each polynomial is packed into one
  integer at x = 2^(m+1), whose digits are p's degree row.

All aggregates are exact big integers / rationals, so results are
bit-identical across runs.  Nothing here caps the point count: the CLI
refuses an input above its cap once, when it reads it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .crossings import structures
from .geometry import PointSet, convex_hull

if TYPE_CHECKING:
    from fractions import Fraction


class EnumerationLimitError(RuntimeError):
    """Refusal of a point set above a point-count cap."""


class SelfCheckError(RuntimeError):
    """A failed internal consistency check: a fault of the program, never a
    refuted claim."""


class DegreeExpectation(NamedTuple):
    """Exact degree statistics of the uniform random plane graph of a set."""

    pg: int                                    # |G(P)|
    ving_counts: tuple[int, ...]               # ving_counts[i] = sum_G v_i(G)
    vhat: tuple[Fraction, ...]                 # vhat[i] = ving_counts[i] / pg
    per_point: tuple[tuple[int, ...], ...]     # per_point[p][i] = #graphs with deg(p) = i


class TriangulationRecord(NamedTuple):
    edges: int
    v3: int
    v4: int
    histogram: tuple[int, ...]


class TriangulationStats(NamedTuple):
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
        # (see count_independent), and rcross is cross in rank space.
        order = sorted(range(self.m), key=self._order_key())
        self.rank = [0] * self.m
        for r, k in enumerate(order):
            self.rank[k] = r
        self.rcross = [self._ranked(self.cross[k]) for k in order]
        self.memo: dict[int, int] = {}
        self.degrees: DegreeExpectation | None = None
        self.triangulations: TriangulationStats | None = None

    def _order_key(self) -> Callable[[int], object]:
        """The sort key of the kernel's segment order (see
        :meth:`count_independent`): descending crossing count, unless more
        than half of the points are hull vertices; then first the sweep
        position of the segment's earlier endpoint around the hull vertex
        v.  A point a != v sits at the number of points left of a -> v,
        distinct for every a since all lie in the hull angle at v; v comes
        first."""
        ps, cross = self.ps, self.cross
        hull = convex_hull(ps) if ps.n >= 3 else ()
        if 2 * len(hull) <= ps.n:
            return lambda k: -cross[k].bit_count()
        v = hull[0]
        sweep = [-1 if a == v else ps.ccw[a][v].bit_count() for a in range(ps.n)]
        segments = self.table.segments
        return lambda k: (min(sweep[a] for a in segments[k]), -cross[k].bit_count())

    # -- memoized independent-set counting on a fixed segment order ---------

    def count_independent(self) -> int:
        """Number of plane graphs.

        The count runs in rank space: bit ``rank[k]`` stands for segment k,
        with the segments sorted by :meth:`_order_key`, ties by index.  On a
        set with more than half of its points on the hull, the lowest bit of
        a mask is its segment whose earlier endpoint comes first in a sweep
        around a hull vertex, the one with the most crossings among those;
        elsewhere it is the segment with the most crossings.
        :meth:`_count` splits the segments into connected components and
        branches on the lowest bit of each; the components go to the shared
        ``self.memo``, 1,305 of them on convex_chain(20) (7,104 by crossing
        count alone).
        """
        return self._count(self.full)

    def _ranked(self, mask: int) -> int:
        """`mask`, a set of segment indices, in rank space."""
        rank = self.rank
        out = 0
        while mask:
            lsb = mask & -mask
            out |= 1 << rank[lsb.bit_length() - 1]
            mask ^= lsb
        return out

    def _components(self, avail: int) -> Iterator[tuple[int, int]]:
        """Yield `(comp, bit)` for each connected component of the crossing
        graph on the rank-space mask `avail`, by ascending lowest bit `bit`.
        The search grows into `left`, the part of `avail` not reached yet, one
        frontier segment at a time, and stops as soon as `left` is empty."""
        rcross = self.rcross
        while avail:
            bit = avail & -avail
            left, frontier = avail ^ bit, bit
            while frontier and left:
                lsb = frontier & -frontier
                frontier ^= lsb
                grow = rcross[lsb.bit_length() - 1] & left
                if grow:
                    left ^= grow
                    frontier |= grow
            yield avail ^ left, bit
            avail = left

    def _count(self, avail: int) -> int:
        """The count of :meth:`count_independent` over the rank-space mask
        `avail`.  Its components, from :meth:`_components`, multiply.  A lone
        segment is a factor 2; any other component branches on its lowest
        bit, without it and with it (its crossings removed)."""
        rcross = self.rcross
        memo = self.memo
        result = 1
        single = 0
        for comp, bit in self._components(avail):
            if comp == bit:
                single += 1
                continue
            count = memo.get(comp)
            if count is None:
                rest = comp ^ bit
                with_it = self._count(rest & ~rcross[bit.bit_length() - 1])
                count = self._count(rest) + with_it
                memo[comp] = count
            result *= count
        return result << single

    # -- every point's degree polynomial from one memoized pass --------------

    def degree_polynomials(self) -> list[int]:
        """Entry p is point p's packed degree polynomial sum_d c_d x^d, where
        c_d counts the plane graphs in which p has degree d.

        The polynomial is evaluated at x = 2^B with B = ``self.digit_bits`` =
        m + 1.  Every coefficient counts edge sets, so it is at most 2^m < 2^B,
        and each c_d is the B-bit digit d of the result.  A digit that carried
        would break ``sum(row) == pg`` in :func:`expected_degree_vector`.

        :meth:`_polynomials` walks the recursion of :meth:`_count` once for all
        points, with a memo of this call alone, so ``self.memo`` keeps plain
        counts only.
        """
        ends = [(0, 0)] * self.m
        for k, r in enumerate(self.rank):
            ends[r] = self.table.segments[k]
        return self._polynomials(self.full, ends, {})

    def _polynomials(
        self, avail: int, ends: list[tuple[int, int]], memo: dict[int, list[int]]
    ) -> list[int]:
        """:meth:`degree_polynomials` over the rank-space mask `avail`, whose
        bit r is the segment with endpoints ``ends[r]``.

        Components, from :meth:`_components`, multiply entry by entry; a point
        that touches no segment of a component takes its plain count.  The
        branch on the lowest bit e = (a, b) adds its "with" branch to its
        "without" branch, shifted by one digit at a and b.  A lone segment
        contributes (1 + x) at its two endpoints and 2 everywhere else.
        """
        rcross = self.rcross
        result = None
        lone = []
        for comp, bit in self._components(avail):
            r = bit.bit_length() - 1
            if comp == bit:
                lone.append(r)
                continue
            polys = memo.get(comp)
            if polys is None:
                rest = comp ^ bit
                without = self._polynomials(rest, ends, memo)
                with_it = self._polynomials(rest & ~rcross[r], ends, memo)
                polys = list(map(add, without, with_it))
                for p in ends[r]:
                    polys[p] = without[p] + (with_it[p] << self.digit_bits)
                memo[comp] = polys
            result = polys if result is None else list(map(mul, result, polys))
        if result is None:
            result = [1] * self.table.n
        if lone:
            result = [u << len(lone) for u in result]
            x1 = (1 << self.digit_bits) + 1
            for r in lone:
                for p in ends[r]:
                    result[p] = (result[p] >> 1) * x1
        return result

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
# Public operations
# ---------------------------------------------------------------------------


def enumerate_plane_graphs(
    ps: PointSet,
    visitor: Callable[[int], None],
    max_n: int | None = None,
) -> int:
    """Invoke `visitor(edges)` once per plane graph of P (the empty graph included).

    Single-threaded, deterministic lexicographic order over the presence
    vector (segment 0 varies last).  Returns the visit count.  `max_n`, if
    given, refuses a set of more points with :class:`EnumerationLimitError`;
    only ``perfbench/tracer.py`` passes it.
    """
    if max_n is not None and ps.n > max_n:
        raise EnumerationLimitError(f"n={ps.n} exceeds the cap of {max_n}")
    ws = workspace(ps)
    count = 0
    for edges, _ in ws.independent_sets(ws.full):
        visitor(edges)
        count += 1
    return count


def count_plane_graphs(ps: PointSet) -> int:
    """pg(P) = number of plane graphs of P, exactly."""
    return workspace(ps).count_independent()


def expected_degree_vector(
    ps: PointSet,
    max_n: int | None = None,
    workers: int = 1,
) -> DegreeExpectation:
    """Exact v-hat vector: expected number of degree-i vertices for each i.

    Every point's degree row is read off the digits of its packed polynomial
    from one serial pass, :meth:`_Workspace.degree_polynomials`.  `workers`
    must be at least 1 and starts nothing: the rows come from that pass for
    any value.  `max_n`, if given, refuses a set of more points with
    :class:`EnumerationLimitError`.  Both stay only because
    ``perfbench/tracer.py`` passes them.  The result is kept on the point
    set's workspace, so a second call returns it without a count.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    if max_n is not None and ps.n > max_n:
        raise EnumerationLimitError(f"n={ps.n} exceeds the cap of {max_n}")
    ws = workspace(ps)
    if ws.degrees is not None:
        return ws.degrees
    n = ps.n
    bits = ws.digit_bits
    digit = (1 << bits) - 1
    polys = ws.degree_polynomials()
    rows = [tuple(poly >> (d * bits) & digit for d in range(n)) for poly in polys]
    pg = ws.count_independent()
    for row in rows:
        if sum(row) != pg:
            raise SelfCheckError("per-point degree counts must partition the census")
    ving = tuple(sum(row[i] for row in rows) for i in range(n))
    from fractions import Fraction  # here alone: `count` builds no Fraction

    vhat = tuple(Fraction(v, pg) for v in ving)
    ws.degrees = DegreeExpectation(pg=pg, ving_counts=ving, vhat=vhat, per_point=tuple(rows))
    return ws.degrees


def is_triangulation(ps: PointSet, edges: int) -> bool:
    """Maximality test: no segment can be added without a crossing."""
    ws = workspace(ps)
    return not (ws.full & ~edges & ~ws.blocked(edges))


def enumerate_triangulations(ps: PointSet) -> TriangulationStats:
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
