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
  graphs.  They fold over one walk of the component graph on one fixed
  segment order.  One splitter, ``_Workspace._split``, cuts a mask into the
  connected components of the conflict graph, and stops once every segment
  is reached.  Components multiply; a lone segment is a factor 2, and any
  other branches on its first segment in the order, without it and with it.
  ``_Workspace._walk`` visits each component that the branches reach once,
  children first, on an explicit stack, so nothing here recurses.  A fixed
  order makes the leftover components of different branches the same
  masks, so the branches share them.  The walk's masks are over the
  segments in that order, and their crossing rows come from one crossing
  pass over the reordered segments.  The order depends on the input.
  When more than half of the points are hull vertices, the segments
  go by a sweep around one hull vertex: by the sweep position of the
  earlier endpoint, then of the later one, farthest first, from geometry
  alone.  The segments at one point (a star) never cross, and a chord
  between hull vertices separates, so the branches through a star leave
  the polygon minus one vertex, a leftover that recurs.  convex_chain(20)
  ends with 969 components, where descending crossing count leaves 7,104
  and a pivot chosen afresh in each component 50,734.  Every other set, a
  triangular hull included, keeps descending crossing count: on
  triangular_hull_random(16, seed=1) the sweep would leave 7,705
  components, not 1,803.  Counting runs serially and keeps each
  component's count in the workspace's memo.  Degree statistics and their
  pg come from a second fold over the same walk, which fills no count
  memo.  For a component C it keeps, for each point p, p's degree
  polynomial over C, sum_d c_d x^d with c_d the independent sets of C that
  hold d segments at p, until the last branch that uses C.  A point that
  touches no segment of C takes the plain count of C, and one such extra
  point carries pg out of the pass; components multiply point by point; a
  lone segment contributes (1 + x) at its endpoints and 2 elsewhere; and
  the branch on a segment (a, b) adds x times its "with" branch at a and
  b.  Each polynomial is packed into one integer at x = 2^(m+1), whose
  digits are p's degree row.

All aggregates are exact big integers / rationals, so results are
bit-identical across runs.  Nothing here caps the point count: the CLI
refuses an input above its cap once, when it reads it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Container, Iterator, NamedTuple

from .crossings import build_crossing_sets, structures
from .geometry import PointSet, convex_hull

if TYPE_CHECKING:
    from fractions import Fraction

_Split = tuple[list[int], int]  # a mask's components of two or more segments, and its lone ones


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
    """Per-point-set enumeration state: conflict masks by segment index and
    in the counting kernel's order, the count memo, and the degree vector
    and the triangulations, each computed on first read and kept."""

    def __init__(self, ps: PointSet):
        self.ps = ps
        self.table, crossings = structures(ps)
        self.cross = crossings.cross
        self.m = self.table.m
        self.full = self.table.full_mask
        self.digit_bits = self.m + 1
        # The counting kernel's segment order (see _count): ends[r] is the
        # segment at place r, and rcross[r] its crossings, bit s for ends[s].
        order = sorted(range(self.m), key=self._order_key())
        self.ends = tuple(self.table.segments[k] for k in order)
        self.rcross = build_crossing_sets(ps, self.ends).cross
        self.root = self._split(self.full)
        self.memo: dict[int, int] = {}

    def _order_key(self) -> Callable[[int], object]:
        """The sort key of the kernel's segment order (see :meth:`_count`):
        descending crossing count, unless more than half of the points are
        hull vertices.  Then a segment goes by the sweep positions of its
        endpoints around the hull vertex v, the earlier one first, then the
        later one, farthest first.  A point a != v sits at the number of
        points left of a -> v, distinct for every a since all lie in the
        hull angle at v; v comes first."""
        ps, cross = self.ps, self.cross
        hull = convex_hull(ps) if ps.n >= 3 else ()
        if 2 * len(hull) <= ps.n:
            return lambda k: -cross[k].bit_count()
        v = hull[0]
        sweep = [-1 if a == v else ps.ccw[a][v].bit_count() for a in range(ps.n)]
        spans = [sorted(sweep[a] for a in segment) for segment in self.table.segments]
        return lambda k: (spans[k][0], -spans[k][1])

    # -- memoized independent-set counting on a fixed segment order ---------

    def _split(self, avail: int) -> _Split:
        """`(comps, lone)`: the connected components of the crossing graph on
        `avail`, a mask over ``self.ends``, that hold two or more segments,
        by ascending lowest bit, and the mask of its lone segments.  The
        search grows into `left`, the part of `avail` not reached yet, one
        frontier segment at a time, and stops as soon as `left` is empty."""
        rcross = self.rcross
        comps = []
        lone = 0
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
            if avail ^ left == bit:
                lone |= bit
            else:
                comps.append(avail ^ left)
            avail = left
        return comps, lone

    def _walk(self, done: Container[int]) -> Iterator[tuple[int, _Split, _Split]]:
        """Yield `(comp, without, with_it)` once for each component reachable
        from ``self.root`` that is not in `done`, children first; the caller
        adds each one it receives to `done`.  The branch on a component's
        lowest bit leaves `without`, the split of comp minus that bit, and
        `with_it`, the split of that minus the bit's crossings.

        An explicit stack holds the components still to split and, below
        their children, the split ones, as tuples, so the walk never recurses.
        A component pushed twice is split once: whichever copy is popped
        first is split and yielded before the other one is popped, and is in
        `done` by then.
        """
        rcross, split = self.rcross, self._split
        stack: list = list(self.root[0])
        while stack:
            comp = stack.pop()
            if type(comp) is tuple:
                yield comp
            elif comp not in done:
                bit = comp & -comp
                rest = comp ^ bit
                without = split(rest)
                with_it = split(rest & ~rcross[bit.bit_length() - 1])
                stack.append((comp, without, with_it))
                stack += without[0] + with_it[0]

    def _count(self) -> int:
        """Number of independent sets of ``self.full``: the plane graphs.

        Bit r stands for segment ``ends[r]``, with the segments sorted by
        :meth:`_order_key`, ties by index.  On a set with more than half of
        its points on the hull, the lowest bit of a mask is its segment whose
        earlier endpoint comes first in a sweep around a hull vertex, the
        one with the farthest later endpoint among those; elsewhere it is
        the segment with the most crossings.  The components of a split
        multiply, and a lone segment is a factor 2.  Each component of
        :meth:`_walk` counts its branches on its lowest bit, without it and
        with it, into the shared ``self.memo``: 969 of them on
        convex_chain(20).
        """
        memo = self.memo

        def product(split: _Split) -> int:
            return prod(map(memo.__getitem__, split[0]), start=1 << split[1].bit_count())

        try:
            for comp, without, with_it in self._walk(memo):
                memo[comp] = product(without) + product(with_it)
        except MemoryError:
            memo.clear()  # else the cached workspace keeps the memory that ran out
            raise
        return product(self.root)

    # -- every point's degree polynomial from one pass -----------------------

    def degree_polynomials(self) -> list[int]:
        """Entry p, for each of the n points, is point p's packed degree
        polynomial sum_d c_d x^d, where c_d counts the plane graphs in which
        p has degree d.  Entry n stands for a point that no segment touches:
        its polynomial is the plain count, pg.

        The polynomial is evaluated at x = 2^B with B = ``self.digit_bits`` =
        m + 1.  Every coefficient counts edge sets, so it is at most 2^m < 2^B,
        and each c_d is the B-bit digit d of the result.  A digit that carried
        would break ``sum(row) == pg`` in :attr:`degrees`.

        The components of :meth:`_walk` are collected first, with the number
        of splits that hold each, so ``self.memo`` keeps plain counts only,
        and a component's polynomials are dropped at their last use.
        Components multiply entry by entry; a point that touches no segment
        of a component takes its plain count.  The branch on the lowest bit
        e = (a, b) adds its "with" branch to its "without" branch, shifted by
        one digit at a and b.  A lone segment contributes (1 + x) at its two
        endpoints and 2 everywhere else.
        """
        ends = self.ends
        uses: dict[int, int] = {}
        nodes = []
        for node in self._walk(uses):
            uses[node[0]] = 0
            nodes.append(node)
        for comps, _ in [self.root] + [split for _, *splits in nodes for split in splits]:
            for comp in comps:
                uses[comp] += 1
        bits = self.digit_bits
        x1 = (1 << bits) + 1
        polys: dict[int, list[int]] = {}

        def product(split: _Split) -> list[int]:
            comps, lone = split
            result = None
            for comp in comps:
                uses[comp] -= 1
                factor = polys[comp] if uses[comp] else polys.pop(comp)
                result = factor if result is None else list(map(mul, result, factor))
            if result is None:
                result = [1] * (self.table.n + 1)
            if lone:
                result = [u << lone.bit_count() for u in result]
                while lone:
                    bit = lone & -lone
                    lone ^= bit
                    for p in ends[bit.bit_length() - 1]:
                        result[p] = (result[p] >> 1) * x1
            return result

        for comp, without, with_it in nodes:
            out, into = product(without), product(with_it)
            poly = list(map(add, out, into))
            for p in ends[(comp & -comp).bit_length() - 1]:
                poly[p] = out[p] + (into[p] << bits)
            polys[comp] = poly
        return product(self.root)

    @cached_property
    def degrees(self) -> DegreeExpectation:
        """The degree statistics of :func:`expected_degree_vector`: each
        point's row is the digits of its packed polynomial, and each row
        must sum to pg, the last entry; a row that does not raises and
        caches nothing."""
        n = self.ps.n
        bits = self.digit_bits
        digit = (1 << bits) - 1
        *polys, pg = self.degree_polynomials()
        rows = [tuple(poly >> (d * bits) & digit for d in range(n)) for poly in polys]
        for row in rows:
            if sum(row) != pg:
                raise SelfCheckError("per-point degree counts must partition the census")
        ving = tuple(sum(row[i] for row in rows) for i in range(n))
        from fractions import Fraction  # here alone: `count` builds no Fraction

        vhat = tuple(Fraction(v, pg) for v in ving)
        return DegreeExpectation(pg=pg, ving_counts=ving, vhat=vhat, per_point=tuple(rows))

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

    # -- the maximal plane graphs --------------------------------------------

    @cached_property
    def triangulations(self) -> TriangulationStats:
        """The triangulations of :func:`enumerate_triangulations`, with their
        degree data.

        A triangulation is a maximal independent set of the crossing graph, so
        the walk is the pivoted Bron-Kerbosch search (Tomita-Tanaka-Takahashi)
        over an explicit stack of ``(chosen, cand, excl)``: `cand` holds the
        segments that may still be added, `excl` the skipped ones that no
        chosen segment crosses yet.  A node branches on the segments of `cand`
        that lie in the smallest set ``cand & (cross[u] | u)`` over u in
        ``cand | excl``, and a branch moves its segment from `cand` to `excl`
        for its later siblings.  A node with nothing left in `cand` is a
        triangulation iff `excl` is empty.  The records are sorted into the
        order of :func:`enumerate_plane_graphs` reversed: descending in the
        bit-reversed edge mask.
        """
        n, m = self.ps.n, self.m
        cross = self.cross
        inc = self.table.incident_masks

        found: list[int] = []
        stack = [(0, self.full, 0)]
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
        return TriangulationStats(count=len(records), records=tuple(records))


workspace = _workspace = lru_cache(maxsize=64)(_Workspace)


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
    return workspace(ps)._count()


def expected_degree_vector(
    ps: PointSet,
    max_n: int | None = None,
    workers: int = 1,
) -> DegreeExpectation:
    """Exact v-hat vector: expected number of degree-i vertices for each i.

    One serial pass, :meth:`_Workspace.degree_polynomials`, yields every
    point's packed polynomial, whose digits are the point's degree row, and
    pg as its last entry.  `workers` must be at least 1 and starts nothing:
    the rows come from that pass for any value.  `max_n`, if given, refuses
    a set of more points with :class:`EnumerationLimitError`.  Both stay
    only because ``perfbench/tracer.py`` passes them.  The result is kept on
    the point set's workspace (:attr:`_Workspace.degrees`), so a second call
    returns it without a pass.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    if max_n is not None and ps.n > max_n:
        raise EnumerationLimitError(f"n={ps.n} exceeds the cap of {max_n}")
    return workspace(ps).degrees


def is_triangulation(ps: PointSet, edges: int) -> bool:
    """Maximality test: no segment can be added without a crossing."""
    ws = workspace(ps)
    return not (ws.full & ~edges & ~ws.blocked(edges))


def enumerate_triangulations(ps: PointSet) -> TriangulationStats:
    """Visit exactly the maximal plane graphs; record per-graph degree data
    (see :attr:`_Workspace.triangulations`).  The result is kept on the
    point set's workspace, so a second call returns it without a walk."""
    return workspace(ps).triangulations
