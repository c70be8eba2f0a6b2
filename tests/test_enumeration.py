import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegraphs import (
    EnumerationLimitError,
    PointSet,
    convex_hull,
    count_plane_graphs,
    enumerate_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    is_triangulation,
)
from planegraphs import enumeration
from planegraphs.crossings import structures

from conftest import (
    brute_degree_rows,
    catalan,
    convex_count_recurrence,
    coords,
    count_plane_graphs_bruteforce,
    frames_below,
    gp_violations,
)


def collect(ps):
    seen = []
    enumerate_plane_graphs(ps, seen.append)
    return seen


# Convex chains with points strictly inside their hull: 12 hull vertices of
# 16 points (a hull majority) and 8 of 16 (exactly half).
_CHAIN12 = [(3 * k, -3 * k * k) for k in range(1, 13)]
_CHAIN12_INTERIOR = [(29, -412), (22, -386), (31, -302), (26, -381)]
_CHAIN8 = [(3 * k, -3 * k * k) for k in range(1, 9)]
_CHAIN8_INTERIOR = [
    (12, -89), (14, -57), (14, -73), (10, -170), (8, -70), (15, -92), (8, -34), (9, -58),
]


class TestEnumerate:
    def test_triangle_has_eight_graphs(self, triangle):
        seen = collect(triangle)
        assert len(seen) == 8
        assert seen[0] == 0  # the empty graph is visited
        assert len(set(seen)) == 8

    def test_single_point(self):
        ps = PointSet.from_coords([(0, 0)])
        assert enumerate_plane_graphs(ps, lambda g: None) == 1

    def test_convex4_has_48(self, convex4):
        assert len(collect(convex4)) == 48

    def test_lexicographic_order(self, triangle):
        # exclude-before-include on segment 0, then 1, then 2
        seen = collect(triangle)
        keys = [tuple(e >> k & 1 for k in range(3)) for e in seen]
        assert keys == sorted(keys)

    def test_deterministic(self, convex4):
        assert collect(convex4) == collect(convex4)

    def test_cap_refusal_mentions_estimate(self):
        ps = gen_convex_chain(6)
        with pytest.raises(EnumerationLimitError, match="exceeds the cap"):
            enumerate_plane_graphs(ps, lambda g: None, max_n=5)


def brute_independent_sets(ws, avail):
    """Every crossing-free subset of `avail` with its blocked mask, from a
    2^m scan, in the walk's order: sorted by the key (bit 0, bit 1, ...)."""
    cross, m = ws.cross, ws.m
    found = []
    for edges in range(1 << m):
        if edges & ~avail:
            continue
        if any(edges >> k & 1 and cross[k] & edges for k in range(m)):
            continue
        found.append(edges)
    found.sort(key=lambda edges: tuple(edges >> k & 1 for k in range(m)))
    return [(edges, ws.blocked(edges)) for edges in found]


class TestIndependentSets:
    @pytest.mark.parametrize(
        "ps",
        [gen_cap_with_apex(6), gen_triangular_hull_random(6, seed=1),
         gen_triangular_hull_random(6, seed=2)],
        ids=["cap_apex6", "random6_seed1", "random6_seed2"],
    )
    def test_order_and_masks_match_a_brute_scan(self, ps):
        ws = enumeration.workspace(ps)
        universes = [ws.full] + [ws.full & ~inc for inc in ws.table.incident_masks]
        for avail in universes:
            assert list(ws.independent_sets(avail)) == brute_independent_sets(ws, avail)

    def test_empty_universe_yields_the_empty_graph_once(self, convex4):
        assert list(enumeration.workspace(convex4).independent_sets(0)) == [(0, 0)]

    def test_walk_does_not_recurse(self):
        # cap_with_apex(6) has 15 segments: a walk with one frame per
        # segment would pass a limit 3 frames above the test.
        ws = enumeration.workspace(gen_cap_with_apex(6))
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(frames_below() + 3)
            graphs = sum(1 for _ in ws.independent_sets(ws.full))
        finally:
            sys.setrecursionlimit(limit)
        assert ws.m == 15
        assert graphs == 11264


class TestCount:
    def test_triangle(self, triangle):
        assert count_plane_graphs(triangle) == 8

    def test_convex5_equals_bruteforce(self):
        ps = gen_convex_chain(5)
        assert count_plane_graphs(ps) == count_plane_graphs_bruteforce(ps)

    def test_oracle_equivalence_small_sets(self, small_sets):
        for ps in small_sets:
            assert count_plane_graphs(ps) == count_plane_graphs_bruteforce(ps)

    def test_oracle_equivalence_21_segments(self):
        ps = gen_convex_chain(7)  # 21 segments
        assert count_plane_graphs(ps) == count_plane_graphs_bruteforce(ps)

    def test_convex_recurrence_oracle(self):
        oracle = convex_count_recurrence(22)
        for m in range(3, 23):
            assert count_plane_graphs(gen_convex_chain(m)) == oracle[m]

    def test_library_takes_no_cap(self):
        # the point-count cap belongs to the CLI: 13 points count as any other
        assert count_plane_graphs(gen_convex_chain(13)) == convex_count_recurrence(13)[13]

    def test_convex_memo_stays_small(self):
        # On a fixed segment order the leftover components of convex position
        # repeat, so the memo hits: 969 entries on convex_chain(20) on the
        # sweep order, 7,104 by descending crossing count, and 50,734 with a
        # pivot chosen afresh in each component.
        ps = gen_convex_chain(20)
        enumeration._workspace.cache_clear()
        count_plane_graphs(ps)
        assert len(enumeration.workspace(ps).memo) <= 10_000

    @pytest.mark.parametrize(
        "make, entries",
        [
            (lambda: gen_convex_chain(20), 969),
            (lambda: gen_convex_chain(21), 1_140),
            (lambda: gen_convex_chain(30), 3_654),
            (lambda: gen_triangular_hull_random(16, seed=1), 1_803),
            (lambda: coords(*_CHAIN12, *_CHAIN12_INTERIOR), 483),
            (lambda: coords(*_CHAIN8, *_CHAIN8_INTERIOR), 2_407),
        ],
        ids=["convex20", "convex21", "convex30", "random16", "hull12of16", "hull8of16"],
    )
    def test_memo_size_pinned(self, make, entries):
        # The component split decides nothing but speed: the branching, and
        # with it every memo key, stays the same.  A set with more than half
        # of its points on the hull counts on the sweep order (convex20,
        # convex21 and convex30; hull12of16 with 4 interior points, 1,619 by
        # crossing count); random16 (a triangle hull) and hull8of16 (exactly
        # half) keep the descending-crossing order.
        ps = make()
        enumeration._workspace.cache_clear()
        count_plane_graphs(ps)
        assert len(enumeration.workspace(ps).memo) == entries

    def test_hull_fixtures_have_the_hulls_they_claim(self):
        hulls = [convex_hull(coords(*_CHAIN12, *_CHAIN12_INTERIOR)),
                 convex_hull(coords(*_CHAIN8, *_CHAIN8_INTERIOR))]
        assert [len(hull) for hull in hulls] == [12, 8]

    def test_convex_chain_past_the_old_recursion_limit(self):
        # Descending crossing count, when the kernel still recursed, went
        # about n^2 / 2 deep on convex position and raised RecursionError
        # here.  The walk keeps its own stack, so chains are bounded by
        # time alone.
        assert count_plane_graphs(gen_convex_chain(47)) == convex_count_recurrence(47)[47]

    @pytest.mark.parametrize(
        "make", [lambda: gen_convex_chain(30), lambda: gen_triangular_hull_random(14, seed=1)],
        ids=["convex30", "random14"],
    )
    def test_kernel_does_not_recurse(self, make):
        # The recursive kernel needed more than 52 frames above the test on
        # convex30, and 35 (count) and 45 (degrees) on random14; the walk
        # keeps its own stack and needs 4, whatever the input.
        ps = make()
        enumeration._workspace.cache_clear()
        enumeration.workspace(ps)
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(frames_below() + 7)
            pg = count_plane_graphs(ps)
            dv = expected_degree_vector(ps)
        finally:
            sys.setrecursionlimit(limit)
        assert dv.pg == pg

    def test_cap_apex_product(self):
        assert count_plane_graphs(gen_cap_with_apex(5)) == 16 * count_plane_graphs(
            gen_convex_chain(4)
        )

    def test_bruteforce_segment_limit(self):
        with pytest.raises(EnumerationLimitError):
            count_plane_graphs_bruteforce(gen_convex_chain(8))

    def test_monotone_in_interior_points(self):
        base = coords((0, 0), (12, 0), (0, 12), (3, 3))
        bigger = coords((0, 0), (12, 0), (0, 12), (3, 3), (5, 2))
        assert count_plane_graphs(bigger) > count_plane_graphs(base)


class TestDegreeVector:
    def test_triangle(self, triangle):
        dv = expected_degree_vector(triangle)
        assert dv.pg == 8
        assert dv.vhat == (Fraction(3, 4), Fraction(3, 2), Fraction(3, 4))

    def test_single_point(self):
        ps = PointSet.from_coords([(0, 0)])
        dv = expected_degree_vector(ps)
        assert dv.pg == 1 and dv.vhat == (Fraction(1),)
        with pytest.raises(ValueError, match="worker count"):
            expected_degree_vector(ps, workers=0)

    def test_sum_identities(self, small_sets):
        for ps in small_sets:
            dv = expected_degree_vector(ps)
            assert sum(dv.vhat) == ps.n
            assert sum(dv.ving_counts) == ps.n * dv.pg
            edges = []
            enumerate_plane_graphs(ps, lambda g: edges.append(g.bit_count()))
            assert sum(i * v for i, v in enumerate(dv.ving_counts)) == 2 * sum(edges)

    def test_matches_bruteforce(self, small_sets):
        for ps in small_sets:
            dv = expected_degree_vector(ps)
            rows = brute_degree_rows(ps)
            assert dv.pg == sum(rows[0])  # each point has one degree in each graph
            assert list(dv.ving_counts) == [sum(column) for column in zip(*rows)]

    def test_rows_match_bruteforce(self, small_sets):
        for ps in small_sets:
            assert expected_degree_vector(ps).per_point == brute_degree_rows(ps)

    def test_rows_match_bruteforce_on_the_sweep_order(self):
        # 5 hull vertices and 2 interior points: the kernel sweeps around
        # the hull, and the degree pass reads the same ranks
        ps = coords((0, 0), (10, -1), (14, 8), (6, 14), (-3, 7), (5, 4), (7, 8))
        assert len(convex_hull(ps)) == 5
        assert expected_degree_vector(ps).per_point == brute_degree_rows(ps)

    def test_rows_on_tiny_sets(self, triangle):
        # the triangle has pg = 2^m, the largest a count can be
        cases = [
            (coords(), 1, ()),
            (coords((0, 0)), 1, ((1,),)),
            (coords((0, 0), (5, 1)), 2, ((1, 1), (1, 1))),
            (triangle, 8, ((2, 4, 2),) * 3),
        ]
        for ps, pg, rows in cases:
            dv = expected_degree_vector(ps)
            assert (dv.pg, dv.per_point) == (pg, rows)
            assert rows == brute_degree_rows(ps)

    def test_workers_agree(self):
        ps = gen_cap_with_apex(6)
        pooled = expected_degree_vector(ps, workers=2)
        enumeration._workspace.cache_clear()  # count again, not from the cache
        assert pooled == expected_degree_vector(ps)

    def test_degree_pass_makes_no_count(self, monkeypatch):
        # pg comes out of the degree pass itself: no plain count runs
        ps = gen_cap_with_apex(6)
        calls = []
        count = enumeration._Workspace._count
        monkeypatch.setattr(
            enumeration._Workspace, "_count", lambda ws: calls.append(ws) or count(ws)
        )
        enumeration._workspace.cache_clear()
        assert expected_degree_vector(ps).pg == count_plane_graphs_bruteforce(ps)
        assert calls == []
        assert enumeration.workspace(ps).memo == {}

    def test_degree_pass_frees_each_component_after_its_last_use(self):
        # random 16: 3.3 MiB at the peak when every component's polynomials
        # were kept to the end, 1.4 MiB when each is dropped at its last use
        ps = gen_triangular_hull_random(16, seed=1)
        enumeration._workspace.cache_clear()
        enumeration.workspace(ps)
        tracemalloc.start()
        try:
            expected_degree_vector(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_a_flipped_digit_breaks_the_partition(self, monkeypatch):
        # one packed row off by one in one digit no longer sums to pg
        ps = gen_cap_with_apex(6)
        ws = enumeration.workspace(ps)
        polys = ws.degree_polynomials()
        polys[2] ^= 1 << (3 * ws.digit_bits)
        monkeypatch.setattr(enumeration._Workspace, "degree_polynomials", lambda ws: polys)
        enumeration._workspace.cache_clear()
        with pytest.raises(enumeration.SelfCheckError, match="partition the census"):
            expected_degree_vector(ps)


def forced_count(ws, forced: list[int]) -> int:
    """The plane graphs that hold the crossing-free segments at kernel places
    `forced`, from the count fold: the count of the kernel mask minus those
    segments and their crossers.  The memo is keyed by component masks, so
    one workspace serves every universe."""
    avail = ws.full
    for r in forced:
        avail &= ~(1 << r) & ~ws.rcross[r]
    ws.root = ws._split(avail)
    return ws._count()


@pytest.mark.parametrize(
    "make",
    [lambda: gen_triangular_hull_random(14, seed=1), lambda: gen_convex_chain(12),
     lambda: gen_cap_with_apex(12)],
    ids=["random14", "convex12", "cap_apex12"],
)
def test_degree_rows_meet_their_moment_identities(make):
    # Two segments at p never cross, so the first two factorial moments of
    # p's degree row count the graphs that hold a given segment at p, and a
    # given pair of them: sum_d d row[d] = sum_{e at p} pg(e forced) and
    # sum_d C(d, 2) row[d] = sum_{e < f at p} pg(e, f forced).  Brute force
    # checks the rows only up to n = 9.
    ps = make()
    rows = expected_degree_vector(ps).per_point
    ws = enumeration._Workspace(ps)  # its own: the root is replaced per query
    for p, row in enumerate(rows):
        star = [r for r, segment in enumerate(ws.ends) if p in segment]
        singles = sum(forced_count(ws, [e]) for e in star)
        pairs = sum(forced_count(ws, [e, f]) for k, e in enumerate(star) for f in star[k + 1:])
        assert sum(d * c for d, c in enumerate(row)) == singles, p
        assert sum(d * (d - 1) // 2 * c for d, c in enumerate(row)) == pairs, p


@st.composite
def sets_and_masks(draw):
    """A workspace of up to 10 points in general position (each drawn point
    kept iff it is collinear with no pair kept before it) and a random
    sub-mask of its segments."""
    kept = []
    for c in draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                           min_size=2, max_size=10, unique=True)):
        if not gp_violations([*kept, c]):
            kept.append(c)
    ws = enumeration._Workspace(PointSet.from_coords(kept))
    return ws, draw(st.integers(0, ws.full))


@given(sets_and_masks())
@settings(max_examples=80, deadline=None)
def test_components_match_a_plain_bfs(case):
    ws, avail = case
    comps, lone = ws._split(avail)
    # lone: exactly the segments of avail that cross nothing in avail
    assert lone == sum(1 << r for r in range(ws.m) if avail >> r & 1 and not ws.rcross[r] & avail)
    union = lone
    for comp in comps:
        assert comp & union == 0  # disjoint
        union |= comp
        bit = comp & -comp
        assert comp != bit
        # connected: a BFS over the crossings from `bit` reaches all of comp
        members = {r for r in range(ws.m) if comp >> r & 1}
        start = bit.bit_length() - 1
        seen, queue = {start}, [start]
        while queue:
            r = queue.pop()
            for s in members - seen:
                if ws.rcross[r] >> s & 1:
                    seen.add(s)
                    queue.append(s)
        assert seen == members
        # closed: no crossing joins it to another component
        for r in members:
            assert ws.rcross[r] & avail & ~comp == 0
    assert union == avail
    bits = [comp & -comp for comp in comps]
    assert bits == sorted(bits)


def assert_rcross_is_cross_in_kernel_order(ws):
    """``ws.ends`` is the segment table reordered, and bit s of
    ``ws.rcross[r]`` is set exactly when the index-space row of ``ends[r]``
    holds the bit of ``ends[s]``."""
    index = {segment: k for k, segment in enumerate(ws.table.segments)}
    assert sorted(ws.ends) == list(ws.table.segments)
    for r, row in enumerate(ws.rcross):
        cross = ws.cross[index[ws.ends[r]]]
        for s, segment in enumerate(ws.ends):
            assert row >> s & 1 == cross >> index[segment] & 1, (r, s)


@pytest.mark.parametrize(
    "make",
    [lambda: gen_convex_chain(12), lambda: gen_cap_with_apex(8),
     lambda: coords(*_CHAIN12, *_CHAIN12_INTERIOR)],
    ids=["convex12", "cap_apex8", "hull12of16"],
)
def test_kernel_rows_on_both_orders(make):
    # convex12 and hull12of16 sweep around the hull; cap_apex8 (a triangle
    # hull) keeps descending crossing count
    assert_rcross_is_cross_in_kernel_order(enumeration._Workspace(make()))


@st.composite
def relabelled_sets(draw):
    """A general-position set of 6-8 points and the same set relabelled."""
    pts = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=6,
            max_size=8,
            unique=True,
        ).filter(lambda c: not gp_violations(c))
    )
    perm = draw(st.permutations(range(len(pts))))
    return PointSet.from_coords(pts), PointSet.from_coords([pts[i] for i in perm]), perm


@given(sets_and_masks(), relabelled_sets())
@settings(max_examples=40, deadline=None)
def test_kernel_rows_are_the_crossings_in_kernel_order(case, relabelled_case):
    assert_rcross_is_cross_in_kernel_order(case[0])
    for ps in relabelled_case[:2]:
        assert_rcross_is_cross_in_kernel_order(enumeration._Workspace(ps))


@given(relabelled_sets())
@settings(max_examples=25, deadline=None)
def test_counts_do_not_depend_on_labels(case):
    # Relabelling the points reorders the segments, and with them the ties of
    # the counting kernel's order; no count may change.
    ps, relabelled, perm = case
    dv, dv_relabelled = expected_degree_vector(ps), expected_degree_vector(relabelled)
    assert dv_relabelled.pg == dv.pg
    assert dv_relabelled.per_point == tuple(dv.per_point[i] for i in perm)


class TestTriangulations:
    def test_triangle_full_graph(self, triangle):
        assert is_triangulation(triangle, 0b111)
        assert not is_triangulation(triangle, 0b011)

    def test_convex4_with_diagonal(self, convex4):
        table, _ = structures(convex4)
        edges = 0
        for seg in [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]:
            edges |= 1 << table.segments.index(seg)
        assert is_triangulation(convex4, edges)
        assert edges.bit_count() == 5 == 3 * 4 - 3 - 4

    def test_maximality_equals_edge_count(self, small_sets):
        for ps in small_sets:
            h = len(convex_hull(ps))
            target = 3 * ps.n - 3 - h

            def check(g):
                assert is_triangulation(ps, g) == (g.bit_count() == target)

            enumerate_plane_graphs(ps, check)

    def test_catalan_counts(self):
        for m in range(4, 8):
            stats = enumerate_triangulations(gen_convex_chain(m))
            assert stats.count == catalan(m - 2)

    def test_triangle_single_triangulation(self, triangle):
        assert enumerate_triangulations(triangle).count == 1

    def test_matches_filter_oracle(self, small_sets):
        for ps in small_sets:
            expected = set()
            enumerate_plane_graphs(
                ps, lambda g: expected.add(g) if is_triangulation(ps, g) else None
            )
            got = {r.edges for r in enumerate_triangulations(ps).records}
            assert got == expected

    def test_report_order_is_the_scan_order_reversed(self, small_sets):
        for ps in [*small_sets, gen_convex_chain(7), gen_cap_with_apex(7)]:
            scanned = []
            enumerate_plane_graphs(
                ps, lambda g: scanned.append(g) if is_triangulation(ps, g) else None
            )
            records = enumerate_triangulations(ps).records
            assert [r.edges for r in records] == scanned[::-1]

    def test_dead_ends_are_not_records(self):
        # The walk meets skipped segments that nothing chosen crosses (dead
        # ends) only on larger sets: 40 times on this one.
        ps = gen_triangular_hull_random(12, seed=1)
        stats = enumerate_triangulations(ps)
        assert stats.count == 15632
        assert all(is_triangulation(ps, r.edges) for r in stats.records)

    def test_euler_face_count(self, small_sets):
        # |E| = 3n - 3 - h, hence 2n - 2 - h bounded (triangular) faces
        for ps in small_sets:
            h = len(convex_hull(ps))
            for rec in enumerate_triangulations(ps).records:
                assert rec.edges.bit_count() == 3 * ps.n - 3 - h
                assert sum(rec.histogram) == ps.n

    def test_every_plane_graph_lies_in_a_walked_triangulation(self, small_sets):
        for ps in small_sets:
            records = enumerate_triangulations(ps).records
            assert all(is_triangulation(ps, r.edges) for r in records)

            def check(g):
                assert any(r.edges & g == g for r in records)

            enumerate_plane_graphs(ps, check)

    def test_records_histograms(self, convex4):
        stats = enumerate_triangulations(convex4)
        assert stats.count == 2
        for rec in stats.records:
            assert rec.v3 == rec.histogram[3]
            assert rec.v4 == 0  # degree 4 needs n >= 5
        stats5 = enumerate_triangulations(gen_convex_chain(5))
        for rec in stats5.records:
            assert rec.v3 == rec.histogram[3]
            assert rec.v4 == rec.histogram[4]



class TestWorkspaceCache:
    def test_second_call_reads_the_cache(self, monkeypatch):
        # one degree pass and one triangulation walk per point set
        ps = gen_cap_with_apex(6)
        passes, walks = [], []
        degree_polynomials = enumeration._Workspace.degree_polynomials
        stats = enumeration.TriangulationStats
        monkeypatch.setattr(
            enumeration._Workspace,
            "degree_polynomials",
            lambda ws: passes.append(ws) or degree_polynomials(ws),
        )
        monkeypatch.setattr(
            enumeration, "TriangulationStats", lambda **kw: walks.append(kw) or stats(**kw)
        )
        enumeration._workspace.cache_clear()
        degrees = expected_degree_vector(ps)
        assert expected_degree_vector(ps) is degrees
        triangulations = enumerate_triangulations(ps)
        assert enumerate_triangulations(ps) is triangulations
        assert len(passes) == len(walks) == 1

    def test_a_failed_self_check_caches_nothing(self, monkeypatch):
        ps = gen_cap_with_apex(6)
        ws = enumeration.workspace(ps)
        polys = ws.degree_polynomials()
        polys[2] ^= 1 << (3 * ws.digit_bits)
        passes = []
        monkeypatch.setattr(
            enumeration._Workspace, "degree_polynomials", lambda ws: passes.append(ws) or polys
        )
        enumeration._workspace.cache_clear()
        for _ in range(2):
            with pytest.raises(enumeration.SelfCheckError, match="partition the census"):
                expected_degree_vector(ps)
        assert len(passes) == 2
        assert "degrees" not in vars(enumeration.workspace(ps))
