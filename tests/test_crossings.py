import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegraphs import (
    PointSet,
    build_crossing_sets,
    build_segment_table,
    convex_hull,
    gen_convex_chain,
    gen_triangular_hull_random,
    orientation,
)
from planegraphs.crossings import crossed, structures

from conftest import count_convex_quadruples, segments_cross_oracle, standard_small_sets


def hull_edge_mask(ps, table) -> int:
    """The segments joining consecutive vertices of `convex_hull(ps)`."""
    hull = convex_hull(ps)
    return sum(
        1 << table.segments.index((min(a, b), max(a, b)))
        for a, b in zip(hull, hull[1:] + hull[:1])
    )


def test_triangle_table(triangle):
    table = build_segment_table(triangle)
    assert table.m == 3
    assert table.segments == ((0, 1), (0, 2), (1, 2))
    assert hull_edge_mask(triangle, table) == 0b111
    cross = build_crossing_sets(triangle, table.segments)
    assert all(c == 0 for c in cross.cross)  # three edges, no two intersect


def test_four_points_six_segments(convex4):
    table = build_segment_table(convex4)
    assert table.m == 6
    assert table.segments == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_convex4_single_crossing_pair(convex4):
    _, crossings = structures(convex4)
    assert crossings.total_crossing_pairs == 1
    # the crossing pair is the two diagonals (0,2) x (1,3)
    table, _ = structures(convex4)
    k02, k13 = table.segments.index((0, 2)), table.segments.index((1, 3))
    assert crossings.cross[k02] == 1 << k13
    assert crossings.cross[k13] == 1 << k02


def test_convex5_counts():
    ps = gen_convex_chain(5)
    table, crossings = structures(ps)
    assert table.m == 10
    assert hull_edge_mask(ps, table).bit_count() == 5
    assert crossings.total_crossing_pairs == 5


def test_incidence_and_pair_index(small_sets):
    for ps in small_sets:
        table, _ = structures(ps)
        for k, (i, j) in enumerate(table.segments):
            assert table.segments.index((i, j)) == k
            assert table.incident_masks[i] >> k & 1
            assert table.incident_masks[j] >> k & 1
        for p in range(ps.n):
            assert table.incident_masks[p].bit_count() == ps.n - 1


def test_crossing_sets_symmetric_irreflexive(small_sets):
    for ps in small_sets:
        table, crossings = structures(ps)
        for k in range(table.m):
            assert not crossings.cross[k] >> k & 1
            for l in range(table.m):
                assert (crossings.cross[k] >> l & 1) == (crossings.cross[l] >> k & 1)
                if crossings.cross[k] >> l & 1:
                    assert not set(table.segments[k]) & set(table.segments[l])


def test_hull_edges_cross_nothing(small_sets):
    for ps in small_sets:
        table, crossings = structures(ps)
        flags = hull_edge_mask(ps, table)
        while flags:
            lsb = flags & -flags
            assert crossings.cross[lsb.bit_length() - 1] == 0
            flags ^= lsb


def test_crossing_pairs_equal_convex_quadruples():
    for ps in standard_small_sets():
        _, crossings = structures(ps)
        assert crossings.total_crossing_pairs == count_convex_quadruples(ps)


def assert_crossings_match_oracle(ps):
    """Every row of the built table, and `crossed` in both directions of
    each segment, equals the rational oracle on the coordinates."""
    table = build_segment_table(ps)
    cross = build_crossing_sets(ps, table.segments).cross
    assert len(cross) == table.m == comb(ps.n, 2)
    xy = ps.coords()
    for k, (i, j) in enumerate(table.segments):
        expected = sum(
            1 << l
            for l, (p, q) in enumerate(table.segments)
            if l != k and segments_cross_oracle(xy[i], xy[j], xy[p], xy[q])
        )
        assert cross[k] == expected, (k, table.segments[k])
        assert crossed(ps, i, j) == crossed(ps, j, i) == (expected != 0)


@st.composite
def general_position_sets(draw):
    """Up to 10 distinct points on a grid of side 3..60, each kept iff it is
    collinear with no pair of the points kept before it.  Small grids make
    near-collinear quadruples common."""
    span = draw(st.sampled_from([3, 4, 6, 10, 60]))
    coords = st.tuples(st.integers(0, span), st.integers(0, span))
    pts = []
    for x, y in draw(st.lists(coords, min_size=4, max_size=10, unique=True)):
        c = (x, y)
        if all(orientation(a, b, c) for i, a in enumerate(pts) for b in pts[i + 1:]):
            pts.append(c)
    return PointSet(tuple(pts))


def test_crossings_match_oracle_small_sets():
    for ps in standard_small_sets():
        assert_crossings_match_oracle(ps)


@given(general_position_sets())
@settings(max_examples=150, deadline=None)
def test_crossings_match_oracle_random_sets(ps):
    assert_crossings_match_oracle(ps)


@pytest.mark.parametrize(
    "make", [lambda: gen_convex_chain(21), lambda: gen_triangular_hull_random(16, seed=1)],
    ids=["convex_chain_21", "triangular_hull_random_16"],
)
def test_crossings_match_oracle_count_convex_inputs(make):
    assert_crossings_match_oracle(make())


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_tiny_sets_cross_nothing(n):
    ps = PointSet.from_coords([(0, 0), (1, 0), (0, 1)][:n])
    table = build_segment_table(ps)
    cross = build_crossing_sets(ps, table.segments).cross
    assert table.m == len(cross) == comb(n, 2)
    assert all(c == 0 for c in cross)


def test_crossing_table_tests_no_segment_pair(monkeypatch):
    """The table comes from the orientation masks alone: `orientation`,
    patched to raise wherever planegraphs binds it, is never called."""
    ps = gen_convex_chain(9)

    def refuse(*args):
        raise AssertionError("orientation called while building the crossing table")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "planegraphs" and hasattr(module, "orientation"):
            monkeypatch.setattr(module, "orientation", refuse)
    structures.cache_clear()
    _, crossings = structures(ps)
    assert crossings.total_crossing_pairs == 126 == comb(9, 4)
