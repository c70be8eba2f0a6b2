from planegraphs import build_crossing_sets, build_segment_table, convex_hull, gen_convex_chain
from planegraphs.crossings import structures

from conftest import count_convex_quadruples, standard_small_sets


def hull_edge_mask(ps, table) -> int:
    """The segments joining consecutive vertices of `convex_hull(ps)`."""
    hull = convex_hull(ps)
    return sum(
        1 << table.index_of[(min(a, b), max(a, b))] for a, b in zip(hull, hull[1:] + hull[:1])
    )


def test_triangle_table(triangle):
    table = build_segment_table(triangle)
    assert table.m == 3
    assert table.segments == ((0, 1), (0, 2), (1, 2))
    assert hull_edge_mask(triangle, table) == 0b111
    cross = build_crossing_sets(triangle, table)
    assert all(c == 0 for c in cross.cross)  # three edges, no two intersect


def test_four_points_six_segments(convex4):
    table = build_segment_table(convex4)
    assert table.m == 6
    assert [table.index_of[s] for s in table.segments] == list(range(6))


def test_convex4_single_crossing_pair(convex4):
    _, crossings = structures(convex4)
    assert crossings.total_crossing_pairs == 1
    # the crossing pair is the two diagonals (0,2) x (1,3)
    table, _ = structures(convex4)
    k02, k13 = table.index_of[(0, 2)], table.index_of[(1, 3)]
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
            assert table.index_of[(i, j)] == k
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
