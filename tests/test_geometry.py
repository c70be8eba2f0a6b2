import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegraphs import (
    COORD_LIMIT,
    GeneralPositionError,
    PointSet,
    PtsFormatError,
    convex_hull,
    is_triangular_hull,
    orientation,
    parse_pts,
)
from conftest import coords, gp_violations, standard_small_sets


class TestOrientation:
    def test_unit_right_turn_convention(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_mirror_is_cw(self):
        assert orientation((0, 0), (0, 1), (1, 0)) == -1

    @given(st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                    min_size=3, max_size=3, unique=True))
    @settings(max_examples=300)
    def test_cyclic_and_antisymmetric(self, pts):
        a, b, c = pts
        o = orientation(a, b, c)
        assert o == orientation(b, c, a) == orientation(c, a, b)
        assert o == -orientation(b, a, c) == -orientation(a, c, b)

    def test_ccw_masks_match_orientation(self):
        for ps in standard_small_sets():
            masks = ps.ccw
            pts = ps.points
            for i in range(ps.n):
                for j in range(ps.n):
                    expected = sum(
                        1 << k
                        for k in range(ps.n)
                        if len({i, j, k}) == 3 and orientation(pts[i], pts[j], pts[k]) == 1
                    )
                    assert masks[i][j] == expected


class TestValidation:
    def test_ok(self):
        assert gp_violations([(0, 0), (1, 0), (0, 1)]) == []

    def test_collinear_triple_listed(self):
        assert gp_violations([(0, 0), (1, 1), (2, 2)]) == [("collinear", (0, 1, 2))]

    def test_duplicate_listed(self):
        violations = gp_violations([(0, 0), (0, 0), (1, 1)])
        assert ("duplicate", (0, 1)) in violations

    def test_from_coords_raises(self):
        with pytest.raises(GeneralPositionError):
            PointSet.from_coords([(0, 0), (1, 1), (2, 2)])

    def test_constructor_rejects_collinear_triple(self):
        with pytest.raises(GeneralPositionError) as err:
            PointSet(((0, 0), (1, 1), (2, 2)))
        assert err.value.violations == [("collinear", (0, 1, 2))]

    def test_constructor_rejects_duplicate_point(self):
        with pytest.raises(GeneralPositionError) as err:
            PointSet(((0, 0), (4, 0), (0, 4), (4, 0)))
        assert ("duplicate", (1, 3)) in err.value.violations

    def test_coordinate_cap(self):
        for far in ((COORD_LIMIT + 1, 0), (0, -COORD_LIMIT - 1)):
            with pytest.raises(ValueError, match="exceeds"):
                PointSet.from_coords([far, (1, 1), (2, 3)])
        PointSet.from_coords([(COORD_LIMIT, -COORD_LIMIT), (1, 1), (2, 3)])  # boundary is allowed

    @pytest.mark.parametrize("bad", [(0.9, 0), ("3", 1), (0, 4.0), (True, 0)])
    def test_non_int_coordinate_is_refused_not_coerced(self, bad):
        # A coordinate is checked, never coerced: (0.9, 0) is not the point (0, 0).
        with pytest.raises(TypeError):
            PointSet.from_coords([bad, (4, 0), (0, 4)])

    def test_list_points_are_stored_as_tuples(self, triangle):
        ps = PointSet([[0, 0], [4, 0], [0, 4]])
        assert ps.points == ((0, 0), (4, 0), (0, 4))
        assert ps == triangle and hash(ps) == hash(triangle)

    def test_immutable_and_equal_by_points(self, triangle):
        for attr in ("points", "ccw", "label"):
            with pytest.raises(AttributeError):
                setattr(triangle, attr, ())
        with pytest.raises(AttributeError):
            del triangle.points
        assert triangle != triangle.points  # a point set is not its tuple
        assert triangle != triangle.drop(0)
        assert pickle.loads(pickle.dumps(triangle)) == triangle
        assert copy.copy(triangle) == triangle
        assert repr(triangle) == "PointSet(points=((0, 0), (4, 0), (0, 4)))"


class TestConvexHull:
    def test_triangle(self, triangle):
        assert convex_hull(triangle) == (0, 1, 2)

    def test_interior_point_excluded(self):
        ps = coords((0, 0), (4, 0), (0, 4), (1, 1))
        hull = convex_hull(ps)
        assert len(hull) == 3 and 3 not in hull

    def test_four_convex(self, convex4):
        assert len(convex_hull(convex4)) == 4

    def test_hull_is_ccw(self, small_sets):
        for ps in small_sets:
            hull = convex_hull(ps)
            pts = ps.points
            k = len(hull)
            for i in range(k):
                a, b, c = pts[hull[i]], pts[hull[(i + 1) % k]], pts[hull[(i + 2) % k]]
                assert orientation(a, b, c) == 1

    def test_too_small(self):
        # below three points every label is a hull vertex, leftmost first
        assert convex_hull(PointSet.from_coords([(0, 0), (1, 0)])) == (0, 1)
        assert convex_hull(PointSet.from_coords([(1, 0), (0, 0)])) == (1, 0)
        assert convex_hull(PointSet.from_coords([(5, 5)])) == (0,)
        assert convex_hull(PointSet.from_coords([])) == ()

    def test_triangular_hull(self, triangle):
        assert is_triangular_hull(triangle)
        assert is_triangular_hull(coords((0, 0), (8, 0), (0, 8), (1, 1), (2, 1)))
        assert not is_triangular_hull(gen := coords((0, 0), (1, 0), (1, 1), (0, 1)))
        assert len(convex_hull(gen)) == 4


class TestPtsFormat:
    def test_round_trip(self, triangle):
        assert parse_pts(triangle.to_pts()) == triangle

    def test_labels_by_line_order(self):
        ps = parse_pts("3\n5 7\n-1 2\n0 0\n")
        assert ps.coords() == ((5, 7), (-1, 2), (0, 0))  # point i is line i

    @pytest.mark.parametrize(
        "text",
        ["", "x\n1 2\n", "2\n1 2\n", "1\n1 2 3\n", "1\n1 a\n", "1\n0.5 0\n",
         "2\n1 2\n3 4\n5 6\n",
         # numbers are ASCII decimal: no digit separators, no other scripts' digits
         "1\n1_000 0\n", "1\n\u0663 0\n", "0_3\n0 0\n4 0\n0 4\n", "\u0663\n0 0\n4 0\n0 4\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(PtsFormatError):
            parse_pts(text)

    def test_sha256_is_canonical(self, triangle):
        assert parse_pts("3\n0 0\n4 0\n0 4\n").sha256() == triangle.sha256()
