"""Pipeline invariants on arbitrary general-position point sets.

Fixed constructions can hide order-type-specific bugs, so these properties
also run against hypothesis-generated sets: small integer grids, filtered
to general position.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planegraphs import (
    PointSet,
    count_plane_graphs,
    enumerate_plane_graphs,
    expected_degree_vector,
    family_census,
    gen_triangular_hull_random,
)

from conftest import brute_degree_rows, count_plane_graphs_bruteforce, gp_violations


def point_sets(min_n=4, max_n=6, span=24):
    return (
        st.lists(
            st.tuples(st.integers(0, span), st.integers(0, span)),
            min_size=min_n,
            max_size=max_n,
            unique=True,
        )
        .filter(lambda coords: not gp_violations(coords))
        .map(PointSet.from_coords)
    )


@given(point_sets())
@settings(max_examples=30, deadline=None)
def test_count_matches_bruteforce(ps):
    assert count_plane_graphs(ps) == count_plane_graphs_bruteforce(ps)


@given(point_sets())
@settings(max_examples=20, deadline=None)
def test_degree_vector_identities(ps):
    dv = expected_degree_vector(ps)
    assert sum(dv.vhat) == ps.n
    assert sum(dv.ving_counts) == ps.n * dv.pg
    # per-point rows partition the census and row 0 is the deletion count
    for p in range(ps.n):
        assert sum(dv.per_point[p]) == dv.pg
        assert dv.per_point[p][0] == count_plane_graphs(ps.drop(p))


@given(point_sets())
@settings(max_examples=20, deadline=None)
def test_degree_rows_match_visitor_tally(ps):
    assert expected_degree_vector(ps).per_point == brute_degree_rows(ps)


@given(point_sets(min_n=4, max_n=5))
@settings(max_examples=15, deadline=None)
def test_family_partition(ps):
    pg = count_plane_graphs(ps)
    for p in range(ps.n):
        census = family_census(ps, p)
        assert sum(mult << j for j, mult in census.items()) == pg


def test_dp_count_matches_visitor_enumeration_n7():
    # two independent routes at a size beyond the brute-force oracle
    ps = gen_triangular_hull_random(7, seed=9)
    visits = enumerate_plane_graphs(ps, lambda g: None)
    assert visits == count_plane_graphs(ps)


def test_vhat_zero_always_positive():
    for seed in (3, 4):
        ps = gen_triangular_hull_random(6, seed=seed)
        dv = expected_degree_vector(ps)
        assert dv.vhat[0] > 0
        assert all(Fraction(0) <= v <= ps.n for v in dv.vhat)
