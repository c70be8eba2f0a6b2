from fractions import Fraction
from math import comb

import pytest

from planegraphs import (
    charge_audit,
    count_plane_graphs,
    enumerate_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    family_census,
    family_charge_profile,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    graph_charge_v0,
    lp_charge_cap,
    max_family_charge,
    visibility,
)
from planegraphs import charging
from planegraphs.certified import PI_HI
from planegraphs.crossings import structures
from planegraphs.enumeration import workspace

from conftest import family_members, family_root, potential


class TestVisibilityAndPotential:
    def test_empty_graph_sees_everyone(self, small_sets):
        for ps in small_sets:
            for p in range(ps.n):
                assert visibility(ps, 0, p) == ps.n - 1
                assert potential(ps, 0, p) == ps.n - 1

    def test_triangulation_visibility_zero(self, small_sets):
        for ps in small_sets:
            inc = structures(ps)[0].incident_masks
            for rec in enumerate_triangulations(ps).records:
                for p in range(ps.n):
                    assert visibility(ps, rec.edges, p) == 0
                    assert potential(ps, rec.edges, p) == (rec.edges & inc[p]).bit_count()

    def test_triangle_single_edge(self, triangle):
        table, _ = structures(triangle)
        assert visibility(triangle, 1 << table.segments.index((1, 2)), 0) == 2

    def test_potential_invariant_under_toggling_own_edges(self, small_sets):
        # the potential of p equals the visibility of its family root, so
        # adding or removing edges at p never changes it
        for ps in small_sets[:4]:
            table, _ = structures(ps)

            def check(g):
                for p in range(ps.n):
                    root = family_root(ps, g, p)
                    assert potential(ps, g, p) == visibility(ps, root, p)

            enumerate_plane_graphs(ps, check)


class TestFamilies:
    def test_root_idempotent_and_isolating(self, triangle):
        root = family_root(triangle, 0b111, 0)
        table, _ = structures(triangle)
        assert root & table.incident_masks[0] == 0
        assert root == 1 << table.segments.index((1, 2))
        assert family_root(triangle, root, 0) == root

    def test_members_trivial_family(self, triangle):
        root = family_root(triangle, 0b111, 0)
        members = family_members(triangle, root, 0)
        assert len(members) == 4  # add nothing, 01, 02, or both
        assert root in members

    def test_members_requires_isolated_point(self, triangle):
        with pytest.raises(ValueError):
            family_members(triangle, 0b111, 0)

    def test_family_size_and_common_potential(self, small_sets):
        for ps in small_sets[:4]:
            for p in range(ps.n):
                members = family_members(ps, 0, p)
                j = potential(ps, 0, p)
                assert len(members) == 1 << j
                assert all(potential(ps, g, p) == j for g in members)

    def test_iving_counts_per_family(self, small_sets):
        # a j-family contains exactly C(j, i) members of degree i
        for ps in small_sets[:4]:
            table, _ = structures(ps)
            for p in range(ps.n):
                members = family_members(ps, 0, p)
                j = potential(ps, 0, p)
                inc = table.incident_masks[p]
                for i in range(j + 1):
                    got = sum(1 for g in members if (g & inc).bit_count() == i)
                    assert got == comb(j, i)

    def test_census_partitions_census(self, small_sets):
        for ps in small_sets:
            pg = count_plane_graphs(ps)
            for p in range(ps.n):
                census = family_census(ps, p)
                assert sum(mult << j for j, mult in census.items()) == pg

    def test_census_charge_conservation(self):
        # sum over families of C(j, i) recovers the i-ving count
        for ps in (gen_convex_chain(5), gen_cap_with_apex(5)):
            dv = expected_degree_vector(ps)
            censuses = [family_census(ps, p) for p in range(ps.n)]
            for i in range(ps.n):
                total = sum(
                    mult * comb(j, i)
                    for census in censuses
                    for j, mult in census.items()
                )
                assert total == dv.ving_counts[i]


class TestChargeProfile:
    def test_examples(self):
        assert family_charge_profile(0, 3) == Fraction(1, 8)
        assert family_charge_profile(1, 2) == Fraction(1, 2)
        assert family_charge_profile(2, 4) == Fraction(3, 8)

    def test_i_above_j_is_zero(self):
        assert family_charge_profile(5, 3) == 0

    def test_max_family_charge_small(self):
        assert max_family_charge(1) == ((1, 2), Fraction(1, 2))
        assert max_family_charge(2) == ((3, 4), Fraction(3, 8))

    def test_plateau_up_to_64(self):
        for i in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            argmax, value = max_family_charge(i)
            assert argmax == (2 * i - 1, 2 * i)
            assert value == Fraction(comb(2 * i, i), 4**i)

    def test_max_below_pi_bound(self):
        # C(2i, i)/4^i < 1/sqrt(pi i), certified with the rational pi bound
        for i in (1, 2, 10):
            _, value = max_family_charge(i)
            assert value * value * PI_HI * i < 1


class TestGraphCharge:
    def test_empty_triangle(self, triangle):
        assert graph_charge_v0(triangle, 0) == Fraction(3, 4)

    def test_triangulation_charge_is_degree_sum(self, small_sets):
        for ps in small_sets[:4]:
            inc = structures(ps)[0].incident_masks
            for rec in enumerate_triangulations(ps).records:
                expected = sum(
                    (Fraction(1, 2) ** (rec.edges & inc[p]).bit_count() for p in range(ps.n)),
                    Fraction(0),
                )
                assert graph_charge_v0(ps, rec.edges) == expected

    def test_total_charge_equals_zero_ving_count(self, small_sets):
        for ps in small_sets[:4]:
            dv = expected_degree_vector(ps)
            total = Fraction(0)

            def accumulate(edges):
                nonlocal total
                total += graph_charge_v0(ps, edges)

            enumerate_plane_graphs(ps, accumulate)
            assert total == dv.ving_counts[0]


class TestChargeCapLP:
    def test_known_values(self):
        assert lp_charge_cap(5) == Fraction(49, 112)
        assert lp_charge_cap(7) == Fraction(71, 112)

    def test_formula_range(self):
        for n in range(5, 51):
            assert lp_charge_cap(n) == Fraction(11 * n - 6, 112)

    def test_requires_n5(self):
        with pytest.raises(ValueError):
            lp_charge_cap(4)

    def test_grid_oracle(self):
        # dense rational grid with denominator 840: v3 = a/840, and for each
        # v3 the objective is increasing in v4, so take the v4 ceiling
        for n in (5, 8, 13, 50):
            scale = 840
            best = 0  # maximize 2 n scale + 6 a + b over the grid
            a_max = (2 * n * scale) // 3 - scale
            for a in range(a_max + 1):
                b = min((6 * n - 6) * scale - 9 * a, 2 * n * scale - 2 * a)
                assert b >= 0
                best = max(best, 2 * n * scale + 6 * a + b)
            assert Fraction(best, 64 * scale) == lp_charge_cap(n)


def test_charge_audit_small(triangle):
    audit = charge_audit(triangle)
    assert audit["pg"] == "8"
    assert audit["zero_ving_count"] == "6"
    assert audit["total_charge"] == {"num": "6", "exp": 0}
    assert len(audit["per_graph_charges"]) == 8
    census_by_point = {}
    for row in audit["family_census"]:
        census_by_point.setdefault(row["point"], 0)
        census_by_point[row["point"]] += row["multiplicity"] << row["visibility_j"]
    assert census_by_point == {0: 8, 1: 8, 2: 8}
    # every reported charge is num / 2^exp in lowest terms and equals the
    # graph's charge; the random set has crossings, so its masks vary
    for ps in (triangle, gen_cap_with_apex(5), gen_triangular_hull_random(6, seed=1)):
        rows = charge_audit(ps)["per_graph_charges"]
        assert len(rows) == count_plane_graphs(ps)
        for row in rows:
            num, exp = int(row["num"]), row["exp"]
            assert num % 2 == 1 or exp == 0
            assert Fraction(num, 2**exp) == graph_charge_v0(ps, int(row["graph"], 16))


def test_charge_audit_computes_each_charge_once_per_blocked_mask(monkeypatch):
    # A charge depends only on the blocked mask, so the audit computes it
    # once per distinct mask, counted here by a scan of its own.
    ps = gen_cap_with_apex(6)
    ws = workspace(ps)
    masks: set[int] = set()
    pg = 0
    for _, blocked in ws.independent_sets(ws.full):
        masks.add(blocked)
        pg += 1
    scaled_charge = charging._scaled_charge
    calls: list[int] = []

    def counted(inc, blocked, top):
        calls.append(blocked)
        return scaled_charge(inc, blocked, top)

    monkeypatch.setattr(charging, "_scaled_charge", counted)
    audit = charge_audit(ps)
    assert len(audit["per_graph_charges"]) == int(audit["pg"]) == pg == 11264
    assert sorted(calls) == sorted(masks)
    assert len(masks) < pg // 8

