from fractions import Fraction

import pytest

from planegraphs import (
    PointSet,
    SelfCheckError,
    count_plane_graphs,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    run_claims,
    verify_graph_charge_cap,
    verify_previous_lower,
    verify_triangulation_degree_lemmas,
    verify_v0_upper,
    verify_vi_upper,
    verify_visibility_lemma,
    verify_zero_ving_recurrence,
)
from planegraphs import verify
from planegraphs.verify import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    _verdict,
    central_binomial_sweep,
    harmonic_gap_sweep,
    harmonic_residual_sweep,
    stirling_sweep,
    ving_charge_argmax_sweep,
)


class TestV0Upper:
    def test_holds_on_cap_apex(self):
        report = verify_v0_upper(gen_cap_with_apex(5))
        assert report.status == HOLDS
        assert report.margin > 0
        assert report.details["bound_strictly_below_n_over_10_18"] is True

    def test_triangle_not_applicable_but_informative(self, triangle):
        report = verify_v0_upper(triangle)
        assert report.status == NOT_APPLICABLE
        # with n < 5 the bound would even be false: 3/4 > 33/112
        assert report.details["vhat0"] == Fraction(3, 4) > Fraction(33, 112)

    def test_non_triangular_hull_not_applicable(self, convex4):
        assert verify_v0_upper(convex4).status == NOT_APPLICABLE


class TestViUpper:
    def test_triangle_values(self, triangle):
        reports = verify_vi_upper(triangle)
        assert [r.status for r in reports] == [HOLDS, HOLDS]
        # vhat_1 = 3/2 < 3/sqrt(pi), vhat_2 = 3/4 < 3/sqrt(2 pi)
        assert all(r.margin > 0 for r in reports)

    def test_all_degrees_on_triangular_hull_set(self):
        ps = gen_triangular_hull_random(6, seed=1)
        reports = verify_vi_upper(ps)
        assert len(reports) == 5
        assert all(r.status == HOLDS for r in reports)


class TestPreviousLower:
    def test_triangle(self, triangle):
        reports = {r.claim: r for r in verify_previous_lower(triangle)}
        assert all(r.status == HOLDS for r in reports.values())
        assert reports["prior_v0_lower"].details["value"] == Fraction(3, 4)
        assert reports["prior_v1_lower"].details["bound"] == Fraction(9, 1024)
        assert reports["prior_v2v3_lower"].details["value"] == Fraction(3, 4)

    def test_small_sets_hold(self, small_sets):
        for ps in small_sets:
            assert all(r.status == HOLDS for r in verify_previous_lower(ps))


class TestVisibilityLemma:
    def test_strict_mode_holds(self):
        for ps in (gen_cap_with_apex(5), gen_triangular_hull_random(5, seed=2)):
            report = verify_visibility_lemma(ps)
            assert report.status == HOLDS
            assert report.details["min_visibility"] >= 3
            assert report.details["strict_mode"]

    def test_report_only_for_convex4(self, convex4):
        report = verify_visibility_lemma(convex4)
        assert report.status == NOT_APPLICABLE
        # a diagonal blocks the other diagonal: minimum drops below 3
        assert report.details["min_visibility"] == 2

    def test_zero_ving_tally_matches_expectation(self):
        ps = gen_cap_with_apex(5)
        report = verify_visibility_lemma(ps)
        from planegraphs import expected_degree_vector

        assert report.details["zero_vings_scanned"] == expected_degree_vector(ps).ving_counts[0]


class TestTriangulationDegreeLemmas:
    def test_hold_on_triangular_hull_sets(self):
        for ps in (gen_cap_with_apex(5), gen_cap_with_apex(6),
                   gen_triangular_hull_random(6, seed=1)):
            reports = verify_triangulation_degree_lemmas(ps)
            assert [r.status for r in reports] == [HOLDS, HOLDS, HOLDS]

    def test_n5_deg3_bound_is_two(self):
        # 2n/3 - 1 = 7/3 at n = 5, so no triangulation may have 3 vertices of degree 3
        ps = gen_cap_with_apex(5)
        report = verify_triangulation_degree_lemmas(ps)[0]
        assert report.status == HOLDS
        from planegraphs import enumerate_triangulations

        assert all(rec.v3 <= 2 for rec in enumerate_triangulations(ps).records)

    def test_not_applicable_on_convex(self, convex4):
        assert all(
            r.status == NOT_APPLICABLE for r in verify_triangulation_degree_lemmas(convex4)
        )

    def test_shares_one_walk_with_the_charge_cap(self, monkeypatch):
        import planegraphs.enumeration as enumeration_mod

        enumeration_mod._workspace.cache_clear()  # start without cached triangulations
        walks = []
        stats_cls = enumeration_mod.TriangulationStats

        def counted(**fields):
            walks.append(fields["count"])
            return stats_cls(**fields)

        monkeypatch.setattr(enumeration_mod, "TriangulationStats", counted)
        reports = run_claims(gen_cap_with_apex(6), ["triangulation_degrees", "charge_cap"])
        assert [r.status for r in reports] == [HOLDS] * 4
        assert len(walks) == 1


class TestGraphChargeCap:
    def test_holds_with_monotonicity(self):
        report = verify_graph_charge_cap(gen_cap_with_apex(5))
        assert report.status == HOLDS
        assert report.details["potential_monotonicity"] is True
        # the cap is non-strict and attained here: a triangulation with
        # degrees (3,3,4,4,4) has charge 2/8 + 3/16 = 49/112 exactly
        assert report.margin == 0
        assert report.details["max_charge"] == Fraction(49, 112)

    def test_triangle_not_applicable(self, triangle):
        assert verify_graph_charge_cap(triangle).status == NOT_APPLICABLE


class TestZeroVingRecurrence:
    def test_triangle_value(self, triangle):
        reports = {r.claim: r for r in verify_zero_ving_recurrence(triangle)}
        general = reports["zero_ving_identity"]
        assert general.status == HOLDS
        assert general.details["lhs"] == 6  # 3 * pg(two points) = 3 * 2
        assert all(r.status == HOLDS for r in reports.values())

    def test_four_point_sets(self, convex4):
        ps_interior = PointSet.from_coords([(0, 0), (9, 0), (0, 9), (2, 2)])
        for ps in (convex4, ps_interior):
            assert all(r.status == HOLDS for r in verify_zero_ving_recurrence(ps))

    def test_consequence_inequality(self):
        ps = gen_cap_with_apex(5)
        reports = {r.claim: r for r in verify_zero_ving_recurrence(ps)}
        assert reports["zero_ving_growth_consequence"].margin >= 0

    def test_violations_carry_witnesses(self, triangle, monkeypatch):
        # inflate pg(P minus q): the triangle has no internal point, so only
        # the general identity and its consequence can fail
        import planegraphs.verify as verify_mod

        monkeypatch.setattr(verify_mod, "count_plane_graphs", lambda ps, max_n=None: 10**6)
        reports = {r.claim: r for r in verify_zero_ving_recurrence(triangle)}
        assert reports["zero_ving_identity"].status == VIOLATED
        assert reports["zero_ving_growth_consequence"].status == VIOLATED
        assert reports["zero_ving_growth_consequence"].witness == {
            "zero_vings": "6", "n_times_min_drop": "3000000"
        }


class TestAnalytic:
    def test_harmonic_residual_m1(self):
        # eps_1 = gamma - 1/2 = 0.0772..., so the margin 1/8 - eps_1 = 0.0477...
        margin = harmonic_residual_sweep(1).margin
        assert Fraction(47, 1000) < margin < Fraction(48, 1000)

    def test_harmonic_sweeps(self):
        assert harmonic_residual_sweep(500).status == HOLDS
        gap = harmonic_gap_sweep(500)
        assert gap.status == HOLDS
        assert gap.margin > 0

    def test_stirling_sweep(self):
        report = stirling_sweep(60)
        assert report.status == HOLDS
        assert report.margin > 0

    def test_stirling_encloses_ln_m_once(self, monkeypatch):
        # Per m: ln m, and ln(2 pi m) at each end of the pi enclosure.
        calls = []
        real = verify.log_interval
        monkeypatch.setattr(verify, "log_interval", lambda x: calls.append(x) or real(x))
        stirling_sweep(60)
        assert len(calls) == 3 * 60

    def test_central_binomial(self):
        assert central_binomial_sweep(500).status == HOLDS

    def test_charge_argmax(self):
        assert ving_charge_argmax_sweep(16).status == HOLDS


def test_violated_report_requires_witness():
    with pytest.raises(SelfCheckError, match="violated claim c carries no witness"):
        _verdict("c", "-", False)
    assert _verdict("c", "-", False, witness={"i": 1}).status == VIOLATED


class TestRunClaims:
    def test_all_claims_on_cap_apex(self):
        reports = run_claims(gen_cap_with_apex(5))
        assert reports
        assert not any(r.status == "violated" for r in reports)
        claims = {r.claim for r in reports}
        assert "v0_upper" in claims and "harmonic_residual_bounds" in claims

    def test_claim_selection(self, triangle):
        reports = run_claims(triangle, ["previous_lower"])
        assert {r.claim for r in reports} == {
            "prior_v0_lower", "prior_v1_lower", "prior_v2_lower", "prior_v2v3_lower"
        }

    def test_counts_the_degree_rows_once(self, monkeypatch):
        import planegraphs.enumeration as enumeration_mod
        from planegraphs import charge_audit

        enumeration_mod._workspace.cache_clear()  # start without a cached degree vector
        passes = []
        degree_polynomials = enumeration_mod._Workspace.degree_polynomials

        def counted(ws):
            passes.append(ws.ps)
            return degree_polynomials(ws)

        monkeypatch.setattr(enumeration_mod._Workspace, "degree_polynomials", counted)
        ps = gen_cap_with_apex(6)
        run_claims(ps)
        charge_audit(ps)
        assert passes == [ps]

    def test_unknown_claim_rejected(self, triangle):
        with pytest.raises(ValueError):
            run_claims(triangle, ["not_a_claim"])

    def test_analytic_only_without_pointset(self):
        reports = run_claims(None, ["charge_argmax"])
        assert len(reports) == 1 and reports[0].status == HOLDS
