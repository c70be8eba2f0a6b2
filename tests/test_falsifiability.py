"""The verifiers can say "violated", and their witnesses replay.

`is_triangular_hull` is forced to True on convex chains, whose hulls are
not triangles, so the visibility lemma, the per-graph charge cap and the
triangulation degree lemmas are asserted on sets that break their
hypotheses.  Each witness is then replayed with a geometric oracle built
from `segments_cross_oracle`, exact rational line intersection, on the
coordinates.  The oracle never reads the crossing bit-vectors, which feed
both `visibility` and the verifiers.  The verifiers that read
expected-degree statistics are fed a tampered `DegreeExpectation`, the
product law a miscounted pg, and each analytic sweep a perturbed enclosure
or bound.  Every violated report is pinned by the sha256 of the bytes
`verify` writes for it, so a witness, margin or detail that moves fails.

The verifiers read their answers off the counting DP and the
triangulations; a walk over every plane graph of three 5-point sets is the
exhaustive oracle for those answers.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

import planegraphs.verify as verify_mod
from planegraphs import (
    DegreeExpectation,
    enumerate_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    graph_charge_v0,
    is_triangular_hull,
    verify_graph_charge_cap,
    verify_previous_lower,
    verify_product_law,
    verify_triangulation_degree_lemmas,
    verify_v0_upper,
    verify_vi_upper,
    verify_visibility_lemma,
    verify_zero_ving_recurrence,
    visibility,
)
from planegraphs.reports import dumps_json
from planegraphs.verify import (
    HOLDS,
    NOT_APPLICABLE,
    VIOLATED,
    central_binomial_sweep,
    harmonic_gap_sweep,
    harmonic_residual_sweep,
    stirling_sweep,
    ving_charge_argmax_sweep,
)

from conftest import potential, segments_cross_oracle


def report_sha256(reports) -> str:
    """The sha256 of the reports as `verify` writes them, without the envelope."""
    text = dumps_json({"reports": [r._asdict() for r in reports]})
    return hashlib.sha256(text.encode()).hexdigest()


def decode(edges: int, n: int) -> list[tuple[int, int]]:
    """Segment k is the k-th label pair (i, j), i < j, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [pair for k, pair in enumerate(pairs) if edges >> k & 1]


def oracle_plane(ps, edges: list[tuple[int, int]]) -> bool:
    pts = ps.points
    return not any(
        segments_cross_oracle(pts[a], pts[b], pts[c], pts[d])
        for i, (a, b) in enumerate(edges)
        for c, d in edges[i + 1:]
    )


def oracle_visibility(ps, edges: list[tuple[int, int]], p: int) -> int:
    """Count q != p with pq absent from `edges` and crossing none of them."""
    pts = ps.points
    count = 0
    for q in range(ps.n):
        seg = (min(p, q), max(p, q))
        if q == p or seg in edges:
            continue
        if not any(segments_cross_oracle(pts[p], pts[q], pts[a], pts[b]) for a, b in edges):
            count += 1
    return count


def oracle_potential(ps, edges: list[tuple[int, int]], p: int) -> int:
    degree = sum(1 for e in edges if p in e)
    return degree + oracle_visibility(ps, edges, p)


@pytest.fixture
def forced_hull(monkeypatch):
    monkeypatch.setattr(verify_mod, "is_triangular_hull", lambda ps: True)
    return gen_convex_chain(5)


def test_visibility_lemma_violation_replays(forced_hull):
    ps = forced_hull
    report = verify_visibility_lemma(ps)
    assert report.status == VIOLATED
    assert report.witness == {"graph": "40", "point": 0, "visibility": 2}
    assert report_sha256([report]) == (
        "5ac44988404bc369becb664d34270b1ff1240a6df2ecdf988a1486fe72f43a20"
    )
    edges = decode(int(report.witness["graph"], 16), ps.n)
    p = report.witness["point"]
    assert oracle_plane(ps, edges)
    assert not any(p in e for e in edges)  # a 0-ving
    assert oracle_visibility(ps, edges, p) == report.witness["visibility"] < 3


def test_graph_charge_cap_violation_replays(forced_hull):
    ps = forced_hull
    report = verify_graph_charge_cap(ps)
    assert report.status == VIOLATED
    assert report.witness["charge"] == "13/16"
    assert report_sha256([report]) == (
        "f9badadfbbb960ad7b6ddd83a588b7a9c17bc092f35738730eb680531862ba32"
    )
    edges = decode(int(report.witness["graph"], 16), ps.n)
    assert oracle_plane(ps, edges)
    charge = sum(
        (Fraction(1, 2 ** oracle_potential(ps, edges, p)) for p in range(ps.n)),
        Fraction(0),
    )
    assert charge == Fraction(13, 16) == report.details["max_charge"]
    assert charge > Fraction(11 * ps.n - 6, 112) == Fraction(7, 16)


def test_triangulation_degree_lemmas_violation_replays(monkeypatch):
    monkeypatch.setattr(verify_mod, "is_triangular_hull", lambda ps: True)
    ps = gen_convex_chain(8)
    reports = verify_triangulation_degree_lemmas(ps)
    assert [r.status for r in reports] == [VIOLATED] * 3
    assert report_sha256(reports) == (
        "6febe2902c20b46ded5d7d4ec84da31c03f525ac376e55d2b5e2739fa82ac0d3"
    )
    for report in reports:
        assert report.witness["graph"] == "a4420ff"
        assert report.witness["v3"] == 5
    edges = decode(0xA4420FF, ps.n)
    assert oracle_plane(ps, edges)
    pts = ps.points
    for a in range(ps.n):  # maximal: every absent segment crosses an edge
        for b in range(a + 1, ps.n):
            if (a, b) not in edges:
                assert any(
                    segments_cross_oracle(pts[a], pts[b], pts[c], pts[d]) for c, d in edges
                )
    degrees = [sum(1 for e in edges if p in e) for p in range(ps.n)]
    v3, v4 = degrees.count(3), degrees.count(4)
    assert (v3, v4) == (5, 0)
    assert 3 * v3 > 2 * ps.n - 3  # v3 <= 2n/3 - 1 fails
    assert 9 * v3 + 2 * v4 > 6 * ps.n - 6  # 9 v3 + 2 v4 <= 6n - 6 fails
    assert v3 > 1  # every point of a convex chain is on the hull


def _inflated(dv: DegreeExpectation, n: int) -> DegreeExpectation:
    """Every point isolated and of degree 1 at once, none of degree 2 or 3."""
    ving = (n * dv.pg, n * dv.pg, 0, 0) + dv.ving_counts[4:]
    return DegreeExpectation(
        pg=dv.pg,
        ving_counts=ving,
        vhat=tuple(Fraction(v, dv.pg) for v in ving),
        per_point=dv.per_point,
    )


def _deflated(dv: DegreeExpectation, n: int) -> DegreeExpectation:
    """No point is ever isolated or of degree 1."""
    ving = (0, 0) + dv.ving_counts[2:]
    return DegreeExpectation(
        pg=dv.pg,
        ving_counts=ving,
        vhat=tuple(Fraction(v, dv.pg) for v in ving),
        per_point=tuple((0,) + row[1:] for row in dv.per_point),
    )


def _tampered_reports(monkeypatch, tamper) -> dict:
    ps = gen_cap_with_apex(6)
    tampered = tamper(expected_degree_vector(ps), ps.n)
    monkeypatch.setattr(verify_mod, "expected_degree_vector", lambda ps, max_n=None: tampered)
    return {
        r.claim: r
        for r in [verify_v0_upper(ps)]
        + verify_vi_upper(ps)
        + verify_previous_lower(ps)
        + verify_zero_ving_recurrence(ps)
    }


def test_degree_statistic_verifiers_flag_a_tampered_expectation(monkeypatch):
    reports = _tampered_reports(monkeypatch, _inflated)
    assert report_sha256(reports.values()) == (
        "53be94195d03eb3bfbd59970e9dd22df3ed83b88bc258ca7119a31b72ff173ee"
    )
    for claim in ("v0_upper", "vi_upper:i=1", "prior_v2_lower", "prior_v2v3_lower",
                  "zero_ving_identity"):
        assert reports[claim].status == VIOLATED, claim
        assert reports[claim].witness, claim


def test_degree_statistic_verifiers_flag_a_deflated_expectation(monkeypatch):
    reports = _tampered_reports(monkeypatch, _deflated)
    assert report_sha256(reports.values()) == (
        "341e928ecdf1b303218fd6da226470e35829c4013bbe3ee1d14bbd9768dc4a13"
    )
    for claim in ("prior_v0_lower", "prior_v1_lower", "zero_ving_identity_internal",
                  "zero_ving_growth_consequence"):
        assert reports[claim].status == VIOLATED, claim
        assert reports[claim].witness, claim
    assert reports["zero_ving_identity_internal"].witness == {"lhs": "0", "rhs": "2304"}


@pytest.mark.parametrize(
    "claim, degree, value, status",
    [
        ("v0_upper", 0, Fraction(11 * 6, 112), VIOLATED),  # vhat0 < 11n/112, strictly
        ("prior_v0_lower", 0, Fraction(6, 3207), VIOLATED),  # vhat0 > n/3207, strictly
        ("prior_v1_lower", 1, Fraction(3 * 6, 1024), HOLDS),  # vhat1 >= 3n/1024
    ],
)
def test_bounds_at_equality_follow_their_strictness(monkeypatch, claim, degree, value, status):
    def at_bound(dv: DegreeExpectation, n: int) -> DegreeExpectation:
        return dv._replace(vhat=dv.vhat[:degree] + (value,) + dv.vhat[degree + 1:])

    report = _tampered_reports(monkeypatch, at_bound)[claim]
    assert (report.status, report.margin) == (status, 0)


def test_product_law_flags_a_miscount(monkeypatch):
    count = verify_mod.count_plane_graphs
    monkeypatch.setattr(verify_mod, "count_plane_graphs", lambda ps: count(ps) + (ps.n == 6))
    report = verify_product_law(6)
    assert report.status == VIOLATED
    assert report_sha256([report]) == (
        "492e1c10f4ef8faa23bf39f3fb60855887ae0db9fa1b8fc75e1087f478c7b28c"
    )
    assert report.witness == {"lhs": "11265", "rhs": "11264"}


# The analytic sweeps: each is fed one perturbed enclosure or bound, and
# must name the first failing index.


def test_harmonic_residual_flags_a_shifted_gamma(monkeypatch):
    lo, hi = verify_mod.GAMMA
    monkeypatch.setattr(verify_mod, "GAMMA", (lo - 1, hi - 1))
    report = harmonic_residual_sweep(10)
    assert report.status == VIOLATED
    assert report_sha256([report]) == (
        "39df4cb034059b665d61fb3249f206bacfe9d4acd9818c0513a26dcd4d9c5d59"
    )
    assert report.witness["m"] == 1
    assert report.margin < 0


def test_harmonic_gap_flags_ln2_at_one_half(monkeypatch):
    # H_2 - H_1 = 1/2 exactly, so a margin of 0 must already fail
    half = Fraction(1, 2)
    monkeypatch.setattr(verify_mod, "ln2_interval", lambda: (half, half))
    report = harmonic_gap_sweep(10)
    assert report.status == VIOLATED
    assert report_sha256([report]) == (
        "20e7d07f98b7cafab6839074619da397996a84c29c64c82be3f1aec1f70d77c8"
    )
    assert report.witness == {"i": 1, "gap_hi": "1/2"}


def test_stirling_flags_pi_at_four(monkeypatch):
    four = Fraction(4)
    monkeypatch.setattr(verify_mod, "pi_interval", lambda: (four, four))
    report = stirling_sweep(10)
    assert report.status == VIOLATED
    assert report_sha256([report]) == (
        "1f967bcead6fd1cc7f0f20af3589119827cd0520554b83b4368036746dcf43ef"
    )
    assert report.witness == {"m": 1}


def test_central_binomial_flags_pi_hi_at_four(monkeypatch):
    # C(2, 1)^2 * 1 * 4 = 2^4: the strict bound fails at i = 1
    monkeypatch.setattr(verify_mod, "PI_HI", Fraction(4))
    report = central_binomial_sweep(10)
    assert report.status == VIOLATED
    assert report_sha256([report]) == (
        "8bcb062de138c9fccb98bb5798142202d0225dbfa56d6a54dc02acc17692c604"
    )
    assert report.witness == {"i": 1}


def test_charge_argmax_flags_a_failing_profile(monkeypatch):
    # the profile fails at i = 3 and i = 4; the witness is the first failure
    real = verify_mod.max_family_charge

    def broken(i):
        if i in (3, 4):
            raise AssertionError(f"unexpected charge maximum for i={i}: [{i + 1}]")
        return real(i)

    monkeypatch.setattr(verify_mod, "max_family_charge", broken)
    report = ving_charge_argmax_sweep(5)
    assert report.status == VIOLATED
    assert report_sha256([report]) == (
        "e43d6083a2786c7aa48f1e6b18a14aa3f2e35c32bf243a0c931cb51f996a86de"
    )
    assert report.witness == {"i": 3, "error": "unexpected charge maximum for i=3: [4]"}


@pytest.mark.parametrize(
    "ps",
    [gen_convex_chain(5), gen_cap_with_apex(5), gen_triangular_hull_random(5, seed=1)],
    ids=["convex5", "cap_apex5", "random5"],
)
def test_visibility_and_potential_match_geometric_oracle(ps):
    zero_ving_visibilities = []
    charges = []
    triangulations = [
        (r.edges, decode(r.edges, ps.n)) for r in enumerate_triangulations(ps).records
    ]

    def check(g: int) -> None:
        edges = decode(g, ps.n)
        containing = [t_edges for t, t_edges in triangulations if t & g == g]
        assert containing
        for p in range(ps.n):
            vis = oracle_visibility(ps, edges, p)
            assert visibility(ps, g, p) == vis
            assert potential(ps, g, p) == oracle_potential(ps, edges, p)
            # potential monotonicity: pt(p, G) >= deg_T(p) for every T containing G
            for t_edges in containing:
                assert potential(ps, g, p) >= sum(1 for e in t_edges if p in e)
            if not any(p in e for e in edges):
                zero_ving_visibilities.append(vis)
        charges.append(graph_charge_v0(ps, g))

    assert enumerate_plane_graphs(ps, check) > 0
    report = verify_visibility_lemma(ps)
    assert report.details["min_visibility"] == min(zero_ving_visibilities)
    report = verify_graph_charge_cap(ps)
    if is_triangular_hull(ps):
        assert report.status == HOLDS
        assert report.details["max_charge"] == max(charges)
    else:
        assert report.status == NOT_APPLICABLE
