"""Orchestrated verifiers: every claim decided exactly at desk scale.

No verifier walks every plane graph.  Claims that are sums over all plane
graphs (the expected-degree bounds, the 0-ving identities) and the
visibility lemma, whose minimum is the smallest visibility in any point's
family census, come from the counting DP's degree rows.  The triangulation
lemmas scan every triangulation, and so does the per-graph charge cap,
because a graph's charge is at most that of any triangulation containing
it.

Each verifier returns :class:`VerificationReport` values with an exact
rational margin, and :func:`_verdict` makes every one of them: it sets the
status, keeps the witness only on "violated", and drops margin and witness
when the claim does not apply.  Reports come in two shapes: :func:`_compare`
for a comparison of two exact values, and :func:`_sweep` for a sweep over
an index.  A "violated" report always carries a reproducible witness.
Claims whose hypotheses the input does not satisfy come back
"not-applicable" with the observed data in the details, so near-miss
behaviour outside the hypotheses stays visible.  The v0 bound,
the visibility lemma, the triangulation lemmas and the charge cap assume a
triangular hull and n >= 5.  Each previously known lower bound c n on a
degree count needs a set on which one of the degrees it counts can occur,
so it applies when n exceeds the smallest such degree.

Comparisons against irrational bounds (n / sqrt(pi i), ln 2, the Robbins
bounds) go through the certified rational enclosures of
:mod:`planegraphs.certified`; margins are reported in the squared or log
domain where the comparison is performed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .certified import (
    GAMMA,
    PI_HI,
    PI_LO,
    ln2_interval,
    log_interval,
    pi_interval,
)
from .charging import census_from_degree_row, lp_charge_cap, max_family_charge, visibility
from .constructions import gen_cap_with_apex, gen_convex_chain
from .enumeration import (
    count_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    workspace,
)
from .geometry import PointSet, SelfCheckError, convex_hull, is_triangular_hull

HARMONIC_SHIFT = 220  # fixed-point bits of the harmonic-sum enclosures

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


class VerificationReport(NamedTuple):
    claim: str
    pointset: str
    status: str
    margin: Fraction | None
    witness: dict | None
    details: dict


def _descriptor(ps: PointSet) -> str:
    hull = len(convex_hull(ps))
    return f"n={ps.n} hull={hull} sha256={ps.sha256()[:12]}"


def _verdict(
    claim: str, pointset: str, ok: bool | None, margin: Fraction | None = None,
    witness: dict | None = None, details: dict | None = None,
) -> VerificationReport:
    """The one place a comparison becomes a report: `ok` None means the claim
    does not apply (no margin, no witness); otherwise the witness is kept
    only on a violation, where it must be given."""
    if ok is None:
        status, margin, witness = NOT_APPLICABLE, None, None
    elif ok or witness is not None:
        status, witness = (HOLDS, None) if ok else (VIOLATED, witness)
    else:
        raise SelfCheckError(f"violated claim {claim} carries no witness")
    return VerificationReport(claim, pointset, status, margin, witness, details or {})


def _compare(
    claim: str, pointset: str, ok: bool | None, lhs, rhs,
    details: dict | None = None, names: tuple[str, str] = ("lhs", "rhs"),
) -> VerificationReport:
    """A comparison of two exact values: the margin lhs - rhs, a witness of
    both values as decimal strings under `names`, and `details` or else the
    two values themselves."""
    values = dict(zip(names, (lhs, rhs)))
    witness = {name: str(value) for name, value in values.items()}
    return _verdict(claim, pointset, ok, Fraction(lhs - rhs), witness, details or values)


def _paper_hypotheses(ps: PointSet) -> bool:
    """The hypotheses of the v0 bound and the plane-graph lemmas."""
    return ps.n >= 5 and is_triangular_hull(ps)


# ---------------------------------------------------------------------------
# Expected-degree bounds
# ---------------------------------------------------------------------------


def verify_v0_upper(ps: PointSet) -> VerificationReport:
    """Expected isolated-vertex bound 11n/112 for triangular-hull sets, n >= 5."""
    vhat0 = expected_degree_vector(ps).vhat[0] if ps.n else Fraction(0)
    bound = Fraction(11 * ps.n, 112)
    return _compare(
        "v0_upper", _descriptor(ps), bound > vhat0 if _paper_hypotheses(ps) else None,
        bound, vhat0,
        {
            "vhat0": vhat0,
            "bound": bound,
            # 11/112 < 1/10.18 is a single exact comparison: 11*1018 < 112*100.
            "bound_strictly_below_n_over_10_18": 11 * 1018 < 112 * 100,
        },
        ("bound", "vhat0"),
    )


def verify_vi_upper(ps: PointSet) -> list[VerificationReport]:
    """vhat_i < n / sqrt(pi i) for every degree 1 <= i <= n - 1, certified
    via rational pi."""
    n = ps.n
    dv = expected_degree_vector(ps)
    desc = _descriptor(ps)
    reports = []
    for i in range(1, n):
        vhat = dv.vhat[i]
        # vhat < n/sqrt(pi i)  <=>  vhat^2 * pi * i < n^2 (both sides >= 0)
        lhs_hi = vhat * vhat * PI_HI * i
        lhs_lo = vhat * vhat * PI_LO * i
        rhs = Fraction(n * n)
        if lhs_lo < rhs <= lhs_hi:
            raise SelfCheckError(f"pi enclosure too coarse at i={i}")
        ok = lhs_hi < rhs
        reports.append(_verdict(
            f"vi_upper:i={i}", desc, ok, rhs - (lhs_hi if ok else lhs_lo),
            {"vhat_i": str(vhat), "i": i}, {"vhat_i": vhat, "margin_domain": "squared"},
        ))
    return reports


def verify_previous_lower(ps: PointSet) -> list[VerificationReport]:
    """The four previously-known lower bounds on expected degree counts.

    A bound c n > 0 on the expected number of vertices of the degrees it
    counts is false on a set where none of those degrees can occur, so each
    applies only when n exceeds the smallest degree it counts.
    """
    n = ps.n
    desc = _descriptor(ps)
    vhat = expected_degree_vector(ps).vhat

    def v(i: int) -> Fraction:
        return vhat[i] if i < n else Fraction(0)

    checks = [  # claim, smallest degree counted, value, bound, strict
        ("prior_v0_lower", 0, v(0), Fraction(n, 3207), True),
        ("prior_v1_lower", 1, v(1), Fraction(3 * n, 1024), False),
        ("prior_v2_lower", 2, v(2), Fraction(33 * n, 2048), False),
        ("prior_v2v3_lower", 2, v(2) + v(3), Fraction(n, 24), False),
    ]
    return [
        _compare(
            claim, desc, None if n <= degree else (value > bound if strict else value >= bound),
            value, bound, {"value": value, "bound": bound, "strict": strict}, ("value", "bound"),
        )
        for claim, degree, value, bound, strict in checks
    ]


# ---------------------------------------------------------------------------
# Plane-graph lemmas, read off the degree rows and the triangulations
# ---------------------------------------------------------------------------


def verify_visibility_lemma(ps: PointSet) -> VerificationReport:
    """Every isolated vertex of every graph sees at least 3 other vertices.

    A 0-ving (G, p) is the root of p's family through G, and p's visibility
    in G is that family's, so the minimum over all 0-vings is the smallest j
    in any point's family census, inverted from the degree rows.  Only a
    violation enumerates, to find a witness root.  Asserted under the
    triangular-hull, n >= 5 hypotheses; other sets run in report-only mode
    (the observed minimum is still recorded).
    """
    dv = expected_degree_vector(ps)
    strict = _paper_hypotheses(ps)
    censuses = [census_from_degree_row(row) for row in dv.per_point]
    min_vis = min((j for census in censuses for j in census), default=None)
    details = {
        "graphs_scanned": dv.pg,
        "zero_vings_scanned": sum(row[0] for row in dv.per_point),
        "min_visibility": min_vis,
        "strict_mode": strict,
    }
    if not strict:
        return _verdict("visibility_lemma", _descriptor(ps), None, details=details)
    ok = min_vis >= 3  # n >= 5, so every census is non-empty
    witness = None if ok else _visibility_witness(ps, censuses, min_vis)
    return _verdict(
        "visibility_lemma", _descriptor(ps), ok, Fraction(min_vis - 3), witness, details
    )


def _visibility_witness(ps: PointSet, censuses: list[dict[int, int]], j: int) -> dict:
    """The first root, in enumeration order, of visibility j of the
    lowest-labelled point whose census has a family of visibility j."""
    p = next(p for p, census in enumerate(censuses) if j in census)
    ws = workspace(ps)
    for edges, _ in ws.independent_sets(ws.full & ~ws.table.incident_masks[p]):
        if visibility(ps, edges, p) == j:
            return {"graph": f"{edges:x}", "point": p, "visibility": j}
    raise SelfCheckError(f"point {p} has no family root of visibility {j}")


def verify_triangulation_degree_lemmas(ps: PointSet) -> list[VerificationReport]:
    """Degree-3 and degree-4 bounds over every triangulation, plus the
    sub-claim that at most one hull vertex of a triangulation has degree 3.
    Each margin falls as one statistic rises, so the witness of a claim is
    the first triangulation, in report order, to maximize its statistic."""
    n = ps.n
    desc = _descriptor(ps)
    claims = ("tri_deg3_bound", "tri_deg4_bound", "tri_hull_deg3_count")
    if not _paper_hypotheses(ps):
        return [_verdict(c, desc, None) for c in claims]
    hull = convex_hull(ps)
    inc = workspace(ps).table.incident_masks
    stats = enumerate_triangulations(ps)

    def hull_deg3(rec) -> int:
        return sum(1 for h in hull if (rec.edges & inc[h]).bit_count() == 3)

    rules = (  # statistic, and the margin as a function of its maximum
        (lambda rec: rec.v3, lambda s: Fraction(2 * n - 3 - 3 * s, 3)),
        (lambda rec: 9 * rec.v3 + 2 * rec.v4, lambda s: Fraction(6 * n - 6 - s, 2)),
        (hull_deg3, lambda s: Fraction(1 - s)),
    )
    reports = []
    # n >= 5 points have a triangulation, so every maximum exists
    for claim, (statistic, margin_of) in zip(claims, rules):
        rec = max(stats.records, key=statistic)
        margin = margin_of(statistic(rec))
        witness = {"graph": f"{rec.edges:x}", "v3": rec.v3, "v4": rec.v4,
                   "hull_deg3_count": hull_deg3(rec)}
        reports.append(_verdict(claim, desc, margin >= 0, margin, witness,
                                {"triangulations_scanned": stats.count}))
    return reports


def verify_graph_charge_cap(ps: PointSet) -> VerificationReport:
    """Per-graph charge cap: sum_p 2^-pt(p, G) <= cap for every G.

    The cap is :func:`~planegraphs.charging.lp_charge_cap`, the checked
    optimum of the degree-bound LP, whose domain n >= 5 is the claim's.
    Potential monotonicity is a lemma, not a scan: if G is a subgraph of a
    triangulation T, then blocked(G) is a subset of blocked(T), so
    pt(p, G) >= pt(p, T) = deg_T(p), since T is maximal.  The charge of G is
    therefore at most the charge of T, and the maximum over all plane graphs
    is the maximum of sum_d v_d(T) 2^-d over the triangulations, read off
    each triangulation's degree histogram.
    """
    n = ps.n
    desc = _descriptor(ps)
    if not _paper_hypotheses(ps):
        return _verdict("graph_charge_cap", desc, None)
    top = n - 1

    def scaled(rec) -> int:  # 2^top * sum_d v_d(T) 2^-d
        return sum(count << (top - d) for d, count in enumerate(rec.histogram))

    rec = max(enumerate_triangulations(ps).records, key=scaled)
    max_charge = Fraction(scaled(rec), 1 << top)
    cap = lp_charge_cap(n)
    margin = cap - max_charge
    return _verdict(
        "graph_charge_cap", desc, margin >= 0, margin,
        {"graph": f"{rec.edges:x}", "charge": str(max_charge)},
        {
            "graphs_scanned": expected_degree_vector(ps).pg,
            "max_charge": max_charge,
            "cap": cap,
            "potential_monotonicity": True,
        },
    )


def verify_zero_ving_recurrence(ps: PointSet) -> list[VerificationReport]:
    """Deletion identities for 0-vings.

    (a) sum_G v_0(G) = sum_{q in P} pg(P minus q), via the bijection between
        graphs where q is isolated and plane graphs of the reduced set;
    (b) the internal variant, summing only over non-hull points;
    (c) the consequence pg(P) >= (n / vhat_0) * min_q pg(P minus q).
    """
    n = ps.n
    desc = _descriptor(ps)
    dv = expected_degree_vector(ps)
    drop_counts = [count_plane_graphs(ps.drop(q)) for q in range(n)]
    hull = set(convex_hull(ps))
    internal = [p for p in range(n) if p not in hull]

    total_zero = dv.ving_counts[0] if n else 0
    rhs_general = sum(drop_counts)
    internal_zero = sum(dv.per_point[p][0] for p in internal)
    rhs_internal = sum(drop_counts[p] for p in internal)
    # pg >= (n / vhat_0) * min_q pg(P minus q)  <=>  ving_0 >= n * min_q
    n_min_drop = n * min(drop_counts, default=0)
    return [
        _compare("zero_ving_identity", desc, total_zero == rhs_general, total_zero, rhs_general),
        _compare(
            "zero_ving_identity_internal", desc, internal_zero == rhs_internal, internal_zero,
            rhs_internal, {"lhs": internal_zero, "rhs": rhs_internal, "internal_points": internal},
        ),
        _compare(
            "zero_ving_growth_consequence", desc, total_zero >= n_min_drop, total_zero,
            n_min_drop, names=("zero_vings", "n_times_min_drop"),
        ),
    ]


def verify_product_law(n: int) -> VerificationReport:
    """pg(cap_with_apex(n)) = 2^(n-1) * pg(convex_chain(n-1)), exactly.

    The apex segments cross nothing (that is the certificate), so they are
    free choices on top of any plane graph of the cap.
    """
    ps = gen_cap_with_apex(n)
    lhs = count_plane_graphs(ps)
    chain_count = count_plane_graphs(gen_convex_chain(n - 1))
    rhs = (1 << (n - 1)) * chain_count
    return _compare(
        "cap_apex_product_law", _descriptor(ps), lhs == rhs, lhs, rhs,
        {"pg": lhs, "chain_count": chain_count, "free_choices": n - 1},
    )


# ---------------------------------------------------------------------------
# Analytic facts (point-set independent)
# ---------------------------------------------------------------------------


def _sweep(claim: str, steps, details: dict) -> VerificationReport:
    """One report for a sweep whose `steps` yield (margin, witness or None),
    the witness built only on a failing step: the smallest margin and the
    first witness.  A step may yield no margin (None), but only before the
    first real one."""
    margin = witness = None
    for step_margin, step_witness in steps:
        if margin is None or step_margin < margin:
            margin = step_margin
        if witness is None:
            witness = step_witness
    return _verdict(claim, "-", witness is None, margin, witness, details)


def harmonic_residual_sweep(m_max: int) -> VerificationReport:
    """0 <= eps_m <= 1/(8 m^2) for every m <= m_max (incremental harmonic sums)."""

    def steps():
        one = 1 << HARMONIC_SHIFT
        h_lo = h_hi = 0
        for m in range(1, m_max + 1):
            h_lo += one // m
            h_hi += -((-one) // m)
            ln_lo, ln_hi = log_interval(m)
            half = Fraction(1, 2 * m)
            eps_lo = ln_lo + GAMMA[0] + half - Fraction(h_hi, one)
            eps_hi = ln_hi + GAMMA[1] + half - Fraction(h_lo, one)
            # both eps_lo and 1/(8 m^2) - eps_hi must stay >= 0
            margin = min(eps_lo, Fraction(1, 8 * m * m) - eps_hi)
            yield margin, (
                {"m": m, "eps_lo": str(eps_lo), "eps_hi": str(eps_hi)} if margin < 0 else None
            )

    return _sweep("harmonic_residual_bounds", steps(), {"m_max": m_max})


def harmonic_gap_sweep(i_max: int) -> VerificationReport:
    """H_{2i} - H_i < ln 2 for every i <= i_max."""

    def steps():
        one = 1 << HARMONIC_SHIFT
        ln2_lo, _ = ln2_interval()
        gap_hi = 0  # certified upper bound of (H_2i - H_i) * 2^HARMONIC_SHIFT
        for i in range(1, i_max + 1):
            gap_hi += -((-one) // (2 * i - 1)) - ((-one) // (2 * i)) - one // i
            margin = ln2_lo - Fraction(gap_hi, one)
            yield margin, (
                {"i": i, "gap_hi": str(Fraction(gap_hi, one))} if margin <= 0 else None
            )

    return _sweep("harmonic_gap_ln2", steps(), {"i_max": i_max})


def stirling_sweep(m_max: int) -> VerificationReport:
    """Robbins bounds for every m <= m_max, with an incremental ln m! enclosure.

    The bounds are ln sqrt(2 pi m) + m ln m - m + 1/(12m+1) resp. + 1/(12m).
    A step's margin is the smaller of ln m! minus the upper end of the lower
    bound and the lower end of the upper bound minus ln m!; both must be
    positive.
    """

    def steps():
        pi_lo, pi_hi = pi_interval()
        lf_lo = lf_hi = Fraction(0)
        for m in range(1, m_max + 1):
            ln_lo, ln_hi = log_interval(m)
            if m > 1:
                lf_lo += ln_lo
                lf_hi += ln_hi
            lower_hi = log_interval(2 * m * pi_hi)[1] / 2 + m * ln_hi - m + Fraction(1, 12 * m + 1)
            upper_lo = log_interval(2 * m * pi_lo)[0] / 2 + m * ln_lo - m + Fraction(1, 12 * m)
            margin = min(lf_lo - lower_hi, upper_lo - lf_hi)
            yield margin, ({"m": m} if margin <= 0 else None)

    return _sweep("stirling_robbins_bounds", steps(), {"m_max": m_max})


def central_binomial_sweep(i_max: int) -> VerificationReport:
    """C(2i, i)/4^i < 1/sqrt(pi i) for every i <= i_max, by exact integers.

    Squared form: C^2 * i * pi_hi_num < pi_hi_den * 2^(4i).  The relative
    margin falls with i, so it is reported at i_max alone.
    """

    def steps():
        pn, pd = PI_HI.numerator, PI_HI.denominator
        c = 1
        for i in range(1, i_max + 1):
            c = c * 2 * (2 * i - 1) // i
            lhs = c * c * pn * i
            rhs = pd << (4 * i)
            margin = Fraction(rhs - lhs, rhs) if i == i_max else None
            yield margin, ({"i": i} if lhs >= rhs else None)

    details = {"i_max": i_max, "margin_domain": "squared, relative, at i_max"}
    return _sweep("central_binomial_bound", steps(), details)


def ving_charge_argmax_sweep(i_max: int) -> VerificationReport:
    """The per-ving charge profile peaks exactly on the plateau {2i-1, 2i}."""

    def steps():  # no margin; a step is yielded only where the profile fails
        for i in range(1, i_max + 1):
            try:
                max_family_charge(i)
            except AssertionError as exc:
                yield None, {"i": i, "error": str(exc)}

    return _sweep("ving_charge_argmax", steps(), {"i_max": i_max})


# ---------------------------------------------------------------------------
# Claim registry for the CLI
# ---------------------------------------------------------------------------

POINTSET_CLAIMS = {
    "v0_upper": lambda ps: [verify_v0_upper(ps)],
    "vi_upper": verify_vi_upper,
    "previous_lower": verify_previous_lower,
    "visibility": lambda ps: [verify_visibility_lemma(ps)],
    "triangulation_degrees": verify_triangulation_degree_lemmas,
    "charge_cap": lambda ps: [verify_graph_charge_cap(ps)],
    "zero_ving": verify_zero_ving_recurrence,
}

ANALYTIC_CLAIMS = {
    "harmonic": lambda: [harmonic_residual_sweep(1000), harmonic_gap_sweep(1000)],
    "stirling": lambda: [stirling_sweep(100)],
    "central_binomial": lambda: [central_binomial_sweep(1000)],
    "charge_argmax": lambda: [ving_charge_argmax_sweep(32)],
}

ALL_CLAIMS = list(POINTSET_CLAIMS) + list(ANALYTIC_CLAIMS)


def run_claims(
    ps: PointSet | None, claims: list[str] | None = None
) -> list[VerificationReport]:
    """Run the selected claims (all by default) and return their reports.

    A claim named twice runs once, at its first position.
    """
    selected = list(dict.fromkeys(claims)) if claims else ALL_CLAIMS
    unknown = [c for c in selected if c not in POINTSET_CLAIMS and c not in ANALYTIC_CLAIMS]
    if unknown:
        raise ValueError(f"unknown claims: {', '.join(map(repr, unknown))}")
    reports: list[VerificationReport] = []
    for name in selected:
        if name in POINTSET_CLAIMS:
            if ps is None:
                continue
            reports.extend(POINTSET_CLAIMS[name](ps))
        else:
            reports.extend(ANALYTIC_CLAIMS[name]())
    return reports
