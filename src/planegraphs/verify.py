"""Orchestrated verifiers: every claim decided exactly at desk scale.

No verifier walks every plane graph.  Claims that are sums over all plane
graphs (the expected-degree bounds, the 0-ving identities) and the
visibility lemma, whose minimum is the smallest visibility in any point's
family census, come from the counting DP's degree rows.  The triangulation
lemmas scan every triangulation, and so does the per-graph charge cap,
because a graph's charge is at most that of any triangulation containing
it.  Each verifier returns a :class:`VerificationReport` with an exact
rational margin.  A "violated" report always carries a reproducible witness.  Claims whose hypotheses the
input does not satisfy come back "not-applicable" with the observed data in
the details, so near-miss behaviour outside the hypotheses stays visible.

Comparisons against irrational bounds (n / sqrt(pi i), ln 2, the Robbins
bounds) go through the certified rational enclosures of
:mod:`planegraphs.certified`; margins are reported in the squared or log
domain where the comparison is performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .certified import (
    GAMMA,
    PI_HI,
    PI_LO,
    ln2_interval,
    log_interval,
)
from .charging import census_from_degree_row, max_family_charge
from .enumeration import (
    count_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    workspace,
)
from .geometry import PointSet, convex_hull, is_triangular_hull

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    pointset: str
    status: str
    margin: Fraction | None = None
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status == VIOLATED and self.witness is None:
            raise ValueError(f"violated claim {self.claim} carries no witness")

    @property
    def ok(self) -> bool:
        return self.status != VIOLATED


def _descriptor(ps: PointSet) -> str:
    hull = len(convex_hull(ps)) if ps.n >= 3 else ps.n
    return f"n={ps.n} hull={hull} sha256={ps.sha256()[:12]}"


# ---------------------------------------------------------------------------
# Expected-degree bounds
# ---------------------------------------------------------------------------


def verify_v0_upper(ps: PointSet, max_n: int | None = None) -> VerificationReport:
    """Expected isolated-vertex bound 11n/112 for triangular-hull sets, n >= 5."""
    dv = expected_degree_vector(ps, max_n=max_n)
    vhat0 = dv.vhat[0] if ps.n else Fraction(0)
    bound = Fraction(11 * ps.n, 112)
    details = {
        "vhat0": vhat0,
        "bound": bound,
        # 11/112 < 1/10.18 is a single exact comparison: 11*1018 < 112*100.
        "bound_strictly_below_n_over_10_18": 11 * 1018 < 112 * 100,
    }
    if ps.n < 5 or not is_triangular_hull(ps):
        return VerificationReport(
            claim="v0_upper",
            pointset=_descriptor(ps),
            status=NOT_APPLICABLE,
            details=details,
        )
    margin = bound - vhat0
    status = HOLDS if margin > 0 else VIOLATED
    witness = None if status == HOLDS else {"vhat0": str(vhat0), "bound": str(bound)}
    return VerificationReport(
        claim="v0_upper",
        pointset=_descriptor(ps),
        status=status,
        margin=margin,
        witness=witness,
        details=details,
    )


def verify_vi_upper(
    ps: PointSet, i_max: int | None = None, max_n: int | None = None
) -> list[VerificationReport]:
    """vhat_i < n / sqrt(pi i) for 1 <= i <= i_max, certified via rational pi."""
    n = ps.n
    if i_max is None:
        i_max = n - 1
    if i_max > n - 1:
        raise ValueError(f"i_max={i_max} exceeds the maximum degree {n - 1}")
    dv = expected_degree_vector(ps, max_n=max_n)
    reports = []
    for i in range(1, i_max + 1):
        vhat = dv.vhat[i]
        # vhat < n/sqrt(pi i)  <=>  vhat^2 * pi * i < n^2 (both sides >= 0)
        lhs_hi = vhat * vhat * PI_HI * i
        lhs_lo = vhat * vhat * PI_LO * i
        rhs = Fraction(n * n)
        if lhs_hi < rhs:
            status, margin = HOLDS, rhs - lhs_hi
        elif lhs_lo >= rhs:
            status, margin = VIOLATED, rhs - lhs_lo
        else:
            raise ArithmeticError(f"pi enclosure too coarse at i={i}")
        reports.append(
            VerificationReport(
                claim=f"vi_upper:i={i}",
                pointset=_descriptor(ps),
                status=status,
                margin=margin,
                witness=None if status == HOLDS else {"vhat_i": str(vhat), "i": i},
                details={"vhat_i": vhat, "margin_domain": "squared"},
            )
        )
    return reports


def verify_previous_lower(
    ps: PointSet, max_n: int | None = None
) -> list[VerificationReport]:
    """The four previously-known lower bounds on expected degree counts."""
    n = ps.n
    dv = expected_degree_vector(ps, max_n=max_n)
    vhat = dv.vhat

    def v(i: int) -> Fraction:
        return vhat[i] if i < n else Fraction(0)

    checks = [
        ("prior_v0_lower", v(0), Fraction(n, 3207), True),
        ("prior_v1_lower", v(1), Fraction(3 * n, 1024), False),
        ("prior_v2_lower", v(2), Fraction(33 * n, 2048), False),
        ("prior_v2v3_lower", v(2) + v(3), Fraction(n, 24), False),
    ]
    reports = []
    for claim, value, bound, strict in checks:
        margin = value - bound
        ok = margin > 0 if strict else margin >= 0
        reports.append(
            VerificationReport(
                claim=claim,
                pointset=_descriptor(ps),
                status=HOLDS if ok else VIOLATED,
                margin=margin,
                witness=None if ok else {"value": str(value), "bound": str(bound)},
                details={"value": value, "bound": bound, "strict": strict},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Plane-graph lemmas, read off the degree rows and the triangulations
# ---------------------------------------------------------------------------


def verify_visibility_lemma(ps: PointSet, max_n: int | None = None) -> VerificationReport:
    """Every isolated vertex of every graph sees at least 3 other vertices.

    A 0-ving (G, p) is the root of p's family through G, and p's visibility
    in G is that family's, so the minimum over all 0-vings is the smallest j
    in any point's family census, inverted from the degree rows.  Only a
    violation enumerates, to find a witness root.  Asserted under the
    triangular-hull, n >= 5 hypotheses; other sets run in report-only mode
    (the observed minimum is still recorded).
    """
    dv = expected_degree_vector(ps, max_n=max_n)
    strict = ps.n >= 5 and is_triangular_hull(ps)
    censuses = [census_from_degree_row(row) for row in dv.per_point]
    min_vis = min((j for census in censuses for j in census), default=None)
    details = {
        "graphs_scanned": dv.pg,
        "zero_vings_scanned": sum(row[0] for row in dv.per_point),
        "min_visibility": min_vis,
        "strict_mode": strict,
    }
    if not strict:
        return VerificationReport(
            claim="visibility_lemma",
            pointset=_descriptor(ps),
            status=NOT_APPLICABLE,
            details=details,
        )
    violated = min_vis is not None and min_vis < 3
    return VerificationReport(
        claim="visibility_lemma",
        pointset=_descriptor(ps),
        status=VIOLATED if violated else HOLDS,
        margin=Fraction(min_vis - 3) if min_vis is not None else None,
        witness=_visibility_witness(ps, censuses, min_vis) if violated else None,
        details=details,
    )


def _visibility_witness(ps: PointSet, censuses: list[dict[int, int]], j: int) -> dict:
    """The first root, in enumeration order, of visibility j of the
    lowest-labelled point whose census has a family of visibility j."""
    p = next(p for p, census in enumerate(censuses) if j in census)
    ws = workspace(ps)
    inc = ws.table.incident_masks[p]

    class Found(Exception):
        pass

    def visit(edges: int, blocked: int) -> None:
        if (inc & ~blocked).bit_count() == j:
            raise Found(edges)  # the first hit is the witness: stop the walk

    try:
        ws.enumerate_restricted(ws.full & ~inc, visit)
    except Found as hit:
        return {"graph": f"{hit.args[0]:x}", "point": p, "visibility": j}
    raise AssertionError(f"point {p} has no family root of visibility {j}")


def verify_triangulation_degree_lemmas(
    ps: PointSet, max_n: int | None = None
) -> list[VerificationReport]:
    """Degree-3 and degree-4 bounds over every triangulation, plus the
    sub-claim that at most one hull vertex of a triangulation has degree 3."""
    n = ps.n
    desc = _descriptor(ps)
    applicable = n >= 5 and is_triangular_hull(ps)
    claims = ("tri_deg3_bound", "tri_deg4_bound", "tri_hull_deg3_count")
    if not applicable:
        return [
            VerificationReport(claim=c, pointset=desc, status=NOT_APPLICABLE)
            for c in claims
        ]
    ws = workspace(ps)
    hull = convex_hull(ps)
    inc = ws.table.incident_masks
    stats = enumerate_triangulations(ps, max_n=max_n)

    margins: dict[str, Fraction | None] = {c: None for c in claims}
    witnesses: dict[str, dict | None] = {c: None for c in claims}

    for rec in stats.records:
        hull_deg3 = sum(
            1 for h in hull if (rec.graph.edges & inc[h]).bit_count() == 3
        )
        per_claim = {
            "tri_deg3_bound": Fraction(2 * n - 3 - 3 * rec.v3, 3),
            "tri_deg4_bound": Fraction(6 * n - 9 * rec.v3 - 6, 2) - rec.v4,
            "tri_hull_deg3_count": Fraction(1 - hull_deg3),
        }
        for key, value in per_claim.items():
            if margins[key] is None or value < margins[key]:
                margins[key] = value
                witnesses[key] = {
                    "graph": rec.graph.to_hex(),
                    "v3": rec.v3,
                    "v4": rec.v4,
                    "hull_deg3_count": hull_deg3,
                }

    reports = []
    for claim in claims:
        margin = margins[claim]
        violated = margin is not None and margin < 0
        reports.append(
            VerificationReport(
                claim=claim,
                pointset=desc,
                status=VIOLATED if violated else HOLDS,
                margin=margin,
                witness=witnesses[claim] if violated else None,
                details={"triangulations_scanned": stats.count},
            )
        )
    return reports


def verify_graph_charge_cap(ps: PointSet, max_n: int | None = None) -> VerificationReport:
    """Per-graph charge cap (11n-6)/112: sum_p 2^-pt(p, G) <= cap for every G.

    Potential monotonicity is a lemma, not a scan: if G is a subgraph of a
    triangulation T, then blocked(G) is a subset of blocked(T), so
    pt(p, G) >= pt(p, T) = deg_T(p), since T is maximal.  The charge of G is
    therefore at most the charge of T, and the maximum over all plane graphs
    is the maximum of sum_d v_d(T) 2^-d over the triangulations.
    """
    n = ps.n
    desc = _descriptor(ps)
    if n < 5 or not is_triangular_hull(ps):
        return VerificationReport(
            claim="graph_charge_cap", pointset=desc, status=NOT_APPLICABLE
        )
    stats = enumerate_triangulations(ps, max_n=max_n)
    top = n - 1
    cap_num = 11 * n - 6  # cap = cap_num / 112
    max_scaled, witness_graph = -1, None
    for rec in stats.records:
        scaled = sum(count << (top - d) for d, count in enumerate(rec.histogram))
        if scaled > max_scaled:
            max_scaled, witness_graph = scaled, rec.graph
    max_charge = Fraction(max_scaled, 1 << top)
    margin = Fraction(cap_num, 112) - max_charge
    violated = margin < 0
    return VerificationReport(
        claim="graph_charge_cap",
        pointset=desc,
        status=VIOLATED if violated else HOLDS,
        margin=margin,
        witness={"graph": witness_graph.to_hex(), "charge": str(max_charge)}
        if violated
        else None,
        details={
            "graphs_scanned": count_plane_graphs(ps, max_n=max_n),
            "max_charge": max_charge,
            "cap": Fraction(cap_num, 112),
            "potential_monotonicity": True,
        },
    )


def verify_zero_ving_recurrence(
    ps: PointSet, max_n: int | None = None
) -> list[VerificationReport]:
    """Deletion identities for 0-vings.

    (a) sum_G v_0(G) = sum_{q in P} pg(P minus q), via the bijection between
        graphs where q is isolated and plane graphs of the reduced set;
    (b) the internal variant, summing only over non-hull points;
    (c) the consequence pg(P) >= (n / vhat_0) * min_q pg(P minus q).
    """
    n = ps.n
    desc = _descriptor(ps)
    dv = expected_degree_vector(ps, max_n=max_n)
    drop_counts = {
        p.label: count_plane_graphs(ps.drop(p.label), max_n=max_n) for p in ps.points
    }
    hull = set(convex_hull(ps)) if n >= 3 else set(range(n))
    internal = [p for p in range(n) if p not in hull]

    reports = []

    total_zero = dv.ving_counts[0] if n else 0
    rhs_general = sum(drop_counts.values())
    margin_a = Fraction(total_zero - rhs_general)
    reports.append(
        VerificationReport(
            claim="zero_ving_identity",
            pointset=desc,
            status=HOLDS if margin_a == 0 else VIOLATED,
            margin=margin_a,
            witness=None
            if margin_a == 0
            else {"lhs": str(total_zero), "rhs": str(rhs_general)},
            details={"lhs": total_zero, "rhs": rhs_general},
        )
    )

    internal_zero = sum(dv.per_point[p][0] for p in internal)
    rhs_internal = sum(drop_counts[p] for p in internal)
    margin_b = Fraction(internal_zero - rhs_internal)
    reports.append(
        VerificationReport(
            claim="zero_ving_identity_internal",
            pointset=desc,
            status=HOLDS if margin_b == 0 else VIOLATED,
            margin=margin_b,
            witness=None
            if margin_b == 0
            else {"lhs": str(internal_zero), "rhs": str(rhs_internal)},
            details={"lhs": internal_zero, "rhs": rhs_internal, "internal_points": internal},
        )
    )

    # pg >= (n / vhat_0) * min_q pg(P minus q)  <=>  ving_0 >= n * min_q
    min_drop = min(drop_counts.values(), default=0)
    margin_c = Fraction(total_zero - n * min_drop)
    reports.append(
        VerificationReport(
            claim="zero_ving_growth_consequence",
            pointset=desc,
            status=HOLDS if margin_c >= 0 else VIOLATED,
            margin=margin_c,
            witness=None
            if margin_c >= 0
            else {"zero_vings": str(total_zero), "n_times_min_drop": str(n * min_drop)},
            details={"zero_vings": total_zero, "n_times_min_drop": n * min_drop},
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Analytic facts (point-set independent)
# ---------------------------------------------------------------------------


def harmonic_residual_sweep(m_max: int, shift: int = 220) -> VerificationReport:
    """0 <= eps_m <= 1/(8 m^2) for every m <= m_max (incremental harmonic sums)."""
    one = 1 << shift
    h_lo = 0
    h_hi = 0
    min_low = None   # min eps_lo (must stay >= 0)
    min_high = None  # min of 1/(8 m^2) - eps_hi (must stay >= 0)
    witness = None
    for m in range(1, m_max + 1):
        h_lo += one // m
        h_hi += -((-one) // m)
        ln_lo, ln_hi = log_interval(m)
        half = Fraction(1, 2 * m)
        eps_lo = ln_lo + GAMMA[0] + half - Fraction(h_hi, one)
        eps_hi = ln_hi + GAMMA[1] + half - Fraction(h_lo, one)
        head = Fraction(1, 8 * m * m) - eps_hi
        if min_low is None or eps_lo < min_low:
            min_low = eps_lo
        if min_high is None or head < min_high:
            min_high = head
        if (eps_lo < 0 or head < 0) and witness is None:
            witness = {"m": m, "eps_lo": str(eps_lo), "eps_hi": str(eps_hi)}
    margin = min(min_low, min_high) if min_low is not None else None
    return VerificationReport(
        claim="harmonic_residual_bounds",
        pointset="-",
        status=VIOLATED if witness else HOLDS,
        margin=margin,
        witness=witness,
        details={"m_max": m_max},
    )


def harmonic_gap_sweep(i_max: int, shift: int = 220) -> VerificationReport:
    """H_{2i} - H_i < ln 2 for every i <= i_max."""
    one = 1 << shift
    ln2_lo, _ = ln2_interval()
    gap_hi = 0  # certified upper bound of (H_2i - H_i) * 2^shift
    min_margin = None
    witness = None
    for i in range(1, i_max + 1):
        gap_hi += -((-one) // (2 * i - 1)) - ((-one) // (2 * i)) - one // i
        margin = ln2_lo - Fraction(gap_hi, one)
        if min_margin is None or margin < min_margin:
            min_margin = margin
        if margin <= 0 and witness is None:
            witness = {"i": i, "gap_hi": str(Fraction(gap_hi, one))}
    return VerificationReport(
        claim="harmonic_gap_ln2",
        pointset="-",
        status=VIOLATED if witness else HOLDS,
        margin=min_margin,
        witness=witness,
        details={"i_max": i_max},
    )


def _robbins_margins(m: int, lnfact: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Certified margins of both Robbins inequalities in the log domain.

    Returns (ln m! - upper end of the lower bound,
             lower end of the upper bound - ln m!); both must be positive.
    The bounds are ln sqrt(2 pi m) + m ln m - m + 1/(12m+1) resp. + 1/(12m).
    """
    from .certified import pi_interval

    pi_lo, pi_hi = pi_interval()
    tpm_lo = log_interval(Fraction(2 * m) * pi_lo)[0]
    tpm_hi = log_interval(Fraction(2 * m) * pi_hi)[1]
    lnm_lo, lnm_hi = log_interval(m)
    base_lo = tpm_lo / 2 + m * lnm_lo - m
    base_hi = tpm_hi / 2 + m * lnm_hi - m
    lower_hi = base_hi + Fraction(1, 12 * m + 1)
    upper_lo = base_lo + Fraction(1, 12 * m)
    lf_lo, lf_hi = lnfact
    return lf_lo - lower_hi, upper_lo - lf_hi


def stirling_sweep(m_max: int = 500) -> VerificationReport:
    """Robbins bounds for every m <= m_max, with an incremental ln m! enclosure."""
    lf_lo = Fraction(0)
    lf_hi = Fraction(0)
    min_margin = None
    witness = None
    for m in range(1, m_max + 1):
        if m > 1:
            k_lo, k_hi = log_interval(m)
            lf_lo += k_lo
            lf_hi += k_hi
        margin = min(_robbins_margins(m, (lf_lo, lf_hi)))
        if min_margin is None or margin < min_margin:
            min_margin = margin
        if margin <= 0 and witness is None:
            witness = {"m": m}
    return VerificationReport(
        claim="stirling_robbins_bounds",
        pointset="-",
        status=VIOLATED if witness else HOLDS,
        margin=min_margin,
        witness=witness,
        details={"m_max": m_max},
    )


def central_binomial_sweep(i_max: int) -> VerificationReport:
    """C(2i, i)/4^i < 1/sqrt(pi i) for every i <= i_max, by exact integers.

    Squared form: C^2 * i * pi_hi_num < pi_hi_den * 2^(4i).
    """
    pn, pd = PI_HI.numerator, PI_HI.denominator
    c = 1
    witness = None
    last_margin = None
    for i in range(1, i_max + 1):
        c = c * 2 * (2 * i - 1) // i
        lhs = c * c * pn * i
        rhs = pd << (4 * i)
        if lhs >= rhs and witness is None:
            witness = {"i": i}
        if i == i_max:
            last_margin = Fraction(rhs - lhs, rhs)
    return VerificationReport(
        claim="central_binomial_bound",
        pointset="-",
        status=VIOLATED if witness else HOLDS,
        margin=last_margin,
        witness=witness,
        details={"i_max": i_max, "margin_domain": "squared, relative, at i_max"},
    )


def ving_charge_argmax_sweep(i_max: int = 64) -> VerificationReport:
    """The per-ving charge profile peaks exactly on the plateau {2i-1, 2i}."""
    witness = None
    for i in range(1, i_max + 1):
        try:
            max_family_charge(i)
        except AssertionError as exc:
            witness = {"i": i, "error": str(exc)}
            break
    return VerificationReport(
        claim="ving_charge_argmax",
        pointset="-",
        status=VIOLATED if witness else HOLDS,
        witness=witness,
        details={"i_max": i_max},
    )


# ---------------------------------------------------------------------------
# Claim registry for the CLI
# ---------------------------------------------------------------------------

POINTSET_CLAIMS = {
    "v0_upper": lambda ps, max_n: [verify_v0_upper(ps, max_n=max_n)],
    "vi_upper": lambda ps, max_n: verify_vi_upper(ps, max_n=max_n),
    "previous_lower": lambda ps, max_n: verify_previous_lower(ps, max_n=max_n),
    "visibility": lambda ps, max_n: [verify_visibility_lemma(ps, max_n=max_n)],
    "triangulation_degrees": lambda ps, max_n: verify_triangulation_degree_lemmas(ps, max_n=max_n),
    "charge_cap": lambda ps, max_n: [verify_graph_charge_cap(ps, max_n=max_n)],
    "zero_ving": lambda ps, max_n: verify_zero_ving_recurrence(ps, max_n=max_n),
}

ANALYTIC_CLAIMS = {
    "harmonic": lambda: [harmonic_residual_sweep(1000), harmonic_gap_sweep(1000)],
    "stirling": lambda: [stirling_sweep(100)],
    "central_binomial": lambda: [central_binomial_sweep(1000)],
    "charge_argmax": lambda: [ving_charge_argmax_sweep(32)],
}

ALL_CLAIMS = list(POINTSET_CLAIMS) + list(ANALYTIC_CLAIMS)


def run_claims(
    ps: PointSet | None,
    claims: list[str] | None = None,
    max_n: int | None = None,
) -> list[VerificationReport]:
    """Run the selected claims (all by default) and return their reports."""
    selected = claims if claims else ALL_CLAIMS
    unknown = [c for c in selected if c not in POINTSET_CLAIMS and c not in ANALYTIC_CLAIMS]
    if unknown:
        raise ValueError(f"unknown claims: {', '.join(unknown)}")
    reports: list[VerificationReport] = []
    for name in selected:
        if name in POINTSET_CLAIMS:
            if ps is None:
                continue
            reports.extend(POINTSET_CLAIMS[name](ps, max_n))
        else:
            reports.extend(ANALYTIC_CLAIMS[name]())
    return reports
