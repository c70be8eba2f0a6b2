"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every numeric check is exact (big integers / rationals); comparisons against
irrational bounds are certified through rational enclosures.  Criteria with a
stated runtime budget assert it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from planegraphs import (
    count_plane_graphs,
    enumerate_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
    family_census,
    flajolet_noy_approx,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    graph_charge_v0,
    lp_charge_cap,
    save_pts,
    verify_graph_charge_cap,
    verify_previous_lower,
    verify_product_law,
    verify_triangulation_degree_lemmas,
    verify_v0_upper,
    verify_vi_upper,
    verify_visibility_lemma,
    verify_zero_ving_recurrence,
)
from planegraphs.cli import main as cli_main
from planegraphs.enumeration import workspace
from planegraphs.verify import (
    HOLDS,
    central_binomial_sweep,
    harmonic_gap_sweep,
    harmonic_residual_sweep,
    stirling_sweep,
    ving_charge_argmax_sweep,
)

from conftest import catalan, count_plane_graphs_bruteforce, family_members


@contextmanager
def criterion(cid: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[{cid}] FAIL after {time.monotonic() - start:.2f}s")
        raise
    elapsed = time.monotonic() - start
    print(f"[{cid}] PASS in {elapsed:.2f}s" + (f" (budget {budget_s:.0f}s)" if budget_s else ""))
    if budget_s is not None:
        assert elapsed < budget_s, f"{cid} exceeded its runtime budget"


# Triangular-hull battery for criteria 4-6: cap-with-apex plus seeded random
# sets, 5 <= n <= 8, twelve sets in total.  Criterion 4 computes the degree
# vectors inside its timed block; 5 and 6 reuse them.
THULL_SPECS = (
    [("cap_with_apex", n, None) for n in (5, 6, 7, 8)]
    + [("random", n, seed) for n in (5, 6, 7, 8) for seed in (1, 2)]
)

_BATTERY: list = []


def _build(spec):
    kind, n, seed = spec
    return gen_cap_with_apex(n) if kind == "cap_with_apex" else gen_triangular_hull_random(n, seed)


def thull_battery():
    if not _BATTERY:
        for spec in THULL_SPECS:
            ps = _build(spec)
            _BATTERY.append((spec, ps, expected_degree_vector(ps)))
    return _BATTERY


def test_c01_counting_ground_truth():
    with criterion("C1", budget_s=1.0):
        assert count_plane_graphs(gen_convex_chain(3)) == 8
        assert count_plane_graphs(gen_convex_chain(4)) == 48
        for m in (3, 4, 5, 6):
            ps = gen_convex_chain(m)
            assert count_plane_graphs(ps) == count_plane_graphs_bruteforce(ps)


def test_c02_catalan_triangulation_counts():
    with criterion("C2", budget_s=5.0):
        for m, expected in ((4, 2), (5, 5), (6, 14), (7, 42)):
            assert enumerate_triangulations(gen_convex_chain(m)).count == expected
            assert expected == catalan(m - 2)


def test_c03_deletion_identity():
    sets = (
        [gen_convex_chain(m) for m in (3, 4, 5, 6, 7)]
        + [gen_cap_with_apex(n) for n in (4, 5, 6, 7)]
        + [gen_triangular_hull_random(n, seed=1) for n in (5, 6, 7)]
    )
    assert len(sets) >= 10
    with criterion("C3", budget_s=60.0):
        for ps in sets:
            dv = expected_degree_vector(ps)
            rhs = sum(count_plane_graphs(ps.drop(p)) for p in range(ps.n))
            assert dv.ving_counts[0] == rhs


def test_c04_theorem2_v0_upper():
    with criterion("C4", budget_s=600.0):
        battery = thull_battery()
        assert len(battery) >= 10
        for spec, ps, dv in battery:
            assert dv.vhat[0] < Fraction(11 * ps.n, 112), spec
            report = verify_v0_upper(ps)
            assert report.status == HOLDS and report.margin > 0, spec


def test_c05_theorem3_vi_upper():
    with criterion("C5"):
        for spec, ps, dv in thull_battery():
            reports = verify_vi_upper(ps)
            assert len(reports) == ps.n - 1
            assert all(r.status == HOLDS for r in reports), spec


def test_c06_theorem1_lower_bounds():
    with criterion("C6"):
        for spec, ps, dv in thull_battery():
            reports = verify_previous_lower(ps)
            assert len(reports) == 4
            assert all(r.status == HOLDS for r in reports), spec


SCAN_SPECS = [("cap_with_apex", n, None) for n in range(5, 11)] + [
    ("random", n, 1) for n in range(5, 11)
]


def test_c07_visibility_lemma_exhaustive():
    with criterion("C7"):
        for spec in SCAN_SPECS:
            ps = _build(spec)
            report = verify_visibility_lemma(ps)
            assert report.status == HOLDS, spec
            assert report.details["min_visibility"] >= 3, spec
            assert report.details["strict_mode"], spec


def test_c08_triangulation_degree_lemmas():
    specs = [("cap_with_apex", n, None) for n in (5, 6, 7, 8, 9)] + [
        ("random", n, 1) for n in (5, 6, 7, 8, 9)
    ]
    with criterion("C8"):
        for spec in specs:
            ps = _build(spec)
            reports = verify_triangulation_degree_lemmas(ps)
            assert [r.claim for r in reports] == [
                "tri_deg3_bound", "tri_deg4_bound", "tri_hull_deg3_count"
            ]
            assert all(r.status == HOLDS for r in reports), spec


def test_c09_charging_conservation_exhaustive():
    sets = [
        gen_convex_chain(5),
        gen_cap_with_apex(5),
        gen_cap_with_apex(6),
        gen_triangular_hull_random(6, seed=1),
    ]
    with criterion("C9"):
        for ps in sets:
            dv = expected_degree_vector(ps)
            # total graph charge = number of 0-vings, exactly
            total = Fraction(0)

            def accumulate(edges):
                nonlocal total
                total += graph_charge_v0(ps, edges)

            enumerate_plane_graphs(ps, accumulate)
            assert total == dv.ving_counts[0]
            # family census: sizes partition the census, and the per-family
            # i-ving counts are binomial
            ws = workspace(ps)
            for p in range(ps.n):
                census = family_census(ps, p)
                assert sum(mult << j for j, mult in census.items()) == dv.pg
                iving = [0] * ps.n
                tally: dict[int, int] = {}

                inc = ws.table.incident_masks[p]
                for edges, _ in ws.independent_sets(ws.full & ~inc):
                    # every family of p: binomial i-ving counts inside it
                    members = family_members(ps, edges, p)
                    j = len(members).bit_length() - 1
                    tally[j] = tally.get(j, 0) + 1
                    degrees = [(g & inc).bit_count() for g in members]
                    for i in range(j + 1):
                        count_i = degrees.count(i)
                        assert count_i == comb(j, i)
                        iving[i] += count_i
                for i in range(ps.n):
                    assert iving[i] == dv.per_point[p][i]
                # the exhaustive oracle for the census's binomial inversion
                assert tally == census


def test_c10_per_graph_charge_cap_and_monotonicity():
    with criterion("C10"):
        for spec in SCAN_SPECS:
            ps = _build(spec)
            report = verify_graph_charge_cap(ps)
            assert report.status == HOLDS, spec
            assert report.details["potential_monotonicity"] is True, spec
            assert report.details["max_charge"] <= Fraction(11 * ps.n - 6, 112), spec
            # the histogram's charge against the charge read off blocked masks
            records = enumerate_triangulations(ps).records
            charges = [graph_charge_v0(ps, r.edges) for r in records]
            assert report.details["max_charge"] == max(charges), spec


def test_c11_lp_optimum_matches_grid_oracle():
    with criterion("C11"):
        for n in range(5, 51):
            value = lp_charge_cap(n)
            assert value == Fraction(11 * n - 6, 112)
            # dense rational grid oracle with denominator 840
            scale = 840
            best = 0
            for a in range(560 * n - 840 + 1):
                b = min((6 * n - 6) * scale - 9 * a, 2 * n * scale - 2 * a)
                best = max(best, 2 * n * scale + 6 * a + b)
            assert Fraction(best, 64 * scale) == value


def test_c12_analytic_suite():
    with criterion("C12", budget_s=60.0):
        assert ving_charge_argmax_sweep(64).status == HOLDS
        assert central_binomial_sweep(10**4).status == HOLDS
        assert harmonic_residual_sweep(10**4).status == HOLDS
        assert harmonic_gap_sweep(10**4).status == HOLDS
        assert stirling_sweep(500).status == HOLDS


def test_c13_construction_and_asymptotics():
    with criterion("C13"):
        for n in (4, 5, 6, 7):
            assert verify_product_law(n).status == HOLDS
        ratios = {}
        for m in (5, 6, 7, 8):
            exact = count_plane_graphs(gen_convex_chain(m))
            ratios[m] = exact / flajolet_noy_approx(m)
            assert 0.5 <= ratios[m] <= 2.0, (m, ratios[m])
        distances = [abs(ratios[m] - 1) for m in (5, 6, 7, 8)]
        assert distances == sorted(distances, reverse=True)


def test_c14_worker_determinism(tmp_path, capsys):
    with criterion("C14"):
        pts = tmp_path / "ca6.pts"
        save_pts(gen_cap_with_apex(6), pts)
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"degrees-{run}.json"
            code = cli_main(["degrees", str(pts), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()
