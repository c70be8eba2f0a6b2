"""The scan verifiers can say "violated", and their witnesses replay.

`is_triangular_hull` is forced to True on a convex 5-chain, whose hull is a
pentagon, so the visibility lemma and the per-graph charge cap are asserted
on a set that breaks their hypotheses.  Each witness is then replayed with a
geometric oracle built from `segments_cross` on the coordinates.  The oracle
never reads the crossing bit-vectors, which feed both `visibility` and the
verifier scans.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import planegraphs.verify as verify_mod
from planegraphs import (
    PlaneGraph,
    enumerate_plane_graphs,
    gen_cap_with_apex,
    gen_convex_chain,
    gen_triangular_hull_random,
    potential,
    segments_cross,
    verify_graph_charge_cap,
    verify_visibility_lemma,
    visibility,
)
from planegraphs.verify import VIOLATED


def decode(edges: int, n: int) -> list[tuple[int, int]]:
    """Segment k is the k-th label pair (i, j), i < j, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [pair for k, pair in enumerate(pairs) if edges >> k & 1]


def oracle_plane(ps, edges: list[tuple[int, int]]) -> bool:
    pts = ps.points
    return not any(
        segments_cross(pts[a], pts[b], pts[c], pts[d])
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
        if not any(segments_cross(pts[p], pts[q], pts[a], pts[b]) for a, b in edges):
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
    assert report.witness == {"graph": "100", "point": 3, "visibility": 2}
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
    edges = decode(int(report.witness["graph"], 16), ps.n)
    assert oracle_plane(ps, edges)
    charge = sum(
        (Fraction(1, 2 ** oracle_potential(ps, edges, p)) for p in range(ps.n)),
        Fraction(0),
    )
    assert charge == Fraction(13, 16) == report.details["max_charge"]
    assert charge > Fraction(11 * ps.n - 6, 112) == Fraction(7, 16)


@pytest.mark.parametrize(
    "ps",
    [gen_convex_chain(5), gen_cap_with_apex(5), gen_triangular_hull_random(5, seed=1)],
    ids=["convex5", "cap_apex5", "random5"],
)
def test_visibility_and_potential_match_geometric_oracle(ps):
    def check(g: PlaneGraph) -> None:
        edges = decode(g.edges, ps.n)
        for p in range(ps.n):
            assert visibility(ps, g, p) == oracle_visibility(ps, edges, p)
            assert potential(ps, g, p) == oracle_potential(ps, edges, p)

    assert enumerate_plane_graphs(ps, check) > 0
