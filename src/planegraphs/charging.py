"""Cross-graph charging machinery: visibility, potential, families, charges.

The charging argument moves charge between vings (point-in-graph instances)
of *different* plane graphs of the same point set.  The unit of structure is
the family: starting from a graph where p is isolated, connect p to any
subset of the vertices it can see; a family of visibility j has exactly 2^j
members, one per subset.  A graph is its int edge mask.  Charges are exact
dyadic values held as :class:`~fractions.Fraction`; every computation here
is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .enumeration import SelfCheckError, expected_degree_vector, workspace
from .geometry import PointSet


def visibility(ps: PointSet, edges: int, p: int) -> int:
    """Number of q != p with segment pq not in the graph `edges` and crossing none of them."""
    ws = workspace(ps)
    return (ws.table.incident_masks[p] & ~edges & ~ws.blocked(edges)).bit_count()


def potential(ps: PointSet, edges: int, p: int) -> int:
    """deg(p) plus the visibility of p in the graph `edges`: the family's visibility.

    The edges of a plane graph cross none of its edges, so this counts the
    segments at p outside blocked(edges).
    """
    ws = workspace(ps)
    return (ws.table.incident_masks[p] & ~ws.blocked(edges)).bit_count()


def family_root(ps: PointSet, edges: int, p: int) -> int:
    """`edges` minus the edges at p: the 0-ving graph of the family of (p, edges)."""
    return edges & ~workspace(ps).table.incident_masks[p]


def family_members(ps: PointSet, root: int, p: int) -> list[int]:
    """All 2^j graphs reachable by connecting p to visible vertices of `root`."""
    ws = workspace(ps)
    if root & ws.table.incident_masks[p]:
        raise ValueError(f"point {p} is not isolated in the given root graph")
    visible = ws.table.incident_masks[p] & ~ws.blocked(root)
    members = []
    add = 0
    while True:  # submasks of `visible` in increasing order
        edges = root | add
        if ws.blocked(add) & edges:
            raise SelfCheckError("family member has a crossing pair")
        members.append(edges)
        add = (add - visible) & visible
        if not add:
            return members


def family_charge_profile(i: int, j: int) -> Fraction:
    """Per-ving charge C(j, i) / 2^j after spreading a j-family's i-ving charge."""
    if i < 0 or j < 0:
        raise ValueError("indices must be non-negative")
    if i > j:
        return Fraction(0)
    return Fraction(comb(j, i), 1 << j)


def max_family_charge(i: int) -> tuple[tuple[int, ...], Fraction]:
    """Maximize C(j, i)/2^j over j >= i, exactly.

    The search runs up to j = 8i; beyond 2i the term ratio
    (j+1) / (2 (j+1-i)) is < 1, so the tail is strictly decreasing and the
    finite search is conclusive.  The maximum sits on the plateau
    {2i-1, 2i} with value C(2i, i) / 4^i.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    best = Fraction(-1)
    argmax: list[int] = []
    for j in range(i, 8 * i + 1):
        value = family_charge_profile(i, j)
        if value > best:
            best, argmax = value, [j]
        elif value == best:
            argmax.append(j)
    j_tail = 8 * i
    tail_ratio = Fraction(j_tail + 1, 2 * (j_tail + 1 - i))
    if tail_ratio >= 1:
        raise AssertionError("tail of the charge profile failed to decrease")
    if argmax != [2 * i - 1, 2 * i] or best != Fraction(comb(2 * i, i), 4**i):
        raise AssertionError(f"unexpected charge maximum for i={i}: {argmax}")
    return tuple(argmax), best


def _scaled_charge(incident_masks: tuple[int, ...], blocked: int, top: int) -> int:
    """2^top * sum_p 2^-pt(p, G) for the graph G whose blocked mask is `blocked`."""
    return sum(1 << (top - (inc & ~blocked).bit_count()) for inc in incident_masks)


def _dyadic_pair(num: int, top: int) -> tuple[int, int]:
    """num / 2^top in lowest terms, as (numerator, exponent): the report's pair."""
    shift = min(top, (num & -num).bit_length() - 1) if num else top
    return num >> shift, top - shift


def graph_charge_v0(ps: PointSet, edges: int) -> Fraction:
    """Total redistributed 0-ving charge in the graph `edges`: sum_p 2^-pt(p, edges)."""
    ws = workspace(ps)
    top = max(ps.n - 1, 0)  # potential is at most n-1
    num = _scaled_charge(ws.table.incident_masks, ws.blocked(edges), top)
    return Fraction(num, 1 << top)


def lp_charge_cap(n: int) -> Fraction:
    """Exact optimum (11n - 6)/112 of v3/8 + v4/16 + (n-v3-v4)/32 under the
    degree bounds v3 <= 2n/3 - 1, 9 v3 + 2 v4 <= 6n - 6, v3 + v4 <= n and
    v3, v4 >= 0, certified by LP duality: v3 = (4n-6)/7, v4 = (3n+6)/7 is
    feasible, and the multipliers 2/7 and 3/7 on the second and third bounds
    are non-negative and sum them to the objective's coefficients (3, 1), so
    no feasible point beats the bound they give, which that point attains."""
    if n < 5:
        raise ValueError("the charge cap optimization requires n >= 5")
    v3, v4 = Fraction(4 * n - 6, 7), Fraction(3 * n + 6, 7)
    y9, y1 = Fraction(2, 7), Fraction(3, 7)
    primal = Fraction(n + 3 * v3 + v4, 32)
    dual = Fraction(n + y9 * (6 * n - 6) + y1 * n, 32)
    certified = (
        0 <= v3 <= Fraction(2 * n, 3) - 1 and v4 >= 0
        and 9 * v3 + 2 * v4 <= 6 * n - 6 and v3 + v4 <= n
        and y9 >= 0 and y1 >= 0 and (9 * y9 + y1, 2 * y9 + y1) == (3, 1)
        and primal == dual == Fraction(11 * n - 6, 112)
    )
    if not certified:
        raise SelfCheckError(f"charge cap optimum mismatch at n={n}: {primal} at {(v3, v4)}")
    return primal


def census_from_degree_row(row: tuple[int, ...]) -> dict[int, int]:
    """A point's family census from its degree row, by binomial inversion.

    A family of visibility j holds C(j, k) graphs in which the point has
    degree k, so row[k] = sum_j C(j, k) census[j]; inverting,
    census[j] = sum_{k >= j} (-1)^(k-j) C(k, j) row[k].  Zero entries are
    dropped.
    """
    census: dict[int, int] = {}
    for j in range(len(row)):
        mult = sum((-1) ** (k - j) * comb(k, j) * row[k] for k in range(j, len(row)))
        if mult:
            census[j] = mult
    return census


def family_census(ps: PointSet, p: int) -> dict[int, int]:
    """census[j] = number of families of point p with visibility j.

    Counted, not enumerated: the inverse binomial transform of p's degree
    row in the cached degree vector (see :func:`census_from_degree_row`).
    """
    return census_from_degree_row(expected_degree_vector(ps).per_point[p])


def charge_audit(ps: PointSet) -> dict:
    """Per-graph charges, by one scan over every plane graph, plus pg, the
    0-ving count and the family census per point, from the counting DP.

    The scan is checked against the DP on the way: it visits pg(P) graphs,
    and their total charge equals the number of 0-vings.  Each point's
    family sizes sum to pg(P).

    A graph's charge depends only on its blocked mask, and a segment that
    crosses nothing (every hull edge, at least) never changes that mask, so
    the masks repeat: with f such segments there are at most pg / 2^f of
    them.  Each charge is computed once per distinct mask.

    The result is the body of the ``charge-audit`` report: pg and the
    0-ving count as decimal strings, and each charge, the total's as well,
    as ``{"num": decimal string, "exp": int}``, num / 2^exp in lowest
    terms; a ``per_graph_charges`` row adds ``"graph"``, the hex edge mask.
    """
    dv = expected_degree_vector(ps)
    zero_vings = dv.ving_counts[0] if ps.n else 0
    ws = workspace(ps)
    inc = ws.table.incident_masks
    top = max(ps.n - 1, 0)

    per_graph: list[dict] = []
    total_num = 0
    charges: dict[int, tuple[int, str, int]] = {}  # blocked -> (scaled, num, exp)
    walk = ws.independent_sets(ws.full)
    try:  # a walk stopped by an error closes here, not after the CLI's handler
        for edges, blocked in walk:
            charge = charges.get(blocked)
            if charge is None:
                scaled = _scaled_charge(inc, blocked, top)
                num, exp = _dyadic_pair(scaled, top)
                charge = charges[blocked] = (scaled, str(num), exp)
            total_num += charge[0]
            per_graph.append({"graph": f"{edges:x}", "num": charge[1], "exp": charge[2]})
    finally:
        walk.close()
    if len(per_graph) != dv.pg:
        raise SelfCheckError("the scan and the counting DP disagree on pg")
    if total_num != zero_vings << top:
        raise SelfCheckError("charge conservation failed: total != zero-ving count")
    total_num, total_exp = _dyadic_pair(total_num, top)

    census_rows = []
    for p, row in enumerate(dv.per_point):
        census = census_from_degree_row(row)
        if sum(mult << j for j, mult in census.items()) != dv.pg:
            raise SelfCheckError(f"family sizes of point {p} do not sum to pg")
        for j, mult in census.items():
            census_rows.append({"point": p, "visibility_j": j, "multiplicity": mult})

    return {
        "pg": str(dv.pg),
        "zero_ving_count": str(zero_vings),
        "total_charge": {"num": str(total_num), "exp": total_exp},
        "per_graph_charges": per_graph,
        "family_census": census_rows,
    }
