"""Extremal point-set generators and the convex-position asymptotics table.

The convex "half circle" of the extremal construction is realized as a
parabola cap (k, -k^2): identical order type (convex position, no three
collinear by the Vandermonde argument) with exact integer coordinates.  The
apex of the cap-with-apex construction is certified, not assumed: generation
fails unless no apex segment crosses any chord of the cap and general
position holds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .enumeration import count_plane_graphs, expected_degree_vector
from .geometry import (
    COORD_LIMIT,
    GeneralPositionError,
    Point,
    PointSet,
    convex_hull,
    orientation,
    segments_cross,
)


@dataclass(frozen=True)
class ConstructionSpec:
    """A reproducible generator request."""

    kind: str  # convex_chain | cap_with_apex | triangular_hull_random
    n: int
    seed: int | None = None

    def build(self) -> PointSet:
        if self.kind == "convex_chain":
            return gen_convex_chain(self.n)
        if self.kind == "cap_with_apex":
            return gen_cap_with_apex(self.n)
        if self.kind == "triangular_hull_random":
            return gen_triangular_hull_random(self.n, self.seed or 0)
        raise ValueError(f"unknown construction kind {self.kind!r}")


def gen_convex_chain(m: int) -> PointSet:
    """m points in convex position on the downward parabola (k, -k^2)."""
    if m < 3:
        raise ValueError("a convex chain needs at least 3 points")
    if m * m > COORD_LIMIT:
        raise ValueError(f"m={m} exceeds the coordinate cap")
    return PointSet.from_coords([(k, -k * k) for k in range(1, m + 1)])


def _apex_certified(ps: PointSet) -> bool:
    """No apex segment (label 0 to p_i) crosses any cap chord (p_j, p_k)."""
    pts = ps.points
    apex = pts[0]
    cap = pts[1:]
    for pi in cap:
        for a in range(len(cap)):
            for b in range(a + 1, len(cap)):
                if cap[a].label == pi.label or cap[b].label == pi.label:
                    continue
                if segments_cross(apex, pi, cap[a], cap[b]):
                    return False
    return True


def gen_cap_with_apex(n: int) -> PointSet:
    """A parabola cap of n-1 points plus one apex high above it (label 0).

    The apex height starts at 4 (n-1)^2 and doubles until the exhaustive
    non-crossing certificate and general position both pass; the hull is
    verified to be the triangle (apex, first cap point, last cap point).
    """
    if n < 4:
        raise ValueError("cap with apex needs at least 4 points")
    cap = [(k, -k * k) for k in range(1, n)]
    height = 4 * (n - 1) ** 2
    while height <= COORD_LIMIT:
        try:
            ps = PointSet.from_coords([(0, height)] + cap)
        except GeneralPositionError:
            pass
        else:
            if _apex_certified(ps) and set(convex_hull(ps)) == {0, 1, n - 1}:
                return ps
        height *= 2
    raise ValueError(f"no certified apex height below the coordinate cap for n={n}")


RANDOM_HULL_SIZE = 4096  # legs of the random sets' right-triangle hull


def gen_triangular_hull_random(n: int, seed: int) -> PointSet:
    """A large triangle plus n-3 interior lattice points, rejection sampled.

    A candidate is kept iff no pair of kept points is collinear with it (a
    duplicate shows as a zero orientation), so only its own triples are
    tested.  Deterministic in the seed; raises if the rejection budget runs out.
    """
    if n < 4:
        raise ValueError("needs at least 4 points")
    rng = random.Random(seed)
    size = RANDOM_HULL_SIZE
    pts = [Point(0, 0, 0), Point(size, 0, 1), Point(0, size, 2)]
    budget = 20000 * n
    while len(pts) < n:
        budget -= 1
        if budget <= 0:
            raise ValueError("rejection budget exhausted; try another seed")
        x = rng.randrange(1, size - 1)
        y = rng.randrange(1, size - 1)
        if x + y >= size:
            continue
        c = Point(x, y, len(pts))
        if all(orientation(a, b, c) for a, b in combinations(pts, 2)):
            pts.append(c)
    return PointSet(tuple(pts))


# Leading term of the asymptotic count of plane graphs on m points in convex
# position (Flajolet-Noy): (1/4) sqrt(99 sqrt(2) - 140) (6+4 sqrt(2))^m
# / (sqrt(pi) m^(3/2)).  The constant is pinned by the generating function
# F(z) = z + 2z^2 + 8z^3 + ... with F^2 + (2z^2 - 3z) F + 2z^2 = 0, whose
# square-root singularity at z = (3 - 2 sqrt(2))/2 has coefficient
# 2^(3/4) z0^(3/2), giving (5 sqrt(2) - 7) / (2^(7/4) sqrt(pi)) after
# the standard n^(-3/2) transfer.
FN_GROWTH = 6 + 4 * math.sqrt(2)
FN_CONSTANT = 0.25 * math.sqrt(99 * math.sqrt(2) - 140)


def flajolet_noy_approx(m: int) -> float:
    """Leading-term estimate of the number of plane graphs on a convex m-gon."""
    if m < 3:
        raise ValueError("m must be at least 3")
    return FN_CONSTANT * FN_GROWTH**m / (math.sqrt(math.pi) * m**1.5)


def fn_ratio_table(m_max: int) -> list[dict]:
    """Exact convex-position counts against the leading-term estimate."""
    rows = []
    previous = None
    for m in range(3, m_max + 1):
        exact = count_plane_graphs(gen_convex_chain(m))
        approx = flajolet_noy_approx(m)
        rows.append(
            {
                "m": m,
                "exact": exact,
                "approx": approx,
                "ratio": exact / approx,
                "growth_factor": None if previous is None else exact / previous,
            }
        )
        previous = exact
    return rows


V0_TREND_CONSTANTS = (23.31, 23.314, 23.32)


def v0_trend_table(n_max: int) -> list[dict]:
    """vhat_0 * c / n for the cap-with-apex construction, against each of the
    three growth constants quoted for it (trend data, nothing asserted)."""
    rows = []
    for n in range(4, n_max + 1):
        vhat0 = expected_degree_vector(gen_cap_with_apex(n)).vhat[0]
        row = {"n": n, "vhat0": vhat0}
        for c in V0_TREND_CONSTANTS:
            row[f"scaled_{c}"] = float(vhat0) * c / n
        rows.append(row)
    return rows
