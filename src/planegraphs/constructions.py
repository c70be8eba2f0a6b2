"""Extremal point-set generators and the convex-position asymptotics table.

The convex "half circle" of the extremal construction is realized as a
parabola cap (k, -k^2): identical order type (convex position, no three
collinear by the Vandermonde argument) with exact integer coordinates.  The
apex of the cap-with-apex construction is proved to work at one fixed height,
and the proof is checked, not assumed: generation is a self-check failure
unless no apex segment crosses any chord of the cap and the hull is the
expected triangle.  The certificate asks the crossing table's own rule,
:func:`planegraphs.crossings.crossed`, once per apex segment.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import NamedTuple

from .crossings import crossed
from .enumeration import count_plane_graphs, expected_degree_vector
from .geometry import COORD_LIMIT, PointSet, SelfCheckError, convex_hull, orientation


class ConstructionSpec(NamedTuple):
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
    """No apex segment (label 0 to i) crosses any cap chord (a, b): any
    segment crossing (0, i) misses the apex, so it is such a chord."""
    return not any(crossed(ps, 0, i) for i in range(1, ps.n))


def gen_cap_with_apex(n: int) -> PointSet:
    """A parabola cap of n-1 points plus one apex high above it (label 0).

    Cap point k = 1..n-1 is (k, -k^2) and the apex is (0, h), h = 4 (n-1)^2.
    The chord through cap points a < b meets x = 0 at height a*b, so:

    - an apex triple (apex, a, b) is collinear only when a*b = h;
    - the line from the apex to cap point i meets the parabola again at
      x = h/i > n-1, so it separates a from b only when a < i < b; point i
      then lies above the chord's line, and an apex segment crosses the
      chord only when the apex does not, that is when a*b >= h.

    But a*b <= (n-1)(n-2) < h, so this one height is in general position
    with no apex segment crossing a chord.  The non-crossing certificate,
    every apex segment against every segment that could cross it, and the
    hull, the triangle (apex, first cap point, last cap point), are still
    checked; a failure is a :class:`SelfCheckError`.
    """
    if n < 4:
        raise ValueError("cap with apex needs at least 4 points")
    height = 4 * (n - 1) ** 2
    if height > COORD_LIMIT:
        raise ValueError(f"n={n} exceeds the coordinate cap")
    ps = PointSet.from_coords([(0, height)] + [(k, -k * k) for k in range(1, n)])
    if not _apex_certified(ps) or set(convex_hull(ps)) != {0, 1, n - 1}:
        raise SelfCheckError(f"cap_with_apex({n}) failed its apex certificate")
    return ps


RANDOM_HULL_SIZE = 4096  # legs of the random sets' right-triangle hull


def gen_triangular_hull_random(n: int, seed: int) -> PointSet:
    """A large triangle plus n-3 interior lattice points, rejection sampled.

    A candidate is kept iff no pair of kept points is collinear with it (a
    duplicate shows as a zero orientation), so only its own triples are
    tested.  Deterministic in the seed; raises if the rejection budget runs out,
    and before drawing if n exceeds what the grid holds: no three points share
    a row, so it fits the hull's three, two on each of its first size - 3
    interior rows and one on the last, y = size - 2, where only x = 1 lies
    inside the hull.
    """
    if n < 4:
        raise ValueError("needs at least 4 points")
    size = RANDOM_HULL_SIZE
    most = 3 + 2 * (size - 3) + 1
    if n > most:
        raise ValueError(f"triangular_hull_random fits at most {most} points, got {n}")
    rng = random.Random(seed)
    pts = [(0, 0), (size, 0), (0, size)]
    budget = 20000 * n
    while len(pts) < n:
        budget -= 1
        if budget <= 0:
            raise ValueError("rejection budget exhausted; try another seed")
        x = rng.randrange(1, size - 1)
        y = rng.randrange(1, size - 1)
        if x + y >= size:
            continue
        c = (x, y)
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
