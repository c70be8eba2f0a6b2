"""Certified enclosures for the transcendental comparisons.

All claim checks against irrational bounds go through rational interval
endpoints: a strict inequality is asserted only when it holds against the
unfavourable endpoint.  Enclosures for logarithms and pi come from mpmath's
interval arithmetic at 60 decimal digits; mpmath is imported on the first
call that needs such an enclosure, so runs that never compare against an
irrational bound do not load it.  The Euler-Mascheroni constant is pinned to
50 decimal digits (OEIS A001620) and cross-checked against the interval
value in the test suite.  The asserted margins exceed the enclosure widths
by many orders of magnitude, so no comparison is ever decided inside the
error band.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

Interval = tuple[Fraction, Fraction]

# pi < 3.141592653589794 (the digits continue ...93238); this coarse rational
# pair is enough for every charge comparison because the margins are huge.
PI_LO = Fraction(3141592653589793, 10**15)
PI_HI = Fraction(3141592653589794, 10**15)

# Euler-Mascheroni constant, 50 decimal digits (OEIS A001620).
_GAMMA_DIGITS = 57721566490153286060651209008240243104215933593992
GAMMA: Interval = (
    Fraction(_GAMMA_DIGITS, 10**50),
    Fraction(_GAMMA_DIGITS + 1, 10**50),
)


@cache
def _mpmath():
    """mpmath's interval context, at the working precision, and its libmp backend."""
    import mpmath
    import mpmath.libmp

    mpmath.iv.dps = 60
    return mpmath.iv, mpmath.libmp


def _to_interval(x) -> Interval:
    libmp = _mpmath()[1]
    lo, hi = x._mpi_
    nl, dl = libmp.to_rational(lo)
    nh, dh = libmp.to_rational(hi)
    return Fraction(int(nl), int(dl)), Fraction(int(nh), int(dh))


def log_interval(x: int | Fraction) -> Interval:
    """Rational enclosure of ln(x) for exact rational x > 0."""
    if x <= 0:
        raise ValueError("log_interval requires a positive argument")
    iv = _mpmath()[0]
    if isinstance(x, Fraction):
        arg = iv.mpf(x.numerator) / x.denominator
    else:
        arg = iv.mpf(x)
    return _to_interval(iv.log(arg))


def pi_interval() -> Interval:
    return _to_interval(_mpmath()[0].pi)


def ln2_interval() -> Interval:
    return log_interval(2)


def harmonic_interval(m: int, shift: int = 220) -> Interval:
    """Enclosure of H_m = sum_{k<=m} 1/k via fixed-point big integers."""
    if m < 0:
        raise ValueError("m must be non-negative")
    one = 1 << shift
    lo = sum(one // k for k in range(1, m + 1))
    hi = sum(-((-one) // k) for k in range(1, m + 1))
    return Fraction(lo, one), Fraction(hi, one)


def certify_strictly_below(value_lo_hi: Interval, bound_lo_hi: Interval) -> bool:
    """True iff the value interval lies strictly below the bound interval.

    Raises if the intervals overlap: that means the working precision was
    too small for the margin, never that the claim is merely false.
    """
    v_lo, v_hi = value_lo_hi
    b_lo, b_hi = bound_lo_hi
    if v_hi < b_lo:
        return True
    if v_lo >= b_hi:
        return False
    raise ArithmeticError(
        "interval enclosures overlap; increase the working precision"
    )
