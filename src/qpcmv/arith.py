"""Exact rational helpers.

Torus coordinates and frequencies are carried as exact
``fractions.Fraction`` values, whatever number type a caller passes in.
Every finite binary float (Python float or mpmath mpf) is itself a
rational number, so conversion to ``Fraction`` is lossless, and an mpf is
read from its raw mantissa.
The package never imports mpmath: ``is_mpf`` looks it up in
``sys.modules``, since no mpf can exist before mpmath is loaded.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from fractions import Fraction

from .errors import DomainError

DEFAULT_PRECISION_BITS = 256


def is_mpf(x) -> bool:
    """Is x an mpmath float?  Loads no mpmath: without it, nothing is."""
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and isinstance(x, mpmath.mp.mpf)


def mpf_to_fraction(x) -> Fraction:
    """Lossless conversion of a finite mpf to an exact rational."""
    # read the raw mantissa tuple; mp.mpf(x) would re-round to the current
    # working precision and silently discard bits
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)
    if man == 0 and exp != 0:
        raise DomainError("non-finite value cannot become a Fraction")
    num = -man if sign else man
    if exp >= 0:
        return Fraction(num << exp, 1)
    return Fraction(num, 1 << (-exp))


def as_fraction(x) -> Fraction:
    """Exact conversion from int/float/str/Fraction/mpf.

    Strings accept both decimal ("0.3") and ratio ("3/10") forms and are
    parsed exactly.  Floats convert via their binary expansion, which is
    exact but usually not the decimal the user typed; prefer strings for
    decimal inputs.  A zero denominator ("1/0") is a DomainError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {x!r}") from None
    if is_mpf(x):
        return mpf_to_fraction(x)
    return Fraction(x)


def common_denominator(*values) -> int:
    """Least common multiple of the denominators of exact rationals.

    Over this D every value is an integer multiple of 1/D, so torus
    arithmetic on them reduces to integer arithmetic modulo D.
    """
    return math.lcm(1, *(as_fraction(v).denominator for v in values))


def circle_dist(x: int, d: int) -> int:
    """Distance from the integer x to the nearest multiple of d, so that
    circle_dist(x, d) / d is the distance from x / d to the integers."""
    r = x % d
    return min(r, d - r)


def dist_to_int(x) -> Fraction:
    """Distance from x to the nearest integer, in [0, 1/2], exact:
    ``circle_dist`` of x's numerator over its denominator."""
    x = as_fraction(x)
    return Fraction(circle_dist(x.numerator, x.denominator), x.denominator)


def circle_diameter(values, d: int) -> int:
    """max circle_dist(x - y, d) over pairs of the integer residues
    ``values`` (0 for a single value), exact, in O(m log m).

    The circle distance from x to y is d/2 less the distance from y to
    x's antipode x + d/2, so the residue farthest from x is a cyclic
    neighbour of that antipode.  Over all x the successor, the first
    residue at or after the antipode (found by bisection), suffices: if
    the y farthest from x precedes x's antipode by some gap, x follows
    y's antipode by the same gap.
    """
    s = sorted(set(values))
    # residues at or after x + d/2 are those at or after its ceiling
    half = (d + 1) // 2
    return max(
        circle_dist(x - s[bisect_left(s, (x + half) % d) % len(s)], d)
        for x in s
    )


def residue_dist(p, r, d: int) -> int:
    """D * (torus max-distance of p / D and r / D), for D = d."""
    return max(circle_dist(x - y, d) for x, y in zip(p, r))


def scaled(x, d: int):
    """x * d exactly: an int when the denominator of x divides d (x on the
    1/d grid), else a Fraction."""
    x = as_fraction(x)
    if d % x.denominator:
        return x * d
    return x.numerator * (d // x.denominator)
