"""Continued-fraction analysis of rotation frequencies.

A :class:`Frequency` stores a number in (0, 1) as an exact rational
together with its continued-fraction expansion and convergents.  When the
stored rational only approximates an irrational target (e.g. the golden
mean rounded to 256 bits), ``precision_bits`` records how many bits are
trusted and the expansion stops before fabricating quotients the input
cannot support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from typing import Optional

from .arith import (
    DEFAULT_PRECISION_BITS,
    as_fraction,
    circle_dist,
    is_mpf,
)
from .errors import DomainError, PrecisionError

# Quotients are dropped once the convergent error 1/(q_k q_{k+1}) falls
# below the trust radius of the input, with this many guard bits.
_CF_GUARD_BITS = 8

# badly_approximable_score keeps at least this many significant bits in
# q * <q a> before it will return a value.
_SCORE_GUARD_BITS = 32

# badly_approximable_score reports a frequency badly approximable when its
# minimum score exceeds this; liouville_frequency refuses a sum that needs
# more bits than this; parse_frequency keeps at most this many quotients.
_BADLY_APPROXIMABLE_THRESHOLD = 0.01
_LIOUVILLE_MAX_BITS = 1_000_000
_PARSE_TERMS = 48


@dataclass(frozen=True)
class Frequency:
    """A frequency in (0, 1) with its continued-fraction data.

    ``convergents[k]`` is the coprime pair (p_{k+1}, q_{k+1}) matching
    ``partial_quotients[k]``; the 0th convergent (0, 1) is implicit.
    ``precision_bits is None`` means the rational value is exact (it *is*
    the number, not an approximation of one).
    """

    value: Fraction
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    truncated: bool
    precision_limited: bool
    precision_bits: Optional[int] = None
    designated_denominators: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not (0 < self.value < 1):
            raise DomainError(f"frequency must lie in (0,1), got {self.value}")

    def convergent_denominators(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.convergents)


def _convergents(value: Fraction):
    """The Euclidean continued-fraction loop: yields (a_k, p_k, q_k) for
    k = 1, 2, ... until the expansion of the rational ``value`` ends."""
    p_prev, q_prev = 1, 0  # (p_0, q_0) seeds: previous pair is (0, 1)
    p_cur, q_cur = 0, 1
    x = value
    while x != 0:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield a, p_cur, q_cur
        x = inv - a


def continued_fraction(
    a,
    terms: int,
    precision_bits: Optional[int] = None,
) -> Frequency:
    """Expand ``a`` in (0,1) to at most ``terms`` partial quotients.

    Rational input exhausts the expansion early and sets the truncation
    flag; inexact input (``precision_bits`` given) stops at the precision
    floor instead and sets ``precision_limited``.
    """
    if terms < 1:
        raise DomainError("terms must be >= 1")
    if isinstance(a, float) and precision_bits is None:
        precision_bits = 53
    if is_mpf(a) and precision_bits is None:
        precision_bits = a.context.prec
    value = as_fraction(a)
    if not (0 < value < 1):
        raise DomainError(f"expected a in (0,1), got {value}")
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    q_cur = 1
    limit = None
    if precision_bits is not None:
        limit = 1 << max(precision_bits - _CF_GUARD_BITS, 1)
    limited = False
    for a_k, p, q in islice(_convergents(value), terms):
        if limit is not None and q_cur * q > limit:
            # the last kept convergent is within 1/(q_cur q) of value, below
            # the trust radius of the input; further quotients are noise.
            limited = True
            break
        quotients.append(a_k)
        convergents.append((p, q))
        q_cur = q
    return Frequency(
        value=value,
        partial_quotients=tuple(quotients),
        convergents=tuple(convergents),
        truncated=not limited and len(quotients) < terms,
        precision_limited=limited,
        precision_bits=precision_bits,
    )


def golden_mean(bits: int = DEFAULT_PRECISION_BITS, terms: int = 64) -> Frequency:
    """(sqrt(5)-1)/2 rounded to ``bits`` bits, with its expansion.

    sqrt(5) in [2, 4) rounds to S / 2^(bits-2), S the integer nearest to
    sqrt(n), n = 5 * 4^(bits-2): r = isqrt(n), plus one when n > r^2 + r
    (no tie, sqrt(5) being irrational).  Less 1 and halved, it is exact.
    """
    if bits < 2:
        raise DomainError(f"golden_mean needs bits >= 2, got bits={bits}")
    n = 5 << (2 * bits - 4)
    r = math.isqrt(n)
    g = Fraction(r + (n > r * r + r) - (1 << (bits - 2)), 1 << (bits - 1))
    return continued_fraction(g, terms, precision_bits=bits)


@dataclass(frozen=True)
class ScoreScan:
    """The minimum of q * <q a> over 1 <= q <= Q.

    The verdict is a finite-range report, not a proof: the frequency is
    *reported* badly approximable when the minimum exceeds the threshold.
    """

    min_score: Fraction
    argmin_q: int
    per_convergent: tuple[tuple[int, Fraction], ...]
    q_max: int
    threshold: float
    reported_badly_approximable: bool


def badly_approximable_score(freq: Frequency, q_max: int) -> ScoreScan:
    """Exact min of q * <q a> over 1 <= q <= q_max, ties to the smallest q.

    By Legendre's theorem (Khinchin, *Continued Fractions*, Thm 19) a q
    with q <q a> < 1/2 is a multiple m q' of a convergent denominator q',
    and then q <q a> = m^2 q' <q' a>; any other q scores at least
    1/2 >= <a>, the score at q = 1.  So the minimum is taken over q = 1
    and the convergent denominators of the stored rational, in
    O(log q_max) Euclid steps.
    """
    if q_max < 2:
        raise DomainError("q_max must be >= 2")
    if freq.precision_bits is not None:
        need = 2 * q_max.bit_length() + _SCORE_GUARD_BITS
        if need > freq.precision_bits:
            raise PrecisionError(
                f"scanning q <= {q_max} needs ~{need} bits, frequency only "
                f"trusted to {freq.precision_bits}"
            )
    num = freq.value.numerator
    den = freq.value.denominator

    def score(q):  # den * q <q a>
        return q * circle_dist(q * num, den)

    # the stored convergents are the first ones of the walk
    stored = len(freq.convergents)
    best_num, best_q = score(1), 1
    per = []
    for k, (_, _, q) in enumerate(_convergents(freq.value)):
        if q > q_max:
            break
        s = score(q)
        if k < stored:
            per.append((q, Fraction(s, den)))
        if s < best_num:
            best_num, best_q = s, q
    min_score = Fraction(best_num, den)
    return ScoreScan(
        min_score=min_score,
        argmin_q=best_q,
        per_convergent=tuple(per),
        q_max=q_max,
        threshold=_BADLY_APPROXIMABLE_THRESHOLD,
        reported_badly_approximable=min_score > _BADLY_APPROXIMABLE_THRESHOLD,
    )


def liouville_frequency(base: int, depth: int, terms: int = 32) -> Frequency:
    """a = sum_{n=1..depth} base^(-n!) with repetition denominators base^(n!).

    The value is exact, so q_n * <a q_n> along the returned denominators is
    computed exactly; it decreases to 0 (the final denominator clears the
    sum entirely).
    """
    if base < 2:
        raise DomainError("base must be >= 2")
    if depth < 2:
        raise DomainError("depth must be >= 2")
    top = math.factorial(depth)
    bits_needed = top * max(base.bit_length() - 1, 1) + base.bit_length()
    if bits_needed > _LIOUVILLE_MAX_BITS:
        raise PrecisionError(
            f"base={base}, depth={depth} needs ~{bits_needed} bits "
            f"(budget {_LIOUVILLE_MAX_BITS})"
        )
    value = Fraction(0)
    dens = []
    for n in range(1, depth + 1):
        q = base ** math.factorial(n)
        value += Fraction(1, q)
        dens.append(q)
    return replace(continued_fraction(value, terms),
                   designated_denominators=tuple(dens))


def parse_frequency(text: str) -> Frequency:
    """CLI-facing parser: 'golden', 'liouville:BASE,DEPTH', 'p/q' or decimal."""
    text = text.strip()
    if text == "golden":
        return golden_mean(terms=_PARSE_TERMS)
    if text.startswith("liouville:"):
        spec = text.split(":", 1)[1]
        base_s, depth_s = spec.split(",")
        return liouville_frequency(int(base_s), int(depth_s),
                                   terms=_PARSE_TERMS)
    return continued_fraction(as_fraction(text), terms=_PARSE_TERMS)
