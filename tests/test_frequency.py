import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from oracles import mpmath_golden_mean

from qpcmv.arith import dist_to_int
from qpcmv.errors import DomainError, PrecisionError
from qpcmv.frequency import (
    badly_approximable_score,
    continued_fraction,
    golden_mean,
    liouville_frequency,
    parse_frequency,
)


def test_golden_mean_expansion():
    g = golden_mean()
    assert g.partial_quotients[:6] == (1, 1, 1, 1, 1, 1)
    assert g.convergent_denominators()[:6] == (1, 2, 3, 5, 8, 13)
    assert not g.truncated
    assert g.precision_bits == 256


def test_golden_mean_matches_mpmath():
    # the integer square root rounds sqrt(5) to nearest, as mpmath does
    for bits in [*range(2, 400), 512, 1000, 4096]:
        assert golden_mean(bits, terms=1).value == mpmath_golden_mean(bits), \
            bits


def test_golden_mean_needs_two_bits():
    with pytest.raises(DomainError, match="bits=1"):
        golden_mean(bits=1)


def test_float_input_is_trusted_to_53_bits():
    f = continued_fraction(math.sqrt(2) - 1, terms=100)
    assert f.precision_bits == 53
    assert f.precision_limited
    assert f.partial_quotients[:5] == (2, 2, 2, 2, 2)


def test_mpf_input_is_trusted_to_its_precision():
    with mp.workprec(100):
        f = continued_fraction(mp.sqrt(2) - 1, terms=200)
    assert f.precision_bits == 100
    assert f.precision_limited
    # sqrt(2) - 1 = [0; 2, 2, 2, ...]: every kept quotient is genuine, and
    # the last kept convergent is below the 100-bit floor
    assert set(f.partial_quotients) == {2}
    assert f.convergents[-1][1] ** 2 < 2 ** 100


def test_rational_truncates():
    f = continued_fraction(Fraction(1, 4), terms=3)
    assert f.partial_quotients == (4,)
    assert f.truncated
    # exactly ``terms`` quotients is a full expansion, not a truncated one
    assert not continued_fraction(Fraction(1, 4), terms=1).truncated


def test_liouville_truncated_sum_has_huge_quotient():
    # sum of 2^-n! for n <= 5; the convergent 49/64 is so good that the
    # following quotient jumps to ~2^12 (exact rational arithmetic)
    f = liouville_frequency(2, 5, terms=8)
    dens = f.convergent_denominators()
    assert 64 in dens
    i = dens.index(64)
    assert f.partial_quotients[i + 1] >= 2**11
    assert f.partial_quotients[:7] == (1, 3, 3, 1, 2, 1, 4095)


def test_convergent_invariants_golden():
    g = golden_mean(terms=40)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for a, (p, q) in zip(g.partial_quotients, g.convergents):
        assert p == a * p_cur + p_prev
        assert q == a * q_cur + q_prev
        assert math.gcd(p, q) == 1
        p_prev, q_prev = p_cur, q_cur
        p_cur, q_cur = p, q
    # |a - p_k/q_k| < 1/(q_k q_{k+1})
    for (p, q), (_, q_next) in zip(g.convergents, g.convergents[1:]):
        assert abs(g.value - Fraction(p, q)) < Fraction(1, q * q_next)


def test_sympy_oracle_euclid_loop():
    sympy = pytest.importorskip("sympy")
    x = Fraction(113, 355)
    ours = continued_fraction(x, terms=32)
    theirs = list(sympy.continued_fraction(sympy.Rational(113, 355)))
    assert theirs[0] == 0
    assert list(ours.partial_quotients) == theirs[1:]


def test_distance_to_integers_examples():
    assert dist_to_int(0.75) == 0.25
    assert dist_to_int(3.0) == 0
    assert dist_to_int(-0.4) == pytest.approx(0.4, abs=1e-15)
    assert dist_to_int(Fraction(7, 2)) == Fraction(1, 2)


def brute_force_score(a: Fraction, q_max: int):
    """min of q <qa> over every 1 <= q <= q_max, first minimiser on ties:
    oracle for badly_approximable_score."""
    num, den = a.numerator, a.denominator
    best, best_q = None, 0
    for q in range(1, q_max + 1):
        r = q * num % den
        s = q * min(r, den - r)
        if best is None or s < best:
            best, best_q = s, q
    return Fraction(best, den), best_q


@given(
    den=st.integers(min_value=2, max_value=5000),
    data=st.data(),
    q_max=st.integers(min_value=2, max_value=6000),
)
@settings(max_examples=150, deadline=None)
def test_score_matches_brute_force(den, data, q_max):
    # q_max >= den is included: the minimum is then 0, at q = den
    num = data.draw(st.integers(min_value=1, max_value=den - 1))
    f = continued_fraction(Fraction(num, den), terms=64)
    scan = badly_approximable_score(f, q_max)
    assert (scan.min_score, scan.argmin_q) == brute_force_score(f.value, q_max)


def test_score_golden_full_scan():
    # the literal minimum of q <qa> over q <= 1e5 sits at q = 1 with value
    # g^2 = (3 - sqrt(5))/2; along Fibonacci denominators the score tends
    # to 1/sqrt(5) ~ 0.4472 from both sides
    g = golden_mean()
    scan = badly_approximable_score(g, 10**5)
    assert (scan.min_score, scan.argmin_q) == brute_force_score(g.value, 10**5)
    assert scan.argmin_q == 1
    assert float(scan.min_score) == pytest.approx(0.3819660112501051, abs=1e-12)
    tail_q, tail_score = scan.per_convergent[-1]
    assert tail_q == 75025
    assert float(tail_score) == pytest.approx(1 / math.sqrt(5), abs=1e-4)
    assert scan.reported_badly_approximable


def test_score_golden_at_huge_q_max():
    # the convergent walk takes ~60 Euclid steps where a scan would take 1e12
    g = golden_mean()
    scan = badly_approximable_score(g, 10**12)
    assert scan.argmin_q == 1
    assert scan.min_score == dist_to_int(g.value)
    assert scan.per_convergent[-1][0] == 956722026041  # F_59 <= 1e12 < F_60


def test_score_ties_go_to_the_smallest_q():
    # a = 1/2: q = 1 scores exactly the 1/2 bound of Legendre's theorem,
    # and q = 2 clears it
    half = continued_fraction(Fraction(1, 2), terms=4)
    scan = badly_approximable_score(half, 2)
    assert (scan.min_score, scan.argmin_q) == (0, 2)
    assert badly_approximable_score(half, 9).argmin_q == 2  # not 4, 6, 8
    # a = 2/5: q = 1 and the convergent denominator q = 2 both score 2/5
    f = continued_fraction(Fraction(2, 5), terms=4)
    assert f.convergent_denominators() == (2, 5)
    scan = badly_approximable_score(f, 4)
    assert (scan.min_score, scan.argmin_q) == (Fraction(2, 5), 1)


def test_score_looks_past_the_stored_expansion():
    # the minimum is over the convergents of the rational, not over the
    # quotients kept in the Frequency
    f = continued_fraction(Fraction(89, 233) + Fraction(1, 10**9), terms=2)
    assert len(f.convergents) == 2
    scan = badly_approximable_score(f, 10**4)
    assert (scan.min_score, scan.argmin_q) == brute_force_score(f.value, 10**4)
    assert scan.argmin_q > f.convergents[-1][1]


def test_score_rational_hits_zero():
    f = continued_fraction(Fraction(1, 3), terms=8)
    scan = badly_approximable_score(f, 10)
    assert scan.min_score == 0
    assert scan.argmin_q == 3
    assert not scan.reported_badly_approximable


def test_score_liouville_exact_value():
    f = liouville_frequency(2, 5)
    scan = badly_approximable_score(f, 100)
    # 64 a = 49 + 2^-18 + 2^-114 exactly
    expected = 64 * (Fraction(1, 2**18) + Fraction(1, 2**114))
    assert scan.min_score == expected
    assert scan.argmin_q == 64


def test_score_monotone_in_range():
    g = golden_mean()
    s1 = badly_approximable_score(g, 100)
    s2 = badly_approximable_score(g, 10**4)
    assert s2.min_score <= s1.min_score


def test_best_approximation_property_brute_force():
    # <a q_k> < <a q> for 0 < q < q_k, checked exhaustively up to 1e4
    g = golden_mean()
    dists = {}
    acc = Fraction(0)
    for q in range(1, 10**4 + 1):
        acc += g.value
        acc -= acc.numerator // acc.denominator
        dists[q] = min(acc, 1 - acc)
    for _, qk in g.convergents:
        if qk > 10**4 or qk == 1:
            continue
        dk = dists[qk]
        assert all(dists[q] > dk for q in range(1, qk))


def test_convergent_score_bound():
    g = golden_mean(terms=30)
    for (_, qk), (_, qn) in zip(g.convergents, g.convergents[1:]):
        assert dist_to_int(qk * g.value) < Fraction(1, qn)


@given(
    num=st.integers(min_value=1, max_value=999),
    den=st.integers(min_value=2, max_value=1000),
    q=st.integers(min_value=1, max_value=500),
)
@settings(max_examples=200, deadline=None)
def test_doubling_inequality(num, den, q):
    # <2x> <= 2 <x>, hence doubling a denominator sequence at most
    # quadruples the score q <qa>: the even-repetition reduction relies on it
    a = Fraction(num % den, den)
    if a == 0:
        a = Fraction(1, den + 1)
    s = q * dist_to_int(q * a)
    assert 2 * q * dist_to_int(2 * q * a) <= 4 * s
    # rotation by 2a at time q sees exactly the same distance as rotation
    # by a at time 2q
    assert dist_to_int(q * (2 * a)) == dist_to_int((2 * q) * a)


def test_liouville_designated_scores():
    f = liouville_frequency(10, 3)
    assert f.value == Fraction(110001, 10**6)
    scores = {
        q: q * dist_to_int(q * f.value)
        for q in f.designated_denominators
    }
    assert scores[10] == Fraction(10001, 10**4)
    assert scores[100] == Fraction(1, 100)
    assert scores[10**6] == 0
    # non-designated q = 1000 scores exactly 1
    assert 1000 * dist_to_int(1000 * f.value) == 1


def test_liouville_degenerate_depth_two():
    f = liouville_frequency(2, 2)
    assert f.value == Fraction(3, 4)
    assert f.truncated
    assert f.designated_denominators == (2, 4)


def test_liouville_budget_error():
    with pytest.raises(PrecisionError):
        liouville_frequency(2, 12)


def test_score_precision_guard():
    g = golden_mean(bits=64)
    with pytest.raises(PrecisionError):
        badly_approximable_score(g, 10**5)


def test_domain_errors():
    with pytest.raises(DomainError):
        continued_fraction(Fraction(3, 2), terms=4)
    with pytest.raises(DomainError):
        continued_fraction(Fraction(1, 2), terms=0)
    with pytest.raises(DomainError):
        liouville_frequency(1, 3)
    with pytest.raises(DomainError, match="zero denominator"):
        parse_frequency("1/0")


def test_precision_limited_expansion_stops():
    # 64-bit golden mean cannot support ~90 quotients; the expansion stops
    # at the precision floor instead of inventing them
    g = golden_mean(bits=64, terms=200)
    assert g.precision_limited
    assert len(g.partial_quotients) < 100
    assert all(a == 1 for a in g.partial_quotients)
