import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from qpcmv import artifacts, dynamics
from qpcmv.arith import (
    as_fraction,
    circle_dist,
    common_denominator,
    dist_to_int,
    mpf_to_fraction,
    scaled,
)
from qpcmv.dynamics import (
    FULL_SCAN_CAP,
    RepetitionCertificate,
    Rotation,
    SkewShift,
    TorusPoint,
    _certify,
    _orbit_deviation,
    _scan_deviation,
    ap_max_dist,
    block_displacement,
    find_even_repetition,
    integer_kernel,
    integer_orbit,
    iterate,
    orbit_table,
    scaled_deviations,
    skew_repetition_times,
)
from qpcmv.errors import DomainError, PrecisionError
from qpcmv.frequency import golden_mean, liouville_frequency
from qpcmv.sampling import HarmonicFunction, verblunsky_window

GOLDEN = golden_mean()

fractions_01 = st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1)


def skew(a):
    return SkewShift(as_fraction(a))


def test_skew_one_step_matches_definition():
    # single application: (w1, w2) -> (w1 + 2a, w1 + w2)
    a = Fraction(1, 7)
    T = skew(a)
    w = TorusPoint.exact(Fraction(2, 5), Fraction(3, 5))
    got = iterate(T, w, 1)
    assert got.coords == (
        (Fraction(2, 5) + 2 * a) % 1,
        (Fraction(2, 5) + Fraction(3, 5)) % 1,
    )


def test_iterate_identity():
    T = skew(Fraction(1, 10))
    w = TorusPoint.exact("0.2", "0.3")
    assert iterate(T, w, 0) == w
    R = Rotation([Fraction(2, 7), Fraction(1, 3)])
    w2 = TorusPoint.exact("0.9", "0.1")
    assert iterate(R, w2, 0) == w2


def test_skew_closed_form_vs_repeated_application():
    T = skew("0.1")
    w = TorusPoint.exact("0.2", "0.3")
    stepped = w
    for _ in range(7):
        stepped = iterate(T, stepped, 1)
    assert iterate(T, w, 7) == stepped


@given(
    a=fractions_01,
    w1=fractions_01,
    w2=fractions_01,
    m=st.integers(min_value=-50, max_value=50),
    n=st.integers(min_value=-50, max_value=50),
)
@settings(max_examples=150, deadline=None)
def test_group_property_exact(a, w1, w2, m, n):
    T = skew(a)
    w = TorusPoint([w1, w2])
    assert iterate(T, iterate(T, w, m), n) == iterate(T, w, m + n)
    R = Rotation([a])
    v = TorusPoint([w1])
    assert iterate(R, iterate(R, v, m), n) == iterate(R, v, m + n)


def test_block_displacement_zero_q():
    T = skew("0.37")
    w = TorusPoint.exact("0.11", "0.91")
    assert block_displacement(T, w, 3, 0).coords == (0, 0)


def test_block_displacement_worked_example():
    # a=0.1, w1=0.2, n=1, q=2: (0.4, 0.4+0.4+0.4-0.2) = (0.4, 0.0)
    T = skew("0.1")
    w = TorusPoint.exact("0.2", "0.3")
    d = block_displacement(T, w, 1, 2)
    assert d.coords == (Fraction(2, 5), 0)
    p = iterate(T, w, 3)
    p0 = iterate(T, w, 1)
    direct = TorusPoint([x - y for x, y in zip(p.coords, p0.coords)])
    assert d == direct


@given(
    a=fractions_01,
    w1=fractions_01,
    w2=fractions_01,
    n=st.integers(min_value=-30, max_value=30),
    q=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_block_displacement_matches_iterates(a, w1, w2, n, q):
    T = skew(a)
    w = TorusPoint([w1, w2])
    d = block_displacement(T, w, n, q)
    p1 = iterate(T, w, n + q)
    p0 = iterate(T, w, n)
    direct = TorusPoint([x - y for x, y in zip(p1.coords, p0.coords)])
    assert d == direct


def test_block_displacement_extended_precision():
    # at 256 bits the closed formula and iterate subtraction agree far
    # below 1e-25 even for large n, q
    with mp.workprec(256):
        a = mpf_to_fraction(mp.sqrt(2) - 1)
        w = TorusPoint([mpf_to_fraction(mp.sqrt(3) - 1), Fraction(1, 7)])
    T = SkewShift(a)
    d = block_displacement(T, w, 10**6 + 1, 99 * 2)
    p1 = iterate(T, w, 10**6 + 1 + 198)
    p0 = iterate(T, w, 10**6 + 1)
    direct = TorusPoint([x - y for x, y in zip(p1.coords, p0.coords)])
    assert d.dist(direct) == 0  # exact in rational arithmetic


def test_find_even_repetition_golden():
    rot = Rotation([GOLDEN.value])
    w = TorusPoint([Fraction(0)])
    cert = find_even_repetition(rot, w, Fraction(1, 100), 4, 200)
    assert cert.q == 144
    assert cert.validated == "full-scan"
    assert float(cert.max_deviation) == pytest.approx(0.0031056, abs=2e-6)
    assert cert.max_deviation < Fraction(32, 10**4)


def test_find_even_repetition_half():
    rot = Rotation([Fraction(1, 2)])
    w = TorusPoint.exact("0.3")
    cert = find_even_repetition(rot, w, Fraction(1, 10**6), 4, 50)
    assert cert.q == 2
    assert cert.max_deviation == 0


def test_skew_badly_approximable_finds_nothing():
    # golden-mean skew-shift: no even repetition time up to 100 for small
    # epsilon (every q decided by its exact progression maximum)
    T = SkewShift(GOLDEN.value)
    w = TorusPoint.exact("0.3", "0.7")
    assert find_even_repetition(T, w, Fraction(1, 20), 4, 100) is None


def test_rotation_deviation_independent_of_position():
    rot = Rotation([GOLDEN.value])
    w = TorusPoint.exact("0.123")
    q = 34
    ds = {
        iterate(rot, w, n).dist(iterate(rot, w, n + q)) for n in range(50)
    }
    assert len(ds) == 1


def test_rotation_shortcut_equals_orbit_scan():
    rot = Rotation([GOLDEN.value])
    w = TorusPoint.exact("0.4")
    for q in (2, 8, 144):
        shortcut = dist_to_int(q * GOLDEN.value)
        scanned = max(
            iterate(rot, w, n).dist(iterate(rot, w, n + q))
            for n in range(4 * q + 1)
        )
        assert shortcut == scanned
    # the search on residues stops at the q, with the deviation, that the
    # Fraction form max_i <q s_i> < epsilon picks
    for shift, eps, q_max in [
        ([GOLDEN.value], Fraction(1, 1000), 1000),
        ([GOLDEN.value, Fraction(3, 7)], Fraction(1, 50), 2000),
        ([Fraction(5, 12), Fraction(1, 2**40 + 15)], Fraction(1, 10**6), 300),
    ]:
        rot = Rotation(shift)
        point = TorusPoint([Fraction(1, 3)] * rot.dim)
        expected = next(
            ((q, max(dist_to_int(q * a) for a in rot.shift))
             for q in range(2, q_max + 1, 2)
             if max(dist_to_int(q * a) for a in rot.shift) < eps), None)
        cert = find_even_repetition(rot, point, eps, 4, q_max)
        assert expected is not None
        assert (cert.q, cert.max_deviation, cert.argmax) == (*expected, 0)


@pytest.mark.parametrize("system", [
    Rotation([GOLDEN.value]),
    Rotation([GOLDEN.value, Fraction(3, 7)]),
    SkewShift(GOLDEN.value),
    SkewShift(liouville_frequency(2, 4).value),
], ids=["rotation-1d", "rotation-2d", "skew-golden", "skew-liouville"])
@pytest.mark.parametrize("grid", ["on", "off"])
@pytest.mark.parametrize("n_from", [-37, -1, 0, 5])
def test_integer_orbit_equals_closed_form(system, grid, n_from):
    omega = TorusPoint([Fraction(1, 3), Fraction(5, 11)][:system.dim])
    d, p, image = integer_kernel(system, omega)
    if grid == "off":
        # exact rational residues off the 1/D grid
        p = tuple(x + Fraction(k, 3**20) for k, x in enumerate(p, start=1))
    walked = list(integer_orbit(system, d, p, n_from, n_from + 40))
    assert walked == [image(p, n) for n in range(n_from, n_from + 41)]
    assert list(integer_orbit(system, d, p, n_from, n_from)) == [image(p, n_from)]
    assert list(integer_orbit(system, d, p, n_from, n_from - 1)) == []


@pytest.mark.parametrize("system,omega,q", [
    (Rotation([GOLDEN.value]), TorusPoint.exact("0.4"), 34),
    (Rotation([GOLDEN.value, Fraction(3, 7)]), TorusPoint.exact("1/3", "0.9"), 8),
    (SkewShift(GOLDEN.value), TorusPoint.exact("1/5", "2/3"), 6),
    (SkewShift(liouville_frequency(2, 4).value), TorusPoint.exact("0.3", 0), 64),
])
def test_scaled_deviations_match_fraction_scan(system, omega, q):
    ns = list(range(-3, 4 * q + 1)) + [10**6, -(10**7)]
    d, devs = scaled_deviations(system, omega, q, ns)
    devs = list(devs)
    assert all(isinstance(k, int) and 0 <= 2 * k <= d for k in devs)
    expected = [iterate(system, omega, n).dist(iterate(system, omega, n + q))
                for n in ns]
    assert [Fraction(k, d) for k in devs] == expected
    # the orbit table's floats: k / D is the rounded exact distance
    assert [k / d for k in devs] == [float(v) for v in expected]
    # over a range the two orbits are walked step by step
    walked = range(-3, 4 * q + 1)
    d2, devs2 = scaled_deviations(system, omega, q, walked)
    assert (d2, list(devs2)) == (d, devs[:len(walked)])


@given(num=st.integers(min_value=1, max_value=499))
@settings(max_examples=60, deadline=None)
def test_even_search_reduces_to_doubled_frequency(num):
    # even repetition for rotation by a at time q equals plain repetition
    # for rotation by 2a at time q/2 (window scaled to match)
    a = Fraction(num, 500)
    if a == Fraction(1, 2):
        a = Fraction(1, 3)
    rot_a = Rotation([a])
    rot_2a = Rotation([(2 * a) % 1])
    w = TorusPoint([Fraction(0)])
    eps = Fraction(1, 25)
    even = find_even_repetition(rot_a, w, eps, 2, 100)
    # the plain search for rotation by 2a, by brute force: a rotation's
    # displacement after q steps is <q 2a> at every n
    plain = next((q for q in range(1, 51)
                  if dist_to_int(q * rot_2a.shift[0]) < eps), None)
    if even is None:
        assert plain is None
    else:
        assert plain is not None
        assert even.q == 2 * plain


@given(
    c=fractions_01,
    d=fractions_01,
    n_max=st.integers(min_value=0, max_value=400),
)
@settings(max_examples=150, deadline=None)
def test_ap_max_matches_brute_force(c, d, n_max):
    m = ap_max_dist(c, d, n_max)
    dists = [dist_to_int(c + n * d) for n in range(n_max + 1)]
    assert m.value == max(dists)
    assert m.argmax == dists.index(m.value)


@given(
    den=st.integers(min_value=1, max_value=2**80),
    c_num=st.integers(min_value=-(2**80), max_value=2**80),
    d_num=st.integers(min_value=-(2**80), max_value=2**80),
    n_max=st.integers(min_value=0, max_value=3000),
)
@settings(max_examples=80, deadline=None)
def test_ap_max_first_argmax_large_denominators(den, c_num, d_num, n_max):
    # integer brute force over the common denominator: value and first
    # argmax of D * dist(c + n d), signed steps, many wraps of the circle
    c, d = Fraction(c_num, den), Fraction(d_num, den)
    m = ap_max_dist(c, d, n_max)
    D = common_denominator(c, d)
    dists = [circle_dist(scaled(c, D) + n * scaled(d, D), D)
             for n in range(n_max + 1)]
    assert m.value == Fraction(max(dists), D)
    assert m.argmax == dists.index(max(dists))


@given(
    a=st.fractions(min_value=0, max_value=1, max_denominator=40),
    w1=st.fractions(min_value=0, max_value=1, max_denominator=12),
    q=st.integers(min_value=1, max_value=8),
    window=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_orbit_deviation_matches_scan(a, w1, q, window):
    # small rationals make the first coordinate tie the progression term
    # often; the first argmax is then n = 0, as the scan finds it
    system = SkewShift(a)
    omega = TorusPoint([w1, Fraction(2, 7)])
    assert (_orbit_deviation(system, omega, q, window)
            == _scan_deviation(system, omega, q, window)[0])


@pytest.mark.parametrize("q", [2, 4, 6])
def test_orbit_deviation_matches_scan_above_scan_cap(q):
    # golden-256 skew windows of 40000..120000 points, past FULL_SCAN_CAP
    system = SkewShift(golden_mean(bits=256).value)
    omega = TorusPoint.exact("1/5", "2/3")
    window = 20_000 * q
    assert window > FULL_SCAN_CAP
    exact = _orbit_deviation(system, omega, q, window)
    assert exact == _scan_deviation(system, omega, q, window)[0]
    assert exact[0] > Fraction(49, 100)


def test_full_scan_validation_checks_the_first_argmax():
    system = SkewShift(Fraction(4, 21))
    omega = TorusPoint.exact("2/3", "6/7")
    value, argmax = _orbit_deviation(system, omega, 8, 1)
    # the constant first coordinate ties the progression term at n = 1
    assert (value, argmax) == (Fraction(1, 21), 0)
    bounds = dict(epsilon=Fraction(1, 10), window_factor=Fraction(1),
                  threshold=Fraction(1, 10))
    cert = _certify(system, omega, 8, 1, value, argmax, **bounds)
    assert (cert.validated, cert.argmax) == ("full-scan", 0)
    with pytest.raises(PrecisionError):
        _certify(system, omega, 8, 1, value, 1, **bounds)


@pytest.mark.parametrize("system,omega,epsilon", [
    (Rotation([GOLDEN.value]), TorusPoint.exact("357/1024"), Fraction(1, 1000)),
    (SkewShift(liouville_frequency(2, 4).value), TorusPoint.exact(0, 0),
     Fraction(1, 10)),
])
def test_orbit_table_reads_the_full_scan(tmp_path, monkeypatch, system, omega,
                                         epsilon):
    # the validation's scan stays on the certificate, outside its repr and
    # equality, and the orbit table writes it with no second scan
    cert = find_even_repetition(system, omega, epsilon, 4, 1000)
    assert cert.validated == "full-scan"
    d, devs = scaled_deviations(system, omega, cert.q, range(cert.window + 1))
    assert cert.deviations == (d, tuple(devs))
    rescanned = dataclasses.replace(cert, deviations=None)
    assert rescanned == cert and repr(rescanned) == repr(cert)
    artifacts.write_orbit_csv(tmp_path / "rescanned.csv", "c",
                              orbit_table(system, omega, rescanned))

    def no_scan(*args):
        raise AssertionError("a full-scan certificate's table is not rescanned")

    monkeypatch.setattr(dynamics, "scaled_deviations", no_scan)
    artifacts.write_orbit_csv(tmp_path / "kept.csv", "c",
                              orbit_table(system, omega, cert))
    assert ((tmp_path / "kept.csv").read_bytes()
            == (tmp_path / "rescanned.csv").read_bytes())


def test_spot_scanned_orbit_table_is_scanned(tmp_path, monkeypatch):
    # golden q = 8 at epsilon 1/10 and s = 2501: a window of 20008 points
    system, omega = Rotation([GOLDEN.value]), TorusPoint.exact(0)
    cert = find_even_repetition(system, omega, Fraction(1, 10), 2501, 8)
    assert cert.window > FULL_SCAN_CAP
    assert (cert.validated, cert.deviations) == ("spot-scan", None)
    scans = []
    scan = dynamics.scaled_deviations

    def counted(*args):
        scans.append(args[3])
        return scan(*args)

    monkeypatch.setattr(dynamics, "scaled_deviations", counted)
    artifacts.write_orbit_csv(tmp_path / "orbit.csv", "c",
                              orbit_table(system, omega, cert))
    assert scans == [range(cert.window + 1)]
    _, rows = artifacts.read_csv(tmp_path / "orbit.csv")
    # a rotation's displacement is the same at every n
    assert rows == [[str(n), repr(float(cert.max_deviation))]
                    for n in range(cert.window + 1)]


def test_wide_skew_window_without_repetition_returns_none():
    # every maximum wraps the circle, lies in [0.499997, 1/2] and the
    # windows exceed FULL_SCAN_CAP: the exact maxima decide without a scan
    system = SkewShift(golden_mean(bits=256).value)
    omega = TorusPoint.exact("1/5", "2/3")
    assert find_even_repetition(system, omega, Fraction(49, 100), 20_000,
                                6) is None


def test_skew_repetition_times_liouville():
    freq = liouville_frequency(2, 4)
    w = TorusPoint.exact("0.3", "0.7")
    res = skew_repetition_times(freq, w, Fraction(1, 10), 1)
    assert res.m_range == 11
    assert len(res.certificates) >= 1
    for cert in res.certificates:
        assert cert.q % 2 == 0
        assert 1 <= cert.m <= 11
        assert cert.max_deviation < 5 * Fraction(1, 10)
        assert cert.validated in ("full-scan", "spot-scan")
    # the construction keeps its full scans, as the plain search does
    full = [c for c in res.certificates if c.validated == "full-scan"]
    assert full
    for cert in full:
        d, devs = scaled_deviations(skew(freq.value), w, cert.q,
                                    range(cert.window + 1))
        assert cert.deviations == (d, tuple(devs))
    # the deepest level repeats exactly up to the w1 term
    top = res.certificates[-1]
    assert top.base_q == 2**24


def test_straddling_skew_level_scanned_once(monkeypatch):
    # a level whose progression wraps the circle is decided by its exact
    # maximum: each certificate gets exactly its validation scan and a
    # rejected level gets none
    freq = liouville_frequency(2, 4)
    w = TorusPoint.exact("0.3", "0.7")
    scans = []

    def counting_scan(system, omega, q, window, samples=None):
        scans.append(q)
        return _scan_deviation(system, omega, q, window, samples)

    monkeypatch.setattr(dynamics, "_scan_deviation", counting_scan)
    res = skew_repetition_times(freq, w, Fraction(1, 10), 1)
    wrapped = [c for c in res.certificates
               if c.window * dist_to_int(2 * c.q * freq.value) >= 1]
    assert wrapped
    assert sorted(scans) == sorted(c.q for c in res.certificates)


def test_skew_repetition_times_zero_w1():
    freq = liouville_frequency(2, 3)
    w = TorusPoint([Fraction(0), Fraction(2, 7)])
    res = skew_repetition_times(freq, w, Fraction(1, 10), 1)
    assert all(c.m == 1 for c in res.certificates)


def test_skew_rational_frequency_periodicity():
    # rational a = p/q0 in lowest terms: at multiples of 2 q0 every a-term
    # of the displacement is an integer, leaving only the w1 contribution
    a = Fraction(3, 4)
    T = skew(a)
    w = TorusPoint.exact("0.05", "0.6")
    for mult in (1, 2, 3):
        q = 2 * 4 * mult
        expected = dist_to_int(q * w.coords[0])
        measured = max(
            iterate(T, w, n).dist(iterate(T, w, n + q)) for n in range(2 * q)
        )
        assert measured == expected


def test_group_property_extended_precision():
    with mp.workprec(160):
        T = SkewShift(mp.sqrt(2) - 1)
        w = TorusPoint([mp.mpf(1) / 7, mp.mpf(2) / 11])
        a = iterate(T, iterate(T, w, 23), -50)
        b = iterate(T, w, -27)
    # the mpf inputs are read exactly, so the orbit is exact
    assert a == b


# each value with its reduction mod 1, worked by hand
_NUMBERS = [
    (-3, Fraction(0)),
    (5, Fraction(0)),
    (0.25, Fraction(1, 4)),
    (-0.4, Fraction(-0.4) + 1),
    (2.75, Fraction(3, 4)),
    ("7/3", Fraction(1, 3)),
    ("-0.3", Fraction(7, 10)),
    ("1", Fraction(0)),
    (Fraction(-5, 2), Fraction(1, 2)),
    (Fraction(9, 4), Fraction(1, 4)),
]


def _nudged_mpfs():
    """(mpf, its reduction mod 1): values off the 53-bit grid by 2^-150."""
    tiny = Fraction(1, 2 ** 150)
    with mp.workprec(200):
        return [(mp.mpf(1.25) + mp.mpf(2) ** -150, Fraction(1, 4) + tiny),
                (mp.mpf(-1.25) - mp.mpf(2) ** -150, Fraction(3, 4) - tiny),
                (mp.mpf(3) - mp.mpf(2) ** -150, 1 - tiny)]


@pytest.mark.parametrize("x,reduced", _NUMBERS + _nudged_mpfs())
def test_torus_types_hold_reduced_fractions(x, reduced):
    assert as_fraction(x) % 1 == reduced
    held = [TorusPoint([x]).coords[0], TorusPoint.exact(x).coords[0],
            Rotation([x]).shift[0], SkewShift(x).a]
    for value in held:
        assert type(value) is Fraction
        assert value == reduced and 0 <= value < 1


def test_dist_to_int_matches_floor_and_ceil():
    rng = random.Random(26)
    values = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
              for _ in range(500)]
    values += [Fraction(2 * k + 1, 2) for k in range(-5, 5)]
    values += [Fraction(k) for k in range(-3, 4)]
    for x in values:
        expected = min(x - math.floor(x), math.ceil(x) - x)
        got = dist_to_int(x)
        assert type(got) is Fraction and got == expected


def test_torus_reduction_of_mpf_agrees_with_mpmath():
    # doubles in (-1e6, 1e6), nudged by 2^-150 so that some need more
    # than 53 bits, and their integer parts
    rng = random.Random(7)
    with mp.workprec(200):
        for _ in range(200):
            nudge = rng.choice([0, 1, -1]) * mp.mpf(2) ** -150
            x = mp.mpf(rng.uniform(-1e6, 1e6)) + nudge
            point = TorusPoint([x, mp.mpf(int(x))])
            assert point.coords == (as_fraction(x - mp.floor(x)), 0)


def test_certificate_rejects_odd_or_failing():
    with pytest.raises(DomainError):
        RepetitionCertificate(
            q=3, epsilon=Fraction(1), window_factor=Fraction(1), window=1,
            threshold=Fraction(1, 2), max_deviation=Fraction(0), argmax=0,
        )
    with pytest.raises(DomainError):
        RepetitionCertificate(
            q=2, epsilon=Fraction(1, 10), window_factor=Fraction(1), window=1,
            threshold=Fraction(1, 10), max_deviation=Fraction(1, 2),
            argmax=0,
        )


@pytest.mark.parametrize("system,omega", [
    # a 1-D rotation once certified (0, 1/3) from its first coordinate alone
    (Rotation([GOLDEN.value]), TorusPoint.exact(0, "1/3")),
    # a 1-D point on the skew-shift once returned None
    (SkewShift(GOLDEN.value), TorusPoint.exact(0)),
])
def test_repetition_search_rejects_a_point_of_the_wrong_dimension(system,
                                                                  omega):
    with pytest.raises(DomainError, match="coordinates"):
        find_even_repetition(system, omega, Fraction(1, 10), 4, 100)


@pytest.mark.parametrize("system,omega", [
    # a 1-D rotation once dropped the second coordinate: (0, 1/3) -> (2/3,)
    (Rotation([Fraction(1, 3)]), TorusPoint.exact(0, "1/3")),
    (Rotation([Fraction(1, 3), Fraction(1, 5)]), TorusPoint.exact(0)),
    (SkewShift(GOLDEN.value), TorusPoint.exact(0)),
])
def test_iterate_rejects_a_point_of_the_wrong_dimension(system, omega):
    with pytest.raises(DomainError, match="coordinates"):
        iterate(system, omega, 2)
    with pytest.raises(DomainError, match="coordinates"):
        verblunsky_window(HarmonicFunction(0.5), system, omega, 0, 2)


def test_skew_repetition_times_rejects_a_1d_point():
    with pytest.raises(DomainError, match="coordinates"):
        skew_repetition_times(liouville_frequency(2, 4), TorusPoint.exact(0),
                              Fraction(1, 10), 1)


def test_zero_denominator_is_a_domain_error():
    with pytest.raises(DomainError, match="zero denominator"):
        as_fraction("1/0")
