import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    enclosing_radius_brute_force,
    fraction_window,
    oracle_value,
    pairwise_circle_diameter,
    rho_at,
)

from qpcmv.artifacts import read_csv
from qpcmv.arith import (
    as_fraction,
    circle_diameter,
    circle_dist,
    dist_to_int,
    residue_dist,
    scaled,
)
from qpcmv.dynamics import (
    Rotation,
    SkewShift,
    TorusPoint,
    integer_kernel,
    integer_map,
    iterate,
)
from qpcmv.errors import (
    ConstructionError,
    DegenerateOrbitError,
    DomainError,
    InvariantViolation,
    WindowError,
)
from qpcmv.frequency import golden_mean
from qpcmv.sampling import (
    ConstantFunction,
    HarmonicFunction,
    PerturbedFunction,
    TentBump,
    TubeFunction,
    VerblunskySequence,
    _BallCentres,
    _boundary_offsets,
    _tube_spreads,
    ball_radius,
    distance_to_tubes,
    min_enclosing_circle,
    periodic_defect_maxima,
    tube_function,
    tube_sample_points,
    tube_tolerance_verdict,
    verblunsky_window,
    verify_ball,
)
from qpcmv.transfer import certify_gordon, coefficient_tolerance

GOLDEN = golden_mean()
ROT = Rotation([GOLDEN.value])
ORIGIN = TorusPoint([Fraction(0)])


def build_tubes(k=2, q=None, values=None):
    eps = Fraction(1, k)
    from qpcmv.dynamics import find_even_repetition

    cert = find_even_repetition(ROT, ORIGIN, eps, 4, 400)
    q = q or cert.q
    br = ball_radius(ROT, ORIGIN, q, eps)
    if values is None:
        values = [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)]
    return tube_function(ROT, ORIGIN, q, br.radius, values), br, eps


def test_zero_function_window():
    seq = verblunsky_window(ConstantFunction(0), ROT, ORIGIN, -5, 5)
    assert np.all(seq.values == 0)
    assert all(rho_at(seq, n) == 1.0 for n in range(-5, 6))


def test_harmonic_quarter_turn():
    f = HarmonicFunction(0.5)
    rot = Rotation([Fraction(1, 4)])
    seq = verblunsky_window(f, rot, ORIGIN, 0, 3)
    expected = [0.5, 0.5j, -0.5, -0.5j]
    for n, e in enumerate(expected):
        assert seq.alpha(n) == pytest.approx(e, abs=1e-15)


def test_rho_alpha_identity():
    f = HarmonicFunction(0.8)
    seq = verblunsky_window(f, ROT, TorusPoint.exact("0.13"), -20, 20)
    for n in range(-20, 21):
        a = seq.alpha(n)
        assert abs(rho_at(seq, n) ** 2 + abs(a) ** 2 - 1.0) <= 1e-15


@pytest.mark.parametrize("n_min, n_max", [(-3, 10), (0, 4), (-4, 0)])
def test_impurity_sits_at_site_zero(n_min, n_max):
    seq = VerblunskySequence.impurity(0.5, -0.99, n_min, n_max)
    assert [seq.alpha(n) for n in range(n_min, n_max + 1)] == [
        -0.99 if n == 0 else 0.5 for n in range(n_min, n_max + 1)]


@pytest.mark.parametrize("n_min, n_max", [(3, 10), (-10, -3)])
def test_impurity_window_must_hold_site_zero(n_min, n_max):
    with pytest.raises(WindowError,
                       match=rf"window \[{n_min},{n_max}\] does not hold n = 0"):
        VerblunskySequence.impurity(0.5, -0.99, n_min, n_max)


def test_csv_rows_are_the_sequence_values(tmp_path):
    # the writer reads the value array once; every row must still be the
    # repr of alpha(n) and of rho(n) taken one Python complex at a time,
    # also at the moduli 0, 1e-300 and 1 - 1e-12 (each at two phases)
    rng = np.random.default_rng(20261018)
    vals = np.sqrt(rng.random(500)) * 0.999 * np.exp(2j * np.pi * rng.random(500))
    edges = (np.repeat([0.0, 1e-300, 1 - 1e-12], 2)
             * np.exp(2j * np.pi * rng.random(6)))
    seq = VerblunskySequence(-250, 255, np.concatenate([vals, edges]))
    seq.to_csv(tmp_path / "verblunsky.csv", seed=3)
    header, rows = read_csv(tmp_path / "verblunsky.csv")
    assert header == ["n", "re_alpha", "im_alpha", "rho"]
    assert rows == [[str(n), repr(seq.alpha(n).real), repr(seq.alpha(n).imag),
                     repr(rho_at(seq, n))] for n in range(-250, 256)]


def test_window_rejects_escaping_function():
    class Bad:
        sup_norm = 1.0

        def denominator(self, d0):
            return d0

        def at_residues(self, p, d):
            return 1.0 + 0j

    with pytest.raises(InvariantViolation):
        verblunsky_window(Bad(), ROT, ORIGIN, 0, 1)
    # NaN once passed the disk test, and the error now names n and alpha(n)
    Bad.at_residues = lambda self, p, d: complex(math.nan, 0.0)
    with pytest.raises(InvariantViolation,
                       match=r"alpha\(-2\) = \(nan\+0j\) does not lie"):
        verblunsky_window(Bad(), ROT, ORIGIN, -2, 2)


@pytest.mark.parametrize("value", [1.0, -1j, 2.0, math.nan,
                                   complex(0.0, math.nan), math.inf])
def test_sequence_rejects_a_coefficient_off_the_open_disk(value):
    vals = np.array([0.1, 0.5j, value, -0.3, value], dtype=complex)
    with pytest.raises(InvariantViolation, match=r"^alpha\(3\) = "):
        VerblunskySequence(1, 5, vals)


@pytest.mark.parametrize("value", [1.0, 1j, 1.5, math.nan,
                                   complex(math.nan, 0.0), math.inf])
def test_sampling_families_reject_values_off_the_open_disk(value):
    # NaN once passed every one of these checks, with sup-norm nan
    with pytest.raises(DomainError, match="constant value must lie"):
        ConstantFunction(value)
    with pytest.raises(DomainError, match="coefficient must lie"):
        HarmonicFunction(value)
    bump = TentBump(ORIGIN, Fraction(1, 10), value)
    with pytest.raises(DomainError, match="perturbation pushes"):
        PerturbedFunction(ConstantFunction(0.1), bump)
    with pytest.raises(ConstructionError, match="tube values must lie"):
        TubeFunction(ROT, ORIGIN, 2, Fraction(1, 1000), [0.1, value])


# ---------------------------------------------------------------------------
# the residue walk of verblunsky_window against the Fraction window
# ---------------------------------------------------------------------------


def _window_tubes(rng):
    """Tube functions, epsilon = 1/10, on golden-256 rotations of T^1 and
    T^2 and the skew-shift, centred at seeded dyadic points."""
    a = golden_mean(bits=256).value
    out = []
    for kind, system, q in (("rotation-1d", Rotation([a]), 8),
                            ("rotation-2d", Rotation([a, a + Fraction(1, 2)]), 5),
                            ("skew", SkewShift(a), 4)):
        center = TorusPoint([Fraction(rng.randrange(1024), 1024)
                             for _ in range(system.dim)])
        br = ball_radius(system, center, q, Fraction(1, 10))
        values = [rng.uniform(0.1, 0.6) * cmath.exp(2j * math.pi * rng.random())
                  for _ in range(q)]
        out.append((kind, tube_function(system, center, q, br.radius, values)))
    return out


def _window_cases():
    """(label, f, system, omega, n_min, n_max), seeded: each tube function
    from its Gordon point, with and without an offset off its 1/D grid,
    over [-2q + 1, 3q] and over windows reaching past it on both sides
    (so the rotation's float blend and the skew-shift's exact blend run);
    harmonic, constant and perturbed functions."""
    rng = random.Random(20261018)
    a = golden_mean(bits=256).value
    cases = []
    tubes = _window_tubes(rng)
    for kind, f in tubes:
        q, r = f.q, f.radius
        offset = [r * Fraction(rng.randrange(1, 10**4), 10**9 + 7)
                  for _ in range(f.center.dim)]
        omegas = {"gordon": f.gordon_point(),
                  "gordon-off-grid": f.gordon_point(offset)}
        assert any(isinstance(scaled(x, f.denominator(1)), Fraction)
                   for x in omegas["gordon-off-grid"].coords)
        for label, w in omegas.items():
            for n_min, n_max in ((-2 * q + 1, 3 * q), (-2 * q - 5, 3 * q + 7),
                                 (-40, -2 * q), (3 * q + 1, 50)):
                cases.append((f"tube-{kind}-{label}", f, f.system, w,
                              n_min, n_max))
        bump = TentBump(f.tube_balls(1)[1], r, 0.05)
        cases.append((f"perturbed-tube-{kind}", PerturbedFunction(f, bump),
                      f.system, f.gordon_point(offset), -2 * q - 5, 3 * q + 7))
    w1 = TorusPoint([Fraction(rng.randrange(10**9 + 7), 10**9 + 7)])
    w2 = TorusPoint.exact("1/3", "2/7")
    rot, skew = Rotation([a]), SkewShift(a)
    harmonic = HarmonicFunction(0.8 * cmath.exp(0.3j))
    cases += [
        ("harmonic-rotation", harmonic, rot, w1, -300, 300),
        ("harmonic-skew", harmonic, skew, w2, -100, 100),
        ("constant", ConstantFunction(0.3 - 0.4j), rot, w1, -20, 20),
        ("perturbed-harmonic",
         PerturbedFunction(HarmonicFunction(0.5),
                           TentBump(TorusPoint.exact("1/7"), "1/50", 0.2)),
         rot, w1, -200, 200),
    ]
    return cases


def test_residue_window_matches_fraction_window():
    cases = _window_cases()
    assert len(cases) == 3 * (2 * 4 + 1) + 4
    for label, f, system, omega, n_min, n_max in cases:
        seq = verblunsky_window(f, system, omega, n_min, n_max)
        expected = fraction_window(f, system, omega, n_min, n_max)
        assert seq.values.tobytes() == expected.tobytes(), (label, n_min)


def test_residue_window_walks_no_fraction_points(monkeypatch):
    import qpcmv.sampling as sampling

    def no_iterate(*args):
        raise AssertionError("the window must not iterate in Fractions")

    monkeypatch.setattr(sampling, "iterate", no_iterate)
    f, _, _ = build_tubes(k=3)
    w0 = TorusPoint.exact(0)
    seq = verblunsky_window(f, ROT, iterate(ROT, w0, 2 * f.q), -5, 5)
    assert seq.values.shape == (11,)


# ---------------------------------------------------------------------------
# the sorted-residue circle diameter against all pairs
# ---------------------------------------------------------------------------


def _diameter_cases():
    """Seeded (d, residues) for odd and even d: singletons, pairs exactly
    (or, for odd d, as nearly as can be) d/2 apart, sets wrapping past 0,
    three clusters spread over more than d/3, and random sets."""
    rng = random.Random(20261018)
    cases = []
    for d in (1, 2, 3, 4, 5, 7, 10, 11, 64, 101, 1000, 2**20 + 1, 2**21):
        w = max(1, d // 10)
        for _ in range(5):
            x = rng.randrange(d)
            cases.append((d, [x]))
            cases.append((d, [x, (x + d // 2) % d]))
            cases.append((d, [x, (x + (d + 1) // 2) % d, x]))
            cases.append((d, [(x + d // 2) % d, x, rng.randrange(d)]))
            cases.append((d, [(-rng.randrange(1, w + 1)) % d for _ in range(3)]
                          + [rng.randrange(w) for _ in range(3)]))
            cases.append((d, [(k * d // 3 + rng.randrange(w)) % d
                              for k in range(3) for _ in range(2)]))
        for _ in range(150):
            size = rng.randrange(1, 25)
            cases.append((d, [rng.randrange(d) for _ in range(size)]))
    return cases


def test_circle_diameter_matches_all_pairs():
    cases = _diameter_cases()
    assert len(cases) == 13 * (5 * 6 + 150)
    for d, values in cases:
        assert circle_diameter(values, d) == pairwise_circle_diameter(
            values, d), (d, values)

    def arc(d, values):
        """Length of the shortest arc holding the residues: d less the
        largest cyclic gap."""
        s = sorted(set(values))
        return d - max((y - x) % d or d for x, y in zip(s, s[1:] + s[:1]))

    # the styles the docstring names are present: a diameter of exactly
    # d/2, sets that wrap past 0, and sets no arc of their diameter holds
    # (the sort-and-largest-gap shortcut would overstate their diameter)
    assert any(d % 2 == 0 and circle_diameter(v, d) == d // 2
               for d, v in cases)
    assert any(max(v) - min(v) > d // 2 and 0 < circle_diameter(v, d) < d // 4
               for d, v in cases)
    assert any(d > 3 and circle_diameter(v, d) < arc(d, v) for d, v in cases)


# ---------------------------------------------------------------------------
# ball radius
# ---------------------------------------------------------------------------


def test_ball_radius_below_min_gap():
    report = ball_radius(ROT, ORIGIN, 2, Fraction(1, 2))
    # oracle: brute-force pairwise orbit gap over the 10 iterates
    pts = [iterate(ROT, ORIGIN, n) for n in range(1, 11)]
    gap = min(
        pts[i].dist(pts[j])
        for i in range(10)
        for j in range(i + 1, 10)
    )
    assert report.min_center_gap == gap
    assert 0 < report.radius < gap / 2
    assert report.verified


def test_ball_radius_golden_q144():
    report = ball_radius(ROT, ORIGIN, 144, Fraction(1, 100))
    assert report.radius > 0
    assert report.radius < report.min_center_gap / 2
    assert report.verified


def test_ball_radius_rational_collision():
    rot = Rotation([Fraction(1, 8)])
    with pytest.raises(DegenerateOrbitError):
        ball_radius(rot, ORIGIN, 2, Fraction(1, 2))


# Every report field, as computed by the Fraction implementation that the
# integer kernel replaced (golden mean at 256 bits).
GOLDEN_REPORTS = {
    "rotation-q144": dict(
        radius="2101065006051440418224089863368878889561760878387952458465932401169900139313/5789604461865809771178549250434395392663499233282028201972879200395656481996800",
        min_center_gap="21222878849004448668930200640089685753149099781696489479453862638079799387/28948022309329048855892746252171976963317496166410141009864396001978282409984",
        tube_spread="11237694685328167439233513035280950651266705320544259740714638480342842973/904625697166532776746648320380374280103671755200316906558262375061821325312",
        disjoint_bound="21222878849004448668930200640089685753149099781696489479453862638079799387/57896044618658097711785492504343953926634992332820282019728792003956564819968",
        containment_bound="396124375156625551177156595013782386795502350997437154575557995129196447791/9046256971665327767466483203803742801036717552003169065582623750618213253120",
        denominator_bits=262,
    ),
    "skew-q2": dict(
        radius="22875979447705960396971234568506784943571706545566032680426693160471549817003/955284736207858612244460626321675239789477373491534653325525068065283319529472",
        min_center_gap="403304498150162141602869643839642007896217080680201320663751570969736460469/3618502788666131106986593281521497120414687020801267626233049500247285301248",
        tube_spread="20546054016287612886867884809751180501404537704049178834369900842495873797973/43422033463993573283839119378257965444976244249615211514796594002967423614976",
        disjoint_bound="403304498150162141602869643839642007896217080680201320663751570969736460469/14474011154664524427946373126085988481658748083205070504932198000989141204992",
        containment_bound="22875979447705960396971234568506784943571706545566032680426693160471549817003/955284736207858612244460626321675239789477373491534653325525068065283319529472",
        denominator_bits=263,
    ),
    "skew-q4": dict(
        radius="37702081769171074865715859159138930552774683333872167317049907106896026677777/5789604461865809771178549250434395392663499233282028201972879200395656481996800",
        min_center_gap="403304498150162141602869643839642007896217080680201320663751570969736460469/7237005577332262213973186563042994240829374041602535252466099000494570602496",
        tube_spread="3607265093980802939547359768486216169763420315480723366492334861766942458275/7237005577332262213973186563042994240829374041602535252466099000494570602496",
        disjoint_bound="380829108779505806724402617769080106593683670039112801182322294009050774523/57896044618658097711785492504343953926634992332820282019728792003956564819968",
        containment_bound="7595359296741111685819122154741512446120524301000559534166992017542935691073/607908468495910025973747671295611516229667419494612961207152316041543930609664",
        denominator_bits=265,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_ball_radius_report_pinned(name):
    a = golden_mean(bits=256).value
    system, center, q, eps = {
        "rotation-q144": (Rotation([a]), ORIGIN, 144, Fraction(1, 100)),
        "skew-q2": (SkewShift(a), TorusPoint.exact("1/3", "2/7"), 2,
                    Fraction(1, 10)),
        "skew-q4": (SkewShift(a), TorusPoint.exact(0, 0), 4, Fraction(1, 10)),
    }[name]
    report = ball_radius(system, center, q, eps)
    expected = dict(GOLDEN_REPORTS[name])
    assert report.denominator_bits == expected.pop("denominator_bits")
    for field, value in expected.items():
        assert getattr(report, field) == Fraction(value), field
    assert report.verified is True


def test_large_skew_q_is_fast_and_periodic():
    # the Fraction implementation needed ~100 s for this ball_radius alone
    q = 16
    system = SkewShift(golden_mean(bits=256).value)
    center = TorusPoint.exact(0, 0)
    t0 = time.perf_counter()
    br = ball_radius(system, center, q, Fraction(1, 10))
    assert br.verified
    values = [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)]
    f = tube_function(system, center, q, br.radius, values)
    seq = verblunsky_window(f, system, f.gordon_point(), -2 * q, 3 * q + 1)
    elapsed = time.perf_counter() - t0
    for n in range(-2 * q + 1, 2 * q + 1):
        assert seq.alpha(n) == seq.alpha(n + q)
    assert elapsed < 5.0, f"q = 16 skew tube took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# the centre pair walk against the disjointness loops it replaced
# ---------------------------------------------------------------------------


def loop_disjointness(system, center, q, epsilon):
    """Test oracle: (min_center_gap, disjoint_bound) from the two loops the
    pair walk replaced, the index gaps m * shift of a rotation and every
    centre pair of the skew-shift; DegenerateOrbitError on a collision."""
    d, c, image = integer_kernel(system, center, 10 * epsilon)
    if isinstance(system, Rotation):
        zero = (0,) * center.dim
        gaps = [max(circle_dist(x, d) for x in image(zero, m))
                for m in range(1, 5 * q)]
        if 0 in gaps:
            raise DegenerateOrbitError("collision")
        return Fraction(min(gaps), d), Fraction(min(gaps), 2 * d)
    orbit = [image(c, n) for n in range(5 * q + 1)]
    min_gap = bound = None
    for i in range(1, 5 * q + 1):
        for j in range(i + 1, 5 * q + 1):
            s1, s2 = (circle_dist(x - y, d) for x, y in zip(orbit[i], orbit[j]))
            if max(s1, s2) == 0:
                raise DegenerateOrbitError("collision")
            if min_gap is None or max(s1, s2) < min_gap:
                min_gap = max(s1, s2)
            pair = max(Fraction(s1, 2), Fraction(s2, i + j + 2))
            if bound is None or pair < bound:
                bound = pair
    return Fraction(min_gap, d), bound / d


def closest_pair_wraps(system, center, q):
    """Does a closest pair of the 5q centres (max metric) lie on both sides
    of 0 in the first coordinate, so that only a wrapping walk meets it?"""
    pts = [iterate(system, center, n).coords for n in range(1, 5 * q + 1)]
    pairs = [(max(dist_to_int(x - y) for x, y in zip(a, b)), a[0], b[0])
             for i, a in enumerate(pts) for b in pts[i + 1:]]
    gap = min(p[0] for p in pairs)
    return any(dist_to_int(x - y) < abs(x - y)
               for g, x, y in pairs if g == gap)


def _walk_cases():
    """Seeded ball_radius inputs for rotations on T^1 and T^2 and the
    skew-shift: generic frequencies, orbits translated so that a closest
    pair straddles 0, and rational frequencies whose orbits collide."""
    rng = random.Random(20261019)
    cases = []
    for kind, count in (("rotation-1d", 24), ("rotation-2d", 12), ("skew", 24)):
        dim = 1 if kind == "rotation-1d" else 2
        for v in range(count):
            style = ("generic", "wrap", "collision")[v % 3]
            q = rng.randrange(1, 13 if kind == "skew" else 41)
            if style == "collision":
                den = rng.randrange(2, 5 * q)
                freq = [Fraction(rng.randrange(1, den), den) for _ in range(dim)]
                coords = [Fraction(rng.randrange(den), den) for _ in range(dim)]
            else:
                freq = [Fraction(rng.randrange(1, 2**20), 2**20 + 1)
                        for _ in range(dim)]
                coords = [Fraction(rng.randrange(1024), 1024) for _ in range(dim)]
            system = SkewShift(freq[0]) if kind == "skew" else Rotation(freq)
            center = TorusPoint(coords)
            if style == "wrap":
                # move the first coordinates so that a closest pair sits
                # at -g/2 and g/2
                pts = [iterate(system, center, n) for n in range(1, 5 * q + 1)]
                a, b = min(((a, b) for i, a in enumerate(pts)
                            for b in pts[i + 1:]), key=lambda ab: ab[0].dist(ab[1]))
                x, y = sorted((a.coords[0], b.coords[0]))
                mid = (x + y) / 2 if y - x <= Fraction(1, 2) else (x + y + 1) / 2
                center = TorusPoint([coords[0] - mid] + coords[1:])
            cases.append((kind, style, system, center, q))
    return cases


def test_ball_radius_pair_walk_matches_the_loops_it_replaced():
    eps = Fraction(1, 2)  # a tube can never outgrow 5 epsilon
    wraps = {}
    for kind, style, system, center, q in _walk_cases():
        try:
            expected = loop_disjointness(system, center, q, eps)
        except DegenerateOrbitError:
            with pytest.raises(DegenerateOrbitError, match="collide"):
                ball_radius(system, center, q, eps, grid=2)
            assert style == "collision", (kind, system, center, q)
            continue
        report = ball_radius(system, center, q, eps, grid=2)
        assert (report.min_center_gap, report.disjoint_bound) == expected, (
            kind, style, system, center, q)
        wraps.setdefault(kind, []).append(closest_pair_wraps(system, center, q))
    for kind in ("rotation-1d", "rotation-2d", "skew"):
        assert len(wraps[kind]) >= 8 and 3 <= sum(wraps[kind]), kind


def test_rotation_tube_spreads_match_all_pairs():
    # a rotation's spread, the same for every tube, against every centre
    # pair of every tube (the skew-shift's form, valid for any system)
    rng = random.Random(20261019)
    for dim in (1, 2) * 12:
        q = rng.randrange(1, 41)
        system = Rotation([Fraction(rng.randrange(1, 2**30), 2**30 + 3)
                           for _ in range(dim)])
        center = TorusPoint([Fraction(rng.randrange(1024), 1024)
                             for _ in range(dim)])
        d, c, image = integer_kernel(system, center)
        orbit = [image(c, n) for n in range(5 * q + 1)]
        expected = _tube_spreads(orbit, q, d, rotation=False)
        assert _tube_spreads(orbit, q, d, rotation=True) == expected, (dim, q)
        # ball_radius reports the largest spread over its own denominator
        report = ball_radius(system, center, q, Fraction(1, 2), grid=2)
        assert report.tube_spread == Fraction(max(expected), d)


def test_close_pairs_match_brute_force():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.choice([7, 64, 1000])
        count = rng.randrange(2, 30)
        # residues on a few values, so equal first coordinates and the
        # ends 0 and d - 1 occur
        pool = [0, d - 1] + [rng.randrange(d) for _ in range(4)]
        orbit = [None] + [(rng.choice(pool), rng.randrange(d))
                          for _ in range(count)]
        limit = rng.randrange(d // 2 + 1)
        centres = _BallCentres(orbit, d)
        got = [frozenset(p) for p in centres.close_pairs(lambda: limit)]
        expected = {frozenset((i, j)) for i in range(1, count + 1)
                    for j in range(i + 1, count + 1)
                    if circle_dist(orbit[i][0] - orbit[j][0], d) <= limit}
        # every close pair once, when 2 * limit < d
        assert set(got) == expected
        if 2 * limit < d:
            assert len(got) == len(expected)


@pytest.mark.parametrize("kind", ["rotation-1d", "rotation-2d", "skew"])
def test_tube_overlap_matches_brute_force(kind):
    rng = random.Random(kind)
    decided = []
    for _ in range(6):
        q = rng.randrange(1, 9)
        dim = 1 if kind == "rotation-1d" else 2
        freq = [Fraction(rng.randrange(1, 2**20), 2**20 + 1) for _ in range(dim)]
        system = SkewShift(freq[0]) if kind == "skew" else Rotation(freq)
        center = TorusPoint([Fraction(rng.randrange(64), 64) for _ in range(dim)])
        # oracle: the closest pair of the 5q centres, in Fraction arithmetic
        pts = [iterate(system, center, n) for n in range(1, 5 * q + 1)]
        gap = min(a.dist(b) for i, a in enumerate(pts) for b in pts[i + 1:])
        for radius in (gap / 2, gap / 2 - Fraction(1, 2**40), gap / 3,
                       gap * Fraction(rng.randrange(1, 200), 100),
                       Fraction(1, 4)):
            overlap = gap <= 2 * radius
            if overlap:
                with pytest.raises(ConstructionError, match="overlap"):
                    TubeFunction(system, center, q, radius, [0.1] * q)
            else:
                TubeFunction(system, center, q, radius, [0.1] * q)
            decided.append(overlap)
    assert 6 <= decided.count(True) and 6 <= decided.count(False)


@pytest.mark.parametrize("radius", [0, Fraction(-1, 100)])
def test_tube_radius_must_be_positive(radius):
    with pytest.raises(DomainError, match="positive"):
        TubeFunction(ROT, ORIGIN, 2, radius, [0.1, 0.2])


@pytest.mark.parametrize("system,center", [
    (ROT, ORIGIN),
    (SkewShift(golden_mean(bits=64).value), TorusPoint.exact("1/5", "1/3")),
])
def test_tube_self_check_reads_residues(monkeypatch, system, center):
    # the self-check locates the residues of the ball centres; building
    # Fraction points from them (tube_balls) only to scale them back is gone
    def no_points(self, j):
        raise AssertionError("the self-check must not build Fraction points")

    q = 3
    br = ball_radius(system, center, q, Fraction(1, 2))
    monkeypatch.setattr(TubeFunction, "tube_balls", no_points)
    f = tube_function(system, center, q, br.radius, [0.1, 0.2, 0.3])
    assert f(iterate(system, center, 4)) == 0.1


# ---------------------------------------------------------------------------
# verify_ball against the Fraction implementation it replaced
# ---------------------------------------------------------------------------


def fraction_verify_ball(system, center, q, epsilon, radius, grid=8):
    """Test oracle: the pairwise Fraction re-verification, check by check."""
    epsilon = as_fraction(epsilon)
    radius = as_fraction(radius)
    offsets = _boundary_offsets(center.dim, radius, grid)
    offsets = offsets + [tuple(Fraction(0) for _ in range(center.dim))]
    half = Fraction(1, 2)
    ten_eps = min(2 * 5 * epsilon, half)

    if isinstance(system, Rotation):
        deltas = [
            tuple(a - b for a, b in zip(o1, o2))
            for o1 in offsets
            for o2 in offsets
        ]
        for m in range(1, 5 * q):
            shift = [m * s for s in system.shift]
            for delta in deltas:
                d = max(
                    dist_to_int(sh + dl) for sh, dl in zip(shift, delta)
                )
                if d == 0:
                    return False
        diam = Fraction(0)
        for la in range(5):
            for lb in range(5):
                shift = [(la - lb) * q * s for s in system.shift]
                for delta in deltas:
                    d = max(
                        dist_to_int(sh + dl) for sh, dl in zip(shift, delta)
                    )
                    if d > diam:
                        diam = d
        return diam <= ten_eps

    points = [
        TorusPoint([c + o for c, o in zip(center.coords, off)])
        for off in offsets
    ]
    images = {
        n: [iterate(system, p, n) for p in points] for n in range(1, 5 * q + 1)
    }
    for i in range(1, 5 * q + 1):
        for j in range(i + 1, 5 * q + 1):
            for a in images[i]:
                for b in images[j]:
                    if a.dist(b) == 0:
                        return False
    for j in range(1, q + 1):
        tube = [p for l in range(5) for p in images[j + l * q]]
        for a in range(len(tube)):
            for b in range(a + 1, len(tube)):
                if tube[a].dist(tube[b]) > ten_eps:
                    return False
    return True


# cases per (system, grid, q); the oracle's cost grows with the number of
# boundary samples, so two-dimensional fine grids get the fewest cases
_ORACLE_COUNTS = {
    **{("rotation-1d", g, q): 19 for g in (1, 2, 3, 8) for q in (1, 2, 3)},
    **{("rotation-2d", g, q): n for g, n in ((1, 6), (2, 4), (3, 3))
       for q in (1, 2, 3)},
    ("rotation-2d", 8, 2): 1,
    **{("skew", g, q): n for g, n in ((1, 8), (2, 3), (3, 2)) for q in (1, 2, 3)},
    ("skew", 8, 1): 2,
}


def _oracle_cases():
    """Seeded verify_ball inputs in three styles:

    generic  -- frequency with denominator 2^20 + 1, small radius;
    rational -- frequency of short period and epsilon = 1/2, so the tube
                diameter cannot fail and every False is an exact collision
                (sometimes of the centres, sometimes of touching balls);
    large    -- generic frequency, radius k/16 against 10 epsilon <= 1/3,
                so a False is a tube-diameter failure.
    """
    rng = random.Random(20261018)
    styles = ("generic", "rational", "large")
    cases = []
    for (kind, grid, q), count in _ORACLE_COUNTS.items():
        dim = 1 if kind == "rotation-1d" else 2
        for v in range(count):
            style = styles[v % 3]
            if style == "rational":
                den = rng.randrange(2, 5 * q + 2)
                freq = [Fraction(rng.randrange(1, den), den) for _ in range(dim)]
                center = TorusPoint([Fraction(rng.randrange(den), den)
                                     for _ in range(dim)])
                radius = Fraction(1, rng.choice([2 * den, 64, 300]))
                eps = Fraction(1, 2)
            else:
                freq = [Fraction(rng.randrange(1, 2**20), 2**20 + 1)
                        for _ in range(dim)]
                if style == "generic":
                    radius = Fraction(1, rng.choice([100, 1000, 7**5]))
                    eps = Fraction(1, rng.choice([10, 20, 100]))
                else:
                    radius = Fraction(rng.randrange(1, 8), 16)
                    eps = Fraction(1, rng.choice([30, 50, 100]))
                center = TorusPoint([Fraction(rng.randrange(64), 64)
                                     for _ in range(dim)])
            system = SkewShift(freq[0]) if kind == "skew" else Rotation(freq)
            cases.append((kind, style, system, center, q, eps, radius, grid))
    return cases


def test_verify_ball_matches_fraction_oracle():
    cases = _oracle_cases()
    assert len(cases) >= 300
    outcomes = {}
    for kind, style, system, center, q, eps, radius, grid in cases:
        expected = fraction_verify_ball(system, center, q, eps, radius, grid)
        got = verify_ball(system, center, q, eps, radius, grid)
        assert got == expected, (kind, style, system, center, q, eps, radius,
                                 grid)
        system_kind = "skew" if kind == "skew" else "rotation"
        outcomes.setdefault((system_kind, style), []).append(got)
    for system_kind in ("rotation", "skew"):
        for style in ("generic", "rational", "large"):
            got = outcomes[system_kind, style]
            assert got.count(False) >= 3, (system_kind, style)
            if style == "generic":
                assert got.count(True) >= 3, (system_kind, style)


@pytest.mark.parametrize("a,center", [
    # tube centres spread 48/97 in the first coordinate, 197/776 in the
    # second: only the first coordinate decides
    (Fraction(6, 97), ("11/16", 0)),
    # spreads 4/199 and 197/398: only the second coordinate decides
    (Fraction(100, 199), ("1/2", 0)),
])
def test_verify_ball_skew_diameter_per_coordinate(a, center):
    system = SkewShift(a)
    center = TorusPoint.exact(*center)
    radius = Fraction(1, 10**6)
    for eps, expected in ((Fraction(3, 100), False), (Fraction(497, 10000), True)):
        args = (system, center, 1, eps, radius, 2)
        assert fraction_verify_ball(*args) is expected
        assert verify_ball(*args) is expected


def test_verify_ball_touching_balls_collide():
    # radius shift/2: the right edge of T^n B is the left edge of T^(n+1) B
    rot = Rotation([Fraction(1, 3) + Fraction(1, 2**40)])
    r = rot.shift[0] / 2
    assert not verify_ball(rot, ORIGIN, 1, Fraction(1, 2), r)
    assert verify_ball(rot, ORIGIN, 1, Fraction(1, 2), r * Fraction(99, 100))


# ---------------------------------------------------------------------------
# tube functions
# ---------------------------------------------------------------------------


def test_constant_values_blend_to_constant():
    f, _, _ = build_tubes(k=2, values=None)
    c = 0.3 + 0.1j
    g, _, _ = build_tubes(k=2, values=[c] * f.q)
    for x in [TorusPoint.exact("0.01"), TorusPoint.exact("0.5"),
              TorusPoint.exact("0.77")]:
        assert g(x) == pytest.approx(c, abs=1e-12)


def test_prescribed_tube_values():
    f, _, _ = build_tubes(k=2)
    for j in range(1, f.q + 1):
        for p in tube_sample_points(f, j, 3):
            assert f(p) == f.values[j - 1]
            assert (f.ball_index(p) - 1) % f.q + 1 == j


def test_tube_function_periodic_window():
    # starting at T^(2q) center, tube membership pins orbit times
    # -2q+1 .. 3q, so alpha(n) = alpha(n+q) exactly for -2q+1 <= n <= 2q
    f, _, _ = build_tubes(k=3)
    q = f.q
    w0 = f.gordon_point()
    seq = verblunsky_window(f, ROT, w0, -2 * q + 1, 3 * q)
    for n in range(-2 * q + 1, 2 * q + 1):
        assert seq.alpha(n) == seq.alpha(n + q)


def test_two_tube_continuity_scan():
    rot = Rotation([Fraction(1, 2) + Fraction(1, 97)])
    br = ball_radius(rot, ORIGIN, 2, Fraction(1, 3))
    f = tube_function(rot, ORIGIN, 2, br.radius, [0.4, -0.4])
    h = Fraction(1, 20000)
    vals = [f(TorusPoint([h * t])) for t in range(0, 20000, 7)]
    jumps = np.abs(np.diff(np.array(vals)))
    assert jumps.max() < 0.02


def test_skew_off_tube_value_takes_one_pull_back_per_ball(monkeypatch):
    import qpcmv.dynamics as dynamics
    import qpcmv.sampling as sampling

    # count the preimages taken through the shared integer map
    calls = []

    def counting_map(system, d):
        image = integer_map(system, d)

        def counted(p, n):
            calls.append(n)
            return image(p, n)

        return counted

    monkeypatch.setattr(dynamics, "integer_map", counting_map)
    skew = SkewShift(GOLDEN.value)
    center = TorusPoint.exact("0", "1/4")
    q = 2
    br = ball_radius(skew, center, q, Fraction(1, 10))
    f = tube_function(skew, center, q, br.radius, [0.5, 0.5j])
    x = TorusPoint.exact("1/2", "1/2")
    # oracle: the inverse-distance blend over the 5q pulled-back distances
    d = np.array([float(iterate(skew, x, -n).dist(center))
                  for n in range(1, 5 * q + 1)]) - float(br.radius)
    assert d.min() > 0
    w = 1.0 / d.reshape(5, q).min(axis=0)
    expected = complex(np.dot(w, np.array(f.values)) / w.sum())
    p3 = iterate(skew, center, 3)
    # oracle: the balls whose first coordinate can reach T^3 c
    window = [n for n in range(1, 5 * q + 1)
              if dist_to_int(p3.coords[0] - iterate(skew, center, n).coords[0])
              <= br.radius]
    assert 3 in window and len(window) < 5 * q

    def no_iterate(*args):
        raise AssertionError("the lookup must not iterate in Fractions")

    monkeypatch.setattr(sampling, "iterate", no_iterate)
    calls.clear()
    assert f(x) == expected
    assert sorted(calls) == [-n for n in range(5 * q, 0, -1)]
    calls.clear()
    assert f.ball_index(p3) == 3
    assert calls == [-n for n in window if n <= 3]


# ---------------------------------------------------------------------------
# the integer tube lookup against the Fraction pull-back it replaced
# ---------------------------------------------------------------------------


def _lookup_tubes(kind):
    """A tube function whose ball 3 is centred on the first coordinate 0,
    so that it straddles the 0/1 wrap."""
    a = golden_mean(bits=128).value
    eps = Fraction(1, 10)
    if kind == "rotation-1d":
        system, q = Rotation([a]), 8
    elif kind == "rotation-2d":
        system, q = Rotation([a, a + Fraction(1, 2)]), 8
    else:
        system, q = SkewShift(a), 4
    step = system.shift[0] if isinstance(system, Rotation) else 2 * system.a
    coords = [-3 * step] + [Fraction(1, 3)] * (system.dim - 1)
    center = TorusPoint(coords)
    br = ball_radius(system, center, q, eps)
    values = [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)]
    return tube_function(system, center, q, br.radius, values)


def _lookup_points(f, rng):
    """Seeded points in six styles: inside a ball, on its boundary, just
    outside it, anywhere on the torus, across the wrap of ball 3, and off
    the 1/D grid (inside a ball and anywhere)."""
    r, dim = f.radius, f.center.dim

    def ball_point(n, offset):
        base = TorusPoint([c + o for c, o in zip(f.center.coords, offset)])
        return iterate(f.system, base, n)

    def inner():
        return [r * Fraction(rng.randrange(-64, 65), 64) for _ in range(dim)]

    pts = []
    for _ in range(12):
        n = rng.randrange(1, 5 * f.q + 1)
        pts.append(("inside", ball_point(n, inner())))
        edge = inner()
        edge[rng.randrange(dim)] = rng.choice([-r, r])
        pts.append(("boundary", ball_point(n, edge)))
        edge[rng.randrange(dim)] = rng.choice([-1, 1]) * r * Fraction(1001, 1000)
        pts.append(("outside", ball_point(n, edge)))
        pts.append(("anywhere", TorusPoint(
            [Fraction(rng.randrange(1024), 1024) for _ in range(dim)])))
        wrap = inner()
        wrap[0] = -r * Fraction(rng.randrange(1, 65), 64)
        pts.append(("wrap", ball_point(3, wrap)))
        pts.append(("off-grid", ball_point(n, [o * Fraction(1, 3**41)
                                               for o in inner()])))
        pts.append(("off-grid", TorusPoint(
            [Fraction(rng.randrange(10**9 + 7), 10**9 + 7) for _ in range(dim)])))
    return pts


@pytest.mark.parametrize("kind", ["rotation-1d", "rotation-2d"])
def test_rotation_distance_needs_no_pull_back(kind):
    # a rotation translates, so the distance from p to ball n's centre is
    # that of the pulled-back point T^-n p to the centre
    f = _lookup_tubes(kind)
    d = f._d
    for style, point in _lookup_points(f, random.Random(20261019)):
        p = f._scaled(point)
        for n in range(1, 5 * f.q + 1):
            pulled = residue_dist(f._image(p, -n), f._orbit[0], d)
            assert f._dist(p, n) == pulled, (style, n)


@pytest.mark.parametrize("kind", ["rotation-1d", "rotation-2d", "skew"])
def test_tube_lookup_matches_fraction_oracle(kind):
    f = _lookup_tubes(kind)
    rng = random.Random(20261018)
    hits = {}
    for style, p in _lookup_points(f, rng):
        n, value = oracle_value(f, p)
        assert f.ball_index(p) == n, (style, p)
        # bit for bit, on and off the tubes
        assert f(p) == value, (style, p)
        hits.setdefault(style, []).append(n is not None)
    assert all(hits["inside"]) and all(hits["boundary"]) and all(hits["wrap"])
    assert not any(hits["outside"])
    assert any(hits["off-grid"]) and not all(hits["off-grid"])
    assert not all(hits["anywhere"])
    # ball 3 is centred on 0, so the wrap points, just below 1, reach it
    # only across the wrap
    assert f.tube_balls(3)[0].coords[0] == 0


@pytest.mark.parametrize("system,center", [
    (Rotation([Fraction(1, 3) + Fraction(1, 2**40)]), ORIGIN),
    (SkewShift(golden_mean(bits=64).value), TorusPoint.exact("1/5", "1/3")),
])
def test_touching_tube_balls_rejected(system, center):
    # oracle: the closest pair of the 5q ball centres, in Fraction arithmetic
    q = 2
    pts = [iterate(system, center, n) for n in range(1, 5 * q + 1)]
    gap = min(a.dist(b) for i, a in enumerate(pts) for b in pts[i + 1:])
    with pytest.raises(ConstructionError):
        TubeFunction(system, center, q, gap / 2, [0.1, 0.2])
    TubeFunction(system, center, q, gap / 2 - Fraction(1, 2**80), [0.1, 0.2])


def test_tube_overlap_rejected():
    f, br, _ = build_tubes(k=2)
    with pytest.raises(ConstructionError):
        tube_function(ROT, ORIGIN, f.q, Fraction(1, 3), list(f.values))


# ---------------------------------------------------------------------------
# distance to the tube class
# ---------------------------------------------------------------------------


def brute_force_chebyshev_radius(points, steps=80):
    pts = np.asarray(points)
    re = np.linspace(pts.real.min(), pts.real.max(), steps)
    im = np.linspace(pts.imag.min(), pts.imag.max(), steps)
    best = np.inf
    for r in re:
        cand = r + 1j * im
        d = np.abs(pts[None, :] - cand[:, None]).max(axis=1)
        best = min(best, d.min())
    return best


def test_min_enclosing_circle_against_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = rng.integers(2, 40)
        pts = rng.normal(size=n) + 1j * rng.normal(size=n)
        c, r = min_enclosing_circle(pts)
        assert np.abs(pts - c).max() <= r + 1e-9
        oracle = brute_force_chebyshev_radius(pts)
        assert r <= oracle + 1e-3
        assert oracle <= r * (1 + 2e-2) + 1e-3


def _enclosing_sets(rng):
    """Seeded sets of 1 to 12 points: Gaussian, drawn with repeats from a
    few points of a 1/3-grid, and collinear to 1e-13."""
    for _ in range(150):
        n = int(rng.integers(1, 13))
        yield "gaussian", rng.normal(size=n) + 1j * rng.normal(size=n)
        pool = (rng.integers(-3, 4, size=4) + 1j * rng.integers(-3, 4, size=4)) / 3
        yield "repeated", rng.choice(pool, size=n)
        t = rng.normal(size=n)
        yield "collinear", (0.2 - 0.1j) + t * (0.6 + 0.8j) + 1e-13j * rng.normal(size=n)


def test_min_enclosing_circle_is_the_exact_minimum():
    rng = np.random.default_rng(24)
    for kind, pts in _enclosing_sets(rng):
        c, r = min_enclosing_circle(pts)
        assert np.abs(pts - c).max() <= r + 1e-12 * (1 + r), kind
        oracle = enclosing_radius_brute_force(pts)
        assert abs(r - oracle) <= 1e-12 * oracle, (kind, r, oracle)


def test_distance_zero_for_members():
    f, _, _ = build_tubes(k=2)
    rep = distance_to_tubes(f, f, grid=4)
    assert rep.distance == 0.0


def test_distance_harmonic_gradient_bound():
    # tubes must be genuinely small for the arc bound, so build them at
    # q = 8 (the golden rotation has <8a> ~ 0.0557 < 0.06)
    eps = Fraction(6, 100)
    br = ball_radius(ROT, ORIGIN, 8, eps)
    f = tube_function(ROT, ORIGIN, 8, br.radius,
                      [0.3] * 8)
    g = HarmonicFunction(0.5)
    rep = distance_to_tubes(g, f, grid=7)
    # sup |g'| = 2 pi 0.5; a tube of diameter d maps into an arc whose
    # enclosing radius is at most (sup gradient) d / 2
    for j in range(1, 9):
        pts = tube_sample_points(f, j, 7)
        diam = max(
            float(a.dist(b)) for ai, a in enumerate(pts) for b in pts[ai + 1:]
        )
        assert rep.per_tube[j - 1] <= (2 * math.pi * 0.5) * diam / 2 + 1e-12
    # oracle on a denser sampling
    worst = 0.0
    for j in range(1, f.q + 1):
        vals = [g(p) for p in tube_sample_points(f, j, 21)]
        worst = max(worst, brute_force_chebyshev_radius(vals, steps=60))
    assert rep.distance <= worst * (1 + 0.05) + 1e-6
    assert worst <= rep.distance * (1 + 0.30) + 1e-6


def test_perturbed_member_distance_bracket():
    f, _, _ = build_tubes(k=2)
    h = 1e-3
    ball = f.tube_balls(1)[2]
    bump = TentBump(ball, f.radius, h)
    g = PerturbedFunction(f, bump)
    rep = distance_to_tubes(g, f, grid=9)
    assert h / 2 - 1e-9 <= rep.distance <= h + 1e-9


def test_bump_rejects_a_point_of_another_dimension():
    bump = TentBump(TorusPoint.exact("1/3", "1/5"), "1/50", 0.1)
    assert bump(TorusPoint.exact("1/3", "1/5")) == 0.1
    with pytest.raises(DomainError, match="dimension"):
        bump(TorusPoint.exact("1/3"))


def test_tolerance_verdict_for_member_and_outsider():
    f, _, _ = build_tubes(k=2)
    rep, tol, ok = tube_tolerance_verdict(f, f, k=2)
    assert ok and rep.distance == 0.0
    g = HarmonicFunction(0.5)
    _, _, ok_g = tube_tolerance_verdict(g, f, k=2, grid=5)
    assert not ok_g


# ---------------------------------------------------------------------------
# the tube -> near-repetition mechanism (end to end at one level)
# ---------------------------------------------------------------------------


def test_four_difference_maxima_zero_on_designated_point():
    f, _, _ = build_tubes(k=3)
    q = f.q
    w0 = f.gordon_point(offset=[f.radius / 2])
    maxima = periodic_defect_maxima(f, ROT, w0, q)
    assert maxima == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("q", [0, -1])
def test_four_difference_maxima_reject_q_below_one(q):
    # q = 0 once failed inside verblunsky_window with "n_min must be <=
    # n_max", a message that does not name q
    f, _, _ = build_tubes(k=1)
    with pytest.raises(DomainError, match=f"q must be >= 1, got {q}"):
        periodic_defect_maxima(f, ROT, f.gordon_point(), q)


def test_perturbed_function_still_certifies():
    f, _, _ = build_tubes(k=2)
    q = f.q
    tol = coefficient_tolerance(2, q, 0.6)
    h = 0.4 * (tol.value / 4.0)
    bump = TentBump(f.tube_balls(1)[0], f.radius, h)
    g = PerturbedFunction(f, bump)
    w0 = f.gordon_point()
    seq = verblunsky_window(g, ROT, w0, -2 * q, 3 * q + 1)
    cert = certify_gordon(seq, [(2, q)])
    assert cert.all_passed
    maxima = periodic_defect_maxima(g, ROT, w0, q)
    assert max(maxima) <= 2 * h
    assert max(maxima) < coefficient_tolerance(2, q, cert.levels[0].r).value / 4
