"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and match
the library defaults; runtime budgets are asserted with wall-clock guards.
"""

import cmath
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp
from oracles import szego_batch, validate_periodic_floor

from qpcmv import sampling
from qpcmv.cmv import assemble, eigenvector_profile, spectrum
from qpcmv.dynamics import (
    Rotation,
    SkewShift,
    TorusPoint,
    block_displacement,
    find_even_repetition,
    iterate,
    skew_repetition_times,
)
from qpcmv.frequency import golden_mean, liouville_frequency
from qpcmv.pipeline import CONFIG_SCHEMA, ExperimentConfig, run
from qpcmv.sampling import (
    VerblunskySequence,
    ball_radius,
    periodic_defect_maxima,
    tube_function,
    verblunsky_window,
)
from qpcmv.transfer import (
    _szego,
    certify_gordon,
    coefficient_tolerance,
    no_point_spectrum_evidence,
    three_step_lipschitz,
    validate_three_step_lipschitz,
)

GOLDEN = golden_mean()


def report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds {self.limit}s budget"
            )
        return False


def build_tube_level(k):
    """Golden-rotation tube construction at level k (epsilon = 1/k)."""
    rot = Rotation([GOLDEN.value])
    center = TorusPoint([Fraction(0)])
    eps = Fraction(1, k)
    cert = find_even_repetition(rot, center, eps, 4, 400)
    q = cert.q
    br = ball_radius(rot, center, q, eps)
    values = [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)]
    f = tube_function(rot, center, q, br.radius, values)
    seq = verblunsky_window(f, rot, f.gordon_point(), -2 * q, 3 * q + 1)
    return rot, f, q, seq


def test_criterion_1_determinant_identity():
    # det S(alpha, z) = z for 1e5 random pairs; alpha uniform in the disk
    # of radius 0.95 (the entrywise rounding budget scales like 1/(1-r^2)),
    # for the library's step kernel and for the stack oracle
    with Budget(5) as b:
        rng = np.random.default_rng(20240601)
        n = 100_000
        a = np.sqrt(rng.random(n)) * 0.95 * np.exp(2j * np.pi * rng.random(n))
        z = np.exp(2j * np.pi * rng.random(n))
        worst = 0.0
        for s00, s01, s10, s11 in (_szego(a, z),
                                   szego_batch(a, z).reshape(n, 4).T):
            worst = max(worst, float(np.abs(s00 * s11 - s01 * s10 - z).max()))
        assert worst <= 1e-14
    report(1, f"max |det S - z| = {worst:.3e} over 1e5 samples "
              f"({b.elapsed:.2f}s)")


def test_criterion_2_unitarity_and_factorization():
    with Budget(30) as b:
        rng = np.random.default_rng(7)
        worst_unitary = 0.0
        worst_band = 0.0
        for n in (50, 200, 1000):
            vals = (
                np.sqrt(rng.random(n + 3))
                * 0.9
                * np.exp(2j * np.pi * rng.random(n + 3))
            )
            half = n // 2
            seq = VerblunskySequence(-half - 1, n - half + 1, vals)
            op = assemble(
                seq, -half, n - half - 1,
                boundary=(cmath.exp(0.9j), cmath.exp(-1.7j)),
            )
            worst_unitary = max(worst_unitary, op.unitarity_defect)
            worst_band = max(worst_band, op.band_agreement)
        assert worst_unitary <= 1e-12
        assert worst_band <= 1e-14
    report(2, f"unitarity defect <= {worst_unitary:.3e}, factor-vs-band "
              f"agreement <= {worst_band:.3e} at N=50,200,1000 "
              f"({b.elapsed:.2f}s)")


def test_criterion_3_lipschitz_certification():
    with Budget(60) as b:
        worst_ratio = 0.0
        for r10 in range(1, 10):
            r = r10 / 10.0
            val = validate_three_step_lipschitz(r, samples=100_000,
                                                seed=20240601 + r10)
            assert val.violations == 0
            worst_ratio = max(worst_ratio, val.max_ratio)
        # the coefficient budget is k^-q / L3 by construction, so the
        # block implication follows from the validated bound
        t = coefficient_tolerance(3, 5, 0.5)
        assert t.value * three_step_lipschitz(0.5) == pytest.approx(
            3.0**-5, rel=1e-12
        )
    report(3, f"9 x 1e5 sampled triples, zero violations "
              f"(max ratio {worst_ratio:.3f}) ({b.elapsed:.2f}s)")


def test_criterion_4_periodic_case_floor():
    with Budget(30) as b:
        worst = validate_periodic_floor(samples=10_000, seed=20240601)
        assert worst >= 0.5 - 1e-9
    report(4, f"min over 1e4 unit-determinant matrices of the three-block "
              f"min-max = {worst:.6f} >= 0.5 - 1e-9 ({b.elapsed:.2f}s)")


def test_criterion_5_golden_even_repetition():
    with Budget(5) as b:
        rot = Rotation([GOLDEN.value])
        cert = find_even_repetition(
            rot, TorusPoint([Fraction(0)]), Fraction(1, 100), 4, 400
        )
        assert cert.q == 144
        assert cert.validated == "full-scan"
        assert cert.max_deviation < Fraction(1, 100)
    report(5, f"q = 144, deviation {float(cert.max_deviation):.6f}, "
              f"re-validated by full orbit scan ({b.elapsed:.2f}s)")


def test_criterion_6_skew_shift_construction():
    with Budget(60) as b:
        freq = liouville_frequency(2, 4)
        eps = Fraction(1, 10)
        rng = np.random.default_rng(20240601)
        for _ in range(10):
            w = TorusPoint(
                [Fraction(int(rng.integers(1, 2**53)), 2**53) for _ in range(2)]
            )
            res = skew_repetition_times(freq, w, eps, 1)
            assert res.certificates, "no passing level"
            for cert in res.certificates:
                assert cert.q % 2 == 0
                assert 1 <= cert.m <= int(1 / eps) + 1
                assert cert.max_deviation <= 5 * eps
        # displacement formula vs iterate subtraction, carried out in
        # genuine 256-bit float arithmetic (not exact rationals), so the
        # comparison measures the rounding of the two computation paths
        worst = 0.0
        with mp.workprec(256):
            a = mp.sqrt(2) - 1
            T = SkewShift(a)
            for _ in range(50):
                w = TorusPoint(
                    [mp.mpf(float(rng.random())) + mp.mpf(3) ** -40,
                     mp.mpf(float(rng.random())) + mp.mpf(7) ** -30]
                )
                n = int(rng.integers(-(10**6), 10**6))
                q = 2 * int(rng.integers(1, 10**4))
                d = block_displacement(T, w, n, q)
                p1 = iterate(T, w, n + q)
                p0 = iterate(T, w, n)
                direct = TorusPoint(
                    [x - y for x, y in zip(p1.coords, p0.coords)]
                )
                worst = max(worst, float(d.dist(direct)))
        assert worst <= 1e-25
    report(6, f"10 random skew orbits certified (m in 1..11, deviation "
              f"<= 5 eps); displacement formula error {worst:.1e} <= 1e-25 "
              f"({b.elapsed:.2f}s)")


def test_skew_tube_chain_at_q100():
    # golden skew-shift, epsilon = 1/10: the Fraction lookup needed over 7 s
    # for tube_function alone at this q
    q = 100
    with Budget(15):
        system = SkewShift(golden_mean(bits=256).value)
        center = TorusPoint.exact(0, 0)
        br = ball_radius(system, center, q, Fraction(1, 10))
        values = [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)]
        f = tube_function(system, center, q, br.radius, values)
        seq = verblunsky_window(f, system, f.gordon_point(), -2 * q, 3 * q + 1)
        for n in range(-2 * q + 1, 2 * q + 1):
            assert seq.alpha(n) == seq.alpha(n + q)


def test_skew_tube_chain_at_q100_within_2s():
    # golden skew-shift, epsilon = 1/10: the all-pairs tube diameters of
    # verify_ball took 0.53-0.57 s of ball_radius; with sorted diameters
    # and the residue window the whole chain took 0.11 s on a 2-core Xeon
    q = 100
    with Budget(2):
        system = SkewShift(golden_mean(bits=256).value)
        center = TorusPoint.exact(0, 0)
        br = ball_radius(system, center, q, Fraction(1, 10))
        values = [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)]
        f = tube_function(system, center, q, br.radius, values)
        seq = verblunsky_window(f, system, f.gordon_point(), -2 * q, 3 * q + 1)
    assert br.verified
    assert all(seq.alpha(n) == seq.alpha(n + q)
               for n in range(-2 * q + 1, 2 * q + 1))


def test_skew_ball_radius_at_q100_walks_few_pairs(monkeypatch):
    # golden skew-shift, epsilon = 1/10: the scan of all 124 750 centre
    # pairs took 0.35 s on a 2-core Xeon; the walk compares about 1000 of
    # them, and most of the budget goes to verify_ball
    q = 100
    walked = []
    close_pairs = sampling._BallCentres.close_pairs

    def counted(self, limit):
        for pair in close_pairs(self, limit):
            walked.append(pair)
            yield pair

    monkeypatch.setattr(sampling._BallCentres, "close_pairs", counted)
    with Budget(5):
        br = ball_radius(SkewShift(golden_mean(bits=256).value),
                         TorusPoint.exact(0, 0), q, Fraction(1, 10))
    assert br.verified
    assert len(walked) < 4 * 5 * q


def test_criterion_7_tube_mechanism_end_to_end():
    with Budget(120) as b:
        slacks = []
        for k in (1, 2, 3):
            rot, f, q, seq = build_tube_level(k)
            cert = certify_gordon(seq, [(k, q)], sequence_id=f"level-{k}")
            assert cert.all_passed
            lev = cert.levels[0]
            maxima = periodic_defect_maxima(f, rot, f.gordon_point(), q)
            tol = coefficient_tolerance(k, q, f.sup_norm)
            for m in maxima:
                assert m < tol.value / 4.0
            slacks.append(tol.value / 4.0 - max(maxima))
        assert all(s > 0 for s in slacks)
    report(7, "certified at k=1,2,3 with all four difference maxima zero; "
              f"slacks to threshold: {', '.join(f'{s:.2e}' for s in slacks)} "
              f"({b.elapsed:.2f}s)")


def test_criterion_8_evidence_discriminates():
    with Budget(120) as b:
        # (a) free coefficients
        free = VerblunskySequence.constant(0.0, -40, 40)
        free_cert = certify_gordon(free, [(1, 2), (2, 4), (3, 8)])
        ta = no_point_spectrum_evidence(free, certificate=free_cert,
                                        z_grid=512)
        assert ta.verdict == "PASS"
        assert abs(ta.min_c - 1.0) <= 1e-12
        # (b) the level-3 tube construction
        _, _, q3, seq3 = build_tube_level(3)
        cert3 = certify_gordon(seq3, [(3, q3)])
        tb = no_point_spectrum_evidence(seq3, certificate=cert3, z_grid=512)
        assert tb.verdict == "PASS"
        assert tb.min_c >= 0.25
        # (c) single large impurity over a gapped background: locate the
        # bound state from the finite truncation, then watch c(z) collapse
        imp = VerblunskySequence.impurity(0.5, -0.99, -110, 110)
        op = assemble(imp, -100, 99)
        dec = spectrum(op)
        profiles = [eigenvector_profile(op, dec, i) for i in range(op.size)]
        prs = np.array([p.participation_ratio for p in profiles])
        i0 = int(np.argmin(prs))
        assert prs[i0] <= op.size / 10
        theta = float(np.angle(dec.eigenvalues[i0]))
        tc = no_point_spectrum_evidence(imp, q=8, z_grid=512,
                                        extra_angles=[theta])
        assert tc.verdict == "FAIL"
        assert tc.min_c < 0.25
        assert abs(tc.argmin_angle - theta) <= 2 * math.pi / 512
    report(8, f"free min c = {ta.min_c:.12f}; level-3 construction min c = "
              f"{tb.min_c:.4f} >= 1/4; impurity dips to {tc.min_c:.4f} at "
              f"angle {tc.argmin_angle:+.4f} (bound state {theta:+.4f}) "
              f"({b.elapsed:.2f}s)")


def test_criterion_9_pipeline_determinism(tmp_path):
    cfg_dict = json.loads(
        (Path(__file__).resolve().parents[1] / "configs" / "free.json")
        .read_text()
    )
    t0 = time.perf_counter()
    doc1, code1 = run(ExperimentConfig.from_dict(cfg_dict), tmp_path / "a")
    doc2, code2 = run(ExperimentConfig.from_dict(cfg_dict), tmp_path / "b")
    elapsed = time.perf_counter() - t0
    assert code1 == code2 == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    for name in ("verblunsky.csv", "evidence.csv", "eigenvalues.csv",
                 "profile.csv", "matrix.txt", "gordon.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    report(9, f"two full runs of the free scenario produced bit-identical "
              f"reports and artifacts ({elapsed:.2f}s total)")
