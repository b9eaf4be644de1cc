import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp
from oracles import (
    block_difference_loop,
    gordon_defect_loop,
    matmul_three_step_difference,
    mpmath_block_product,
    mpmath_three_blocks,
    one_shot_evidence,
    one_shot_lipschitz_validation,
    one_shot_min_max,
    szego_batch,
    validate_periodic_floor,
)

from qpcmv.cmv import assemble, eigenvector_profile, spectrum
from qpcmv.dynamics import Rotation, TorusPoint
from qpcmv.errors import DomainError, WindowError
from qpcmv.frequency import golden_mean
from qpcmv.pipeline import ExperimentConfig
from qpcmv.sampling import (
    VerblunskySequence,
    ball_radius,
    periodic_defect_maxima,
    tube_function,
    verblunsky_window,
)
from qpcmv.transfer import (
    _CHUNK,
    _ROWS,
    _inv_rho,
    _szego,
    _szego_step,
    _three_blocks,
    _three_step_difference,
    block_product_grid,
    certify_gordon,
    coefficient_tolerance,
    min_max_over_unit_vectors,
    no_point_spectrum_evidence,
    spectral_norm_2x2,
    szego_matrix,
    szego_norm_bound,
    three_step_lipschitz,
    validate_three_step_lipschitz,
)


def random_seq(rng, n_min, n_max, radius=0.9):
    n = n_max - n_min + 1
    vals = np.sqrt(rng.random(n)) * radius * np.exp(2j * np.pi * rng.random(n))
    return VerblunskySequence(n_min, n_max, vals)


# ---------------------------------------------------------------------------
# one-step matrices
# ---------------------------------------------------------------------------


def test_szego_zero_coefficient():
    z = cmath.exp(0.3j)
    S = szego_matrix(0, z)
    assert np.allclose(S, [[z, 0], [0, 1]], atol=0)


def test_szego_real_example():
    S = szego_matrix(0.6, 1.0)
    assert np.allclose(S, np.array([[1, -0.6], [-0.6, 1]]) / 0.8, atol=1e-15)
    assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-15)


def test_szego_determinant_random():
    rng = np.random.default_rng(11)
    n = 20000
    a = np.sqrt(rng.random(n)) * 0.5 * np.exp(2j * np.pi * rng.random(n))
    z = np.exp(2j * np.pi * rng.random(n))
    S = szego_batch(a, z)
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    assert np.abs(det - z).max() <= 1e-15


def test_szego_domain_errors():
    with pytest.raises(DomainError):
        szego_matrix(1.0, 1.0)
    with pytest.raises(DomainError):
        szego_matrix(0.5, 1.5)
    # NaN once passed both checks and gave a NaN matrix
    with pytest.raises(DomainError, match=r"\|alpha\| must be < 1"):
        szego_matrix(float("nan"), 1.0)
    with pytest.raises(DomainError, match="unit circle"):
        szego_matrix(0.5, complex(float("nan"), 0.0))


def test_szego_matrix_matches_the_stack_oracle():
    # the step kernel multiplies by 1/rho where the oracle divides by rho
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        z = cmath.exp(2j * np.pi * rng.random())
        S = szego_matrix(a, z)
        assert np.abs(S - szego_batch(a, z)).max() <= 4 * np.finfo(float).eps


def test_szego_entries_equal_the_step_on_identity_columns():
    # the direct entries are the products the step forms on the columns
    # of the identity; only signed zeros may differ, which array_equal
    # does not see
    rng = np.random.default_rng(29)
    n = 10_000
    a = np.sqrt(rng.random(n)) * 0.999 * np.exp(2j * np.pi * rng.random(n))
    a[:100] = 0.0
    a[100:200] = 0.999 * np.exp(2j * np.pi * rng.random(100))
    a[200:204] = (0.999, -0.999, 0.999j, -0.999j)
    z = np.exp(2j * np.pi * rng.random(n))
    z[:4] = (1, -1, 1j, -1j)
    step = (a, a.conj(), _inv_rho(a), z)
    s00, s10 = _szego_step(*step, 1.0, 0.0)
    s01, s11 = _szego_step(*step, 0.0, 1.0)
    for direct, stepped in zip(_szego(a, z), (s00, s01, s10, s11)):
        assert np.array_equal(direct, stepped)


# ---------------------------------------------------------------------------
# block products
# ---------------------------------------------------------------------------


def test_block_product_empty_and_single():
    seq = VerblunskySequence.constant(0.3, -5, 5)
    z = cmath.exp(1.1j)
    zs = np.array([z])
    assert np.array_equal(block_product_grid(seq, zs, 2, 2)[0], np.eye(2))
    assert np.array_equal(block_product_grid(seq, zs, 2, 3)[0],
                          szego_matrix(0.3, z))


def test_block_product_periodic_exact_equality():
    rng = np.random.default_rng(5)
    q = 6
    cell = np.sqrt(rng.random(q)) * 0.8 * np.exp(2j * np.pi * rng.random(q))
    vals = np.tile(cell, 4)
    seq = VerblunskySequence(0, 4 * q - 1, vals)
    zs = np.array([cmath.exp(0.37j)])
    P1 = block_product_grid(seq, zs, 0, q)
    P2 = block_product_grid(seq, zs, q, 2 * q)
    assert np.array_equal(P1, P2)


def test_block_product_window_error():
    seq = VerblunskySequence.constant(0.3, 0, 5)
    with pytest.raises(WindowError):
        block_product_grid(seq, np.array([1.0]), 0, 10)


def test_block_determinant_identity():
    # |det P_L - z^L| stays within the documented budget in the bounded
    # norm regime; hyperbolic products develop norms ~e^(gamma L) and push
    # the float determinant below its own rounding noise (~ulp * |P|^2),
    # so the identity is only checkable where |P| stays O(1)
    z = cmath.exp(1.8j)
    for alpha, L, tol in [(0.0, 10**4, 1e-12), (0.3, 10**3, 1e-12),
                          (0.3, 10**4, 5e-12)]:
        seq = VerblunskySequence.constant(alpha, 0, L)
        P = block_product_grid(seq, np.array([z]), 0, L)[0]
        assert spectral_norm_2x2(P) < 5.0
        assert abs(np.linalg.det(P) - z**L) <= tol


def matmul_block_product(seq, zs, n_from, n_to):
    """Reference: one (len(zs), 2, 2) szego_batch stack per step, applied
    with a batched matmul."""
    P = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2)).copy()
    for n in range(n_from, n_to):
        P = szego_batch(np.full(zs.shape, seq.alpha(n)), zs) @ P
    return P


def periodic_seq(rng, q, modulus=0.5):
    """An exactly q-periodic window on [-q, 2q] with |alpha| = modulus."""
    cell = modulus * np.exp(2j * np.pi * rng.random(q))
    return VerblunskySequence(-q, 2 * q, np.tile(cell, 4)[: 3 * q + 1])


def product_condition(seq, zs, n_from, n_to):
    """sum over steps k of ||S(n_to-1)..S(k+1)|| ||S(k)|| ||S(k-1)..S(n_from)||
    divided by ||P||, per z: the first-order amplification of one rounding
    per step.  It equals the number of steps when P has no cancellation."""
    S = [szego_batch(np.full(zs.shape, seq.alpha(n)), zs)
         for n in range(n_from, n_to)]
    eye = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2))
    right, left = [eye], [eye]
    for k in range(len(S)):
        right.append(S[k] @ right[-1])
        left.append(left[-1] @ S[-1 - k])
    total = sum(
        spectral_norm_2x2(left[len(S) - 1 - k]) * spectral_norm_2x2(S[k])
        * spectral_norm_2x2(right[k])
        for k in range(len(S))
    )
    return total / spectral_norm_2x2(right[-1])


@pytest.mark.parametrize("q, kind", [(64, "periodic"), (512, "periodic"),
                                     (256, "random")])
def test_block_product_matches_mpmath(q, kind):
    # normwise relative error within 2 ulp per step, with each step's
    # rounding weighted by how much the product cancels it (2 q ulp when P
    # has no cancellation), for the two-row kernel and the matmul reference
    rng = np.random.default_rng(q)
    seq = periodic_seq(rng, q) if kind == "periodic" else random_seq(rng, -q, 2 * q)
    zs = np.exp(1j * np.array([0.1234, 1.9876, 3.3333, 5.4321]))
    budget = 2 * np.finfo(float).eps * product_condition(seq, zs, 0, q)
    kernel = block_product_grid(seq, zs, 0, q)
    oracle = matmul_block_product(seq, zs, 0, q)
    with mp.workdps(60):
        for i, z in enumerate(zs):
            exact = mpmath_block_product(seq, complex(z), 0, q)
            ref = np.array(exact.tolist(), dtype=complex)
            for P in (kernel[i], oracle[i]):
                diff = np.array((mp.matrix(P.tolist()) - exact).tolist(),
                                dtype=complex)
                err = spectral_norm_2x2(diff) / spectral_norm_2x2(ref)
                assert err <= budget[i]


def test_block_product_grid_continues_from_a_start_matrix():
    rng = np.random.default_rng(12)
    seq = random_seq(rng, -10, 40)
    zs = np.exp(2j * np.pi * rng.random(7))
    head = block_product_grid(seq, zs, -10, 5)
    whole = block_product_grid(seq, zs, -10, 30)
    assert np.array_equal(block_product_grid(seq, zs, 5, 30, start=head), whole)
    assert np.array_equal(block_product_grid(seq, zs, 5, 5, start=head), head)


def test_three_blocks_double_block_is_the_product_from_scratch():
    rng = np.random.default_rng(3)
    q = 32
    seq = random_seq(rng, -q, 2 * q)
    zs = np.exp(2j * np.pi * np.arange(64) / 64)
    mats = _three_blocks(seq, zs, q)
    assert np.array_equal(mats[:, 0], block_product_grid(seq, zs, 0, q))
    assert np.array_equal(mats[:, 1], block_product_grid(seq, zs, 0, 2 * q))
    # B- is the adjugate of the product over [-q, 0), entry for entry
    back = block_product_grid(seq, zs, -q, 0)
    adj = np.empty_like(back)
    adj[:, 0, 0], adj[:, 1, 1] = back[:, 1, 1], back[:, 0, 0]
    adj[:, 0, 1], adj[:, 1, 0] = -back[:, 0, 1], -back[:, 1, 0]
    assert np.array_equal(mats[:, 2], adj)


def test_evidence_reads_each_coefficient_once():
    # B- needs the q coefficients on [-q, 0) and B+/B++ the 2q on [0, 2q):
    # B++ continues from B+ instead of reading [0, q) a second time
    reads = []

    class CountingSequence(VerblunskySequence):
        def slice(self, n_from, n_to):
            out = super().slice(n_from, n_to)
            reads.append(len(out))
            return out

    q = 16
    base = random_seq(np.random.default_rng(4), -q, 2 * q)
    seq = CountingSequence(base.n_min, base.n_max, base.values)
    no_point_spectrum_evidence(seq, q=q, z_grid=32)
    assert sorted(reads) == [q, q, q]


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------


def closed_form_norm(A):
    """Reference: the unscaled closed form, which overflows once the
    squared entries leave the float range."""
    f = np.sum(np.abs(A) ** 2, axis=(-2, -1))
    d = np.abs(A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]) ** 2
    return np.sqrt((f + np.sqrt(np.maximum(f * f - 4 * d, 0.0))) / 2)


def random_matrices(rng, n):
    return rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))


def test_spectral_norm_beyond_the_squared_range():
    A = np.array([[1e80, 2e79j], [3e79, 1e78]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(closed_form_norm(A))
    svd = np.linalg.svd(A, compute_uv=False)[0]
    assert spectral_norm_2x2(A) == pytest.approx(svd, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-150, 1e150, 1e300])
def test_spectral_norm_matches_svd_at_extreme_scales(scale):
    A = random_matrices(np.random.default_rng(6), 2000) * scale
    svd = np.linalg.svd(A, compute_uv=False)[:, 0]
    assert np.all(np.abs(spectral_norm_2x2(A) - svd) <= 1e-14 * svd)


def test_spectral_norm_equals_the_closed_form_in_range():
    rng = np.random.default_rng(10)
    A = random_matrices(rng, 200_000)
    A *= 10.0 ** rng.uniform(-30, 30, (len(A), 1, 1))
    assert np.array_equal(spectral_norm_2x2(A), closed_form_norm(A))


def test_spectral_norm_of_non_finite_input_is_non_finite():
    A = random_matrices(np.random.default_rng(2), 3)
    A[0, 0, 1] = np.inf
    A[1, 1, 0] = complex(0, -np.inf)
    A[2, 1, 1] = np.nan
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(spectral_norm_2x2(A)).any()


# ---------------------------------------------------------------------------
# Lipschitz budget
# ---------------------------------------------------------------------------


def test_lipschitz_monotone():
    assert three_step_lipschitz(0.3) <= three_step_lipschitz(0.6)
    assert three_step_lipschitz(0.0) == 3.0


def test_lipschitz_validation_no_violations():
    for r in (0.1, 0.5, 0.9):
        val = validate_three_step_lipschitz(r, samples=10000, seed=7)
        assert val.violations == 0
        assert 0 < val.max_ratio <= 1.0


def test_lipschitz_validation_rejects_a_radius_outside_0_1():
    # r = 0 once returned zero samples, which a run reported as PASS
    for r in (0.0, -0.5, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match="radius"):
            validate_three_step_lipschitz(r, samples=100, seed=7)


@pytest.mark.parametrize("samples, seed", [(0, 7), (-1, 7), (10, -1)])
def test_lipschitz_validation_rejects_what_it_cannot_sample(samples, seed):
    # zero samples would report no violation from no evidence
    with pytest.raises(DomainError):
        validate_three_step_lipschitz(0.5, samples=samples, seed=seed)


@pytest.mark.parametrize(
    "samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 5 * _CHUNK + 7])
def test_streamed_lipschitz_validation_equals_the_one_shot_draw(samples):
    # each chunk reads its part of the one PCG64 stream, so every field,
    # max_ratio included, is that of drawing all samples at once
    rng = np.random.default_rng(samples)
    for r in (0.05, *rng.uniform(0.05, 0.995, 2), 0.995):
        seed = int(rng.integers(2**62, 2**63))
        assert (validate_three_step_lipschitz(r, samples, seed)
                == one_shot_lipschitz_validation(r, samples, seed))


def test_lipschitz_validation_memory_does_not_grow_with_samples():
    # the draws and differences of one chunk are all that is held; drawn
    # at full size they peaked at 9.5 MiB at 20 000 samples and 93 MiB at
    # 200 000
    validate_three_step_lipschitz(0.5, 64, 7)
    peaks = []
    for samples in (20_000, 200_000):
        tracemalloc.start()
        try:
            validate_three_step_lipschitz(0.5, samples, 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 256 * 1024
    assert peaks[1] <= 4 * 2**20


def random_triples(rng, n, r):
    """z, a and a perturbed a~ as the validation draws them, a quarter of
    the steps exactly 1e-6 r."""
    z = np.exp(2j * np.pi * rng.random(n))
    a = np.sqrt(rng.random((n, 3))) * r * np.exp(2j * np.pi * rng.random((n, 3)))
    scale = 10.0 ** rng.uniform(-6, 0, (n, 3))
    scale[: n // 4] = 1e-6
    at = a + scale * r * np.exp(2j * np.pi * rng.random((n, 3)))
    m = np.abs(at)
    return z, a, np.where(m > r, at * (r / m), at)


def mp_three_step_difference(a, at, z):
    """Reference: P - P~ in mpmath at the working precision."""
    def product(coeffs):
        P, zz = mp.eye(2), mp.mpc(z)
        for c in map(mp.mpc, coeffs):
            P = mp.matrix([[zz, -mp.conj(c)], [-c * zz, 1]]) / mp.sqrt(
                1 - abs(c) ** 2) * P
        return P
    return np.array((product(a) - product(at)).tolist(), dtype=complex)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.99])
def test_telescoped_difference_matches_the_product_oracle(r):
    # Both forms round each entry of S a few times and each 2x2 product
    # once, so each is within a small multiple of eps M(r)^3 of the exact
    # P - P~ (M(r) = max ||S||), whatever the step.  The two differ by at
    # most 2.5 eps M^3 on these draws (at r = 0.1); the bound is 8.  Against
    # 50-digit products on the 1e-6 r steps the telescoped form stays
    # within 1.4 eps M^3; the bound is 4.
    eps_m3 = np.finfo(float).eps * szego_norm_bound(r) ** 3
    z, a, at = random_triples(np.random.default_rng(5), 20000, r)
    diff = _three_step_difference(a, at, z)
    oracle = matmul_three_step_difference(a, at, z)
    assert spectral_norm_2x2(diff - oracle).max() <= 8 * eps_m3
    with mp.workdps(50):
        for i in range(20):
            exact = mp_three_step_difference(a[i], at[i], z[i])
            assert spectral_norm_2x2(diff[i] - exact) <= 4 * eps_m3


def test_default_config_lipschitz_ratio_is_pinned():
    # the report's lipschitz-validation max_ratio for every shipped config
    cfg = ExperimentConfig(scenario="free", seed=20240601)
    val = validate_three_step_lipschitz(
        cfg.lipschitz_r, samples=cfg.lipschitz_samples, seed=cfg.seed
    )
    assert val.max_ratio == 0.5067251681062763
    assert (val.samples, val.violations) == (20000, 0)


def test_tolerance_values():
    t1 = coefficient_tolerance(1, 99, 0.5)
    assert t1.value == pytest.approx(1.0 / three_step_lipschitz(0.5), rel=1e-12)
    t2 = coefficient_tolerance(2, 4, 0.5)
    assert t2.value == pytest.approx(2.0**-4 / three_step_lipschitz(0.5), rel=1e-12)
    # monotone in q (k >= 2) and r
    assert coefficient_tolerance(2, 5, 0.5).value <= t2.value
    assert coefficient_tolerance(2, 4, 0.7).value <= t2.value


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5, float("nan")])
def test_tolerance_rejects_a_radius_outside_0_1(r):
    # the check is three_step_lipschitz's, through szego_norm_bound
    with pytest.raises(DomainError, match=r"r must lie in \[0, 1\)"):
        coefficient_tolerance(2, 4, r)


def test_tolerance_underflow_flag():
    t = coefficient_tolerance(10, 400, 0.5)
    assert t.underflowed
    assert t.value > 0
    assert t.log10 < -300


def test_tolerance_implies_block_closeness():
    # perturbing three consecutive coefficients by less than the budget
    # moves the three-step product by less than k^-q
    rng = np.random.default_rng(23)
    k, q, r = 3, 4, 0.6
    tol = coefficient_tolerance(k, q, r)
    for _ in range(200):
        z = cmath.exp(2j * np.pi * rng.random())
        a = np.sqrt(rng.random(3)) * r * np.exp(2j * np.pi * rng.random(3))
        step = tol.value * 0.999 * np.exp(2j * np.pi * rng.random(3))
        at = a + step
        m = np.abs(at)
        at = np.where(m > r, at * (r / m), at)
        P = szego_matrix(a[2], z) @ szego_matrix(a[1], z) @ szego_matrix(a[0], z)
        Pt = szego_matrix(at[2], z) @ szego_matrix(at[1], z) @ szego_matrix(at[0], z)
        assert spectral_norm_2x2(P - Pt) < float(k) ** -q


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_exactly_periodic():
    rng = np.random.default_rng(2)
    q = 4
    cell = np.sqrt(rng.random(q)) * 0.7 * np.exp(2j * np.pi * rng.random(q))
    vals = np.tile(cell, 6)[: 4 * q + 3]
    seq = VerblunskySequence(-2 * q - 1, 2 * q + 1, vals)
    cert = certify_gordon(seq, [(1, q), (2, q), (7, q)])
    assert cert.all_passed
    assert all(l.defect == 0.0 for l in cert.levels)


def test_certify_constant():
    c = 0.4 + 0.2j
    seq = VerblunskySequence.constant(c, -20, 20)
    cert = certify_gordon(seq, [(3, 4)])
    assert cert.all_passed
    assert cert.levels[0].r == pytest.approx(abs(c))


def test_certify_errors():
    seq = VerblunskySequence.constant(0.1, -20, 20)
    with pytest.raises(DomainError):
        certify_gordon(seq, [(1, 3)])
    with pytest.raises(WindowError):
        certify_gordon(seq, [(1, 20)])
    with pytest.raises(DomainError):
        certify_gordon(seq, [(1, 8), (2, 4)])
    # no level certifies nothing: an empty list once read all_passed
    with pytest.raises(DomainError, match="at least one"):
        certify_gordon(seq, [])


class TableFunction:
    """A sampling function reading a seeded table: at the residue p of
    the rotation by 1/m its value is table[p[0]], so a window shorter
    than m repeats no value."""

    def __init__(self, table):
        self.table = table

    def denominator(self, d0):
        return d0

    def at_residues(self, p, d):
        return self.table[p[0]]


def test_shift_difference_kernel_matches_the_loop():
    # certify_gordon's defect and periodic_defect_maxima against the
    # pair-by-pair loops they replaced, bit for bit, on seeded windows
    # that are not periodic; np.abs of the differences is not Python's abs
    # on some of them, np.hypot is on all
    rng = np.random.default_rng(20261019)
    abs_differs = 0
    for q in range(2, 41):
        seq = random_seq(rng, -2 * q + 1, 3 * q)
        if q % 2 == 0:
            defect = certify_gordon(seq, [(1, q)]).levels[0].defect
            assert defect == gordon_defect_loop(seq, q), q
            d = seq.slice(-2 * q + 1, 2 * q + 1)
            abs_differs += float(np.abs(d[q:] - d[:-q]).max()) != defect
        m = 5 * q + 1
        f = TableFunction(random_seq(rng, 0, m - 1).values.tolist())
        rot = Rotation([Fraction(1, m)])
        omega = TorusPoint([Fraction(int(rng.integers(m)), m)])
        maxima = periodic_defect_maxima(f, rot, omega, q)
        window = verblunsky_window(f, rot, omega, -2 * q + 1, 3 * q)
        assert maxima == block_difference_loop(window, q), q
        assert all(x > 0 for x in maxima)
    assert abs_differs >= 1


def test_certify_tube_sequence_end_to_end():
    # the central chain: tube member + designated orbit point -> certified
    golden = golden_mean()
    rot = Rotation([golden.value])
    center = TorusPoint([Fraction(0)])
    k = 3
    eps = Fraction(1, k)
    from qpcmv.dynamics import find_even_repetition

    q = find_even_repetition(rot, center, eps, 4, 100).q
    br = ball_radius(rot, center, q, eps)
    f = tube_function(
        rot, center, q, br.radius,
        [0.5 * cmath.exp(2j * math.pi * j / q) for j in range(q)],
    )
    seq = verblunsky_window(f, rot, f.gordon_point(), -2 * q, 3 * q + 1)
    cert = certify_gordon(seq, [(k, q)])
    assert cert.all_passed
    assert cert.levels[0].defect == 0.0


# ---------------------------------------------------------------------------
# lower bounds and evidence
# ---------------------------------------------------------------------------


def grid_min_max(mats, grid=32, rounds=6):
    """Reference: zooming grid search for min over unit v of
    max_k ||mats[:, k] v|| on the projective sphere (cos t, e^(i p) sin t).
    A grid minimum is attained at a unit vector, so it upper-bounds the
    exact value."""
    B = mats.shape[0]
    H = np.einsum("bkji,bkjl->bkil", mats.conj(), mats)
    tc = np.full(B, np.pi / 4)
    pc = np.full(B, np.pi)
    wt = np.full(B, np.pi / 4)
    wp = np.full(B, np.pi)
    best = np.full(B, np.inf)
    offsets = np.linspace(-1.0, 1.0, grid)
    rows = np.arange(B)
    for _ in range(rounds):
        ths = tc[:, None] + wt[:, None] * offsets[None, :]
        phs = pc[:, None] + wp[:, None] * offsets[None, :]
        v0 = np.broadcast_to(np.cos(ths)[:, :, None], (B, grid, grid))
        v1 = np.sin(ths)[:, :, None] * np.exp(1j * phs)[:, None, :]
        V = np.stack([v0, v1], axis=-1)
        f = np.einsum("btpi,bkij,btpj->bktp", V.conj(), H, V).real
        flat = np.sqrt(np.maximum(f.max(axis=1), 0.0)).reshape(B, -1)
        idx = flat.argmin(axis=1)
        val = flat[rows, idx]
        it, ip = np.unravel_index(idx, (grid, grid))
        upd = val < best
        best = np.where(upd, val, best)
        tc = np.where(upd, ths[rows, it], tc)
        pc = np.where(upd, phs[rows, ip], pc)
        wt = wt * (4.0 / grid)
        wp = wp * (4.0 / grid)
    return best


def unit_det_triples(rng, n):
    A = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    A = A / np.sqrt(np.abs(det))[:, None, None]
    return np.stack([A, A @ A, np.linalg.inv(A)], axis=1)


def certified_tube_sequence():
    """Level-2 rotation tube window (golden frequency) with its certificate."""
    golden = golden_mean()
    rot = Rotation([golden.value])
    center = TorusPoint([Fraction(0)])
    from qpcmv.dynamics import find_even_repetition

    k = 2
    q = find_even_repetition(rot, center, Fraction(1, k), 4, 100).q
    br = ball_radius(rot, center, q, Fraction(1, k))
    f = tube_function(rot, center, q, br.radius, [0.5, -0.5j])
    seq = verblunsky_window(f, rot, f.gordon_point(), -2 * q, 3 * q + 1)
    return seq, certify_gordon(seq, [(k, q)])


def test_min_max_exact_below_grid_oracle():
    mats = unit_det_triples(np.random.default_rng(2024), 2000)
    exact, _, _ = min_max_over_unit_vectors(mats)
    for lo in range(0, len(mats), 500):
        grid = grid_min_max(mats[lo:lo + 500])
        assert np.all(exact[lo:lo + 500] <= grid + 1e-12)
    assert exact.min() >= 0.5 - 1e-9


def test_min_max_exact_below_grid_oracle_on_tube_triple():
    seq, cert = certified_tube_sequence()
    q = cert.levels[0].q
    for th in (0.3, 1.7, 4.0):
        zs = np.array([cmath.exp(1j * th)])
        mats = np.stack([
            block_product_grid(seq, zs, 0, q),
            block_product_grid(seq, zs, 0, 2 * q),
            np.linalg.inv(block_product_grid(seq, zs, -q, 0)),
        ], axis=1)
        exact, _, _ = min_max_over_unit_vectors(mats)
        assert exact[0] <= grid_min_max(mats)[0] + 1e-12


def test_min_max_value_attained_at_returned_angles():
    mats = unit_det_triples(np.random.default_rng(7), 500)
    val, t, p = min_max_over_unit_vectors(mats)
    v = np.stack([np.cos(t), np.exp(1j * p) * np.sin(t)], axis=-1)
    direct = np.linalg.norm(
        np.einsum("bkij,bj->bki", mats, v), axis=-1
    ).max(axis=-1)
    assert np.all(np.abs(direct - val) <= 1e-12 * val)


def test_min_max_unit_vectors_sanity():
    # single matrix: the min over unit v of ||Av|| is the smallest
    # singular value
    A = np.diag([2.0, 0.5]).astype(complex)
    val, _, _ = min_max_over_unit_vectors(A[None, None])
    assert val[0] == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(300, 1, 2, 2)) + 1j * rng.normal(size=(300, 1, 2, 2))
    vals, _, _ = min_max_over_unit_vectors(mats)
    smin = np.linalg.svd(mats[:, 0], compute_uv=False)[:, -1]
    scale = np.abs(mats).max(axis=(1, 2, 3))
    assert np.all(np.abs(vals - smin) <= 1e-12 * scale)


def test_min_max_on_circle_of_constant_value():
    # the first two norms depend on n_z only and agree at n_z = 2/5 with
    # squared value 2.875, their lowest common maximum; the third stays
    # below it everywhere (identity) or on an arc of that circle
    # (H = 3.375 I + sigma_x, below it where n_x <= -1/2)
    sp, sm = np.sqrt(4.375), np.sqrt(2.375)
    arc = np.array([[sp + sm, sp - sm], [sp - sm, sp + sm]]) / 2
    for third in (np.eye(2), arc):
        mats = np.array(
            [np.diag([2.0, 0.5]), np.diag([0.5, 3.0]), third], dtype=complex
        )
        val, _, _ = min_max_over_unit_vectors(mats[None])
        assert val[0] == pytest.approx(np.sqrt(2.875), rel=1e-12)


def test_min_max_unitary_triple_is_one():
    rng = np.random.default_rng(9)
    G = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    U = np.linalg.qr(G)[0]
    val, _, _ = min_max_over_unit_vectors(U[None])
    assert val[0] == pytest.approx(1.0, abs=1e-15)


def test_min_max_non_finite_rows_are_inf():
    mats = unit_det_triples(np.random.default_rng(1), 3)
    mats[0, 0, 0, 0] = np.inf
    mats[1, 2, 1, 1] = np.nan
    mats[2] *= 1e300
    vals, t, _ = min_max_over_unit_vectors(mats)
    assert np.isinf(vals[:2]).all() and np.isnan(t[:2]).all()
    assert np.isfinite(vals[2]) and vals[2] >= 0.5e300


def awkward_batch(rng, B, K):
    """B random stacks of K complex 2x2 matrices spread over 60 decades;
    among them rows scaled to largest entry 1e-300 and 1e300, all-zero
    rows, rows of K equal matrices or of identities, and rows holding inf,
    -inf or NaN."""
    mats = rng.normal(size=(B, K, 2, 2)) + 1j * rng.normal(size=(B, K, 2, 2))
    mats *= 10.0 ** rng.uniform(-30, 30, (B, K, 1, 1))
    peak = np.abs(mats).max(axis=(1, 2, 3))[:, None, None, None]
    for i in range(1, B):
        kind = i % 9
        if kind == 1:
            mats[i] = mats[i] / peak[i] * 1e-300
        elif kind == 2:
            mats[i] = mats[i] / peak[i] * 1e300
        elif kind == 3:
            mats[i] = 0.0
        elif kind == 4:
            mats[i] = mats[i, 0]
        elif kind == 5:
            mats[i] = np.eye(2)
        elif kind == 6:
            mats[i, -1, 0, 1] = np.inf
        elif kind == 7:
            mats[i, 0, 1, 0] = complex(1.0, -np.inf)
        elif kind == 8:
            mats[i, i % K, 1, 1] = np.nan
    return mats


def assert_same_bits(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert np.array_equal(np.isnan(g), np.isnan(r))
        assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize(
    "B", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
def test_min_max_equals_the_one_shot_solver(B, K):
    # the explicit cross products, norms, sums and maxima round as
    # np.cross, np.linalg.norm and the axis reductions did, so the solver
    # returns the same bits whole or block by block
    mats = awkward_batch(np.random.default_rng(100 * B + K), B, K)
    ref = one_shot_min_max(mats)
    assert_same_bits(min_max_over_unit_vectors(mats), ref)
    blocks = [min_max_over_unit_vectors(mats[i:i + _ROWS])
              for i in range(0, B, _ROWS)]
    if blocks:
        assert_same_bits([np.concatenate(x) for x in zip(*blocks)], ref)
    if B > 8:
        assert np.isinf(ref[0][6::9]).all() and np.isnan(ref[1][8::9]).all()


def single_point_row(seq, q, theta):
    """The evidence row at the angle theta alone (row 0 is angle 0)."""
    return no_point_spectrum_evidence(
        seq, q=q, z_grid=1, extra_angles=[theta]
    ).rows[1]


def test_lower_bound_free_case_is_one():
    seq = VerblunskySequence.constant(0.0, -40, 40)
    for th in (0.0, 0.7, 2.2):
        res = single_point_row(seq, 8, th)
        assert res.c == pytest.approx(1.0, abs=1e-12)
        assert res.norm_forward == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_periodic_floor():
    rng = np.random.default_rng(31)
    q = 6
    cell = np.sqrt(rng.random(q)) * 0.6 * np.exp(2j * np.pi * rng.random(q))
    vals = np.tile(cell, 5)[: 4 * q + 1]
    seq = VerblunskySequence(-2 * q, 2 * q, vals)
    for th in (0.2, 1.0, 2.5):
        res = single_point_row(seq, q, th)
        assert res.c >= 0.5 - 1e-9


def test_periodic_floor_brute_force_small():
    assert validate_periodic_floor(samples=1500, seed=3) >= 0.5 - 1e-9


def test_lower_bound_certified_sequence_reports_both_sides():
    seq, cert = certified_tube_sequence()
    assert cert.all_passed
    lev = cert.levels[0]
    eta = float(lev.k) ** -lev.q * max(1.0, lev.r)
    for th in (0.3, 1.7):
        res = single_point_row(seq, lev.q, th)
        assert res.c >= 0.5 - eta


def test_evidence_free_sequence():
    seq = VerblunskySequence.constant(0.0, -40, 40)
    cert = certify_gordon(seq, [(1, 2), (2, 4), (3, 8)])
    table = no_point_spectrum_evidence(seq, certificate=cert, z_grid=64)
    assert table.q == 8
    assert table.source == "certified"
    assert table.verdict == "PASS"
    assert table.min_c == pytest.approx(1.0, abs=1e-12)


def test_evidence_periodic_sequence():
    rng = np.random.default_rng(17)
    q = 4
    cell = np.sqrt(rng.random(q)) * 0.5 * np.exp(2j * np.pi * rng.random(q))
    vals = np.tile(cell, 6)[: 4 * q + 2]
    seq = VerblunskySequence(-2 * q, 2 * q + 1, vals)
    cert = certify_gordon(seq, [(2, q)])
    table = no_point_spectrum_evidence(seq, certificate=cert, z_grid=128)
    assert table.verdict == "PASS"
    assert table.min_c >= 0.5 - 1e-12


def test_evidence_requires_certificate_or_q():
    seq = VerblunskySequence.constant(0.0, -40, 40)
    with pytest.raises(DomainError):
        no_point_spectrum_evidence(seq)
    bad = VerblunskySequence.impurity(0.5, -0.99, -40, 40)
    cert = certify_gordon(bad, [(2, 4)])
    assert not cert.all_passed
    with pytest.raises(DomainError):
        no_point_spectrum_evidence(bad, certificate=cert)
    # q = 0 once read PASS with min_c 1 from no transfer matrix
    for q in (0, -2):
        with pytest.raises(DomainError, match=f"q must be >= 1, got {q}"):
            no_point_spectrum_evidence(seq, q=q, z_grid=4)


def test_evidence_impurity_dips_at_bound_state():
    # gapped background with a strong defect: the finite truncation shows
    # a localized gap eigenvector whose angle betrays the bound state; the
    # three-block bound collapses there
    seq = VerblunskySequence.impurity(0.5, -0.99, -60, 60)
    op = assemble(seq, -40, 39)
    dec = spectrum(op)
    prs = np.array(
        [eigenvector_profile(op, dec, i).participation_ratio
         for i in range(op.size)]
    )
    i0 = int(np.argmin(prs))
    theta = float(np.angle(dec.eigenvalues[i0]))
    table = no_point_spectrum_evidence(
        seq, q=8, z_grid=64, extra_angles=[theta]
    )
    assert table.verdict == "FAIL"
    assert table.min_c < 0.25
    assert abs(table.argmin_angle - theta) < 1e-12


def test_evidence_grid_refinement_stability():
    rng = np.random.default_rng(8)
    q = 4
    cell = np.sqrt(rng.random(q)) * 0.5 * np.exp(2j * np.pi * rng.random(q))
    vals = np.tile(cell, 6)[: 4 * q + 1]
    seq = VerblunskySequence(-2 * q, 2 * q, vals)
    t1 = no_point_spectrum_evidence(seq, q=q, z_grid=128)
    t2 = no_point_spectrum_evidence(seq, q=q, z_grid=256)
    assert abs(t2.min_c - t1.min_c) < 0.1 * max(t1.min_c, 1e-12)


@pytest.mark.parametrize("q", [256, 512])
def test_evidence_counts_nonfinite_rows(q):
    # exactly q-periodic, |alpha| = 0.5: hyperbolic products reach ~1e80 at
    # q = 512, beyond the range of their squared entries
    rng = np.random.default_rng(q)
    cell = 0.5 * np.exp(2j * np.pi * rng.random(q))
    seq = VerblunskySequence(-q, 2 * q, np.tile(cell, 4)[: 3 * q + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        table = no_point_spectrum_evidence(seq, q=q, z_grid=512)
    c = np.array([r.c for r in table.rows])
    norms = np.array(
        [[r.norm_forward, r.norm_double, r.norm_backward] for r in table.rows]
    )
    assert not np.isnan(c).any()
    # periodic window: the product over [-q, 0) equals the forward block,
    # so the row norms see every non-finite product
    assert table.nonfinite_rows == int((~np.isfinite(norms)).any(axis=1).sum())
    assert table.verdict in ("PASS", "FAIL")
    if q == 512:
        # every product is finite, and so is every norm
        assert table.nonfinite_rows == 0
        assert np.isfinite(table.max_log10_norm)


def test_evidence_counts_overflowing_products():
    # constant |alpha| = 0.9: the products overflow in the gap and stay
    # bounded in the band; exactly the rows with a non-finite product count
    q = 256
    seq = VerblunskySequence.constant(0.9, -q, 2 * q)
    with np.errstate(over="ignore", invalid="ignore"):
        table = no_point_spectrum_evidence(seq, q=q, z_grid=64)
        zs = np.exp(1j * np.array([r.angle for r in table.rows]))
        products = np.stack(
            [block_product_grid(seq, zs, a, b)
             for a, b in ((-q, 0), (0, q), (0, 2 * q))], axis=1
        )
    bad = ~np.isfinite(products).all(axis=(1, 2, 3))
    assert 0 < bad.sum() < len(bad)
    assert table.nonfinite_rows == bad.sum()
    c = np.array([r.c for r in table.rows])
    assert np.isinf(c[bad]).all() and np.isfinite(c[~bad]).all()
    assert np.isfinite(table.max_log10_norm)


def test_evidence_extra_angles_match_single_point_bound():
    seq, cert = certified_tube_sequence()
    q = cert.levels[0].q
    thetas = [0.3, 1.7, 4.0]
    table = no_point_spectrum_evidence(seq, q=q, z_grid=16, extra_angles=thetas)
    for row, th in zip(table.rows[16:], thetas):
        res = single_point_row(seq, q, th)
        assert (row.c, row.norm_forward, row.norm_double, row.norm_backward) == (
            res.c, res.norm_forward, res.norm_double, res.norm_backward
        )


def test_evidence_max_log10_norm():
    seq = VerblunskySequence.constant(0.0, -40, 40)
    table = no_point_spectrum_evidence(seq, q=8, z_grid=64)
    assert abs(table.max_log10_norm) < 1e-12
    seq = VerblunskySequence.constant(0.5, -40, 40)
    table = no_point_spectrum_evidence(seq, q=8, z_grid=64)
    norms = [max(r.norm_forward, r.norm_double, r.norm_backward)
             for r in table.rows]
    assert table.max_log10_norm == float(np.log10(max(norms)))


@pytest.mark.parametrize(
    "z_grid", [1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
@pytest.mark.parametrize("extra", [(), (0.3, 1.7, 4.0)])
def test_evidence_table_equals_the_one_shot_table(z_grid, extra):
    # every row and summary field, on a q = 8 window and on a q = 256
    # window whose products overflow in the gap, with grids that end on
    # either side of a block edge
    windows = [(random_seq(np.random.default_rng(z_grid), -8, 16), 8),
               (VerblunskySequence.constant(0.9, -256, 512), 256)]
    with np.errstate(over="ignore", invalid="ignore"):
        for seq, q in windows:
            table = no_point_spectrum_evidence(
                seq, q=q, z_grid=z_grid, extra_angles=extra)
            assert repr(table) == repr(
                one_shot_evidence(seq, q, z_grid, extra))


def test_evidence_memory_grows_by_its_table_alone():
    # the solver holds one block of rows at a time, so what grows with
    # z_grid is the table: about 470 bytes a row, 0.84 MiB at 512 rows;
    # solved in one call, 5.0 KiB a row and 2.5 MiB at 512 rows
    seq = random_seq(np.random.default_rng(8), -8, 16)
    no_point_spectrum_evidence(seq, q=8, z_grid=64)
    peaks = []
    for z_grid in (512, 8192):
        tracemalloc.start()
        try:
            no_point_spectrum_evidence(seq, q=8, z_grid=z_grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1024 * (8192 - 512)
    assert peaks[0] <= 1.25 * 2**20


@pytest.mark.parametrize("q", [8, 64, 256, 512])
def test_periodic_backward_norm_is_the_forward_norm(q):
    # on a q-periodic window the product over [-q, 0) is A itself, and
    # ||adj A|| = ||A||; a float determinant of A cancels, so an inverse
    # divided by it can miss this by up to all its digits
    seq = periodic_seq(np.random.default_rng(q), q)
    table = no_point_spectrum_evidence(seq, q=q)
    nf = np.array([r.norm_forward for r in table.rows])
    nb = np.array([r.norm_backward for r in table.rows])
    assert (np.abs(nb - nf) <= 4 * np.finfo(float).eps * nf).all()


def test_evidence_c_matches_a_60_digit_reference_at_q64():
    # the four rows whose c a float inverse of the backward product moved
    # most (by 6e-4 to 1.1e-3 relative); the reference forms all three
    # blocks in mpmath and hands them to the same solver, whose own
    # rounding with ||B++|| up to 3e12 leaves up to 8.3e-7 here
    q = 64
    seq = periodic_seq(np.random.default_rng(q), q)
    table = no_point_spectrum_evidence(seq, q=q)
    rows = [table.rows[i] for i in (489, 490, 492, 498)]
    zs = np.exp(1j * np.array([r.angle for r in rows]))
    ref, _, _ = min_max_over_unit_vectors(mpmath_three_blocks(seq, zs, q))
    assert [r.c for r in rows] == pytest.approx(ref.tolist(), rel=1e-6)


@pytest.mark.parametrize("q", [2400, 3000])
def test_evidence_never_passes_from_a_nonfinite_row(q):
    # |alpha| = 0.5 periodic windows whose products overflow on some rows
    # (q = 2400) or on all of them (q = 3000): c is not known on those rows
    seq = periodic_seq(np.random.default_rng(q), q)
    with np.errstate(over="ignore", invalid="ignore"):
        table = no_point_spectrum_evidence(seq, q=q, z_grid=64)
    norms = np.array(
        [[r.norm_forward, r.norm_double, r.norm_backward] for r in table.rows]
    )
    finite = np.isfinite(norms).all(axis=1)
    assert table.nonfinite_rows == (~finite).sum() > 0
    assert table.verdict == "FAIL"
    assert finite.any() == (q == 2400)
    if q == 2400:
        c = np.array([r.c for r in table.rows])
        imin = int(np.argmin(np.where(finite, c, np.inf)))
        assert table.min_c == c[imin] < np.inf
        assert table.argmin_angle == table.rows[imin].angle
    else:
        assert table.min_c is table.argmin_angle is table.max_log10_norm is None


def test_evidence_on_a_q1024_window_warns_nothing():
    # the three-plane candidate s = sqrt((1 - |foot|^2) / ee) overflows on
    # some rows here; the candidate is discarded, so it must stay silent
    q = 1024
    seq = periodic_seq(np.random.default_rng(q), q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = no_point_spectrum_evidence(seq, q=q)
    assert table.nonfinite_rows == 0
    assert np.isfinite(table.min_c)
