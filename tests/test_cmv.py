import cmath
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import qpcmv.cmv as cmv
from oracles import (
    csv_eigenvalues_table,
    csv_profiles_table,
    gauge_rotate,
    hermitian_band_spectrum,
    parity_gauge_matrix,
    rho_at,
    theta_block,
    theta_step_count,
    theta_step_walk,
)
from qpcmv import artifacts
from qpcmv.cmv import assemble, eigenvector_profile, spectrum
from qpcmv.dynamics import Rotation, TorusPoint
from qpcmv.errors import DomainError, EigensolverError, WindowError
from qpcmv.frequency import parse_frequency
from qpcmv.sampling import HarmonicFunction, VerblunskySequence, verblunsky_window
from test_acceptance import Budget


def random_seq(seed, n_min, n_max, radius=0.9):
    rng = np.random.default_rng(seed)
    n = n_max - n_min + 1
    vals = np.sqrt(rng.random(n)) * radius * np.exp(2j * np.pi * rng.random(n))
    return VerblunskySequence(n_min, n_max, vals)


def test_free_case_exactly_unitary():
    seq = VerblunskySequence.constant(0.0, -10, 10)
    op = assemble(seq, -6, 5)
    assert op.unitarity_defect == 0.0
    assert op.band_agreement == 0.0
    assert np.array_equal(theta_block(0.0), np.array([[0, 1], [1, 0]], dtype=complex))


def test_free_case_eigenvalues_equally_spaced():
    seq = VerblunskySequence.constant(0.0, -10, 10)
    bm, bp = cmath.exp(0.4j), cmath.exp(-1.1j)
    op = assemble(seq, 0, 5, boundary=(bm, bp))
    dec = spectrum(op)
    # single 6-cycle with total phase -bm * conj(bp): eigenvalues are the
    # 6th roots of that phase
    phase = -bm * np.conj(bp)
    expected = np.sort(np.angle(phase ** (1 / 6) * np.exp(2j * np.pi * np.arange(6) / 6)))
    got = np.sort(np.angle(dec.eigenvalues))
    gaps = np.diff(got)
    assert np.allclose(gaps, gaps[0], atol=1e-10)
    assert np.allclose(np.sort(np.mod(got, 2 * np.pi / 6)),
                       np.mod(got[0], 2 * np.pi / 6), atol=1e-10)


def test_free_case_characteristic_polynomial_sympy():
    sympy = pytest.importorskip("sympy")
    seq = VerblunskySequence.constant(0.0, -10, 10)
    op = assemble(seq, 0, 5, boundary=(1.0, 1.0))
    M = sympy.Matrix(6, 6, lambda i, j: sympy.nsimplify(complex(op.matrix[i, j])))
    lam = sympy.symbols("lam")
    poly = sympy.expand(M.charpoly(lam).as_expr())
    assert sympy.simplify(poly - (lam**6 + 1)) == 0


def test_band_structure_matches_displayed_rows():
    # entries around the center of the window, checked symbol for symbol:
    # even rows carry (conj(a_m) rho_{m-1}, -conj(a_m) a_{m-1},
    # rho_m conj(a_{m+1}), rho_m rho_{m+1}); odd rows carry
    # (rho_{m-1} rho_{m-2}, -rho_{m-1} a_{m-2}, -a_{m-1} conj(a_m),
    # -a_{m-1} rho_m); everything else in those rows vanishes
    seq = random_seq(1, -8, 8)
    op = assemble(seq, -6, 6)
    a = seq.alpha

    def r(n):
        return rho_at(seq, n)

    E = {(m, n): op.matrix[m + 6, n + 6] for m in range(-3, 5) for n in range(-4, 6)}
    assert E[(0, 0)] == -np.conj(a(0)) * a(-1)
    assert E[(0, 1)] == np.conj(a(1)) * r(0)
    assert E[(0, 2)] == r(1) * r(0)
    assert E[(0, 3)] == 0 and E[(0, 4)] == 0
    assert E[(1, 0)] == -r(0) * a(-1)
    assert E[(1, 1)] == -np.conj(a(1)) * a(0)
    assert E[(1, 2)] == -r(1) * a(0)
    assert E[(1, 3)] == 0 and E[(1, 4)] == 0
    assert E[(2, 0)] == 0
    assert E[(2, 1)] == np.conj(a(2)) * r(1)
    assert E[(2, 2)] == -np.conj(a(2)) * a(1)
    assert E[(2, 3)] == np.conj(a(3)) * r(2)
    assert E[(2, 4)] == r(3) * r(2)
    assert E[(3, 0)] == 0
    assert E[(3, 1)] == r(2) * r(1)
    assert E[(3, 2)] == -r(2) * a(1)
    assert E[(3, 3)] == -np.conj(a(3)) * a(2)
    assert E[(3, 4)] == -r(3) * a(2)
    assert E[(4, 1)] == 0 and E[(4, 2)] == 0 and E[(4, 0)] == 0
    assert E[(4, 3)] == np.conj(a(4)) * r(3)
    assert E[(4, 4)] == -np.conj(a(4)) * a(3)


@pytest.mark.parametrize("n_min,n_max", [(-10, 9), (-9, 9), (0, 30), (1, 31)])
def test_random_unitarity_and_band_agreement(n_min, n_max):
    seq = random_seq(7, n_min - 1, n_max + 1)
    op = assemble(seq, n_min, n_max, boundary=(cmath.exp(2.1j), -1.0))
    assert op.unitarity_defect <= 1e-12
    assert op.band_agreement <= 1e-14


def test_unitarity_defect_at_n2000():
    seq = random_seq(15, -1002, 1002)
    op = assemble(seq, -1000, 999)
    assert op.unitarity_defect <= 1e-12
    assert op.band_agreement <= 1e-14


def test_boundary_must_be_unimodular():
    seq = random_seq(7, -10, 10)
    with pytest.raises(DomainError):
        assemble(seq, -5, 5, boundary=(0.5, 1.0))
    # a NaN boundary once assembled a NaN matrix reported unitary
    for boundary in ((math.nan, 1.0), (1.0, complex(0.0, math.nan))):
        with pytest.raises(DomainError, match="unimodular"):
            assemble(seq, -5, 5, boundary=boundary)


def test_window_too_small():
    seq = random_seq(3, 0, 4)
    with pytest.raises(WindowError):
        assemble(seq, 0, 10)


def test_two_site_block_eigenvalues():
    seq = random_seq(13, -2, 3)
    op = assemble(seq, 0, 1, boundary=(1.0, cmath.exp(0.9j)))
    dec = spectrum(op)
    direct = np.sort(np.angle(np.linalg.eigvals(op.matrix)))
    assert np.allclose(np.sort(np.angle(dec.eigenvalues)), direct, atol=1e-12)


def test_eigenvalue_product_matches_factor_determinant():
    seq = random_seq(21, -26, 26)
    op = assemble(seq, -20, 19, boundary=(cmath.exp(1.3j), cmath.exp(-0.2j)))
    dec = spectrum(op)
    prod = np.prod(dec.eigenvalues)
    assert abs(prod - op.det) <= 1e-10


def test_spectrum_residuals_and_moduli():
    seq = random_seq(2, -60, 60)
    op = assemble(seq, -50, 49)
    dec = spectrum(op)
    assert dec.residuals.max() <= 1e-10
    assert dec.modulus_defect <= 1e-10
    angles = np.angle(dec.eigenvalues)
    assert np.all(np.diff(angles) >= 0)


def test_gauge_rotation_is_parity_conjugation():
    seq = random_seq(4, -16, 16)
    theta = 0.83
    bm, bp = cmath.exp(0.3j), cmath.exp(-0.7j)
    op = assemble(seq, -12, 11, boundary=(bm, bp))
    gauged = assemble(
        gauge_rotate(seq, theta),
        -12,
        11,
        boundary=(bm * cmath.exp(1j * theta), bp * cmath.exp(1j * theta)),
    )
    D = parity_gauge_matrix(-12, 11, theta)
    conj = D @ op.matrix @ D.conj().T
    assert np.abs(gauged.matrix - conj).max() <= 1e-14
    a1 = np.sort(np.angle(spectrum(op).eigenvalues))
    a2 = np.sort(np.angle(spectrum(gauged).eigenvalues))
    assert np.abs(a1 - a2).max() <= 1e-10


def test_profile_free_case_delocalized():
    seq = VerblunskySequence.constant(0.0, -110, 110)
    op = assemble(seq, -100, 99)
    dec = spectrum(op)
    prs = [
        eigenvector_profile(op, dec, i).participation_ratio
        for i in range(op.size)
    ]
    assert min(prs) >= op.size / 4


def test_profile_gapped_impurity_localized():
    # a strong defect in a gapped background binds: at least one
    # eigenvector concentrates on a few sites
    seq = VerblunskySequence.impurity(0.5, -0.99, -110, 110)
    op = assemble(seq, -100, 99)
    dec = spectrum(op)
    profiles = [eigenvector_profile(op, dec, i) for i in range(op.size)]
    prs = np.array([p.participation_ratio for p in profiles])
    assert prs.min() <= op.size / 10
    best = profiles[int(np.argmin(prs))]
    assert abs(best.peak) <= 2  # localized at the defect


def test_profile_peak_tie_goes_to_the_first_site():
    # two equal largest weights: which one rounding makes larger by an ulp
    # must not move the peak or the shell masses
    op = assemble(VerblunskySequence.constant(0.0, -10, 10), -5, 4)
    u = np.full(op.size, 0.1, dtype=complex)
    u[[3, 4]] = 0.6
    results = []
    for k in (3, 4):
        v = u.copy()
        v[k] = np.nextafter(v[k].real, 1.0)
        dec = cmv.SpectralDecomposition(
            eigenvalues=np.ones(1), vectors=v[:, None], residuals=np.zeros(1),
            modulus_defect=0.0, fallback=False,
        )
        p = eigenvector_profile(op, dec, 0)
        results.append((p.peak, np.array(p.shell_masses)))
    (peak_a, masses_a), (peak_b, masses_b) = results
    assert peak_a == peak_b == 3 + op.n_min
    assert np.abs(masses_a - masses_b).max() <= 1e-15
    # a real difference still decides
    u[4] = 0.6 * (1 + 1e-6)
    dec = cmv.SpectralDecomposition(np.ones(1), u[:, None], np.zeros(1), 0.0,
                                    False)
    assert eigenvector_profile(op, dec, 0).peak == 4 + op.n_min


def test_profile_shell_masses_normalized():
    seq = random_seq(6, -30, 30)
    op = assemble(seq, -25, 24)
    dec = spectrum(op)
    for i in (0, 10, 30):
        p = eigenvector_profile(op, dec, i)
        assert sum(p.shell_masses) == pytest.approx(1.0, abs=1e-12)
        assert 1.0 <= p.participation_ratio <= op.size + 1e-9


def test_triplet_dump_roundtrip():
    seq = random_seq(5, -6, 6)
    op = assemble(seq, -4, 3)
    buf = io.StringIO()
    op.dump_triplets(buf, seed=1)
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    M = np.zeros((op.size, op.size), dtype=complex)
    for line in lines:
        i, j, re, im = line.split()
        M[int(i), int(j)] = complex(float(re), float(im))
    assert np.array_equal(M, op.matrix)


def loop_dump(op, seed=None):
    """The dense double loop over all N^2 entries: oracle for dump_triplets."""
    buf = io.StringIO()
    if seed is not None:
        buf.write(f"# seed={seed}\n")
    buf.write(
        f"# cmv triplets window=[{op.n_min},{op.n_max}] "
        f"size={op.size} unitary=True\n"
    )
    E = op.matrix
    for i in range(op.size):
        for j in range(op.size):
            v = E[i, j]
            if v != 0:
                buf.write(f"{i} {j} {float(v.real)!r} {float(v.imag)!r}\n")
    return buf.getvalue()


DUMP_WINDOWS = {
    "random": (random_seq(17, -40, 40, radius=0.99), -35, 36),
    # exact zeros on the diagonal and in every alpha factor
    "free": (VerblunskySequence.constant(0.0, -40, 40), -35, 36),
    "impurity": (VerblunskySequence.impurity(0.5, -0.99, -30, 30), -21, 20),
    # period 4, an edge state at each end; the window spans the whole
    # sequence, so the band walk meets the clamped edge entries
    "edge": (VerblunskySequence(
        -31, 30, 0.5 * np.array([-1, -1j, 1, 1j])[np.arange(62) % 4]), -31, 31),
}


@pytest.mark.parametrize("kind", ["random", "free", "impurity", "edge"])
def test_triplet_dump_matches_double_loop(kind):
    seq, n_min, n_max = DUMP_WINDOWS[kind]
    for boundary in [(1, 1), (cmath.exp(0.7j), cmath.exp(-2.2j)), (-1j, -1)]:
        op = assemble(seq, n_min, n_max, boundary=boundary)
        buf = io.StringIO()
        op.dump_triplets(buf, seed=4)
        assert buf.getvalue() == loop_dump(op, seed=4), boundary


def test_assemble_stores_no_dense_array():
    # band storage only: O(N) memory, the dense matrices are built on access
    N = 300
    op = assemble(random_seq(3, -160, 160), -150, 149)
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    arrays += list(op.factor_bands)
    assert arrays and all(a.size <= 5 * N for a in arrays)
    assert op.matrix.shape == (N, N)


def dense_factor_product(seq, n_min, n_max, boundary):
    """L @ M from dense Theta blocks: oracle for the banded assembly."""
    N = n_max - n_min + 1
    bm, bp = boundary

    def coef(n):
        return bm if n <= n_min - 1 else bp if n >= n_max else seq.alpha(n)

    L = np.zeros((N, N), dtype=complex)
    M = np.zeros((N, N), dtype=complex)
    for k in range(n_min - 1, n_max + 1):
        F = L if k % 2 == 0 else M
        i = k - n_min
        if k == n_min - 1:
            F[0, 0] = -coef(k)
        elif k == n_max:
            F[N - 1, N - 1] = np.conj(coef(k))
        else:
            F[i : i + 2, i : i + 2] = theta_block(coef(k))
    return L, M


@pytest.mark.parametrize("n_min,n_max", [(0, 1), (-1, 0), (-10, 9), (3, 40)])
def test_banded_factors_match_dense_blocks(n_min, n_max):
    seq = random_seq(19, n_min - 1, n_max + 1, radius=0.999)
    b = (cmath.exp(0.4j), cmath.exp(2.9j))
    op = assemble(seq, n_min, n_max, boundary=b)
    L, M = dense_factor_product(seq, n_min, n_max, b)
    assert np.array_equal(op.factor_left, L)
    assert np.array_equal(op.factor_right, M)
    assert np.abs(op.matrix - L @ M).max() <= 1e-15
    N = op.size
    dense_defect = np.abs(op.matrix.conj().T @ op.matrix - np.eye(N)).max()
    assert abs(op.unitarity_defect - dense_defect) <= 1e-15


def angle_distance(lam, oracle):
    """Largest angle difference after sorting both from the middle of the
    oracle's widest gap, so that no eigenvalue straddles the cut."""
    ang = np.sort(np.angle(oracle))
    gaps = np.diff(np.r_[ang, ang[0] + 2 * np.pi])
    cut = ang[np.argmax(gaps)] + gaps.max() / 2
    a = np.sort(np.mod(np.angle(lam) - cut, 2 * np.pi))
    b = np.sort(np.mod(np.angle(oracle) - cut, 2 * np.pi))
    return float(np.abs(a - b).max())


def test_spectrum_matches_schur_oracle():
    rng = np.random.default_rng(2024)
    sizes = [2, 3, 5, 8, 13, 40, 101, 200] * 5 + [600, 600]
    for trial, N in enumerate(sizes):
        radius = (0.5, 0.9, 0.99, 0.999)[trial % 4]
        if trial % 3 == 2:  # real coefficients: conjugation-symmetric spectrum
            vals = radius * (2 * rng.random(N + 3) - 1) + 0j
            seq = VerblunskySequence(-1, N + 1, vals)
        else:
            seq = random_seq(int(rng.integers(1 << 30)), -1, N + 1, radius)
        b = (cmath.exp(1j * rng.uniform(-3, 3)), cmath.exp(1j * rng.uniform(-3, 3)))
        op = assemble(seq, 0, N - 1, boundary=b)
        dec = spectrum(op)
        assert not dec.fallback
        oracle = np.diag(sla.schur(op.matrix, output="complex")[0])
        assert angle_distance(dec.eigenvalues, oracle) <= 1e-12, (trial, N)
        assert dec.residuals.max() <= 1e-10
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(N)).max() <= 1e-12


def test_symmetric_free_spectrum_needs_the_cluster_step(monkeypatch):
    # boundary phase e^(i N phi): the eigenvalues are the N-th roots of it,
    # symmetric about phi, so every H_phi eigenvalue except cos(0) and
    # cos(pi) is doubly degenerate and its eigenvectors mix e^(i theta) with
    # e^(i (2 phi - theta))
    N = 40
    seq = VerblunskySequence.constant(0.0, -1, N)
    phase = cmath.exp(1j * N * cmv._PHI)
    op = assemble(seq, 0, N - 1, boundary=(-phase, 1.0))
    E = op.matrix
    H = (np.exp(-1j * cmv._PHI) * E + np.exp(1j * cmv._PHI) * E.conj().T) / 2
    mu = np.linalg.eigvalsh(H)
    assert int((np.diff(mu) <= 1e-12).sum()) == N // 2 - 1
    dec = spectrum(op)
    assert not dec.fallback
    assert dec.residuals.max() <= 1e-12
    exact = np.exp(1j * (cmv._PHI + 2 * np.pi * np.arange(N) / N))
    assert angle_distance(dec.eigenvalues, exact) <= 1e-12
    # each doubled H_phi eigenvalue names both members of a pair, and only
    # the count keeps both: one candidate per H_phi eigenvalue loses one
    # member of every pair and doubles the other, which the gate refuses
    monkeypatch.setattr(cmv, "_counted", one_candidate_per_mu(op))
    with pytest.raises(EigensolverError, match="count"):
        cmv._band_spectrum(op)
    assert spectrum(op).fallback


def one_candidate_per_mu(op):
    """A stand-in for the count's choice among the candidates: the angle
    phi + arccos mu of every H_phi eigenvalue mu."""
    E = op.matrix
    H = (np.exp(-1j * cmv._PHI) * E + np.exp(1j * cmv._PHI) * E.conj().T) / 2
    mu = np.linalg.eigvalsh(H)
    return lambda angles, starts, rises: np.sort(
        np.mod(cmv._PHI + np.arccos(np.clip(mu, -1, 1)) - angles[0], 2 * np.pi)
        + angles[0])


def seeded_window(seed, N, radius, real):
    """N sites of seeded coefficients of modulus at most ``radius`` (real
    ones spread over [-radius, radius]), seeded unimodular boundary."""
    rng = np.random.default_rng(seed)
    if real:
        seq = VerblunskySequence(-1, N + 1, radius * (2 * rng.random(N + 3) - 1) + 0j)
    else:
        seq = random_seq(int(rng.integers(1 << 30)), -1, N + 1, radius)
    b = (cmath.exp(1j * rng.uniform(-3, 3)), cmath.exp(1j * rng.uniform(-3, 3)))
    return assemble(seq, 0, N - 1, boundary=b)


def counts_between(op, lam):
    """The count at the midpoints of consecutive eigenvalue angles, taken
    from the middle of the widest gap, relative to its value there."""
    ang = np.sort(np.angle(lam))
    gaps = np.diff(np.r_[ang, ang[0] + 2 * np.pi])
    cut = ang[np.argmax(gaps)] + gaps.max() / 2
    a = np.sort(np.mod(ang - cut, 2 * np.pi)) + cut
    points = np.r_[cut, (a[:-1] + a[1:]) / 2, cut + 2 * np.pi]
    c = cmv._Chain(op).count(points)
    return c - c[0]


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("radius", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("N", [2, 3, 5, 40, 200, 600])
def test_count_rises_by_one_between_eigenvalues(N, radius, real):
    # the gate, checked from outside: the count rises by exactly one
    # between consecutive eigenvalues and by N over the circle
    op = seeded_window(N * 1000 + int(radius * 1000) + real, N, radius, real)
    dec = spectrum(op)
    assert not dec.fallback
    assert np.array_equal(counts_between(op, dec.eigenvalues), np.arange(N + 1))


def test_count_matches_schur_angles():
    # the count at arbitrary angles is the number of Schur eigenvalue
    # angles below them (relative to -pi), away from the eigenvalues
    rng = np.random.default_rng(77)
    for N, radius in [(7, 0.9), (40, 0.999), (200, 0.5)]:
        op = seeded_window(int(rng.integers(1 << 30)), N, radius, False)
        ang = np.sort(np.angle(np.diag(sla.schur(op.matrix, output="complex")[0])))
        theta = rng.uniform(-np.pi, np.pi, 500)
        theta = theta[np.abs(theta[:, None] - ang[None, :]).min(axis=1) > 1e-9]
        c = cmv._Chain(op).count(np.r_[-np.pi, theta])
        assert np.array_equal(c[1:] - c[0], np.searchsorted(ang, theta))


def test_one_candidate_per_mu_trips_the_gate(monkeypatch):
    # without the count, about half the kept angles are the mirror images
    # 2 phi - theta of eigenvalue angles: the gate refuses them and the
    # dense Schur path answers
    op = seeded_window(5, 40, 0.9, False)
    monkeypatch.setattr(cmv, "_counted", one_candidate_per_mu(op))
    with pytest.raises(EigensolverError, match="count"):
        cmv._band_spectrum(op)
    assert spectrum(op).fallback


def profiles(op, dec):
    return cmv.eigenvector_profile(op, dec, range(op.size))


@pytest.mark.parametrize("N,radius,real", [(200, 0.5, False), (200, 0.99, True),
                                           (600, 0.9, False)])
def test_spectrum_matches_hermitian_band_oracle(N, radius, real):
    # the eigenvector path the transfer recursion replaced: the same angles
    # to 1e-12 and, vector by vector, the same peak and participation ratio
    op = seeded_window(N + 11, N, radius, real)
    dec = spectrum(op)
    lam, V = hermitian_band_spectrum(op.band)
    ref = cmv._checked(op.band, lam, V, cmv._rayleigh(op.band, V, lam)[1], 1e-10, False)
    assert not dec.fallback
    assert angle_distance(dec.eigenvalues, ref.eigenvalues) <= 1e-12
    assert np.abs(dec.eigenvalues - ref.eigenvalues).max() <= 1e-12
    for p, q, v in zip(profiles(op, dec), profiles(op, ref), dec.vectors.T):
        assert abs(p.participation_ratio - q.participation_ratio) <= (
            1e-9 * q.participation_ratio)
        w = np.sort(np.abs(v) ** 2)
        if w[-2] < w[-1] * (1 - 1e-6):  # a peak that rounding cannot move
            assert p.peak == q.peak


def test_localized_hyperbolic_window_at_n2000():
    # |alpha| <= 0.999 at N = 2000: every eigenvector lives on a few sites
    # and a solution of the recursion grows far past the float range over
    # the window; no overflow, no invalid value, no fallback, inside 4 s
    # (the Hermitian eigenvector path took 14 s on a 2-CPU machine)
    rng = np.random.default_rng(2000)
    N = 2000
    vals = 0.999 * np.sqrt(rng.random(N + 3)) * np.exp(2j * np.pi * rng.random(N + 3))
    op = assemble(VerblunskySequence(-1, N + 1, vals), 0, N - 1,
                  boundary=(cmath.exp(0.3j), cmath.exp(-2.1j)))
    with Budget(4), np.errstate(over="raise", invalid="raise", divide="raise"):
        dec = spectrum(op)
    assert not dec.fallback
    assert dec.residuals.max() <= 1e-12
    prs = np.array([p.participation_ratio for p in profiles(op, dec)])
    assert np.median(prs) <= 10


def test_batched_profiles_equal_single_ones():
    # one vectorised pass, bit for bit the per-index profiles
    op = assemble(random_seq(12, -40, 40, radius=0.8), -33, 32)
    dec = spectrum(op)
    batch = cmv.eigenvector_profile(op, dec, [5, 0, 64, 5])
    assert batch == [cmv.eigenvector_profile(op, dec, i) for i in [5, 0, 64, 5]]
    assert cmv.eigenvector_profile(op, dec, np.int64(5)) == batch[0]


def test_spectrum_tolerance_too_tight_raises_after_fallback(monkeypatch):
    calls = []
    schur = cmv._schur_spectrum

    def counted(matrix):
        calls.append(matrix.shape)
        return schur(matrix)

    monkeypatch.setattr(cmv, "_schur_spectrum", counted)
    monkeypatch.setattr(cmv, "_EIG_TOL", 1e-15)
    op = assemble(random_seq(8, -30, 30), -25, 24)
    with pytest.raises(EigensolverError):
        spectrum(op)
    assert calls == [(50, 50)]


def test_degenerate_edge_states_get_the_localized_basis(monkeypatch):
    # period-4 coefficients leave one edge state at each end of the window
    # with the same eigenvalue -i; at N = 60 their splitting is below
    # rounding, so the solver alone would return an arbitrary basis of the
    # pair
    N = 60
    op = edge_pair_window()

    def edge_profiles(dec):
        idx = np.flatnonzero(np.abs(dec.eigenvalues + 1j) <= 1e-12)
        return sorted(
            (p.peak, p.participation_ratio)
            for p in (eigenvector_profile(op, dec, i) for i in idx)
        )

    banded = edge_profiles(spectrum(op))
    assert [peak for peak, _ in banded] == [-30, 29]
    assert all(abs(pr - 2.0) <= 1e-9 for _, pr in banded)
    # the Schur path, whose basis of the pair differs, lands on the same one
    monkeypatch.setattr(
        cmv, "_band_spectrum",
        lambda band: (np.zeros(N, dtype=complex), np.eye(N, dtype=complex),
                      np.zeros(N)),
    )
    dec = spectrum(op)
    assert dec.fallback
    schur = edge_profiles(dec)
    assert [peak for peak, _ in schur] == [-30, 29]
    for (_, a), (_, b) in zip(banded, schur):
        assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("N", [60, 100])
def test_degenerate_edge_states_take_distinct_twists(N):
    # the two edge states share -i to working precision: walks joined at
    # one site give one vector twice, at the two best sites both states
    vals = 0.5 * np.array([-1, -1j, 1, 1j])[np.arange(N + 2) % 4]
    lo, hi = -(N // 2), N - N // 2 - 1
    op = assemble(VerblunskySequence(lo - 1, hi + 1, vals), lo, hi)
    dec = spectrum(op)
    assert not dec.fallback
    idx = np.flatnonzero(np.abs(dec.eigenvalues + 1j) <= 1e-12)
    assert sorted(p.peak for p in cmv.eigenvector_profile(op, dec, idx)) == [lo, hi]


def mask_shells(w):
    """One boolean mask per dyadic shell: oracle for eigenvector_profile."""
    n = w.size
    dist = np.abs(np.arange(n) - int(np.argmax(w)))
    shells = [float(w[dist == 0].sum())]
    s = 1
    while 2 ** (s - 1) <= n:
        shells.append(float(w[(dist >= 2 ** (s - 1)) & (dist < 2**s)].sum()))
        s += 1
    return shells


@pytest.mark.parametrize("N", [2, 3, 4, 7, 8, 9, 64, 65])
def test_profile_shells_match_mask_oracle(N):
    seq = random_seq(N, -2, N + 1)
    op = assemble(seq, 0, N - 1)
    dec = spectrum(op)
    for i in range(N):
        w = np.abs(dec.vectors[:, i]) ** 2
        got = eigenvector_profile(op, dec, i).shell_masses
        want = mask_shells(w / w.sum())
        assert len(got) == len(want)
        assert np.abs(np.array(got) - want).max() <= 1e-15


def near_unit_window(seed, N, top, real):
    """N sites of seeded coefficients of modulus at most ``top``, two of
    them exactly at it, real (signs) or complex, and a seeded unimodular
    boundary pair."""
    rng = np.random.default_rng(seed)
    mod = top * np.sqrt(rng.random(N + 3))
    mod[rng.integers(0, N + 3, 2)] = top
    phase = rng.choice([-1.0, 1.0], N + 3) if real else np.exp(2j * np.pi * rng.random(N + 3))
    b = (cmath.exp(1j * rng.uniform(-3, 3)), cmath.exp(1j * rng.uniform(-3, 3)))
    return assemble(VerblunskySequence(-1, N + 1, mod * phase + 0j), 0, N - 1,
                    boundary=b), rng


@pytest.mark.parametrize("top", [0.5, 0.999, 1 - 1e-12])
@pytest.mark.parametrize("N", [2, 5, 40, 300])
def test_walk_matches_theta_step_oracle(N, top):
    # the Moebius walk against the two-division transfer step it replaced,
    # both ways, at 64 seeded angles: the ratio entering every block and
    # leaving the window, and u_(p+1) / u_p scaled by rho (n against
    # rho x' at an M block, w / r against rho y' / r at an L block).  A
    # difference made at one site reaches site q multiplied by at most
    # |u_p|^2 / |u_q|^2, so the differences are held to 1e-12 times the
    # walk's condition number s_q = sum over p <= q of |u_p|^2 / |u_q|^2,
    # the slope recurrence s' = 1 + s / |y'|^2 of ``_twists``.  Then the
    # count, against the oracle's, between the eigenvalues and at the
    # seeded angles; the spectrum of each window needs no fallback.
    for seed in range(4):
        op, rng = near_unit_window(1000 * N + seed, N, top, real=seed % 2 == 1)
        theta = rng.uniform(-np.pi, np.pi, 64)
        z = np.exp(1j * theta)
        chain = cmv._Chain(op)
        for back in (False, True):
            s = np.ones(z.size)
            pairs = zip(chain.walk(z, back), theta_step_walk(op, z, back))
            for (p, in_l, inv_rho, w, n, r), (q, in_l_o, x, y, r_in, r_out) in pairs:
                assert (p, in_l) == (q, in_l_o)
                assert np.all(np.abs(r - r_in) <= 1e-12 * s)
                rho = 1.0 / inv_rho
                new, old = (w / r, rho * y / r_in) if in_l else (n, rho * x)
                assert np.all(np.abs(new - old) <= 1e-12 * s)
                s = 1.0 + s / np.abs(y) ** 2
            assert np.all(np.abs(r - r_out) <= 1e-12 * s)
        dec = spectrum(op)
        assert not dec.fallback
        ang = np.sort(np.angle(dec.eigenvalues))
        far = theta[np.abs(theta[:, None] - ang[None, :]).min(axis=1) > 1e-9]
        points = np.r_[-np.pi, (ang[:-1] + ang[1:]) / 2, far]
        assert np.array_equal(chain.count(points), theta_step_count(op, points))


def orthonormality(V):
    return float(np.abs(V.conj().T @ V - np.eye(V.shape[1])).max())


def test_accuracy_sweep():
    # 48 seeded windows (N <= 300, |alpha| <= 0.999, real and complex;
    # about 1 s on a 2-CPU machine) held to the residual and
    # orthonormality the README states for the transfer-recursion
    # spectrum, 2e-14 and 5.2e-13, with no fallback
    cases = [(N, radius, real) for N in (5, 20, 60, 120, 200, 300)
             for radius in (0.5, 0.9, 0.99, 0.999) for real in (False, True)]
    for seed, case in enumerate(cases):
        dec = spectrum(seeded_window(seed, *case))
        assert not dec.fallback, case
        assert dec.residuals.max() <= 2e-14, case
        assert orthonormality(dec.vectors) <= 5.2e-13, case


def harmonic_window(modulus, N):
    """The window of N sites around 0 that ``sample --family harmonic
    --params MODULUS,0`` writes (golden rotation from omega = 0)."""
    lo, hi = -(N // 2), N - N // 2 - 1
    rotation = Rotation([parse_frequency("golden").value])
    seq = verblunsky_window(HarmonicFunction(modulus), rotation, TorusPoint.exact(0),
                            lo, hi)
    return assemble(seq, lo, hi)


def cluster_runs(dec):
    """Widths of the runs of eigenvalue angles closer than _CLUSTER_GAP."""
    ang = np.angle(dec.eigenvalues)
    return [c.stop - c.start for c in cmv._runs(np.diff(ang) >= cmv._CLUSTER_GAP)]


@pytest.mark.parametrize("modulus,runs", [(0.5, [21, 22]), (0.9, [79, 79])])
def test_spectrum_holds_little_beside_its_eigenvectors(modulus, runs):
    # the cmv-dense window (|alpha| = 0.5) and one whose two Rayleigh-Ritz
    # runs are each wider than a block.  Past the twist walks every pass
    # over the vectors takes _BLOCK columns at a time, so the walks' (V, S)
    # pair, 1.5 times the result, is the only full-size array beside it:
    # 1.61 times the result on both.  Forming E V whole, twice, and
    # permuting V by a copy held 2.24 times it
    op = harmonic_window(modulus, 600)
    spectrum(op)  # scipy.linalg is imported outside the trace
    tracemalloc.start()
    try:
        dec = spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not dec.fallback
    assert sorted(cluster_runs(dec)) == runs
    assert peak <= 1.75 * dec.vectors.nbytes


def edge_pair_window():
    """N = 60 sites of period 4: one edge state at each end, both at -i."""
    vals = 0.5 * np.array([-1, -1j, 1, 1j])[np.arange(62) % 4]
    return assemble(VerblunskySequence(-31, 30, vals), -30, 29)


RESIDUAL_WINDOWS = {
    # 94 runs of close angles, 200 columns: several batches
    "runs-in-batches": (lambda: seeded_window(0, 600, 0.5, False),
                        lambda dec: sum(cluster_runs(dec)) > 3 * cmv._BLOCK),
    "runs-wider-than-a-block": (lambda: harmonic_window(0.9, 600),
                                lambda dec: min(cluster_runs(dec)) > cmv._BLOCK),
    # N = 65: the last block holds one column, which np.linalg.norm would
    # sum pairwise and einsum sums row by row like every other
    "lone-last-column": (lambda: seeded_window(65991, 65, 0.99, True),
                         lambda dec: dec.eigenvalues.size % cmv._BLOCK == 1),
    "degenerate-pair": (edge_pair_window,
                        lambda dec: np.abs(np.diff(dec.eigenvalues)).min() <= 1e-12),
    # seed 106 of the centred flat-band windows falls back to Schur
    "schur-fallback": (lambda: flat_band_window(106, 300, False),
                       lambda dec: dec.fallback),
}


@pytest.mark.parametrize("name", RESIDUAL_WINDOWS)
def test_every_residual_is_fresh(name):
    # a residual is taken with v* E v from one product, and again only for
    # the columns that a Rayleigh-Ritz batch or the degenerate fix rotates,
    # or for every column of the Schur fallback.  One product over the
    # final vectors must give each of them bit for bit, so that no column
    # keeps the residual of a vector it no longer holds
    window, shape = RESIDUAL_WINDOWS[name]
    op = window()
    dec = spectrum(op)
    assert shape(dec)
    assert dec.fallback == (name == "schur-fallback")
    V, lam = dec.vectors, dec.eigenvalues
    fresh = np.linalg.norm(cmv._band_matvec(op.band, V) - V * lam, axis=0)
    assert np.array_equal(dec.residuals, fresh)


def flat_band_window(seed, N, seeded_boundary):
    """N sites of a seeded period-5 cell of modulus 0.9999: on [0, N - 1]
    with a seeded unimodular boundary pair, or on [-N/2, N/2) with the
    default one."""
    rng = np.random.default_rng(seed)
    cell = 0.9999 * np.exp(2j * np.pi * rng.random(5))
    if not seeded_boundary:
        lo, hi = -(N // 2), N - N // 2 - 1
        return assemble(VerblunskySequence(lo - 1, hi + 1, cell[np.arange(lo - 1, hi + 2) % 5]),
                        lo, hi)
    b = (cmath.exp(1j * rng.uniform(-3, 3)), cmath.exp(1j * rng.uniform(-3, 3)))
    return assemble(VerblunskySequence(-1, N + 1, cell[np.arange(N + 3) % 5]),
                    0, N - 1, boundary=b)


@pytest.mark.parametrize("seeded_boundary, fallbacks, max_residual, max_orthonormality",
                         [(False, 1, 2.8e-11, 3.4e-12), (True, 0, 5.6e-11, 1.4e-11)])
def test_near_flat_band_sweep(seeded_boundary, fallbacks, max_residual,
                              max_orthonormality):
    # period-5 windows with |alpha| = 0.9999 hold most of their spectrum
    # in a few very flat bands, where eigenvalues crowd within 1e-9 and
    # twisted vectors lose accuracy.  Over these 40 windows (seeds
    # 100-139) the walk with two divisions by rho per block
    # (``theta_step_walk``) needed the Schur fallback once (seed 106 on
    # the centred windows, none with the seeded boundary) and left
    # residuals and orthonormality up to the bounds given here; no
    # rounding change may need it more often or do worse
    N = 300
    used = 0
    worst_residual = worst_orthonormality = 0.0
    for seed in range(100, 140):
        dec = spectrum(flat_band_window(seed, N, seeded_boundary))
        used += dec.fallback
        worst_residual = max(worst_residual, float(dec.residuals.max()))
        worst_orthonormality = max(worst_orthonormality, orthonormality(dec.vectors))
    assert used <= fallbacks
    assert worst_residual <= max_residual
    assert worst_orthonormality <= max_orthonormality


def test_table_writers_match_csv_module(tmp_path):
    # eigenvalues.csv and profile.csv, formatted in one pass and written
    # in one call, are the csv module's bytes (its "\r\n" row ends too)
    op = seeded_window(31, 200, 0.9, False)
    dec = spectrum(op)
    profiles = eigenvector_profile(op, dec, range(op.size))
    for write, oracle, args in [
        (artifacts.write_eigenvalues_csv, csv_eigenvalues_table, (dec,)),
        (artifacts.write_profiles_csv, csv_profiles_table, (profiles,)),
    ]:
        write(tmp_path / "new.csv", 5, *args)
        oracle(tmp_path / "old.csv", 5, *args)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
