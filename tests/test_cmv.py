import cmath
import io
import math

import numpy as np
import pytest
import scipy.linalg as sla

import qpcmv.cmv as cmv
from qpcmv.cmv import (
    assemble,
    eigenvector_profile,
    gauge_rotate,
    parity_gauge_matrix,
    spectrum,
    theta_block,
)
from qpcmv.errors import DomainError, EigensolverError, WindowError
from qpcmv.sampling import VerblunskySequence


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
    r = seq.rho
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


def test_non_unitary_truncation_mode():
    seq = random_seq(9, -10, 10, radius=0.8)
    op = assemble(seq, -5, 5, unitary=False)
    assert op.unitarity_defect > 1e-6  # plain truncation is not unitary
    assert op.band_agreement <= 1e-14
    assert op.boundary == (seq.alpha(-6), seq.alpha(5))


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
        assert p.mass_total == pytest.approx(1.0, abs=1e-12)
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
        f"size={op.size} unitary={op.unitary_mode}\n"
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
    # without clusters the banded path fails its residual check
    monkeypatch.setattr(cmv, "_CLUSTER_GAP", 0.0)
    assert spectrum(op).fallback


def test_spectrum_tolerance_too_tight_raises_after_fallback(monkeypatch):
    calls = []
    schur = cmv._schur_spectrum

    def counted(matrix):
        calls.append(matrix.shape)
        return schur(matrix)

    monkeypatch.setattr(cmv, "_schur_spectrum", counted)
    op = assemble(random_seq(8, -30, 30), -25, 24)
    with pytest.raises(EigensolverError):
        spectrum(op, tol=1e-15)
    assert calls == [(50, 50)]


def test_degenerate_edge_states_get_the_localized_basis(monkeypatch):
    # period-4 coefficients leave one edge state at each end of the window
    # with the same eigenvalue -i; at N = 60 their splitting is below
    # rounding, so the solver alone would return an arbitrary basis of the
    # pair
    N = 60
    vals = 0.5 * np.array([-1, -1j, 1, 1j])[np.arange(N + 2) % 4]
    seq = VerblunskySequence(-31, 30, vals)
    op = assemble(seq, -30, 29)

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
        lambda band: (np.zeros(N, dtype=complex), np.eye(N, dtype=complex)),
    )
    dec = spectrum(op)
    assert dec.fallback
    schur = edge_profiles(dec)
    assert [peak for peak, _ in schur] == [-30, 29]
    for (_, a), (_, b) in zip(banded, schur):
        assert abs(a - b) <= 1e-12


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
