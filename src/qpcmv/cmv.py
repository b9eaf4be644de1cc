"""Finite CMV truncations: assembly, spectra, eigenvector profiles.

The doubly-infinite operator factors as L M with 2x2 blocks
Theta(a) = [[conj(a), rho], [rho, -a]], L holding the blocks at even
coefficient indices and M at odd ones.  A finite window [n_min, n_max]
is closed by injecting unimodular coefficients at positions n_min - 1 and
n_max: their rho vanishes, the straddling blocks decouple, and the finite
matrix is exactly unitary.

Assembly is done twice, through the factors and through the explicit band
entries, and both paths must agree entry for entry.  Both work on band
storage: ``band[w + d, i]`` holds entry (i, i + d) of a matrix of
half-bandwidth w (1 for L and M, 2 for the pentadiagonal L M), with zeros
wherever i + d leaves the window, so every product, adjoint and matvec
below costs O(N) per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EigensolverError, WindowError
from .sampling import VerblunskySequence

_EIG_TOL = 1e-10
_BOUNDARY_TOL = 1e-12
# Reference angle of H_phi = (e^(-i phi) E + e^(i phi) E*) / 2.  One radian
# is not a rational multiple of pi, so neither the conjugation symmetry of
# real coefficients (theta <-> -theta) nor the rotation symmetry of
# equally spaced spectra puts whole families of pairs on the collision
# line theta_j + theta_k = 2 phi.
_PHI = 1.0
# H_phi eigenvalues closer than this are re-diagonalised together (see
# ``spectrum``).  A computed H_phi eigenvector leaks into eigenvectors at
# gap g by about eta / g, eta the solver's backward error, and the leak
# shows in the E-residual at full size.  Measured worst residuals scale as
# 8e-16 / gap (1.2e-10 at 1e-6, 7.8e-13 at 1e-3), so the gap must stay well
# above 8e-16 / _EIG_TOL = 8e-6; it must also stay below the local spacing
# 2 pi |sin(theta - phi)| / N, or clusters chain (1e-2 merges the whole
# spectrum at N = 600).  1e-3 keeps residuals 100 times below _EIG_TOL.
_CLUSTER_GAP = 1e-3
# Eigenvalues closer than this are one eigenvalue at working precision: the
# residual gate cannot tell their vectors apart, and any solver returns an
# arbitrary, rounding-dependent basis of their span (edge states at the two
# ends of a window are an example).  That span gets a fixed basis instead:
# the one diagonalising the position operator, i.e. the most localised
# one.  Rotating inside the span moves a residual by at most this gap.
_DEGENERATE_GAP = 1e-12
# Weights this close to the largest one count as a tie for the profile
# peak, which goes to the smallest such index.  Flat vectors (the free
# operator's, |u_n|^2 = 1/N) and symmetric bound states have exact ties
# that rounding would otherwise break in either direction.
_PEAK_RTOL = 1e-9


def theta_block(alpha: complex) -> np.ndarray:
    a = complex(alpha)
    r = math.sqrt((1.0 - abs(a)) * (1.0 + abs(a)))
    return np.array([[np.conj(a), r], [r, -a]], dtype=complex)


# ---------------------------------------------------------------------------
# Band storage
# ---------------------------------------------------------------------------


def _diagonal_range(n: int, d: int) -> slice:
    """Rows i with 0 <= i + d < n."""
    return slice(max(0, -d), min(n, n - d))


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y rounded like Python's complex product, each real product and
    sum on its own.  numpy's vectorised complex multiply fuses multiply-adds
    on some CPUs and then differs in the last bit, which would move entries
    of the dumped matrix."""
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Band of A B from the bands of A and B.  Each entry of a product of
    two block-diagonal factors is a single term, so it equals that term's
    ``_cmul`` exactly (accumulating from +0 also turns -0 into +0)."""
    wa, wb = a.shape[0] // 2, b.shape[0] // 2
    n = a.shape[1]
    out = np.zeros((2 * (wa + wb) + 1, n), dtype=complex)
    for t in range(-wa, wa + 1):
        r = _diagonal_range(n, t)
        for s in range(-wb, wb + 1):
            out[wa + wb + t + s, r] += _cmul(
                a[wa + t, r], b[wb + s, r.start + t : r.stop + t]
            )
    return out


def _band_adjoint(a: np.ndarray) -> np.ndarray:
    """Band of A*: (A*)[i, i + d] = conj(A[i + d, i])."""
    w, n = a.shape[0] // 2, a.shape[1]
    out = np.zeros_like(a)
    for d in range(-w, w + 1):
        r = _diagonal_range(n, d)
        out[w + d, r] = a[w - d, r.start + d : r.stop + d].conj()
    return out


def _band_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A V for V of shape (N, K)."""
    w, n = a.shape[0] // 2, a.shape[1]
    out = np.zeros(v.shape, dtype=complex)
    for d in range(-w, w + 1):
        r = _diagonal_range(n, d)
        out[r] += a[w + d, r, None] * v[r.start + d : r.stop + d]
    return out


def _band_to_dense(a: np.ndarray) -> np.ndarray:
    w, n = a.shape[0] // 2, a.shape[1]
    out = np.zeros((n, n), dtype=complex)
    for d in range(-w, w + 1):
        i = np.arange(n)[_diagonal_range(n, d)]
        out[i, i + d] = a[w + d, i]
    return out


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CMVOperator:
    n_min: int
    n_max: int
    boundary: tuple[complex, complex]
    unitary_mode: bool
    band: np.ndarray  # band[2 + d, i] = matrix[i, i + d]
    factor_bands: tuple[np.ndarray, np.ndarray]  # tridiagonal bands of L, M
    band_agreement: float
    unitarity_defect: float
    det: complex

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def matrix(self) -> np.ndarray:
        """Dense E = L M, built on each access."""
        return _band_to_dense(self.band)

    @property
    def factor_left(self) -> np.ndarray:
        """Dense L (even-index blocks), built on each access."""
        return _band_to_dense(self.factor_bands[0])

    @property
    def factor_right(self) -> np.ndarray:
        """Dense M (odd-index blocks), built on each access."""
        return _band_to_dense(self.factor_bands[1])

    def dump_triplets(self, fh, seed: Optional[int] = None):
        """Sparse-triplet text dump: lines 'row col re im' (window coords),
        one per nonzero entry in row-major order."""
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write(
            f"# cmv triplets window=[{self.n_min},{self.n_max}] "
            f"size={self.size} unitary={self.unitary_mode}\n"
        )
        # bt[i, k] is entry (i, i + k - 2), so the nonzeros of bt in C
        # order are those of the matrix in row-major order
        bt = self.band.T
        rows, k = np.nonzero(bt)
        cols = rows + k - 2
        vals = bt[rows, k]
        fh.writelines(
            f"{i} {j} {re!r} {im!r}\n"
            for i, j, re, im in zip(
                rows.tolist(), cols.tolist(),
                vals.real.tolist(), vals.imag.tolist(),
            )
        )


def _coefficients(seq: VerblunskySequence, n_min: int, n_max: int,
                  boundary, unitary: bool):
    """Coefficients at n_min - 2 .. n_max + 1 with the truncation rule
    applied, their rho, and the boundary pair.

    Positions n_min - 1 and n_max carry the boundary pair, and the indices
    beyond them repeat it: those only ever feed entries outside the window.
    rho is zero at all four clamped positions, which is what decouples the
    straddling blocks (in the non-unitary mode too, where the sequence's
    own edge coefficients are kept as plain truncation).
    """
    if unitary:
        bm, bp = (complex(boundary[0]), complex(boundary[1]))
        for b in (bm, bp):
            if abs(abs(b) - 1.0) > _BOUNDARY_TOL:
                raise DomainError(
                    "boundary coefficients must be unimodular in unitary mode"
                )
        seq.require(n_min, n_max - 1)
    else:
        seq.require(n_min - 1, n_max)
        bm, bp = seq.alpha(n_min - 1), seq.alpha(n_max)
    inner = seq.slice(n_min, n_max - 1)
    a = np.concatenate(([bm, bm], inner, [bp, bp]))
    m = np.hypot(inner.real, inner.imag)  # abs() of a Python complex, bit for bit
    rho = np.concatenate(([0.0, 0.0], np.sqrt((1.0 - m) * (1.0 + m)), [0.0, 0.0]))
    return a, rho, (bm, bp)


def _factor_band(a: np.ndarray, rho: np.ndarray, n_min: int,
                 parity: int) -> np.ndarray:
    """Tridiagonal band of the direct sum of Theta blocks at coefficient
    indices of one parity (straddling blocks cut to their in-window entry).

    ``a``/``rho`` index n_min - 2 + k; window row i is coefficient n_min + i,
    the top of its block when n_min + i has the given parity and the bottom
    of the block at n_min + i - 1 otherwise.
    """
    n = a.size - 3
    ai, ri = a[2 : n + 2], rho[2 : n + 2]  # at n_min + i
    ap, rp = a[1 : n + 1], rho[1 : n + 1]  # at n_min + i - 1
    top = (n_min + np.arange(n)) % 2 == parity
    band = np.zeros((3, n), dtype=complex)
    band[0] = np.where(top, 0.0, rp)
    band[1] = np.where(top, ai.conj(), -ap)
    band[2] = np.where(top, ri, 0.0)
    return band


def _band_entries(a: np.ndarray, rho: np.ndarray, n_min: int) -> np.ndarray:
    """The explicit pentadiagonal entries of L M, in band storage.

    Even row m:  (m, m-1) conj(a_m) rho_{m-1}; (m, m) -conj(a_m) a_{m-1};
                 (m, m+1) rho_m conj(a_{m+1}); (m, m+2) rho_m rho_{m+1}.
    Odd row m:   (m, m-2) rho_{m-1} rho_{m-2}; (m, m-1) -rho_{m-1} a_{m-2};
                 (m, m)  -a_{m-1} conj(a_m);   (m, m+1) -a_{m-1} rho_m.

    Entries leaving the window vanish through the zero rho at the clamped
    positions.
    """
    n = a.size - 3

    def at(s):  # coefficient m + s for every row m = n_min + i
        return a[2 + s : n + 2 + s], rho[2 + s : n + 2 + s]

    (a2, r2), (a1, r1), (a0, r0), (ap, rp) = at(-2), at(-1), at(0), at(1)
    even = (n_min + np.arange(n)) % 2 == 0
    band = np.zeros((5, n), dtype=complex)
    band[0] = np.where(even, 0.0, r1 * r2)
    band[1] = np.where(even, a0.conj() * r1, -r1 * a2)
    band[2] = np.where(even, _cmul(-a0.conj(), a1), _cmul(-a1, a0.conj()))
    band[3] = np.where(even, r0 * ap.conj(), -a1 * r0)
    band[4] = np.where(even, r0 * rp, 0.0)
    return band


def assemble(
    seq: VerblunskySequence,
    n_min: int,
    n_max: int,
    boundary: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j),
    unitary: bool = True,
) -> CMVOperator:
    """Finite CMV operator on coordinates [n_min, n_max].

    In unitary mode the boundary pair replaces the coefficients at
    n_min - 1 and n_max and must be unimodular; the result is then unitary
    to rounding.  The non-unitary mode keeps the sequence's own edge
    coefficients (plain truncation) and reports the defect instead.
    """
    if n_max <= n_min:
        raise WindowError("need n_max > n_min")
    a, rho, (bm, bp) = _coefficients(seq, n_min, n_max, boundary, unitary)
    L = _factor_band(a, rho, n_min, parity=0)
    M = _factor_band(a, rho, n_min, parity=1)
    band = _band_product(L, M)
    agreement = float(np.abs(band - _band_entries(a, rho, n_min)).max())
    gram = _band_product(_band_adjoint(band), band)
    gram[4] -= 1.0
    N = n_max - n_min + 1
    # every Theta block inside the window has det -(|a|^2 + rho^2) = -1; the
    # two straddling blocks contribute their in-window entries -bm, conj(bp)
    det = (-1.0) ** (N - 1) * (-bm) * np.conj(bp)
    return CMVOperator(
        n_min=n_min,
        n_max=n_max,
        boundary=(bm, bp),
        unitary_mode=unitary,
        band=band,
        factor_bands=(L, M),
        band_agreement=agreement,
        unitarity_defect=float(np.abs(gram).max()),
        det=complex(det),
    )


# ---------------------------------------------------------------------------
# Spectra and profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    vectors: np.ndarray  # column i pairs with eigenvalues[i]
    residuals: np.ndarray
    modulus_defect: float
    fallback: bool  # True when the dense Schur path produced it


def _runs(split: np.ndarray):
    """Slices of the runs of two or more items that no ``split[i]`` (a cut
    between items i and i + 1) separates."""
    cuts = np.r_[0, np.flatnonzero(split) + 1, split.size + 1]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 1]


def _band_spectrum(band: np.ndarray):
    """Eigenpairs of E from H_phi, re-diagonalised inside clusters."""
    import scipy.linalg as sla  # lazily: most commands never load scipy
    hb = 0.5 * (np.exp(-1j * _PHI) * band + np.exp(1j * _PHI) * _band_adjoint(band))
    # upper storage for eig_banded: row 2 - d, column i + d holds H[i, i + d].
    # Dense eigh measured level with it at N = 200-600; its fastest method
    # (MRRR, up to 20% faster at N = 600) left eigenvectors orthonormal only
    # to 7e-13, against 2e-14 here, and it needs a dense copy of H.
    upper = np.zeros((3, band.shape[1]), dtype=complex)
    for d in range(3):
        upper[2 - d, d:] = hb[2 + d, : hb.shape[1] - d]
    mu, V = sla.eig_banded(upper, overwrite_a_band=True)
    EV = _band_matvec(band, V)
    lam = np.einsum("ij,ij->j", V.conj(), EV)
    for c in _runs(np.diff(mu) >= _CLUSTER_GAP):
        T, Z = sla.schur(V[:, c].conj().T @ EV[:, c], output="complex")
        V[:, c] = V[:, c] @ Z
        lam[c] = np.diag(T)
    return lam, V


def _schur_spectrum(matrix: np.ndarray):
    import scipy.linalg as sla
    T, Z = sla.schur(matrix, output="complex")
    return np.diag(T).copy(), Z


def _checked(band: np.ndarray, lam: np.ndarray, V: np.ndarray, tol: float,
             fallback: bool) -> SpectralDecomposition:
    """Sort by angle, fix the basis of degenerate eigenspaces, check."""
    order = np.argsort(np.angle(lam))
    lam, V = lam[order], V[:, order]
    position = np.arange(V.shape[0])
    for c in _runs(np.abs(np.diff(lam)) > _DEGENERATE_GAP):
        W = V[:, c]
        _, Y = np.linalg.eigh(W.conj().T @ (position[:, None] * W))
        V[:, c] = W = W @ Y
        lam[c] = np.einsum("ij,ij->j", W.conj(), _band_matvec(band, W))
    order = np.argsort(np.angle(lam))
    lam, V = lam[order], V[:, order]
    res = np.linalg.norm(_band_matvec(band, V) - V * lam[None, :], axis=0)
    worst = int(np.argmax(res))
    if res[worst] > tol:
        raise EigensolverError(worst, float(res[worst]), tol)
    mod = np.abs(np.abs(lam) - 1.0)
    if mod.max() > tol:
        raise EigensolverError(int(np.argmax(mod)), float(mod.max()), tol)
    return SpectralDecomposition(
        eigenvalues=lam, vectors=V, residuals=res,
        modulus_defect=float(mod.max()), fallback=fallback,
    )


def spectrum(op: CMVOperator, tol: float = _EIG_TOL) -> SpectralDecomposition:
    """Eigenvalues (sorted by angle) and orthonormal eigenvectors.

    E is normal, so H_phi = (e^(-i phi) E + e^(i phi) E*) / 2 is a function
    of E: it is Hermitian pentadiagonal with eigenvalue cos(theta - phi) on
    the eigenvector of e^(i theta), and each of its eigenspaces is
    E-invariant.  Its band is diagonalised with ``eig_banded`` and each
    eigenvalue read back as v* E v.  Two eigenvalues of E meet in H_phi
    when their angles coincide or sum to 2 phi; so that the vectors such a
    collision mixes come apart again, runs of H_phi eigenvalues with
    consecutive gaps below ``_CLUSTER_GAP`` are treated as one cluster,
    and E is re-diagonalised on each (Rayleigh-Ritz: a small complex
    Schur of Vc* E Vc, then Vc rotated by its Schur basis).  Eigenvalues
    closer than ``_DEGENERATE_GAP`` share one eigenspace at working
    precision, whose basis is then the one diagonalising position.

    Residuals ||E v - lambda v|| (banded matvec) and moduli |lambda| are
    checked against ``tol``.  If either check fails, the dense complex
    Schur decomposition (diagonal for a normal matrix) is checked in its
    place, and only its failure is raised, so no silently wrong pairs are
    returned.  ``fallback`` records which path produced the result.
    """
    if not op.unitary_mode:
        raise DomainError("spectrum requires a unitary-mode operator")
    try:
        return _checked(op.band, *_band_spectrum(op.band), tol, fallback=False)
    except EigensolverError:
        return _checked(op.band, *_schur_spectrum(op.matrix), tol, fallback=True)


@dataclass(frozen=True)
class EigenvectorProfile:
    index: int
    peak: int  # window coordinate of the peak entry
    shell_masses: tuple[float, ...]
    participation_ratio: float

    @property
    def mass_total(self) -> float:
        return sum(self.shell_masses)


def eigenvector_profile(
    op: CMVOperator, decomp: SpectralDecomposition, index: int
) -> EigenvectorProfile:
    """Mass per dyadic distance shell around the peak, plus 1 / sum w^2.

    The peak is the first entry whose weight is within a relative
    ``_PEAK_RTOL`` of the largest.  Shell s = 0 is the peak entry itself;
    shell s >= 1 collects entries at distance in [2^(s-1), 2^s), i.e. the
    distances of bit length s.  Masses sum to 1 for a normalized vector.
    """
    u = decomp.vectors[:, index]
    w = np.abs(u) ** 2
    w = w / w.sum()
    peak = int(np.argmax(w >= w.max() * (1.0 - _PEAK_RTOL)))
    n = w.size
    # frexp's exponent of a positive integer is its bit length (0 for 0)
    shell = np.frexp(np.abs(np.arange(n) - peak))[1]
    masses = np.bincount(shell, weights=w, minlength=n.bit_length() + 1)
    pr = float(1.0 / np.sum(w**2))
    return EigenvectorProfile(
        index=index,
        peak=peak + op.n_min,
        shell_masses=tuple(masses.tolist()),
        participation_ratio=pr,
    )


# ---------------------------------------------------------------------------
# Gauge rotation
# ---------------------------------------------------------------------------


def gauge_rotate(seq: VerblunskySequence, theta: float) -> VerblunskySequence:
    """Multiply every coefficient by e^(i theta)."""
    return VerblunskySequence(
        seq.n_min, seq.n_max, seq.values * np.exp(1j * theta)
    )


def parity_gauge_matrix(n_min: int, n_max: int, theta: float) -> np.ndarray:
    """Diagonal unitary D with E(e^(i theta) a) = D E(a) D*.

    Every entry of the operator is a product of two coefficient factors
    whose phases cancel except across the even/odd coordinate parity, so
    the compensating conjugation is the parity phase diag(e^(i theta (n mod 2))).
    """
    phases = [
        np.exp(1j * theta * (n % 2)) for n in range(n_min, n_max + 1)
    ]
    return np.diag(phases)
