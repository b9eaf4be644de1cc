"""Reference implementations the tests check the library against.

They build the Szego matrices as (..., 2, 2) stacks by the textbook formula
and multiply them with batched ``@``, independently of the elementwise step
kernel in ``qpcmv.transfer``; they iterate orbits point by point in
``Fraction`` arithmetic and evaluate sampling functions by their point
formulas, independently of the integer residue walk and the residue
evaluation in ``qpcmv.sampling``; they measure circle diameters over all
pairs; and they build CMV blocks, gauge rotations and eigenvectors by the
textbook routes: dense Theta blocks, the parity conjugation, and the
Hermitian band eigenvector solve that ``qpcmv.cmv.spectrum`` replaced.
"""

import cmath
import math

import numpy as np

from qpcmv.arith import circle_dist
from qpcmv.cmv import _PHI, _band_adjoint, _band_matvec, _runs
from qpcmv.dynamics import Rotation, iterate
from qpcmv.sampling import (
    ConstantFunction,
    HarmonicFunction,
    PerturbedFunction,
    TentBump,
    TubeFunction,
    VerblunskySequence,
)
from qpcmv.transfer import inv_2x2, min_max_over_unit_vectors


def oracle_value(f, point):
    """(n, f(point)) for a TubeFunction f: n the first ball in [1, 5q]
    that holds the point, found in Fraction arithmetic (a float
    prefilter and exact distances for rotations, 5q pull-backs for the
    skew-shift), or None; the value is the tube value, or the blend."""
    orbit = [iterate(f.system, f.center, n) for n in range(5 * f.q + 1)]
    if isinstance(f.system, Rotation):
        x = np.array(point.as_floats())
        pts = np.array([p.as_floats() for p in orbit[1:]])
        d = TubeFunction._cheb_float(x, pts)
        for k in np.nonzero(d <= float(f.radius) + 1e-9)[0]:
            n = int(k) + 1
            if point.dist(orbit[n]) <= f.radius:
                return n, f.values[(n - 1) % f.q]
    else:
        d = []
        for n in range(1, 5 * f.q + 1):
            dist = iterate(f.system, point, -n).dist(f.center)
            if dist <= f.radius:
                return n, f.values[(n - 1) % f.q]
            d.append(float(dist))
    d = np.maximum(np.array(d) - float(f.radius), 1e-18)
    w = 1.0 / d.reshape(5, f.q).min(axis=0)
    return None, complex(np.dot(w, np.array(f.values)) / w.sum())


def fraction_window(f, system, omega, n_min, n_max) -> np.ndarray:
    """f(T^n omega) for n = n_min..n_max, each T^n omega built as a
    TorusPoint by ``iterate`` in Fraction arithmetic and evaluated by its
    family's point formula, the float of an exact coordinate or distance
    (tube functions by ``oracle_value``); any other callable is called on
    the point."""

    def value(g, point):
        if isinstance(g, ConstantFunction):
            return g.value
        if isinstance(g, HarmonicFunction):
            phase = float(point.coords[0])
            return g.coefficient * cmath.exp(2j * math.pi * phase)
        if isinstance(g, TentBump):
            d = point.dist(g.center)
            if d >= g.radius:
                return 0j
            return g.amplitude * (1.0 - float(d / g.radius))
        if isinstance(g, PerturbedFunction):
            return value(g.base, point) + value(g.bump, point)
        if isinstance(g, TubeFunction):
            return oracle_value(g, point)[1]
        return g(point)

    return np.array([value(f, iterate(system, omega, n))
                     for n in range(n_min, n_max + 1)], dtype=complex)


def pairwise_circle_diameter(values, d: int) -> int:
    """max circle_dist(x - y, d) over all pairs of the residues."""
    return max(circle_dist(x - y, d) for x in values for y in values)


def szego_batch(alpha, z) -> np.ndarray:
    """S(alpha_i, z_i) = rho^-1 [[z, -conj(a)], [-a z, 1]] as an (..., 2, 2)
    stack."""
    alpha = np.asarray(alpha, dtype=complex)
    z = np.asarray(z, dtype=complex)
    r = np.sqrt((1.0 - np.abs(alpha)) * (1.0 + np.abs(alpha)))
    out = np.empty(np.broadcast(alpha, z).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = z
    out[..., 0, 1] = -np.conj(alpha)
    out[..., 1, 0] = -alpha * z
    out[..., 1, 1] = 1.0
    return out / r[..., None, None]


def matmul_three_step_difference(a, at, z) -> np.ndarray:
    """P - P~ for the three-step products of the triples a[:, i] and
    at[:, i], each product formed with ``@`` and then subtracted."""
    S = [szego_batch(a[:, i], z) for i in range(3)]
    St = [szego_batch(at[:, i], z) for i in range(3)]
    return S[2] @ S[1] @ S[0] - St[2] @ St[1] @ St[0]


def validate_periodic_floor(samples: int = 10_000, seed: int = 20240601,
                            chunk: int = 512) -> float:
    """Brute-force floor check: random 2x2 matrices with |det| = 1 give
    min over unit v of max(||A v||, ||A^2 v||, ||A^-1 v||) >= 1/2.

    Returns the smallest value seen.  The solver is exact and each value is
    attained at a unit vector, so a dip below 1/2 beyond rounding would
    expose an error in either the bound or the solver.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    left = samples
    while left > 0:
        b = min(chunk, left)
        left -= b
        A = rng.normal(size=(b, 2, 2)) + 1j * rng.normal(size=(b, 2, 2))
        det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
        bad = np.abs(det) < 1e-12
        A[bad] = np.eye(2)
        det[bad] = 1.0
        A = A / np.sqrt(np.abs(det))[:, None, None]
        mats = np.stack([A, A @ A, inv_2x2(A)], axis=1)
        vals, _, _ = min_max_over_unit_vectors(mats)
        worst = min(worst, float(vals.min()))
    return worst


def theta_block(alpha: complex) -> np.ndarray:
    """The 2x2 block Theta(a) = [[conj(a), rho], [rho, -a]]."""
    a = complex(alpha)
    r = math.sqrt((1.0 - abs(a)) * (1.0 + abs(a)))
    return np.array([[np.conj(a), r], [r, -a]], dtype=complex)


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


def hermitian_band_spectrum(band: np.ndarray):
    """Eigenpairs (lambda, V) of E from the eigenvectors of H_phi, in
    O(N^3): the path ``qpcmv.cmv.spectrum`` took before its transfer
    recursion.

    H_phi = (e^(-i phi) E + e^(i phi) E*) / 2 is a function of the normal
    E, so its eigenvectors (``eig_banded``) are E's, each eigenvalue read
    back as v* E v; where two eigenvalues of E meet in H_phi (angles equal
    or summing to 2 phi) the solver returns mixtures, so runs of H_phi
    eigenvalues with gaps below 1e-3 are re-diagonalised together (a small
    complex Schur of Vc* E Vc).  A computed vector leaks into eigenvectors
    at gap g by about 8e-16 / g, so 1e-3 keeps residuals near 1e-12.
    """
    import scipy.linalg as sla
    hb = 0.5 * (np.exp(-1j * _PHI) * band + np.exp(1j * _PHI) * _band_adjoint(band))
    upper = np.zeros((3, band.shape[1]), dtype=complex)
    for d in range(3):
        upper[2 - d, d:] = hb[2 + d, : hb.shape[1] - d]
    mu, V = sla.eig_banded(upper, overwrite_a_band=True)
    EV = _band_matvec(band, V)
    lam = np.einsum("ij,ij->j", V.conj(), EV)
    for c in _runs(np.diff(mu) >= 1e-3):
        T, Z = sla.schur(V[:, c].conj().T @ EV[:, c], output="complex")
        V[:, c] = V[:, c] @ Z
        lam[c] = np.diag(T)
    return lam, V
