"""Reference implementations the tests check the library against.

They build the Szego matrices as (..., 2, 2) stacks by the textbook formula
and multiply them with batched ``@``, independently of the elementwise step
kernel in ``qpcmv.transfer``; they iterate orbits point by point in
``Fraction`` arithmetic and evaluate sampling functions by their point
formulas, independently of the integer residue walk and the residue
evaluation in ``qpcmv.sampling``; and they measure circle diameters over
all pairs.
"""

import cmath
import math

import numpy as np

from qpcmv.arith import circle_dist
from qpcmv.dynamics import Rotation, iterate
from qpcmv.sampling import (
    ConstantFunction,
    HarmonicFunction,
    PerturbedFunction,
    TentBump,
    TubeFunction,
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
