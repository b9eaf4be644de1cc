"""Reference implementations the tests check the library against.

They build the Szego matrices as (..., 2, 2) stacks by the textbook formula
and multiply them with batched ``@``, independently of the elementwise step
kernel in ``qpcmv.transfer``.
"""

import numpy as np

from qpcmv.transfer import inv_2x2, min_max_over_unit_vectors


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
