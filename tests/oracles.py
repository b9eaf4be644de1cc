"""Reference implementations the tests check the library against.

They build the Szego matrices as (..., 2, 2) stacks by the textbook formula
and multiply them with batched ``@``, independently of the elementwise step
kernel in ``qpcmv.transfer``; they iterate orbits point by point in
``Fraction`` arithmetic and evaluate sampling functions by their point
formulas, independently of the integer residue walk and the residue
evaluation in ``qpcmv.sampling``; they measure circle diameters over all
pairs; and they build CMV blocks, gauge rotations and eigenvectors by the
textbook routes: dense Theta blocks, the parity conjugation, and the
Hermitian band eigenvector solve that ``qpcmv.cmv.spectrum`` replaced;
rho is taken one coefficient at a time in Python float arithmetic.
Transfer products are also formed in mpmath at 60 digits, and the
backward block is inverted there rather than taken as an adjugate.
The transfer walk and count that ``qpcmv.cmv._Chain`` replaced carry the
pair (x', y') with two divisions by rho per block, and the CSV tables
that ``qpcmv.artifacts`` now joins itself are written row by row through
the csv module.  The golden mean is rounded by mpmath, which the package
replaced with an integer square root.  The Lipschitz validation draws
all its samples in one go from ``default_rng`` and reduces them at once,
as it did before it was streamed in chunks.
The three-block min-max is solved over a whole batch in one call, with
``np.cross``, ``np.linalg.norm`` and axis reductions, and the evidence
table takes c and the block norms of all its rows in one call each, as
they did before the table was solved in row blocks.
"""

import cmath
import csv
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from mpmath import mp

from qpcmv.arith import circle_dist
from qpcmv.cmv import _PHI, _band_adjoint, _band_matvec, _runs
from qpcmv.dynamics import Rotation, iterate
from qpcmv.sampling import (
    ConstantFunction,
    HarmonicFunction,
    TubeFunction,
    VerblunskySequence,
)
from qpcmv.transfer import (
    EVIDENCE_PASS_THRESHOLD,
    EvidenceRow,
    EvidenceTable,
    LipschitzValidation,
    _three_blocks,
    _three_step_difference,
    min_max_over_unit_vectors,
    spectral_norm_2x2,
    three_step_lipschitz,
)


def mpmath_golden_mean(bits: int) -> Fraction:
    """(sqrt(5)-1)/2 computed by mpmath at ``bits`` bits, as the exact
    rational its mantissa and exponent spell."""
    with mp.workprec(bits):
        man, exp = ((mp.sqrt(5) - 1) / 2).man_exp
    return Fraction(man) * Fraction(2) ** exp


def oracle_value(f, point):
    """(n, f(point)) for a TubeFunction f: n the first ball in [1, 5q]
    that holds the point, found in Fraction arithmetic (a float
    prefilter and exact distances for rotations, 5q pull-backs for the
    skew-shift), or None; the value is the tube value, or the blend."""
    orbit = [iterate(f.system, f.center, n) for n in range(5 * f.q + 1)]
    if isinstance(f.system, Rotation):
        x = np.array([float(c) for c in point.coords])
        pts = np.array([[float(c) for c in p.coords] for p in orbit[1:]])
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
    (tube functions by ``oracle_value``)."""

    def value(g, point):
        if isinstance(g, ConstantFunction):
            return g.value
        if isinstance(g, HarmonicFunction):
            phase = float(point.coords[0])
            return g.coefficient * cmath.exp(2j * math.pi * phase)
        if isinstance(g, TubeFunction):
            return oracle_value(g, point)[1]

    return np.array([value(f, iterate(system, omega, n))
                     for n in range(n_min, n_max + 1)], dtype=complex)


def gordon_defect_loop(seq, q: int) -> float:
    """max |alpha(n) - alpha(n +- q)| over -q + 1 <= n <= q + 1, one pair
    at a time."""
    defect = 0.0
    for n in range(-q + 1, q + 2):
        a = seq.alpha(n)
        defect = max(
            defect, abs(a - seq.alpha(n + q)), abs(a - seq.alpha(n - q))
        )
    return defect


def block_difference_loop(seq, q: int) -> tuple:
    """max over 1 <= j <= q of |alpha(j + m q) - alpha(j + (m + 1) q)|,
    for m = -2..1, one pair at a time."""
    return tuple(
        max(abs(seq.alpha(j + m * q) - seq.alpha(j + (m + 1) * q))
            for j in range(1, q + 1))
        for m in (-2, -1, 0, 1)
    )


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


def mpmath_block_product(seq, z, n_from, n_to):
    """The product over [n_from, n_to) in mpmath at the working precision,
    from the same float coefficients and z."""
    z = mp.mpc(z)
    P = mp.eye(2)
    for n in range(n_from, n_to):
        a = mp.mpc(seq.alpha(n))
        S = mp.matrix([[z, -mp.conj(a)], [-a * z, 1]]) / mp.sqrt(1 - abs(a) ** 2)
        P = S * P
    return P


def mpmath_three_blocks(seq, zs, q: int) -> np.ndarray:
    """(B+, B++, B-) per z as (len(zs), 3, 2, 2): the products over [0, q)
    and [0, 2q) and the inverse of the one over [-q, 0), each formed in
    mpmath at 60 digits and rounded to floats only at the end."""
    out = []
    with mp.workdps(60):
        for z in map(complex, zs):
            blocks = (mpmath_block_product(seq, z, 0, q),
                      mpmath_block_product(seq, z, 0, 2 * q),
                      mpmath_block_product(seq, z, -q, 0) ** -1)
            out.append([np.array(b.tolist(), dtype=complex) for b in blocks])
    return np.array(out)


def one_shot_lipschitz_validation(r: float, samples: int,
                                  seed: int) -> LipschitzValidation:
    """``validate_three_step_lipschitz`` with every draw made at full size
    from one ``default_rng(seed)`` and the ratios reduced in one go."""
    bound = three_step_lipschitz(r)
    rng = np.random.default_rng(seed)
    z = np.exp(2j * np.pi * rng.random(samples))
    a = (
        np.sqrt(rng.random((samples, 3)))
        * r
        * np.exp(2j * np.pi * rng.random((samples, 3)))
    )
    scale = 10.0 ** rng.uniform(-6, 0, (samples, 3))
    step = scale * r * np.exp(2j * np.pi * rng.random((samples, 3)))
    at = a + step
    m = np.abs(at)
    at = np.where(m > r, at * (r / np.where(m == 0, 1.0, m)), at)
    diff = _three_step_difference(a, at, z)
    dmax = np.abs(at - a).max(axis=1)
    ok = dmax > 0
    ratio = spectral_norm_2x2(diff[ok]) / (bound * dmax[ok])
    return LipschitzValidation(
        r=r,
        bound=bound,
        samples=int(ok.sum()),
        max_ratio=float(ratio.max()) if ratio.size else 0.0,
        violations=int((ratio > 1.0).sum()),
    )


def one_shot_min_max(
    mats: np.ndarray, grid: int = 32, rounds: int = 6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min over unit v in C^2 of max_k ||mats[b, k] v|| for each b, exactly,
    for a (B, K, 2, 2) stack.

    With H_k = M_k* M_k and v v* = (I + n.sigma)/2, ||M_k v||^2 =
    beta_k + a_k . n for beta_k = tr H_k / 2 and a_k = (Re H_k[0,1],
    -Im H_k[0,1], (H_k[0,0] - H_k[1,1]) / 2): a min over the Bloch sphere
    of a max of affine functions, whose minimiser is among the candidates
    of ``_bloch_candidates`` (a complete set for K <= 3 matrices).  The
    value is evaluated on the matrices at each candidate spinor, so it is
    attained and never undercuts the true minimum beyond rounding.  Rows
    are scaled by their largest entry first, so finite input does not
    overflow; a row with a non-finite entry gives inf and NaN angles.

    Returns (value, t, p) per batch element, v = (cos t, e^(i p) sin t).
    ``grid`` and ``rounds`` are accepted and ignored, for callers that still
    pass or inspect them.
    """
    def _unit(x: np.ndarray) -> np.ndarray:
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("bx,bx->b", x, y)[:, None]

    def _bloch_candidates(beta: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Candidate minimisers (B, C, 3) of max_k f_k(n) = beta_k + a_k . n
        over |n| = 1, for beta (B, K) and a (B, K, 3).

        One, two or three f_k are active at the minimiser, so it is one of:
        -a_k/|a_k|; on each circle {f_i = f_j}, the minimiser of f_i, or any
        point when f_i is constant there; the points where the line
        {f_i = f_j = f_m} meets the sphere (these also end every arc of a
        circle on which f_i is constant and a third f_m lies below it); an
        axis, when every a_k vanishes.  Missing intersections come out as NaN.
        """
        B, K = beta.shape
        out = [-a, np.broadcast_to(np.vstack([np.eye(3), -np.eye(3)]),
                                   (B, 6, 3))]
        for i, j in combinations(range(K), 2):
            d, h = a[:, i] - a[:, j], (beta[:, j] - beta[:, i])[:, None]
            dd = _dot(d, d)
            centre, radius = h / dd * d, np.sqrt(1.0 - h * h / dd)
            axis = np.eye(3)[np.argmin(np.abs(d), axis=-1)]
            for w in (a[:, i], np.cross(d, axis)):
                u = _unit(w - _dot(w, d) / dd * d)
                out.append((centre - radius * u)[:, None])
        for i, j, m in combinations(range(K), 3):
            d1, h1 = a[:, i] - a[:, j], (beta[:, j] - beta[:, i])[:, None]
            d2, h2 = a[:, i] - a[:, m], (beta[:, m] - beta[:, i])[:, None]
            e = np.cross(d1, d2)
            ee = _dot(e, e)
            foot = (h1 * np.cross(d2, e) + h2 * np.cross(e, d1)) / ee
            s = np.sqrt((1.0 - _dot(foot, foot)) / ee)
            out += [(foot + s * e)[:, None], (foot - s * e)[:, None]]
        return np.concatenate(out, axis=1)

    mats = np.asarray(mats, dtype=complex)
    finite = np.isfinite(mats).all(axis=(1, 2, 3))
    M = np.where(finite[:, None, None, None], mats, 0.0)
    scale = np.abs(M).max(axis=(1, 2, 3))
    scale = np.where(scale > 0, scale, 1.0)
    M = M / scale[:, None, None, None]
    H = np.einsum("bkji,bkjl->bkil", M.conj(), M)
    h00, h01, h11 = H[..., 0, 0].real, H[..., 0, 1], H[..., 1, 1].real
    a = np.stack([h01.real, -h01.imag, (h00 - h11) / 2], axis=-1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        n = _unit(_bloch_candidates((h00 + h11) / 2, a))
        t = np.arccos(np.clip(n[..., 2], -1.0, 1.0)) / 2
        p = np.arctan2(n[..., 1], n[..., 0])
        v = np.stack([np.cos(t), np.exp(1j * p) * np.sin(t)], axis=-1)
        Mv = np.einsum("bkij,bcj->bcki", M, v)
        vals = np.sqrt((Mv.real**2 + Mv.imag**2).sum(axis=-1).max(axis=-1))
    idx = np.where(np.isnan(vals), np.inf, vals).argmin(axis=1)
    rows = np.arange(mats.shape[0])
    best = np.where(finite, vals[rows, idx] * scale, np.inf)
    bt = np.where(finite, t[rows, idx], np.nan)
    bp = np.where(finite, p[rows, idx], np.nan)
    return best, bt, bp


def one_shot_evidence(seq, q: int, z_grid: int,
                      extra_angles=()) -> EvidenceTable:
    """``no_point_spectrum_evidence`` at an explicit q, with c and the
    block norms of every row computed in one call each."""
    angles = list(2.0 * math.pi * np.arange(z_grid) / z_grid)
    angles.extend(float(a) for a in extra_angles)
    zs = np.exp(1j * np.array(angles))
    mats = _three_blocks(seq, zs, q)
    cs, _, _ = one_shot_min_max(mats)
    norms = spectral_norm_2x2(mats)
    finite = np.isfinite(norms).all(axis=1)
    rows = tuple(
        EvidenceRow(float(a), float(c), *map(float, n))
        for a, c, n in zip(angles, cs, norms)
    )
    min_c = argmin_angle = max_log10_norm = None
    if finite.any():
        imin = int(np.argmin(np.where(finite, cs, np.inf)))
        min_c, argmin_angle = float(cs[imin]), float(angles[imin])
        max_log10_norm = float(np.log10(norms[finite].max()))
    passed = finite.all() and min_c >= EVIDENCE_PASS_THRESHOLD
    return EvidenceTable(
        q=q,
        source="explicit",
        rows=rows,
        min_c=min_c,
        argmin_angle=argmin_angle,
        threshold=EVIDENCE_PASS_THRESHOLD,
        verdict="PASS" if passed else "FAIL",
        nonfinite_rows=int((~finite).sum()),
        max_log10_norm=max_log10_norm,
    )


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
        mats = np.stack([A, A @ A, np.linalg.inv(A)], axis=1)
        vals, _, _ = min_max_over_unit_vectors(mats)
        worst = min(worst, float(vals.min()))
    return worst


def rho_at(seq: VerblunskySequence, n: int) -> float:
    """rho(n) = sqrt((1 - |a|)(1 + |a|)) of one coefficient, in Python
    complex and float arithmetic, against the vectorised
    ``VerblunskySequence.rho``."""
    a = abs(seq.alpha(n))
    return math.sqrt((1.0 - a) * (1.0 + a))


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


def theta_step_walk(op, z, back: bool = False):
    """Per block p of the truncation, from the left edge (or the right
    one): p, whether the block is in L, the pair (x', y') leaving it for
    x = 1 and y = r entering it, that r, and the ratio z x' / y' entering
    the next block (or leaving the window).

    Each block is read off the factor bands and crossed by the one-block
    transfer step x' = (y - conj(a) x) / rho, y' = rho x - a x' (with
    (conj(a), a) -> (-a, -conj(a)) walking back), fresh arrays at every
    site.  u_(p+1) / u_p (or u_p / u_(p+1) walking back) is x' at an M
    block and y' / r at an L block.
    """
    L, M = op.factor_bands
    in_left = (op.n_min + np.arange(op.size - 1)) % 2 == 0
    top = np.where(in_left, L[:, :-1], M[:, :-1])
    alpha = -np.where(in_left, L[1, 1:], M[1, 1:])
    blocks = list(zip(top[1].tolist(), top[2].real.tolist(), alpha.tolist(),
                      in_left.tolist()))
    edge = (M if in_left[-1] else L)[1, -1] if back else (M if in_left[0] else L)[1, 0]
    r = z * np.conj(edge)
    for p in range(len(blocks) - 1, -1, -1) if back else range(len(blocks)):
        abar, rho, a, in_l = blocks[p]
        if back:
            abar, a = -a, -abar
        x = (r - abar) / rho
        y = rho - a * x
        r_next = z * x / y
        yield p, in_l, x, y, r, r_next
        r = r_next


def theta_step_count(op, theta: np.ndarray) -> np.ndarray:
    """Eigenvalue angles below each theta up to one common offset, from
    the lifted phase of ``theta_step_walk``'s ratio: theta - 2 arg y' per
    block, the edge phases, and the ratio leaving the window against the
    right edge's entry."""
    L, M = op.factor_bands
    in_left = (op.n_min + np.arange(op.size - 1)) % 2 == 0
    left = complex((M if in_left[0] else L)[1, 0])
    right = complex((M if in_left[-1] else L)[1, -1])
    turn = np.zeros(theta.shape)
    for _, _, _, y, _, r in theta_step_walk(op, np.exp(1j * theta)):
        turn += np.angle(y)
    phase = np.angle(r * np.conj(right))
    lifted = op.size * theta - 2 * turn + (np.angle(np.conj(left)) - np.angle(right))
    return np.rint((lifted - phase) / (2 * np.pi)) - (phase < 0)


def csv_module_write(path, comment, header, rows) -> None:
    """``# comment`` (if any), the header row, then ``rows`` through the csv
    module, one row at a time."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def csv_eigenvalues_table(path, seed, dec) -> None:
    """eigenvalues.csv written row by row through the csv module."""
    csv_module_write(
        path, f"seed={seed}", ["angle", "residual"],
        ([repr(a), repr(r)] for a, r in
         zip(np.angle(dec.eigenvalues).tolist(), dec.residuals.tolist())))


def csv_profiles_table(path, seed, profiles) -> None:
    """The four-column profile.csv written row by row through the csv
    module, ints as they are and the participation ratio formatted on
    every row."""
    csv_module_write(
        path, f"seed={seed}", ["eigenvector", "shell", "mass", "participation_ratio"],
        ([p.index, s, repr(m), repr(p.participation_ratio)]
         for p in profiles for s, m in enumerate(p.shell_masses)))
