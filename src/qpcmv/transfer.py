"""Transfer matrices, Lipschitz budgets, Gordon certification, lower bounds.

One-step matrices follow the Szego convention

    S(a, z) = rho^-1 [[z, -conj(a)], [-a z, 1]],   rho = (1 - |a|^2)^(1/2),

whose determinant is exactly z.  Three consecutive coefficients enter the
three-step product P_n = S(a(n+2)) S(a(n+1)) S(a(n)); an explicit Lipschitz
constant L3(r) for P_n as a function of the coefficient triple turns the
near-repetition of a coefficient window into closeness of transfer blocks,
which is what the certification below measures.

All matrix work is float; exactness lives upstream in the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

EVIDENCE_PASS_THRESHOLD = 0.25  # half of the periodic-case floor 1/2
_UNDERFLOW_LOG10 = -300.0
_CHUNK = 2048  # Lipschitz samples drawn, differenced and reduced per block


# ---------------------------------------------------------------------------
# One-step matrices and products
# ---------------------------------------------------------------------------


def _inv_rho(alpha):
    """1 / rho(alpha) = (1 - |alpha|^2)^(-1/2), elementwise.

    |alpha| is taken by ``np.abs``, which can differ in the last bit from
    the ``np.hypot`` of ``VerblunskySequence.rho`` (the rho of the CSV and
    of the CMV operator), so the products here may use a rho an ulp away
    from theirs.  Sharing theirs would move the last bits of the evidence
    tables, and possibly ``min_c``."""
    m = np.abs(alpha)
    return 1.0 / np.sqrt((1.0 - m) * (1.0 + m))


def _szego_step(a, ac, inv_rho, z, top, bot):
    """Rows (top, bot) of S(a, z) P from the rows of P, elementwise, with
    ac = conj(a): S(a, z) = rho^-1 [[1, -conj(a)], [-a, 1]] diag(z, 1)."""
    u = z * top
    return (u - ac * bot) * inv_rho, (bot - a * u) * inv_rho


def _szego(alpha, z):
    """Entries (s00, s01, s10, s11) of S(alpha, z), elementwise, built
    directly as z/rho, -conj(alpha)/rho, -(alpha z)/rho and 1/rho: each
    a product with 1/rho, as ``_szego_step`` forms it, so they equal the
    step applied to the columns of the identity up to signed zeros."""
    alpha = np.asarray(alpha, dtype=complex)
    z = np.asarray(z, dtype=complex)
    s = _inv_rho(alpha)
    return z * s, -alpha.conj() * s, -(alpha * z) * s, s


def szego_matrix(alpha: complex, z: complex) -> np.ndarray:
    if not abs(alpha) < 1:
        raise DomainError("|alpha| must be < 1")
    if not abs(abs(z) - 1.0) <= 1e-9:
        raise DomainError("z must lie on the unit circle")
    return np.array(_szego(alpha, z)).reshape(2, 2)


def block_product_grid(
    seq, zs: np.ndarray, n_from: int, n_to: int,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Ordered products S(a(n_to-1), z) ... S(a(n_from), z) over a z-grid:
    (len(zs), 2, 2); the empty product is the identity.

    With ``start`` (a (len(zs), 2, 2) stack) the result is the product
    times ``start``, so a product over [m, n) continued from the one over
    [l, m) equals the product over [l, n) bit for bit.

    The two rows of P are carried as arrays over the grid and each step
    applies ``_szego_step`` to them elementwise, so a one-step product
    equals ``szego_matrix`` exactly.  No BLAS call is made, so the rounding
    does not depend on the BLAS build.
    """
    if n_to < n_from:
        raise DomainError("n_to must be >= n_from")
    zs = np.asarray(zs, dtype=complex)
    if start is None:
        start = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2))
    if n_to == n_from:
        return np.array(start, dtype=complex)
    alphas = seq.slice(n_from, n_to - 1)
    top = np.moveaxis(start[..., 0, :], -1, 0)
    bot = np.moveaxis(start[..., 1, :], -1, 0)
    for a, ac, s in zip(alphas.tolist(), alphas.conj().tolist(),
                        _inv_rho(alphas).tolist()):
        top, bot = _szego_step(a, ac, s, zs, top, bot)
    return np.moveaxis(np.stack([top, bot]), (0, 1), (-2, -1))


def spectral_norm_2x2(A: np.ndarray) -> np.ndarray:
    """Largest singular value, closed form, vectorized over leading axes.

    Each matrix is first scaled by the power of two 2^-e that brings its
    largest entry into [1/2, 1).  The scaling is exact, so in range the
    value is that of the unscaled formula bit for bit, and a finite matrix
    gets a finite norm however large it is.  A non-finite entry still
    gives a non-finite norm.
    """
    A = np.asarray(A, dtype=complex)
    _, e = np.frexp(np.abs(A).max(axis=(-2, -1)))
    k = -e[..., None, None]
    A = np.ldexp(A.real, k) + 1j * np.ldexp(A.imag, k)
    f = np.sum(np.abs(A) ** 2, axis=(-2, -1))
    d = np.abs(
        A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    ) ** 2
    s = np.sqrt((f + np.sqrt(np.maximum(f * f - 4 * d, 0.0))) / 2)
    return np.ldexp(s, e)


# ---------------------------------------------------------------------------
# Lipschitz budget for three-step products
# ---------------------------------------------------------------------------


def szego_norm_bound(r: float) -> float:
    """sup of ||S(a, z)|| over |a| <= r, |z| = 1 (largest singular value)."""
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    return math.sqrt((1 + r) / (1 - r))


def szego_lipschitz_bound(r: float) -> float:
    """C(r) with ||S(a,z) - S(b,z)|| <= C(r) |a - b| for |a|, |b| <= r.

    Split S = rho(a)^-1 B(a): the B difference has norm exactly |a - b|,
    and |rho(a)^-1 - rho(b)^-1| <= r |a-b| / (1-r^2)^(3/2) with
    ||B|| <= 1 + r.
    """
    if not 0 <= r < 1:
        raise DomainError("r must lie in [0, 1)")
    one = 1.0 / math.sqrt(1 - r * r)
    return r * (1 + r) * one**3 + one


def three_step_lipschitz(r: float) -> float:
    """L3(r): ||P - P~|| <= L3(r) max_i |a_i - a~_i| for three-step products.

    Telescoping the product difference gives three terms, each at most
    ||S||^2 times a one-step difference, hence 3 M(r)^2 C(r).
    """
    m = szego_norm_bound(r)
    return 3.0 * m * m * szego_lipschitz_bound(r)


@dataclass(frozen=True)
class LipschitzValidation:
    r: float
    bound: float
    samples: int
    max_ratio: float
    violations: int


def _mul(A, B):
    """Product of two 2x2 matrices held as entry tuples (x00, x01, x10,
    x11) of arrays, elementwise over the arrays."""
    a00, a01, a10, a11 = A
    b00, b01, b10, b11 = B
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _three_step_difference(a: np.ndarray, at: np.ndarray, z: np.ndarray):
    """P - P~ for the three-step products of the coefficient triples
    a[:, i] and at[:, i] at z, as an (N, 2, 2) stack.

    The difference is telescoped as S2 S1 D0 + S2 D1 S~0 + D2 S~1 S~0 with
    D_i = S_i - S~_i, the sum that L3's proof bounds term by term: every
    term carries a small D_i, so no two O(1) products are subtracted.
    """
    S = [_szego(a[:, i], z) for i in range(3)]
    St = [_szego(at[:, i], z) for i in range(3)]
    D = [tuple(x - y for x, y in zip(s, st)) for s, st in zip(S, St)]
    terms = (_mul(S[2], _mul(S[1], D[0])), _mul(S[2], _mul(D[1], St[0])),
             _mul(D[2], _mul(St[1], St[0])))
    return np.stack([sum(e) for e in zip(*terms)], axis=-1).reshape(-1, 2, 2)


def _draw_streams(seed: int, samples: int):
    """Generators over the five parts of the PCG64 stream of
    ``default_rng(seed)`` that one-shot draws for ``samples`` samples
    read in turn: z (``samples`` numbers), then |a|, arg a, the scale
    exponent and arg step (3 * ``samples`` numbers each).  Drawing from
    them chunk by chunk reads exactly the numbers of the one-shot draws."""
    streams = []
    for offset in (0, 1, 4, 7, 10):
        bits = np.random.PCG64(seed)
        bits.advance(offset * samples)
        streams.append(np.random.Generator(bits))
    return streams


def validate_three_step_lipschitz(
    r: float, samples: int = 100_000, seed: int = 20240601
) -> LipschitzValidation:
    """Finite-difference sampling against L3(r); ratios must stay <= 1.

    r must lie in (0, 1): at r = 0 no coefficient can move, so every
    sample would be dropped and the validation would pass on no evidence.
    Samples are drawn, differenced and reduced ``_CHUNK`` at a time, so
    memory does not grow with ``samples``.
    """
    if samples < 1 or seed < 0:
        raise DomainError(f"need samples >= 1 and seed >= 0, got {samples} "
                          f"samples and seed {seed}")
    if not 0 < r < 1:
        raise DomainError(f"need a radius r in (0, 1), got {r}")
    bound = three_step_lipschitz(r)
    g_z, g_abs, g_arg, g_scale, g_step = _draw_streams(seed, samples)
    max_ratio, violations, used = 0.0, 0, 0
    for i in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - i)
        z = np.exp(2j * np.pi * g_z.random(n))
        a = (
            np.sqrt(g_abs.random((n, 3)))
            * r
            * np.exp(2j * np.pi * g_arg.random((n, 3)))
        )
        scale = 10.0 ** g_scale.uniform(-6, 0, (n, 3))
        at = a + scale * r * np.exp(2j * np.pi * g_step.random((n, 3)))
        m = np.abs(at)
        out = m > r
        at[out] *= r / m[out]
        dmax = np.abs(at - a).max(axis=1)
        ok = dmax > 0
        ratio = (spectral_norm_2x2(_three_step_difference(a, at, z)[ok])
                 / (bound * dmax[ok]))
        max_ratio = np.maximum(max_ratio, ratio.max(initial=0.0))
        violations += int((ratio > 1.0).sum())
        used += int(ok.sum())
    return LipschitzValidation(
        r=r,
        bound=bound,
        samples=used,
        max_ratio=float(max_ratio),
        violations=violations,
    )


@dataclass(frozen=True)
class ToleranceBound:
    """Coefficient budget making three-step products k^-q close.

    value = k^-q / L3(r); if three consecutive coefficients of two windows
    differ by less than this, the corresponding three-step products differ
    by less than k^-q in operator norm, by construction of L3.
    ``underflowed`` marks budgets below the float range: the value is then
    the smallest positive float and only an exactly-zero defect can pass.
    """

    k: int
    q: int
    r: float
    value: float
    log10: float
    lipschitz: float
    underflowed: bool


def coefficient_tolerance(k: int, q: int, r: float) -> ToleranceBound:
    if k < 1 or q < 1:
        raise DomainError("k and q must be positive integers")
    L = three_step_lipschitz(r)
    log10 = -q * math.log10(k) - math.log10(L)
    if log10 < _UNDERFLOW_LOG10:
        return ToleranceBound(k, q, r, math.ulp(0.0), log10, L, True)
    return ToleranceBound(k, q, r, 10.0**log10, log10, L, False)


# ---------------------------------------------------------------------------
# Gordon certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GordonLevel:
    k: int
    q: int
    r: float
    defect: float
    threshold: float
    passed: bool
    underflowed: bool


@dataclass(frozen=True)
class GordonCertificate:
    """Measured repetition defects of a coefficient window against the
    level-k thresholds tolerance(k, q_k, r_k) / 4.

    r_k is the radius of the smallest origin-centered disk holding
    alpha(-2 q_k + 1) .. alpha(2 q_k + 1); the defect is the max of
    |alpha(n) - alpha(n +- q_k)| over -q_k + 1 <= n <= q_k + 1.
    """

    sequence_id: str
    levels: tuple[GordonLevel, ...]

    @property
    def all_passed(self) -> bool:
        return all(l.passed for l in self.levels)

    def largest_passing(self) -> Optional[GordonLevel]:
        best = None
        for l in self.levels:
            if l.passed and (best is None or l.q >= best.q):
                best = l
        return best


def shift_differences(alpha: np.ndarray, q: int) -> np.ndarray:
    """|alpha[i + q] - alpha[i]| for every i, by ``np.hypot``, which is
    Python's ``abs`` of a complex bit for bit (``np.abs`` of a complex
    array is not)."""
    d = alpha[q:] - alpha[:-q]
    return np.hypot(d.real, d.imag)


def certify_gordon(
    seq, pairs: Sequence[tuple[int, int]], sequence_id: str = ""
) -> GordonCertificate:
    """Certify candidate even periods q_k at levels k.

    ``pairs`` lists (k, q_k), at least one; periods must be even and
    non-decreasing in k.  The window must cover [-2 q_k + 1, 2 q_k + 1] for
    every candidate.
    """
    if not pairs:
        raise DomainError("need at least one (k, q) level to certify")
    last_q = 0
    levels = []
    for k, q in pairs:
        if q < 2 or q % 2 != 0:
            raise DomainError(f"candidate period {q} must be even and >= 2")
        if q < last_q:
            raise DomainError("candidate periods must be non-decreasing")
        last_q = q
        alpha = seq.slice(-2 * q + 1, 2 * q + 1)
        r_k = float(np.abs(alpha).max())
        # the pairs (n, n + q) for n = -2q + 1 .. q + 1 are exactly those
        # of |alpha(n) - alpha(n +- q)| over -q + 1 <= n <= q + 1
        defect = float(shift_differences(alpha, q).max())
        tol = coefficient_tolerance(k, q, r_k)
        threshold = tol.value / 4.0
        levels.append(
            GordonLevel(
                k=k,
                q=q,
                r=r_k,
                defect=defect,
                threshold=threshold,
                passed=defect <= threshold,
                underflowed=tol.underflowed,
            )
        )
    return GordonCertificate(sequence_id=sequence_id, levels=tuple(levels))


# ---------------------------------------------------------------------------
# Three-block lower bound and evidence tables
# ---------------------------------------------------------------------------


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
    out = [-a, np.broadcast_to(np.vstack([np.eye(3), -np.eye(3)]), (B, 6, 3))]
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


def min_max_over_unit_vectors(
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


def _three_blocks(seq, zs: np.ndarray, q: int) -> np.ndarray:
    """(B+, B++, B-) per z as (len(zs), 3, 2, 2), with B- = adj P for the
    product P over [-q, 0): no determinant is formed, so none cancels."""
    b = block_product_grid(seq, zs, -q, 0)
    fwd = block_product_grid(seq, zs, 0, q)
    dbl = block_product_grid(seq, zs, q, 2 * q, start=fwd)
    adj = np.stack([b[:, 1, 1], -b[:, 0, 1], -b[:, 1, 0], b[:, 0, 0]], -1)
    return np.stack([fwd, dbl, adj.reshape(-1, 2, 2)], axis=1)


@dataclass(frozen=True)
class EvidenceRow:
    angle: float
    c: float
    norm_forward: float
    norm_double: float
    norm_backward: float


@dataclass(frozen=True)
class EvidenceTable:
    """c(z) on a circle grid with the PASS/FAIL verdict at threshold 1/4.

    ``source`` records whether q came from a passing certificate or was
    supplied explicitly (the negative-control path for sequences that are
    deliberately not Gordon).  The blocks are B+, B++ and B- = adj P for
    the product P over [-q, 0), or A, A^2 and adj A on a q-periodic window.
    ``nonfinite_rows`` counts the rows whose block norms are not finite;
    such a row has c = inf and makes the verdict FAIL.  ``min_c``,
    ``argmin_angle`` and ``max_log10_norm`` (the largest log10 block norm)
    are taken over the finite rows, None if there are none; once
    ||P||^2 ulp outgrows c, the value of c is set by rounding.
    """

    q: int
    source: str
    rows: tuple[EvidenceRow, ...]
    min_c: Optional[float]
    argmin_angle: Optional[float]
    threshold: float
    verdict: str
    nonfinite_rows: int
    max_log10_norm: Optional[float]


def no_point_spectrum_evidence(
    seq,
    certificate: Optional[GordonCertificate] = None,
    z_grid: int = 512,
    q: Optional[int] = None,
    extra_angles: Sequence[float] = (),
) -> EvidenceTable:
    """Tabulate c(z) on a uniform unit-circle grid (plus optional extra
    angles) at the largest certified period, or at an explicit q.

    c(z) = min over unit v of max(||B+ v||, ||B++ v||, ||B- v||), where B+
    propagates 0 -> q, B++ 0 -> 2q and B- = adj P = z^q P^-1 for the
    product P over [-q, 0) (det P = z^q), with the norms of P^-1, 0 -> -q.
    For a q-periodic window they are A, A^2 and adj A, and Cayley-Hamilton
    for unit-modulus determinants floors c at 1/2.

    Verdict is PASS when every row is finite and the minimum stays at or
    above 1/4, half the periodic-case constant; FAIL otherwise.
    """
    if certificate is not None:
        level = certificate.largest_passing()
        if level is None:
            raise DomainError(
                "certificate has no passing level; pass q explicitly for "
                "negative controls"
            )
        q_use = level.q
        source = "certified"
    elif q is not None:
        if q < 1:
            raise DomainError(f"explicit q must be >= 1, got {q}")
        q_use = q
        source = "explicit"
    else:
        raise DomainError("need a certificate or an explicit q")
    if z_grid < 1:
        raise DomainError("z_grid must be >= 1")
    angles = list(2.0 * math.pi * np.arange(z_grid) / z_grid)
    angles.extend(float(a) for a in extra_angles)
    zs = np.exp(1j * np.array(angles))
    mats = _three_blocks(seq, zs, q_use)
    cs, _, _ = min_max_over_unit_vectors(mats)
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
        q=q_use,
        source=source,
        rows=rows,
        min_c=min_c,
        argmin_angle=argmin_angle,
        threshold=EVIDENCE_PASS_THRESHOLD,
        verdict="PASS" if passed else "FAIL",
        nonfinite_rows=int((~finite).sum()),
        max_log10_norm=max_log10_norm,
    )
