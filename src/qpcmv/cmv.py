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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigensolverError, WindowError
from .sampling import VerblunskySequence

_EIG_TOL = 1e-10
_BOUNDARY_TOL = 1e-12
# Reference angle of H_phi = (e^(-i phi) E + e^(i phi) E*) / 2, whose
# eigenvalues cos(theta - phi) name the candidate angles phi +- arccos.  One
# radian is not a rational multiple of pi, so neither the conjugation
# symmetry of real coefficients (theta <-> -theta) nor the rotation
# symmetry of equally spaced spectra puts whole families of eigenvalue pairs
# on one H_phi eigenvalue (theta_j + theta_k = 2 phi); the pairs that do
# meet there are told apart by the count.
_PHI = 1.0
# Eigenvectors whose angles are closer than this are re-diagonalised
# together (see ``spectrum``).  A twisted vector leaks into eigenvectors at
# gap g by about r / g, r its residual (1e-15 to 1e-14): without this step
# the vectors of the N = 600 harmonic window and of a random one with
# |alpha| <= 0.5 were orthonormal only to 1.6e-12 and 7.2e-12.  Over 1008
# seeded windows (N <= 600, |alpha| <= 0.999) 1e-3 left one pair at gap
# 1.2e-3 orthonormal only to 1.2e-12; 2e-3 keeps the worst at 5.2e-13.  It
# must stay well below the spacing 2 pi / N, or runs chain: at 2e-3 the
# longest holds 22 vectors (N = 600 harmonic) and 11 (N = 2000).
_CLUSTER_GAP = 2e-3
# Eigenvalues closer than this are one eigenvalue at working precision: the
# residual gate cannot tell their vectors apart, and any solver returns an
# arbitrary, rounding-dependent basis of their span (edge states at the two
# ends of a window are an example).  That span gets a fixed basis instead:
# the one diagonalising the position operator, i.e. the most localised
# one.  Rotating inside the span moves a residual by at most this gap.
# Candidate angles this close form one group for the count, and the
# twisted vectors of one group are joined at distinct sites.
_DEGENERATE_GAP = 1e-12
# Weights this close to the largest one count as a tie for the profile
# peak, which goes to the smallest such index.  Flat vectors (the free
# operator's, |u_n|^2 = 1/N) and symmetric bound states have exact ties
# that rounding would otherwise break in either direction.
_PEAK_RTOL = 1e-9
# Largest Newton step trusted at a twist.  Candidates are within about
# 1e-8 of their eigenvalue even where arccos is steepest (|mu| near 1), so
# a longer step means the phase there is not resolved; the angle is then
# kept, and the residual gate sees the result.
_NEWTON_MAX = 1e-6
# Columns per vectorised pass over a set of eigenvectors (every pass of
# ``spectrum`` after the twist walks, the profiles of
# ``eigenvector_profile``): a few N x _BLOCK temporaries instead of N x N
# ones.
_BLOCK = 64


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
    """A V for V of shape (N, K), 64 rows at a time so that the products
    stay in cache (at N = 2000 half the time of whole diagonals)."""
    w, n = a.shape[0] // 2, a.shape[1]
    out = np.zeros(v.shape, dtype=complex)
    for i in range(0, n, 64):
        for d in range(-w, w + 1):
            lo, hi = max(i, -d), min(i + 64, n, n - d)
            if lo < hi:
                out[lo:hi] += a[w + d, lo:hi, None] * v[lo + d : hi + d]
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

    def dump_triplets(self, fh, seed: int):
        """Sparse-triplet text dump: lines 'row col re im' (window coords),
        one per nonzero entry in row-major order."""
        fh.write(
            f"# seed={seed}\n"
            f"# cmv triplets window=[{self.n_min},{self.n_max}] "
            f"size={self.size} unitary=True\n"
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
                  boundary):
    """Coefficients at n_min - 2 .. n_max + 1 with the truncation rule
    applied, their rho, and the boundary pair.

    Positions n_min - 1 and n_max carry the boundary pair, and the indices
    beyond them repeat it: those only ever feed entries outside the window.
    rho is zero at all four clamped positions, which is what decouples the
    straddling blocks.
    """
    bm, bp = (complex(boundary[0]), complex(boundary[1]))
    for b in (bm, bp):
        if not abs(abs(b) - 1.0) <= _BOUNDARY_TOL:
            raise DomainError("boundary coefficients must be unimodular")
    a = np.concatenate(([bm, bm], seq.slice(n_min, n_max - 1), [bp, bp]))
    rho = np.concatenate(([0.0, 0.0], seq.rho(n_min, n_max - 1), [0.0, 0.0]))
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
) -> CMVOperator:
    """Finite CMV operator on coordinates [n_min, n_max].

    The boundary pair replaces the coefficients at n_min - 1 and n_max and
    must be unimodular; the result is then unitary to rounding.
    """
    if n_max <= n_min:
        raise WindowError("need n_max > n_min")
    a, rho, (bm, bp) = _coefficients(seq, n_min, n_max, boundary)
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


class _Chain:
    """The 2x2 blocks of L and M in the order the sites meet them.

    Block p couples sites p and p + 1 (p < N - 1).  With w = M u, an M block
    relates (x, y) = (u, w) on its two rows by y = Theta x, and an L block
    relates (x, y) = (w, z u) the same way.  The two straddling blocks keep
    one in-window entry each, ``left`` = -b_- at site 0 and ``right`` =
    conj(b_+) at site N - 1.

    On a block's rows the top pair (x, y) = (1, r) gives the bottom one as
    x' = (r - conj(a)) / rho and y' = rho - a x' = (1 - a r) / rho; with
    (conj(a), a) replaced by (-a, -conj(a)) the same lines carry the bottom
    pair to the top.  For |z| = 1 every block preserves |x|^2 + |y|^2 and
    |u| = |w| at the edges, so |u| = |w| at every site: the ratio r = y / x
    entering each block is unimodular, and a walk needs only r.  Leaving
    one block, x' / y' turns into the ratio entering the next as
    r <- z x' / y' = z (r - conj(a)) / (1 - a r), a Moebius map of the
    circle, in either direction and for either kind of block.

    ``blocks[p]`` holds p and block p's conj(a), a, 1 / rho and whether
    it belongs to L; ``back`` holds the same blocks from the right edge,
    with (conj(a), a) already replaced.
    """

    def __init__(self, op: CMVOperator):
        L, M = op.factor_bands
        in_left = (op.n_min + np.arange(op.size - 1)) % 2 == 0
        # the block with top row p holds conj(a) at (p, p), rho at
        # (p, p + 1) and -a at (p + 1, p + 1)
        top = np.where(in_left, L[:, :-1], M[:, :-1])
        a = -np.where(in_left, L[1, 1:], M[1, 1:])
        self.blocks = list(zip(range(op.size - 1), top[1].tolist(), a.tolist(),
                               (1.0 / top[2].real).tolist(), in_left.tolist()))
        self.back = [(p, -a, -ab, inv_rho, in_l)
                     for p, ab, a, inv_rho, in_l in reversed(self.blocks)]
        self.left = complex((M if in_left[0] else L)[1, 0])
        self.right = complex((M if in_left[-1] else L)[1, -1])

    def walk(self, z: np.ndarray, back: bool = False):
        """Per block p, from the left edge (or the right one): p, whether
        the block is in L, its 1 / rho, and, for the ratio r entering it,
        w = 1 - a r = rho y', n = r - conj(a) = rho x' and r itself.

        w, n and r are three buffers updated in place: after each yield r
        turns into z n / w, the ratio entering the next block, so once the
        walk is through r holds the ratio leaving the window.
        u_(p+1) / u_p (or u_p / u_(p+1) walking back) is x' = n / rho at an
        M block and y' / r = w / (rho r) at an L block.
        """
        r = z * np.conj(self.right if back else self.left)
        w, n = np.empty_like(r), np.empty_like(r)
        for p, ab, a, inv_rho, in_l in self.back if back else self.blocks:
            np.multiply(r, -a, out=w)
            w += 1.0
            np.subtract(r, ab, out=n)
            yield p, in_l, inv_rho, w, n, r
            np.multiply(n, z, out=r)
            r /= w

    def count(self, theta: np.ndarray) -> np.ndarray:
        """Eigenvalue angles below each theta, up to one common offset.

        The lifted phase of r gains theta - 2 arg(1 - a r) per block,
        increasing in theta (a Pruefer phase of the truncation's
        paraorthogonal polynomial).  z = e^(i theta) is an eigenvalue
        exactly when the ratio leaving the window equals ``right``, so the
        lifted phase of r / right, over 2 pi and floored, counts eigenvalue
        angles; it gains N per turn of theta.  Its integer part comes from
        the lifted sum, the sign of its last turn from the final ratio
        alone.
        """
        turn, t = np.zeros(theta.shape), np.empty(theta.shape)
        for _, _, _, w, _, r in self.walk(np.exp(1j * theta)):
            turn += np.arctan2(w.imag, w.real, out=t)
        phase = np.angle(r * np.conj(self.right))
        lifted = (len(self.blocks) + 1) * theta - 2 * turn + (
            np.angle(np.conj(self.left)) - np.angle(self.right))
        return np.rint((lifted - phase) / (2 * np.pi)) - (phase < 0)


def _slope_step(slope: np.ndarray, w: np.ndarray, inv_rho: float,
                out: np.ndarray) -> None:
    """out = 1 + slope / |y'|^2, |y'| = |w| / rho (``out`` may not be
    ``slope``)."""
    np.abs(w, out=out)
    out *= inv_rho
    np.square(out, out=out)
    np.divide(slope, out, out=out)
    out += 1.0


def _join(d: np.ndarray, r: np.ndarray, slope: np.ndarray,
          back_slope: np.ndarray, c: np.ndarray) -> None:
    """d <- arg(r d) + i (slope + back_slope) in place (``c`` is scratch:
    arctan2 writing over its own input would copy it first)."""
    np.multiply(d, r, out=c)
    np.arctan2(c.imag, c.real, out=d.real)
    np.add(slope, back_slope, out=d.imag)


def _twists(chain: _Chain, theta: np.ndarray, groups=()):
    """Where to join the two walks for each angle, and the angle refined
    by one Newton step there.

    u^L is walked from the left edge and u^R from the right.  Joined at
    site k (u^L up to k, u^R from k on, equal at k), they leave a residual
    of exactly |t^L_k - t^R_k| / ||v||, t = w / u the ratio at site k of
    each walk.  The ratio entering a block from the left is z over the one
    leaving the block before it, so the two agree where d_k = arg r^L_k +
    arg r^R_k - theta vanishes, and k is where |d_k| is least.  (In exact
    arithmetic that is where |u^L_k u^R_k| peaks, but a walk that has
    passed the localisation centre grows by rounding, which inflates its
    modulus and scrambles its ratio: the phase test sees that, the modulus
    does not.)  The columns of each slice in ``groups`` share one
    eigenvalue to working precision and take distinct sites instead: the
    best local minima of their common |d|.

    Each phase grows with theta at a rate s with s' = 1 + s / |y'|^2 per
    block, so d_k has slope s^L_k + s^R_k - 1 >= 1, and one Newton step on
    d_k = 0 moves theta to the eigenvalue.  There both walks are accurate,
    unlike at the far edge, where one of them has run past the centre.

    The walk from the right stores r^R / z in V and its slope in S; the
    walk from the left replaces V[p] by d_p + i (slope of d_p + 1).
    """
    n, K = len(chain.blocks) + 1, theta.size
    z = np.exp(1j * theta)
    zc = z.conj()
    V = np.empty((n, K), dtype=complex)
    S = np.empty((n, K))
    S[n - 1] = 1.0
    for p, _, inv_rho, w, _, r in chain.walk(z, back=True):
        np.multiply(r, zc, out=V[p + 1])
        _slope_step(S[p + 1], w, inv_rho, S[p])
    np.multiply(r, zc, out=V[0])
    slope, t, c = np.ones(K), np.empty(K), np.empty(K, dtype=complex)
    for p, _, inv_rho, w, _, r in chain.walk(z):
        _join(V[p], r, slope, S[p], c)
        _slope_step(slope, w, inv_rho, t)
        slope, t = t, slope
    _join(V[n - 1], r, slope, S[n - 1], c)
    np.abs(V.real, out=S)
    k = np.empty(K, dtype=np.intp)
    for j in range(0, K, _BLOCK):  # argmin over axis 0 copies its input
        k[j : j + _BLOCK] = np.argmin(S[:, j : j + _BLOCK], axis=0)
    for g in groups:
        d = S[:, g.start]
        low = np.flatnonzero(np.r_[True, d[1:] <= d[:-1]] & np.r_[d[:-1] <= d[1:], True])
        low = np.sort(low[np.argsort(d[low], kind="stable")][: g.stop - g.start])
        k[g.start : g.start + low.size] = low
    at = V[k, np.arange(K)]
    step = at.real / (at.imag - 1.0)
    return k, np.where(np.abs(step) < _NEWTON_MAX, theta - step, theta)


def _twisted_vectors(chain: _Chain, z: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Unit vectors solving E v = z v up to site k, one column per z: u^L
    walked from the left edge up to k, u^R from the right edge down to k.

    Row p + 1 holds u_(p+1) / u_p: from the walk from the left, n / rho (M
    block) or w / (rho r) (L block); past k, from the walk from the right,
    their inverses rho / n or rho r / w.  The vector is the running product
    of the rows, taken in log scale ``_BLOCK`` columns at a time, so that
    only the result and N x _BLOCK arrays are alive.  The blocks share one
    float buffer: a lone last column is then a strided view, whose squares
    einsum sums row by row as it does every other column's (a contiguous
    one it sums in SIMD lanes, which rounds differently).
    """
    n, K = len(chain.blocks) + 1, z.size
    V = np.empty((n, K), dtype=complex)
    S = np.empty((n, min(K, _BLOCK)))
    last, first = int(k.max()), int(k.min())
    V[0] = 1.0
    for p, in_l, inv_rho, w, x, r in chain.walk(z):
        if p >= last:
            break
        if in_l:
            np.divide(w, r, out=V[p + 1])
            V[p + 1] *= inv_rho
        else:
            np.multiply(x, inv_rho, out=V[p + 1])
    t = np.empty(K, dtype=complex)
    for p, in_l, inv_rho, w, x, r in chain.walk(z, back=True):
        if p < first:
            break
        if in_l:
            np.divide(r, w, out=t)
            t *= 1.0 / inv_rho
        else:
            np.divide(1.0 / inv_rho, x, out=t)
        np.copyto(V[p + 1], t, where=p >= k)
    for j in range(0, K, _BLOCK):
        B = V[:, j : j + _BLOCK]
        s = np.abs(B, out=S[:, : B.shape[1]])
        B.real /= s
        B.imag /= s
        np.log(s, out=s)
        np.cumsum(s, axis=0, out=s)
        s -= s.max(axis=0)
        np.cumprod(B, axis=0, out=B)
        np.exp(s, out=s)
        s /= np.sqrt(np.einsum("ij,ij->j", s, s))
        B.real *= s
        B.imag *= s
    return V


def _band_spectrum(op: CMVOperator):
    """Eigenpairs of E from the transfer recursion (see ``spectrum``)."""
    import scipy.linalg as sla  # lazily: most commands never load scipy
    band, n = op.band, op.size
    chain = _Chain(op)
    # (i) candidates: H_phi has eigenvalue cos(theta - phi) on the
    # eigenvector of e^(i theta), so each of its eigenvalues names two angles
    hb = 0.5 * (np.exp(-1j * _PHI) * band + np.exp(1j * _PHI) * _band_adjoint(band))
    upper = np.zeros((3, n), dtype=complex)
    for d in range(3):
        upper[2 - d, d:] = hb[2 + d, : n - d]
    mu = sla.eig_banded(upper, overwrite_a_band=True, eigvals_only=True)
    half = np.arccos(np.clip(mu, -1.0, 1.0))
    angles = np.sort(np.mod(np.r_[_PHI - half, _PHI + half], 2 * np.pi))
    gaps = np.diff(np.r_[angles, angles[0] + 2 * np.pi])
    cut = angles[np.argmax(gaps)] + gaps.max() / 2  # inside the widest gap
    angles = np.sort(np.mod(angles - cut, 2 * np.pi)) + cut
    # (ii) count: candidates closer than _DEGENERATE_GAP form one group;
    # the count between groups says how many of each are eigenvalues
    starts = np.r_[0, np.flatnonzero(np.diff(angles) > _DEGENERATE_GAP) + 1]
    samples = np.r_[cut, (angles[starts[1:] - 1] + angles[starts[1:]]) / 2]
    below = chain.count(samples)
    below -= below[0]
    rises = np.diff(np.r_[below, n]).astype(int)
    sizes = np.diff(np.r_[starts, angles.size])
    bad = np.flatnonzero((rises < 0) | (rises > sizes))
    if bad.size:
        raise EigensolverError(int(bad[0]), float(rises[bad[0]]), float(sizes[bad[0]]),
                               quantity="count rise")
    theta = _counted(angles, starts, rises)
    # (iii) vectors, each read back as v* E v with its residual
    k, theta = _twists(chain, theta, _runs(np.diff(theta) > _DEGENERATE_GAP))
    V = _twisted_vectors(chain, np.exp(1j * theta), k)
    lam, res = _rayleigh(band, V)
    # Rayleigh-Ritz on each run of close angles: orthonormalise it, then a
    # small complex Schur of Q* E Q.  Whole runs go in batches of at most
    # _BLOCK columns (a wider run alone), one banded product per batch, and
    # the rotated columns get their residuals anew
    for batch in _batches(_runs(np.diff(theta) >= _CLUSTER_GAP)):
        cols = batch[0] if len(batch) == 1 else np.r_[
            tuple(np.arange(c.start, c.stop) for c in batch)]
        for c in batch:
            V[:, c] = np.linalg.qr(V[:, c])[0]
        EQ = _band_matvec(band, V[:, cols])
        j = 0
        for c in batch:
            m = c.stop - c.start
            T, Z = sla.schur(V[:, c].conj().T @ EQ[:, j : j + m], output="complex")
            V[:, c] = V[:, c] @ Z
            lam[c] = np.diag(T)
            j += m
        del EQ  # N x m for a run wider than a block: freed before its residuals
        res[cols] = _rayleigh(band, V[:, cols], lam[cols])[1]
    # the gate: between consecutive eigenvalues the count rises by one
    found = np.searchsorted(np.sort(np.mod(np.angle(lam) - cut, 2 * np.pi)),
                            samples - cut)
    bad = np.flatnonzero(found != below)
    if bad.size:
        j = int(bad[0])
        raise EigensolverError(j, float(abs(found[j] - below[j])), 0.0,
                               quantity="count mismatch")
    return lam, V, res


def _batches(runs):
    """Consecutive runs grouped while their columns total at most
    ``_BLOCK``; a wider run is a batch on its own."""
    batch, width = [], 0
    for c in runs:
        if batch and width + c.stop - c.start > _BLOCK:
            yield batch
            batch, width = [], 0
        batch.append(c)
        width += c.stop - c.start
    if batch:
        yield batch


def _counted(angles: np.ndarray, starts: np.ndarray, rises: np.ndarray):
    """The first rises[j] candidate angles of each group j."""
    sizes = np.diff(np.r_[starts, angles.size])
    rank = np.arange(angles.size) - np.repeat(starts, sizes)
    return angles[rank < np.repeat(rises, sizes)]


def _rayleigh(band: np.ndarray, V: np.ndarray, lam=None):
    """v* E v for each column v of V, unless ``lam`` gives the eigenvalues,
    and the residuals ||E v - lambda v||, from one banded product per
    ``_BLOCK`` columns.

    v* E v is taken from real and imaginary parts (no conjugate copy of V).
    The squares of a residual are summed row by row at every block width,
    so a column's residual does not depend on its block (np.linalg.norm
    sums a lone column pairwise).
    """
    K = V.shape[1]
    quotient = lam is None
    if quotient:
        lam = np.empty(K, dtype=complex)
    res = np.empty(K)
    for j in range(0, K, _BLOCK):
        B = V[:, j : j + _BLOCK]
        EB = _band_matvec(band, B)
        if quotient:
            re = np.einsum("ij,ij->j", B.real, EB.real) + np.einsum("ij,ij->j", B.imag, EB.imag)
            im = np.einsum("ij,ij->j", B.real, EB.imag) - np.einsum("ij,ij->j", B.imag, EB.real)
            lam[j : j + _BLOCK] = re + 1j * im
        EB -= B * lam[j : j + _BLOCK]
        res[j : j + _BLOCK] = np.sqrt(np.einsum("ij->j", (EB.conj() * EB).real))
    return lam, res


def _schur_spectrum(matrix: np.ndarray):
    import scipy.linalg as sla
    T, Z = sla.schur(matrix, output="complex")
    return np.diag(T).copy(), Z


def _checked(band: np.ndarray, lam: np.ndarray, V: np.ndarray,
             res: np.ndarray, tol: float,
             fallback: bool) -> SpectralDecomposition:
    """Sort by angle, fix the basis of degenerate eigenspaces, check.

    ``res`` holds the residual of each column of V; the columns the fix
    rotates get theirs anew, the others keep theirs.  The fix works in
    place on V's unsorted columns, so V is permuted once, by the sort
    before the fix composed with the one after it, in place and
    ``_BLOCK`` rows at a time."""
    order = np.argsort(np.angle(lam))
    lam, res = lam[order], res[order]
    position = np.arange(V.shape[0])
    for c in _runs(np.abs(np.diff(lam)) > _DEGENERATE_GAP):
        cols = order[c]
        W = V[:, cols]
        _, Y = np.linalg.eigh(W.conj().T @ (position[:, None] * W))
        V[:, cols] = W = W @ Y
        lam[c], res[c] = _rayleigh(band, W)
    resort = np.argsort(np.angle(lam))
    lam, res, perm = lam[resort], res[resort], order[resort]
    for i in range(0, V.shape[0], _BLOCK):
        V[i : i + _BLOCK] = V[i : i + _BLOCK, perm]
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


def spectrum(op: CMVOperator) -> SpectralDecomposition:
    """Eigenvalues (sorted by angle) and orthonormal eigenvectors, in
    O(N^2) from the one-block transfer step (``_Chain.walk``).

    A unitary truncation has simple spectrum, and the eigenvector at z is
    the solution of the transfer recursion that meets both edge conditions
    (the zeros of a paraorthogonal polynomial).  Three passes find them:

    (i) candidates: the eigenvalues mu of the Hermitian band matrix
        H_phi = (e^(-i phi) E + e^(i phi) E*) / 2 are cos(theta - phi), so
        the 2N angles phi +- arccos mu hold every eigenvalue angle;
    (ii) count: a walk's Pruefer phase counts the eigenvalue angles below
        any theta (``_Chain.count``); counted between the candidates, it
        keeps exactly the true N, both members of a doubled mu included;
    (iii) vectors: for each angle a walk from each edge, joined where their
        ratios agree best (``_twists``, which also refines the angle by one
        Newton step there, and ``_twisted_vectors``); each eigenvalue is
        read back as v* E v.

    Angles closer than ``_CLUSTER_GAP`` on the circle are re-diagonalised
    together (Rayleigh-Ritz: orthonormalise the run, a small complex Schur
    of Q* E Q, then Q rotated by its Schur basis).  The gate: between any
    two consecutive eigenvalues the count must rise by exactly one, which
    catches a lost or doubled eigenvalue that residuals cannot tell from a
    near-degenerate pair.  Eigenvalues closer than ``_DEGENERATE_GAP``
    share one eigenspace at working precision, whose basis is then the one
    diagonalising position.

    One banded product per ``_BLOCK`` columns gives both v* E v and the
    residual ||E v - lambda v||; only the columns that a Rayleigh-Ritz run
    or the degenerate basis rotates get another.  Residuals and moduli
    |lambda| are checked against ``_EIG_TOL``, read at call time.  If the
    gate or either check fails, the dense complex Schur decomposition (diagonal
    for a normal matrix) is checked in its place, and only its failure is
    raised, so no silently wrong pairs are returned.  ``fallback``
    records which path produced the result.
    """
    try:
        return _checked(op.band, *_band_spectrum(op), _EIG_TOL, fallback=False)
    except EigensolverError:
        lam, Z = _schur_spectrum(op.matrix)
        return _checked(op.band, lam, Z, _rayleigh(op.band, Z, lam)[1],
                        _EIG_TOL, fallback=True)


@dataclass(frozen=True)
class EigenvectorProfile:
    index: int
    peak: int  # window coordinate of the peak entry
    shell_masses: tuple[float, ...]
    participation_ratio: float


def eigenvector_profile(op: CMVOperator, decomp: SpectralDecomposition, index):
    """Mass per dyadic distance shell around the peak, plus 1 / sum w^2.

    The peak is the first entry whose weight is within a relative
    ``_PEAK_RTOL`` of the largest.  Shell s = 0 is the peak entry itself;
    shell s >= 1 collects entries at distance in [2^(s-1), 2^s), i.e. the
    distances of bit length s.  Masses sum to 1 for a normalized vector.

    ``index`` is one eigenvector index, or a sequence of them, which gives
    a list of profiles from vectorised passes over blocks of ``_BLOCK``
    vectors (so the temporaries stay small): each
    vector's weights form a contiguous row, summed and binned in the order
    a single one is, so the batch equals the one-by-one profiles bit for
    bit.
    """
    single = np.ndim(index) == 0
    idx = np.atleast_1d(np.asarray(index, dtype=int))
    n = decomp.vectors.shape[0]
    nshell = n.bit_length() + 1
    profiles = []
    for lo in range(0, idx.size, _BLOCK):
        block = idx[lo : lo + _BLOCK]
        w = np.abs(decomp.vectors.T[block]) ** 2  # one C-contiguous row per vector
        w /= w.sum(axis=1, keepdims=True)
        peak = np.argmax(w >= w.max(axis=1, keepdims=True) * (1.0 - _PEAK_RTOL),
                         axis=1)
        m = block.size
        # frexp's exponent of a positive integer is its bit length (0 for 0)
        shell = np.frexp(np.abs(np.arange(n) - peak[:, None]))[1]
        shell += nshell * np.arange(m, dtype=shell.dtype)[:, None]
        masses = np.bincount(shell.ravel(), weights=w.ravel(),
                             minlength=m * nshell).reshape(m, nshell)
        pr = 1.0 / np.sum(w**2, axis=1)
        profiles.extend(
            EigenvectorProfile(
                index=i,
                peak=pk + op.n_min,
                shell_masses=tuple(ms),
                participation_ratio=p,
            )
            for i, pk, ms, p in zip(block.tolist(), peak.tolist(),
                                    masses.tolist(), pr.tolist())
        )
    return profiles[0] if single else profiles
