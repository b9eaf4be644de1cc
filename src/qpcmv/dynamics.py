"""Torus dynamics: rotations on T^d and the skew-shift on T^2.

Iteration is closed-form throughout, so an orbit point at time n costs the
same as at time 1 and no rounding accumulates along orbits.  With Fraction
coordinates every quantity here is exact; with mpf coordinates results are
correct to the working precision.

Repetition searches use the fact that for both systems the displacement
dist(T^(n+q) w, T^n w) is, per coordinate, the distance to the integers of
an arithmetic progression in n.  The maximum of <c + n d> over a discrete
range, and its first argmax, are computed exactly by a Euclid-style walk
instead of scanning the orbit, so every certificate is exact and a window
of 10^8 points costs about as much as a short one.

Exact orbit geometry (the re-validation scans here, the tube checks and
lookups of ``sampling``, the orbit table of ``artifacts``) runs on integer
residues: ``integer_map`` jumps to any time in closed form, and
``integer_orbit`` walks consecutive times by one addition step each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Optional, Sequence, Union

from .arith import (
    as_fraction,
    circle_dist,
    common_denominator,
    dist_to_int,
    mod1,
    residue_dist,
    scaled,
)
from .errors import DomainError, PrecisionError
from .frequency import Frequency

# Windows at most this long are re-validated by a full independent orbit
# scan; larger ones get endpoint/argmax/random spot checks.
FULL_SCAN_CAP = 20_000
_SPOT_SAMPLES = 128


@dataclass(frozen=True)
class TorusPoint:
    coords: tuple

    def __init__(self, coords: Sequence):
        object.__setattr__(self, "coords", tuple(mod1(c) for c in coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def dist(self, other: "TorusPoint"):
        """Torus distance: max over coordinates of distance to integers."""
        if self.dim != other.dim:
            raise DomainError("dimension mismatch")
        return max(
            dist_to_int(a - b) for a, b in zip(self.coords, other.coords)
        )

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coords)

    @staticmethod
    def exact(*coords) -> "TorusPoint":
        return TorusPoint([as_fraction(c) for c in coords])


class Rotation:
    """w -> w + shift on T^d."""

    kind = "rotation"

    def __init__(self, shift: Sequence):
        self.shift = tuple(mod1(s) for s in shift)
        self.dim = len(self.shift)

    def iterate(self, omega: TorusPoint, n: int) -> TorusPoint:
        _require_dim(self, omega)
        return TorusPoint([c + n * s for c, s in zip(omega.coords, self.shift)])

    def __repr__(self):
        return f"Rotation(shift={tuple(map(float, self.shift))})"


class SkewShift:
    """(w1, w2) -> (w1 + 2a, w1 + w2) on T^2."""

    kind = "skew"
    dim = 2

    def __init__(self, a):
        self.a = mod1(a)

    def iterate(self, omega: TorusPoint, n: int) -> TorusPoint:
        _require_dim(self, omega)
        w1, w2 = omega.coords
        return TorusPoint([w1 + 2 * n * self.a, w2 + n * w1 + n * (n - 1) * self.a])

    def __repr__(self):
        return f"SkewShift(a={float(self.a)})"


TorusDynamics = Union[Rotation, SkewShift]


def iterate(system: TorusDynamics, omega: TorusPoint, n: int) -> TorusPoint:
    """n-th image of omega (n may be negative); closed form, one mod per coord."""
    return system.iterate(omega, n)


def block_displacement(system: SkewShift, omega: TorusPoint, n: int, q: int) -> TorusPoint:
    """T^(n+q) w - T^n w for the skew-shift, by the closed formula.

    Must agree with direct subtraction of iterates; q = 0 gives (0, 0).
    """
    if not isinstance(system, SkewShift):
        raise DomainError("block_displacement is specific to the skew-shift")
    if q < 0:
        raise DomainError("q must be >= 0")
    w1, _ = omega.coords
    a = system.a
    return TorusPoint([2 * q * a, q * w1 + q * q * a + 2 * n * q * a - q * a])


# ---------------------------------------------------------------------------
# Integer residues
# ---------------------------------------------------------------------------
#
# Exact orbit geometry runs on integers: every coordinate involved is a
# multiple of 1/D for one shared denominator D, so a torus point is a tuple
# of residues mod D, equality on the torus is equality of residues and
# D * dist_to_int(x / D) is circle_dist(x, D).


def integer_map(system: TorusDynamics, d: int):
    """Closed-form T^n on residues over d: ``image(p, n)``, n of any sign.

    ``p`` may hold exact Fractions (points off the 1/d grid); the image is
    then an exact rational residue too.
    """
    if isinstance(system, Rotation):
        shift = [scaled(s, d) for s in system.shift]

        def image(p, n):
            return tuple((c + n * s) % d for c, s in zip(p, shift))

        return image
    a = scaled(system.a, d)

    def image(p, n):
        p1, p2 = p
        return ((p1 + 2 * n * a) % d, (p2 + n * p1 + n * (n - 1) * a) % d)

    return image


def integer_orbit(system: TorusDynamics, d: int, p, n_from: int, n_to: int):
    """Iterator over the residues T^n p over d for n = n_from..n_to: the
    closed form at n_from, then one step T per time, by additions reduced
    mod d.  A rotation steps each coordinate on its own (x + s); the
    skew-shift couples them ((x + 2a, y + x))."""
    count = n_to - n_from
    if count < 0:
        return iter(())
    start = integer_map(system, d)(p, n_from)
    if isinstance(system, Rotation):
        def add(x, s):
            return (x + s) % d

        return zip(*(
            accumulate(repeat(scaled(s, d), count), add, initial=x)
            for x, s in zip(start, system.shift)
        ))
    two_a = 2 * scaled(system.a, d)

    def step(p, _):
        p1, p2 = p
        return ((p1 + two_a) % d, (p2 + p1) % d)

    return accumulate(repeat(None, count), step, initial=start)


def _require_dim(system: TorusDynamics, point: TorusPoint):
    """DomainError unless the point has one coordinate per dimension of the
    system's torus."""
    if point.dim != system.dim:
        raise DomainError(f"{system.kind} on T^{system.dim} needs a point "
                          f"with {system.dim} coordinates, got {point.dim}")


def integer_kernel(system: TorusDynamics, point: TorusPoint, *extra):
    """(d, point over d, T^n over d) for d the common denominator of the
    system, the point and the rationals ``extra``."""
    _require_dim(system, point)
    freq = system.shift if isinstance(system, Rotation) else (system.a,)
    d = common_denominator(*point.coords, *freq, *extra)
    return d, tuple(scaled(c, d) for c in point.coords), integer_map(system, d)


def scaled_deviations(system: TorusDynamics, omega: TorusPoint, q: int,
                      ns: Sequence[int]):
    """(D, generator of the integers D * dist(T^n w, T^(n+q) w), n in ns).

    Each value comes from direct subtraction of two integer iterates, so
    it is independent of the arithmetic-progression closed form that
    repetition searches use.  Over a range of consecutive n the two orbits
    are walked step by step; other n are jumped to in closed form.
    """
    d, c, image = integer_kernel(system, omega)
    if isinstance(ns, range) and ns.step == 1:
        first, last = ns.start, ns.stop - 1
        pairs = zip(integer_orbit(system, d, c, first, last),
                    integer_orbit(system, d, c, first + q, last + q))
    else:
        pairs = ((image(c, n), image(c, n + q)) for n in ns)
    return d, (residue_dist(x, y, d) for x, y in pairs)


# ---------------------------------------------------------------------------
# Exact maximum of <c + n d> over n = 0..N
# ---------------------------------------------------------------------------
#
# Over the common denominator D of c and d, with M = 2D, the point c + n d
# lies at distance (D - m_n) / (2D) from the integers, where m_n is the
# circle distance to 0 of (b + n a) mod M for a = 2 dD and b = 2 cD - D.
# Maximising the distance is minimising m_n: the smaller of the minima of
# (a n + b) mod M and (-a n - b) mod M.  Each minimum is found by walking
# its record lows, one Euclid descent per change of step.


def _first_hit(a: int, m: int, lo: int, hi: int) -> Optional[int]:
    """Smallest k >= 1 with lo <= a k mod m <= hi (1 <= lo <= hi < m), or
    None.  Each round at least halves the modulus."""
    frames = []
    while True:
        a %= m
        if a == 0:
            return None
        if 2 * a > m:
            # a k mod m = m - (m - a) k mod m away from 0, and lo >= 1
            a, lo, hi = m - a, m - hi, m - lo
        k = -(-lo // a)
        if a * k <= hi:
            break
        # a k = lo' + m y with lo <= lo' <= hi: the smallest y solves the
        # same problem for (-m) y mod a, since [lo, hi] holds no multiple of a
        frames.append((lo, m, a))
        a, m, lo, hi = -m % a, a, lo % a, hi % a
    for lo, m, a in reversed(frames):
        k = -(-(lo + m * k) // a)
    return k


def _ap_min(a: int, b: int, m: int, n_max: int) -> tuple[int, int]:
    """(min, first argmin) of (a n + b) mod m over n = 0..n_max."""
    x, v = 0, b % m
    while v:
        # the next record low is k steps on, k the first with a k mod m
        # in [m - v, m - 1]; that step keeps lowering v while v >= delta
        k = _first_hit(a, m, m - v, m - 1)
        if k is None or x + k > n_max:
            break
        delta = m - a * k % m
        j = min(v // delta, (n_max - x) // k)
        x, v = x + j * k, v - j * delta
    return v, x


@dataclass(frozen=True)
class APMax:
    """Max of dist-to-integers along c + n d, n in [0, N], attained first at
    ``argmax``."""

    value: Fraction
    argmax: int


def ap_max_dist(c, d, n_max: int) -> APMax:
    c = as_fraction(c)
    d = as_fraction(d)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    den = common_denominator(c, d)
    m = 2 * den
    a = 2 * scaled(d, den) % m
    b = (2 * scaled(c, den) - den) % m
    low, n = min(_ap_min(a, b, m, n_max), _ap_min(-a % m, -b % m, m, n_max))
    return APMax(Fraction(den - low, m), n)


# ---------------------------------------------------------------------------
# Repetition certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionCertificate:
    """Measured near-repetition of an orbit after an even time shift.

    max_deviation is the exact max over n = 0..window of
    dist(T^n w, T^(n+q) w), first attained at ``argmax``; ``threshold`` is
    the bound it was certified against (epsilon for plain searches,
    5*epsilon for the skew-shift construction).
    """

    q: int
    epsilon: Fraction
    window_factor: Fraction
    window: int
    threshold: Fraction
    max_deviation: Fraction
    argmax: int
    validated: str = "none"
    m: Optional[int] = None
    base_q: Optional[int] = None
    level: Optional[int] = None
    parity: str = "even"

    def __post_init__(self):
        if self.parity == "even" and (self.q < 2 or self.q % 2 != 0):
            raise DomainError("certificate period must be even and >= 2")
        if self.q < 1:
            raise DomainError("certificate period must be >= 1")
        if not self.max_deviation < self.threshold:
            raise DomainError(
                f"deviation {float(self.max_deviation)} not below "
                f"threshold {float(self.threshold)}"
            )


def _orbit_deviation(system: SkewShift, omega: TorusPoint, q: int,
                     window: int) -> tuple[Fraction, int]:
    """(max, first argmax) over n = 0..window of dist(T^n w, T^(n+q) w)
    for the skew-shift: the exact progression maximum."""
    a = system.a
    w1 = omega.coords[0]
    coord1 = dist_to_int(2 * q * a)
    m = ap_max_dist(q * w1 + q * q * a - q * a, 2 * q * a, window)
    # the first coordinate is constant in n, so it is already attained at 0
    if m.value > coord1:
        return m.value, m.argmax
    return coord1, 0


def _scan_deviation(system: TorusDynamics, omega: TorusPoint, q: int,
                    window: int, samples: Optional[Sequence[int]] = None):
    """Independent orbit scan: (max, first argmax) over n in ``samples``
    (default 0..window) of the exact deviation, from integer iterates."""
    ns = range(window + 1) if samples is None else samples
    d, devs = scaled_deviations(system, omega, q, ns)
    k, n = max(zip(devs, ns), key=lambda kn: kn[0])
    return Fraction(k, d), n


def _validate_certificate(system, omega, q, window, deviation, argmax):
    """Re-check a closed-form maximum against integer iterates: a full scan
    up to FULL_SCAN_CAP points, else the endpoints, the argmax and its
    neighbours and seeded random spots."""
    if window <= FULL_SCAN_CAP:
        scan = _scan_deviation(system, omega, q, window)
        if scan != (deviation, argmax):
            raise PrecisionError(
                "orbit-scan revalidation disagrees with closed-form maximum"
            )
        return "full-scan"
    r = random.Random(1)
    spots = {0, window, max(argmax - 1, 0), argmax, min(argmax + 1, window)}
    spots |= {r.randrange(window + 1) for _ in range(_SPOT_SAMPLES)}
    scan_max, _ = _scan_deviation(system, omega, q, window, sorted(spots))
    if scan_max != deviation:
        raise PrecisionError("spot scan disagrees with the closed-form maximum")
    return "spot-scan"


def find_even_repetition(
    system: TorusDynamics,
    omega: TorusPoint,
    epsilon,
    s,
    q_max: int,
    parity: str = "even",
) -> Optional[RepetitionCertificate]:
    """Smallest (even) q <= q_max with dist(w_n, w_(n+q)) < epsilon for
    n = 0..floor(s q), or None.

    For rotations the per-q test is the O(1) shortcut max_i <q a_i>, on
    the integer residues of the shift, which equals the orbit scan because
    rotation displacements do not depend on n; for the skew-shift it is the
    exact progression maximum.  The returned certificate is re-validated by
    an independent scan.
    """
    epsilon = as_fraction(epsilon)
    s = as_fraction(s)
    if epsilon <= 0 or s <= 0:
        raise DomainError("epsilon and s must be positive")
    _require_dim(system, omega)
    if parity not in ("even", "any"):
        raise DomainError("parity must be 'even' or 'any'")
    step = 2 if parity == "even" else 1
    start = 2 if parity == "even" else 1
    rotation = isinstance(system, Rotation)
    if rotation:
        d = common_denominator(*system.shift)
        shift = [scaled(x, d) for x in system.shift]
    for q in range(start, q_max + 1, step):
        window = s.numerator * q // s.denominator
        if rotation:
            # max_i <q s_i> = circle_dist(q S_i, d) / d, attained at n = 0;
            # compared with epsilon cross-multiplied
            k = max(circle_dist(q * x, d) for x in shift)
            if k * epsilon.denominator >= epsilon.numerator * d:
                continue
            deviation, argmax = Fraction(k, d), 0
        else:
            deviation, argmax = _orbit_deviation(system, omega, q, window)
            if deviation >= epsilon:
                continue
        return RepetitionCertificate(
            q=q,
            epsilon=epsilon,
            window_factor=s,
            window=window,
            threshold=epsilon,
            max_deviation=deviation,
            argmax=argmax,
            validated=_validate_certificate(
                system, omega, q, window, deviation, argmax
            ),
            parity=parity,
        )
    return None


@dataclass(frozen=True)
class SkewRepetitionTimes:
    """Outcome of the multiplier construction for skew-shift repetition.

    certificates hold the levels whose exact deviation beat 5 epsilon;
    rejected holds (level, base_q, m, q_tilde, deviation) for the levels
    that did not (expected for small levels, where the designated
    denominators are not yet good enough).
    """

    epsilon: Fraction
    window_factor: Fraction
    m_range: int
    certificates: tuple[RepetitionCertificate, ...]
    rejected: tuple[tuple[int, int, int, int, float], ...]


def skew_repetition_times(
    freq: Frequency,
    omega: TorusPoint,
    epsilon,
    r,
    system: Optional[SkewShift] = None,
) -> SkewRepetitionTimes:
    """Even repetition times m_k q_k for the skew-shift with frequency a.

    Each designated denominator q_k of ``freq`` (doubled if odd) is scaled
    by the smallest multiplier m_k in {1, ..., floor(1/eps)+1} that makes
    <q~ w1> < eps; the certificate then measures the full displacement over
    n = 0..floor(r q~) against the 5 eps bound.
    """
    epsilon = as_fraction(epsilon)
    r = as_fraction(r)
    if epsilon <= 0 or r <= 0:
        raise DomainError("epsilon and r must be positive")
    if not freq.designated_denominators:
        raise DomainError("frequency carries no designated denominators")
    if system is None:
        system = SkewShift(freq.value)
    _require_dim(system, omega)
    w1 = omega.coords[0]
    m_top = int(1 / epsilon) + 1
    threshold = 5 * epsilon
    certs = []
    rejected = []
    for level, q0 in enumerate(freq.designated_denominators, start=1):
        q_even = q0 if q0 % 2 == 0 else 2 * q0
        base = q_even * w1
        m_sel = None
        for m in range(1, m_top + 1):
            if dist_to_int(m * base) < epsilon:
                m_sel = m
                break
        if m_sel is None:
            # Pigeonhole guarantees a multiplier exists; reaching this
            # branch means the arithmetic itself is broken.
            raise PrecisionError(
                f"no multiplier in 1..{m_top} at level {level}; "
                "coordinate precision exhausted"
            )
        q_tilde = m_sel * q_even
        window = r.numerator * q_tilde // r.denominator
        deviation, argmax = _orbit_deviation(system, omega, q_tilde, window)
        if deviation < threshold:
            certs.append(
                RepetitionCertificate(
                    q=q_tilde,
                    epsilon=epsilon,
                    window_factor=r,
                    window=window,
                    threshold=threshold,
                    max_deviation=deviation,
                    argmax=argmax,
                    validated=_validate_certificate(
                        system, omega, q_tilde, window, deviation, argmax
                    ),
                    m=m_sel,
                    base_q=q_even,
                    level=level,
                )
            )
        else:
            rejected.append((level, q_even, m_sel, q_tilde, float(deviation)))
    return SkewRepetitionTimes(
        epsilon=epsilon,
        window_factor=r,
        m_range=m_top,
        certificates=tuple(certs),
        rejected=tuple(rejected),
    )
