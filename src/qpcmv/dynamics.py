"""Torus dynamics: rotations on T^d and the skew-shift on T^2.

Iteration is closed-form throughout, so an orbit point at time n costs the
same as at time 1 and no rounding accumulates along orbits.  With Fraction
coordinates every quantity here is exact; with mpf coordinates results are
correct to the working precision.

Repetition searches use the fact that for both systems the displacement
dist(T^(n+q) w, T^n w) is, per coordinate, the distance to the integers of
an arithmetic progression in n.  The maximum of <c + n d> over a discrete
range is computed exactly from the crossing structure instead of scanning
the orbit, which keeps certificates honest even for windows of 10^8 points.

Exact orbit geometry (the re-validation scans here, the tube checks and
lookups of ``sampling``, the orbit table of ``artifacts``) runs on integer
residues through ``integer_map``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .arith import (
    as_fraction,
    common_denominator,
    dist_to_int,
    mod1,
    residue_dist,
    scaled,
    signed_frac,
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
        if omega.dim != 2:
            raise DomainError("skew-shift needs a T^2 point")
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


def integer_kernel(system: TorusDynamics, point: TorusPoint, *extra):
    """(d, point over d, T^n over d) for d the common denominator of the
    system, the point and the rationals ``extra``."""
    if not isinstance(system, Rotation) and point.dim != 2:
        raise DomainError("skew-shift needs a T^2 point")
    freq = system.shift if isinstance(system, Rotation) else (system.a,)
    d = common_denominator(*point.coords, *freq, *extra)
    return d, tuple(scaled(c, d) for c in point.coords), integer_map(system, d)


def scaled_deviations(system: TorusDynamics, omega: TorusPoint, q: int,
                      ns: Sequence[int]):
    """(D, generator of the integers D * dist(T^n w, T^(n+q) w), n in ns).

    Each value comes from direct subtraction of two integer iterates, so
    it is independent of the arithmetic-progression closed form that
    repetition searches use.
    """
    d, c, image = integer_kernel(system, omega)
    return d, (residue_dist(image(c, n), image(c, n + q), d) for n in ns)


# ---------------------------------------------------------------------------
# Exact maximum of <c + n d> over n = 0..N
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class APMax:
    """Max of dist-to-integers along c + n d, n in [0, N].

    When the progression wraps the circle the exact argmax is not located;
    ``lower``/``upper`` then bracket the maximum (the sweep passes within
    one step of a half-integer).  ``exact`` is True when lower == upper is
    the true maximum, attained at ``argmax``.
    """

    lower: Fraction
    upper: Fraction
    argmax: Optional[int]
    exact: bool


def ap_max_dist(c, d, n_max: int) -> APMax:
    c = as_fraction(c)
    d = as_fraction(d)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    s = signed_frac(d)
    c0 = mod1(c)
    if s == 0 or n_max == 0:
        v = dist_to_int(c0)
        return APMax(v, v, 0, True)
    span = n_max * abs(s)
    if span < 1:
        cands = {0, n_max}
        for h in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)):
            t = (h - c0) / s
            if 0 <= t <= n_max:
                n0 = t.numerator // t.denominator
                cands.add(n0)
                if n0 + 1 <= n_max:
                    cands.add(n0 + 1)
        best_v = None
        best_n = 0
        for n in sorted(cands):
            v = dist_to_int(c0 + n * s)
            if best_v is None or v > best_v:
                best_v, best_n = v, n
        return APMax(best_v, best_v, best_n, True)
    # Full wrap: consecutive points are |s| apart and sweep past every half
    # integer, so the max is within |s|/2 of 1/2.
    lower = Fraction(1, 2) - abs(s) / 2
    return APMax(lower, Fraction(1, 2), None, False)


# ---------------------------------------------------------------------------
# Repetition certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepetitionCertificate:
    """Measured near-repetition of an orbit after an even time shift.

    max_deviation is the measured max over n = 0..window of
    dist(T^n w, T^(n+q) w); ``threshold`` is the bound it was certified
    against (epsilon for plain searches, 5*epsilon for the skew-shift
    construction).  ``deviation_upper`` differs from max_deviation only
    when the maximum was bracketed rather than located.
    """

    q: int
    epsilon: Fraction
    window_factor: Fraction
    window: int
    threshold: Fraction
    max_deviation: Fraction
    deviation_upper: Fraction
    argmax: Optional[int]
    exact: bool
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
        if not self.deviation_upper < self.threshold:
            raise DomainError(
                f"deviation {float(self.deviation_upper)} not below "
                f"threshold {float(self.threshold)}"
            )


def _orbit_deviation(system: TorusDynamics, omega: TorusPoint, q: int,
                     window: int):
    """(lower, upper, argmax, exact) for max_n dist(T^n w, T^(n+q) w)."""
    if isinstance(system, Rotation):
        v = max(dist_to_int(q * s) for s in system.shift)
        return v, v, 0, True
    a = system.a
    w1 = omega.coords[0]
    coord1 = dist_to_int(2 * q * a)
    c = q * w1 + q * q * a - q * a
    d = 2 * q * a
    m = ap_max_dist(c, d, window)
    if m.exact:
        if m.lower >= coord1:
            return m.lower, m.lower, m.argmax, True
        return coord1, coord1, 0, True
    lower = max(coord1, m.lower)
    upper = max(coord1, m.upper)
    return lower, upper, m.argmax, False


def _scan_deviation(system: TorusDynamics, omega: TorusPoint, q: int,
                    window: int, samples: Optional[Sequence[int]] = None):
    """Independent orbit scan: (max, first argmax) over n in ``samples``
    (default 0..window) of the exact deviation, from integer iterates."""
    ns = range(window + 1) if samples is None else samples
    d, devs = scaled_deviations(system, omega, q, ns)
    k, n = max(zip(devs, ns), key=lambda kn: kn[0])
    return Fraction(k, d), n


def _validate_certificate(system, omega, q, window, dev_upper, argmax,
                          exact, rng_seed=1):
    if window <= FULL_SCAN_CAP:
        scan_max, scan_arg = _scan_deviation(system, omega, q, window)
        if exact and scan_max != dev_upper:
            raise PrecisionError(
                "orbit-scan revalidation disagrees with closed-form maximum"
            )
        if not exact and scan_max > dev_upper:
            raise PrecisionError("orbit scan exceeded the bracketed maximum")
        return "full-scan"
    r = random.Random(rng_seed)
    spots = {0, window}
    if argmax is not None:
        spots |= {max(argmax - 1, 0), argmax, min(argmax + 1, window)}
    spots |= {r.randrange(window + 1) for _ in range(_SPOT_SAMPLES)}
    scan_max, _ = _scan_deviation(system, omega, q, window, sorted(spots))
    if scan_max > dev_upper:
        raise PrecisionError("spot scan exceeded the certified maximum")
    if exact and argmax is not None:
        v, _ = _scan_deviation(system, omega, q, window, [argmax])
        if v != dev_upper:
            raise PrecisionError("closed-form argmax value failed revalidation")
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

    For rotations the per-q test is the O(1) shortcut max_i <q a_i>, which
    equals the orbit scan because rotation displacements do not depend on
    n; the returned certificate is still re-validated by an independent
    scan.
    """
    epsilon = as_fraction(epsilon)
    s = as_fraction(s)
    if epsilon <= 0 or s <= 0:
        raise DomainError("epsilon and s must be positive")
    if parity not in ("even", "any"):
        raise DomainError("parity must be 'even' or 'any'")
    step = 2 if parity == "even" else 1
    start = 2 if parity == "even" else 1
    for q in range(start, q_max + 1, step):
        window = int((s * q).numerator // (s * q).denominator)
        lower, upper, argmax, exact = _orbit_deviation(system, omega, q, window)
        if upper < epsilon:
            validated = _validate_certificate(
                system, omega, q, window, upper, argmax, exact
            )
            return RepetitionCertificate(
                q=q,
                epsilon=epsilon,
                window_factor=s,
                window=window,
                threshold=epsilon,
                max_deviation=lower,
                deviation_upper=upper,
                argmax=argmax,
                exact=exact,
                validated=validated,
                parity=parity,
            )
        if lower >= epsilon:
            continue
        # Bracket straddles epsilon: settle by exact scan if feasible.
        if window <= FULL_SCAN_CAP:
            scan_max, scan_arg = _scan_deviation(system, omega, q, window)
            if scan_max < epsilon:
                return RepetitionCertificate(
                    q=q,
                    epsilon=epsilon,
                    window_factor=s,
                    window=window,
                    threshold=epsilon,
                    max_deviation=scan_max,
                    deviation_upper=scan_max,
                    argmax=scan_arg,
                    exact=True,
                    validated="full-scan",
                    parity=parity,
                )
        else:
            raise PrecisionError(
                f"cannot settle repetition test at q={q}: maximum bracketed "
                f"across epsilon and window {window} exceeds the scan cap"
            )
    return None


@dataclass(frozen=True)
class SkewRepetitionTimes:
    """Outcome of the multiplier construction for skew-shift repetition.

    certificates hold the levels whose measured deviation beat 5 epsilon;
    rejected holds (level, base_q, m, q_tilde, deviation_lower) for the
    levels that did not (expected for small levels, where the designated
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
        window = int((r * q_tilde).numerator // (r * q_tilde).denominator)
        lower, upper, argmax, exact = _orbit_deviation(
            system, omega, q_tilde, window
        )
        if not exact and lower < threshold <= upper and window <= FULL_SCAN_CAP:
            # bracket straddles the bound: settle by exact scan
            scan_max, argmax = _scan_deviation(system, omega, q_tilde, window)
            lower = upper = scan_max
            exact = True
        if upper < threshold:
            validated = _validate_certificate(
                system, omega, q_tilde, window, upper, argmax, exact
            )
            certs.append(
                RepetitionCertificate(
                    q=q_tilde,
                    epsilon=epsilon,
                    window_factor=r,
                    window=window,
                    threshold=threshold,
                    max_deviation=lower,
                    deviation_upper=upper,
                    argmax=argmax,
                    exact=exact,
                    validated=validated,
                    m=m_sel,
                    base_q=q_even,
                    level=level,
                )
            )
        else:
            rejected.append((level, q_even, m_sel, q_tilde, float(lower)))
    return SkewRepetitionTimes(
        epsilon=epsilon,
        window_factor=r,
        m_range=m_top,
        certificates=tuple(certs),
        rejected=tuple(rejected),
    )
