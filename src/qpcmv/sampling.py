"""Sampling functions on the torus and the coefficient windows they generate.

A sampling function maps the torus into the open unit disk; evaluating it
along an orbit produces a window of Verblunsky coefficients.  Besides two
analytic families this module builds the piecewise "tube" functions that
are constant on the orbit tubes  U_l T^(j+lq) B  of a small ball B, the
construction that turns an even repetition time of the dynamics into an
exactly q-periodic stretch of coefficients.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Optional, Sequence

import numpy as np

from .arith import (
    as_fraction,
    circle_diameter,
    circle_dist,
    common_denominator,
    residue_dist,
    scaled,
)
from .artifacts import read_csv, write_verblunsky_csv
from .dynamics import (
    Rotation,
    TorusDynamics,
    TorusPoint,
    integer_kernel,
    integer_orbit,
    iterate,
)
from .errors import (
    ConstructionError,
    DegenerateOrbitError,
    DomainError,
    InvariantViolation,
    WindowError,
)

_RADIUS_FLOOR = Fraction(1, 10**30)
_RADIUS_MARGIN = Fraction(99, 100)  # stay off the exact disjointness bound


# ---------------------------------------------------------------------------
# Sampling functions
# ---------------------------------------------------------------------------


class _ResidueEvaluated:
    """Evaluation on integer residues, shared by the sampling functions.

    ``at_residues(p, d)`` is the value at the torus point p / d, for p a
    tuple of residues mod d: ints, or exact Fractions for a point off the
    1/d grid.  ``denominator(d0)`` is the d a function evaluates on when
    its points lie on the 1/d0 grid: d0 itself, unless the function holds
    its own (a ``TubeFunction``).  Calling the function on a TorusPoint
    scales the point to those residues and evaluates them, so each class
    has one evaluation body, and ``verblunsky_window`` walks an orbit on
    residues without building a point.
    """

    def denominator(self, d0: int) -> int:
        return d0

    def __call__(self, point: TorusPoint) -> complex:
        d = self.denominator(common_denominator(*point.coords))
        return self.at_residues(tuple(scaled(x, d) for x in point.coords), d)


class ConstantFunction(_ResidueEvaluated):
    """f == c."""

    def __init__(self, value: complex):
        value = complex(value)
        if not abs(value) < 1:
            raise DomainError("constant value must lie in the open unit disk")
        self.value = value
        self.sup_norm = abs(value)

    def at_residues(self, p, d: int) -> complex:
        return self.value


class HarmonicFunction(_ResidueEvaluated):
    """f(w) = coefficient * exp(2 pi i w_1), w_1 the first coordinate.

    sup |f| = |coefficient| exactly, so the norm needs no grid.
    """

    def __init__(self, coefficient: complex):
        coefficient = complex(coefficient)
        if not abs(coefficient) < 1:
            raise DomainError("coefficient must lie in the open unit disk")
        self.coefficient = coefficient
        self.sup_norm = abs(coefficient)

    def at_residues(self, p, d: int) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        phase = float(p[0] / d)
        return self.coefficient * cmath.exp(2j * math.pi * phase)


class TentBump(_ResidueEvaluated):
    """h * max(0, 1 - dist(x, x0)/radius): a tent supported on a ball."""

    def __init__(self, center: TorusPoint, radius, amplitude: complex):
        self.center = center
        self.radius = as_fraction(radius)
        self.amplitude = complex(amplitude)
        if self.radius <= 0:
            raise DomainError("bump radius must be positive")

    def at_residues(self, p, d: int) -> complex:
        if len(p) != self.center.dim:
            raise DomainError("dimension mismatch")
        # d * dist and d * radius, exact; their ratio is dist / radius
        k = residue_dist(p, [scaled(c, d) for c in self.center.coords], d)
        r = scaled(self.radius, d)
        if k >= r:
            return 0j
        return self.amplitude * (1.0 - float(k / r))


class PerturbedFunction(_ResidueEvaluated):
    """base + bump, with the triangle-inequality norm bound."""

    def __init__(self, base, bump: TentBump):
        self.base = base
        self.bump = bump
        self.sup_norm = base.sup_norm + abs(bump.amplitude)
        if not self.sup_norm < 1:
            raise DomainError("perturbation pushes the range onto the circle")

    def denominator(self, d0: int) -> int:
        # the bump is exact over any denominator
        return self.base.denominator(d0)

    def at_residues(self, p, d: int) -> complex:
        return self.base.at_residues(p, d) + self.bump.at_residues(p, d)


# ---------------------------------------------------------------------------
# Ball radius for the orbit-tube construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallRadiusReport:
    radius: Fraction
    min_center_gap: Fraction
    tube_spread: Fraction
    disjoint_bound: Fraction
    containment_bound: Fraction
    verified: bool
    denominator_bits: int


def ball_radius(
    system: TorusDynamics,
    center: TorusPoint,
    q: int,
    epsilon,
    grid: int = 8,
) -> BallRadiusReport:
    """Radius r such that the closed images T^n B(c,r), n = 1..5q, are
    pairwise disjoint and every tube U_{l=0..4} T^(j+lq) B fits in a ball
    of radius 5 epsilon.

    Disjointness and containment are derived from exact center separations
    plus the bounding-box growth of the dynamics (rotations are isometries;
    the skew-shift shears the second coordinate by the iteration count),
    then re-verified on a boundary grid of the ball by :func:`verify_ball`.
    Only the centre pairs whose first coordinates lie within the smallest
    gap found so far are compared.  Every separation and bound is computed
    on integers over one common denominator D (of the centre, the frequency
    and 10 epsilon) and returned as an exact Fraction; ``denominator_bits``
    is the bit length of the D the verification ran on (which also covers
    the radius and the boundary grid).
    """
    epsilon = as_fraction(epsilon)
    if q < 1:
        raise DomainError("q must be >= 1")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")

    rotation = isinstance(system, Rotation)
    d, c, _ = integer_kernel(system, center, 10 * epsilon)
    orbit = list(integer_orbit(system, d, c, 0, 5 * q))

    # T^n B stays in a box of half-width r in every coordinate, except the
    # skew-shift's second, sheared to (n + 1) r.  Balls i and j are apart
    # once one circle gap s_k exceeds w_k r, the sum of their half-widths,
    # so the pair bound is max_k s_k / w_k, kept as an integer (numerator,
    # denominator) and compared cross-multiplied.  With w_1 = 2 it is at
    # least s_1 / 2 and at most half the pair's gap, so pairs whose first
    # coordinates are more than min_gap apart cannot lower it.
    min_gap, bound = d, (d, 1)
    for i, j in _BallCentres(orbit, d).close_pairs(lambda: min_gap):
        gaps = [circle_dist(x - y, d) for x, y in zip(orbit[i], orbit[j])]
        if max(gaps) == 0:
            raise DegenerateOrbitError(
                f"orbit points {min(i, j)} and {max(i, j)} collide within "
                "the 5q horizon"
            )
        min_gap = min(min_gap, max(gaps))
        weights = (2,) * len(gaps) if rotation else (2, i + j + 2)
        pair = (0, 1)
        for s, w in zip(gaps, weights):
            if s * pair[1] > pair[0] * w:
                pair = (s, w)
        if pair[0] * bound[1] < bound[0] * pair[1]:
            bound = pair
    disjoint_bound = Fraction(bound[0], bound[1] * d)

    # room left in the 5 epsilon ball is (10 epsilon d - spread) / (2 d); the
    # skew-shift shears the box of ball n = j + 4q, so divides it by n + 1
    ten_eps = scaled(10 * epsilon, d)
    contain: Optional[tuple[int, int]] = None
    spread_max = 0
    for j, spread in enumerate(_tube_spreads(orbit, q, d, rotation), start=1):
        spread_max = max(spread_max, spread)
        room = ten_eps - spread
        if room <= 0:
            raise DegenerateOrbitError(
                f"tube {j} centers alone spread beyond the 5*epsilon ball"
            )
        w = 2 if rotation else 2 * (j + 4 * q + 1)
        if contain is None or room * contain[1] < contain[0] * w:
            contain = (room, w)
    contain_bound = Fraction(contain[0], contain[1] * d)

    radius = min(disjoint_bound * _RADIUS_MARGIN, contain_bound, Fraction(1, 8))
    if radius < _RADIUS_FLOOR:
        raise DegenerateOrbitError("no positive radius above the precision floor")
    if not verify_ball(system, center, q, epsilon, radius, grid):
        raise DegenerateOrbitError("boundary-grid verification failed")
    return BallRadiusReport(
        radius=radius,
        min_center_gap=Fraction(min_gap, d),
        tube_spread=Fraction(spread_max, d),
        disjoint_bound=disjoint_bound,
        containment_bound=contain_bound,
        verified=True,
        denominator_bits=_sample_kernel(
            system, center, epsilon, radius, grid)[0].bit_length(),
    )


def _tube_spreads(orbit, q: int, d: int, rotation: bool) -> list[int]:
    """d * the largest distance between two centres T^(j+lq) c, l = 0..4,
    of tube j, for j = 1..q.  A rotation moves every tube rigidly, and the
    centres l and l + k of a tube are k q S apart, so each of its spreads
    is the largest distance from T^(kq) c to c, k = 1..4."""
    if rotation:
        return [max(residue_dist(orbit[k * q], orbit[0], d)
                    for k in range(1, 5))] * q
    return [
        max(residue_dist(a, b, d) for a, b in combinations(orbit[j::q], 2))
        for j in range(1, q + 1)
    ]


class _BallCentres:
    """The ball centres T^n c, n = 1..N, held as residues mod d and sorted
    by their first coordinate.  Two balls, or a ball and a point, are
    within a max-metric distance only if their first coordinates are, so
    the point lookup and the pair checks each read one stretch of this
    order."""

    def __init__(self, orbit, d: int):
        self.d = d
        self.order = sorted(range(1, len(orbit)), key=lambda n: orbit[n][0])
        self.firsts = [orbit[n][0] for n in self.order]

    def window(self, x, half) -> list[int]:
        """Balls n whose first residue lies within ``half`` of the residue
        x on the circle mod d (a bisection)."""
        d = self.d
        if 2 * half >= d:
            return self.order
        lo, hi = (x - half) % d, (x + half) % d
        i, j = bisect_left(self.firsts, lo), bisect_right(self.firsts, hi)
        if lo <= hi:
            return self.order[i:j]
        return self.order[i:] + self.order[:j]

    def close_pairs(self, limit):
        """Pairs (i, j) of balls whose first residues are at most
        ``limit()`` apart on the circle.  From every ball a forward walk,
        wrapping past d, stops at the first gap above ``limit()``, which is
        read again after every pair."""
        order, count = self.order, len(self.order)
        # the first residues, then once more one turn up
        firsts = self.firsts + [x + self.d for x in self.firsts]
        for a in range(count):
            for b in range(a + 1, a + count):
                if firsts[b] - firsts[a] > limit():
                    break
                yield order[a], order[b % count]


def _grid(radius: Fraction, grid: int) -> list[Fraction]:
    """``grid`` equally spaced values from -radius to radius; 0 alone for
    grid <= 1."""
    if grid > 1:
        return [radius * Fraction(2 * t, grid - 1) - radius for t in range(grid)]
    return [Fraction(0)]


def _boundary_offsets(dim: int, radius: Fraction, grid: int):
    """Offsets from the center to boundary grid points of a max-metric ball."""
    if dim == 1:
        return [(-radius,), (radius,)]
    if dim == 2:
        offs = []
        for t in _grid(radius, grid):
            for e in (-radius, radius):
                offs.append((t, e))
                offs.append((e, t))
        return offs
    raise DomainError("boundary grid implemented for d <= 2")


def _sample_kernel(system, center, epsilon, radius, grid: int):
    """(D, the centre's residues, the image map, the sample offsets over D)
    for the samples of B(center, radius): the distinct boundary offsets
    (corners appear twice) and the centre.  D is the common denominator of
    the centre, the frequency, the offsets and 10 epsilon."""
    offsets = _boundary_offsets(center.dim, radius, grid)
    offsets = list(dict.fromkeys(offsets + [(Fraction(0),) * center.dim]))
    d, c, image = integer_kernel(
        system, center, 10 * epsilon, *chain.from_iterable(offsets)
    )
    return d, c, image, [tuple(scaled(x, d) for x in off) for off in offsets]


def verify_ball(system, center, q, epsilon, radius, grid: int = 8) -> bool:
    """Grid re-verification of disjointness and 5-epsilon containment.

    Samples are the centre and the boundary grid points of B(center,
    radius).  False if a sample of T^i B equals a sample of T^j B exactly
    (i != j in 1..5q) or two samples of one tube U_l T^(j+lq) B are more
    than min(10 epsilon, 1/2) apart.  The checks are exact, on integers
    over the common denominator D of the centre, the frequency, the
    samples and 10 epsilon.  Skew-shift images are hashed by their residues
    mod D, so collisions cost one lookup per sample, and each tube's
    diameter is the largest of its one-coordinate circle diameters, each
    found by sorting the distinct residues and bisecting for the residue
    next to each antipode (``circle_diameter``), O(m log m) for m samples
    instead of all pairs.  A rotation compares the index gaps m * shift
    with the distinct offset differences, and its tube diameter needs only
    the shifts k q, k = -4..4.

    Sampling can only falsify; a False here means the analytic bounds were
    wrong, so callers treat it as fatal.
    """
    epsilon = as_fraction(epsilon)
    d, c, image, offsets = _sample_kernel(system, center, epsilon,
                                          as_fraction(radius), grid)
    # circle distances never exceed d / 2, so this bound acts as
    # min(10 epsilon, 1/2) * d
    ten_eps = scaled(10 * epsilon, d)

    if isinstance(system, Rotation):
        # samples of T^i B and T^(i+m) B differ by m * shift + an offset
        # difference, whatever i
        zero = (0,) * center.dim
        deltas = {
            tuple((x - y) % d for x, y in zip(o1, o2))
            for o1 in offsets
            for o2 in offsets
        }
        for m_shift in integer_orbit(system, d, zero, 1, 5 * q - 1):
            if tuple(-x % d for x in m_shift) in deltas:
                return False
        return all(
            max(circle_dist(x + y, d) for x, y in zip(image(zero, k * q), delta))
            <= ten_eps
            for k in range(-4, 5)
            for delta in deltas
        )

    seen: dict[tuple, int] = {}
    images = {}
    # one orbit walk per sample, advanced together
    walks = [
        integer_orbit(system, d, tuple(x + o for x, o in zip(c, off)), 1, 5 * q)
        for off in offsets
    ]
    for n, samples in enumerate(zip(*walks), start=1):
        samples = set(samples)
        for p in samples:
            if seen.setdefault(p, n) != n:
                return False
        images[n] = samples
    for j in range(1, q + 1):
        tube = set().union(*(images[j + l * q] for l in range(5)))
        # the max-metric diameter is the largest one-coordinate diameter
        if any(circle_diameter(values, d) > ten_eps for values in zip(*tube)):
            return False
    return True


# ---------------------------------------------------------------------------
# Tube functions (piecewise members constant on orbit tubes)
# ---------------------------------------------------------------------------


class TubeFunction(_ResidueEvaluated):
    """Continuous f equal to values[j-1] on the closed tube
    U_{l=0..4} T^(j+lq) B(center, radius), j = 1..q, and blended elsewhere.

    Membership tests are exact, on integer residues over the common
    denominator D of the system, the centre and the radius.  A point p lies
    in the closed ball T^n(B) when D * dist(T^-n p, c) <= D r; for a
    rotation T^-n is a translation, so this is its distance to T^n(c).
    Only the balls whose first coordinate can reach p are tested (see
    ``_BallCentres``).  Points are evaluated as residues over this D, the
    function's ``denominator`` whatever grid they come from.  The ball
    centres that :func:`tube_function` has located are recorded, residues
    to ball n, and read back without a search; one built directly records
    none.  Off the tubes the value is an inverse-distance weighted blend of
    the tube values, which is continuous and stays inside the convex hull
    of the values, hence inside the disk.
    """

    def __init__(self, system: TorusDynamics, center: TorusPoint, q: int,
                 radius, values: Sequence[complex]):
        if len(values) != q:
            raise ConstructionError(f"need exactly q={q} tube values")
        values = tuple(complex(v) for v in values)
        if not all(abs(v) < 1 for v in values):
            raise ConstructionError("tube values must lie in the open disk")
        self.system = system
        self.center = center
        self.q = q
        self.radius = as_fraction(radius)
        if self.radius <= 0:
            raise DomainError("tube radius must be positive")
        self.values = values
        self.sup_norm = max(abs(v) for v in values)
        d, c, image = integer_kernel(system, center, self.radius)
        self._d, self._r, self._image = d, scaled(self.radius, d), image
        # ball n is centred at the residues _orbit[n]; _orbit[0] is the centre
        self._orbit = list(integer_orbit(system, d, c, 0, 5 * q))
        self._centres = _BallCentres(self._orbit, d)
        # residues -> the ball _locate found them in, filled by tube_function
        self._found: dict[tuple, int] = {}
        self._orbit_f = None
        if isinstance(system, Rotation):
            # int / int is correctly rounded, as float(Fraction) is
            self._orbit_f = np.array([[x / d for x in self._orbit[n]]
                                      for n in range(1, 5 * q + 1)])
        # closed balls overlap when their centres are within 2r
        two_r = 2 * self._r
        for i, j in self._centres.close_pairs(lambda: two_r):
            if residue_dist(self._orbit[i], self._orbit[j], d) <= two_r:
                raise ConstructionError(
                    f"balls {min(i, j)} and {max(i, j)} overlap at radius "
                    f"{float(self.radius)}"
                )

    # -- geometry -----------------------------------------------------

    def _scaled(self, point: TorusPoint) -> tuple:
        """The point's residues over D, exact; a coordinate off the 1/D
        grid stays an exact rational residue."""
        if point.dim != self.center.dim:
            raise DomainError("dimension mismatch")
        return tuple(scaled(x, self._d) for x in point.coords)

    def _dist(self, p, n: int):
        """D * dist(T^-n p, c) for the residues p; a rotation translates,
        so there it is the distance from p to T^n c, with no pull-back."""
        if self._orbit_f is not None:
            return residue_dist(p, self._orbit[n], self._d)
        return residue_dist(self._image(p, -n), self._orbit[0], self._d)

    def _locate(self, p):
        """(n, tested) for the residues p: n the first ball in [1, 5q]
        whose closed ball holds p, decided exactly, or None; tested maps
        every ball tested to its ``_dist``.  The balls of p's window are
        tested in increasing n."""
        tested = {}
        for n in sorted(self._centres.window(p[0], self._r)):
            tested[n] = self._dist(p, n)
            if tested[n] <= self._r:
                return n, tested
        return None, tested

    def ball_index(self, point: TorusPoint) -> Optional[int]:
        """n in [1, 5q] with point in closed T^n(B), or None (exact)."""
        return self._locate(self._scaled(point))[0]

    @staticmethod
    def _cheb_float(x: np.ndarray, pts: np.ndarray) -> np.ndarray:
        d = np.abs(pts - x[None, :])
        d = np.minimum(d, 1.0 - d)
        return d.max(axis=1)

    def tube_balls(self, j: int) -> list[TorusPoint]:
        """Ball centers T^(j+lq) c, l = 0..4, of tube j."""
        if not (1 <= j <= self.q):
            raise DomainError("tube index out of range")
        return [
            TorusPoint([Fraction(x, self._d) for x in self._orbit[j + l * self.q]])
            for l in range(5)
        ]

    def gordon_point(self, offset: Sequence = ()) -> TorusPoint:
        """The designated orbit point T^(2q)(center + offset).

        Starting the coefficient window there, the tube balls 1..5q line
        up exactly with orbit times -2q+1..3q, so the four block
        difference maxima and the certification window are all pinned by
        tube constancy.
        """
        if offset:
            if len(offset) != self.center.dim:
                raise DomainError(f"offset needs {self.center.dim} "
                                  f"coordinates, got {len(offset)}")
            base = TorusPoint(
                [c + as_fraction(o) for c, o in zip(self.center.coords, offset)]
            )
            if base.dist(self.center) > self.radius:
                raise DomainError("offset leaves the base ball")
        else:
            base = self.center
        return iterate(self.system, base, 2 * self.q)

    # -- evaluation ---------------------------------------------------

    def denominator(self, d0: int) -> int:
        return self._d

    def __call__(self, point: TorusPoint) -> complex:
        return self.at_residues(self._scaled(point), self._d)

    def at_residues(self, p, d: int) -> complex:
        """The value at p / d, for p the residues over d = ``_d``.  A
        recorded ball centre reads its ball from the record, which holds
        what ``_locate`` returned for it; any other p is searched."""
        n = self._found.get(p)
        if n is not None:
            return self.values[(n - 1) % self.q]
        n, tested = self._locate(p)
        if n is not None:
            return self.values[(n - 1) % self.q]
        if self._orbit_f is not None:
            # the point's floats, correctly rounded as float(Fraction) is
            x = np.array([float(c / d) for c in p])
            dist = self._cheb_float(x, self._orbit_f)
        else:
            # one pull-back per ball: those tested above are reused
            dist = np.array([
                float((tested[n] if n in tested else self._dist(p, n)) / d)
                for n in range(1, 5 * self.q + 1)
            ])
        dist = np.maximum(dist - float(self.radius), 1e-18)
        # flat index n-1 = (j-1) + l*q, so reshape(5, q) groups l-rows and
        # column j-1 collects the five balls of tube j
        tube_d = dist.reshape(5, self.q).min(axis=0)
        w = 1.0 / tube_d
        vals = np.array(self.values)
        return complex(np.dot(w, vals) / w.sum())


def tube_function(
    system: TorusDynamics,
    center: TorusPoint,
    q: int,
    radius,
    values: Sequence[complex],
) -> TubeFunction:
    """Build the piecewise-constant-on-tubes sampling function.

    ``radius`` should come from :func:`ball_radius`; overlapping tubes are
    a construction error.  The lookup is re-verified on the residues of
    the 5q ball centres: each must fall in its own ball.  The function
    records each centre's residues with the ball it was found in, so
    ``at_residues`` reads a centre's value without searching again; the
    window from ``gordon_point`` meets a centre at all but two times.
    """
    f = TubeFunction(system, center, q, radius, values)
    for n in range(1, 5 * q + 1):
        if f._locate(f._orbit[n])[0] != n:
            raise ConstructionError(
                f"tube {(n - 1) % q + 1} centre {n} is not found in its ball"
            )
    f._found = dict(zip(f._orbit[1:], range(1, 5 * q + 1)))
    return f


# ---------------------------------------------------------------------------
# Verblunsky windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerblunskySequence:
    """Coefficients alpha(n) in the open disk on an integer window."""

    n_min: int
    n_max: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.n_max - self.n_min + 1,):
            raise WindowError("value array does not match the window")
        # |a| as ``rho`` takes it; NaN is not < 1 either
        outside = np.flatnonzero(~(np.hypot(vals.real, vals.imag) < 1))
        if outside.size:
            k = outside[0]
            raise InvariantViolation(f"alpha({self.n_min + k}) = {vals[k]} "
                                     "does not lie in the open unit disk")
        object.__setattr__(self, "values", vals)

    def require(self, n_from: int, n_to: int):
        if n_from < self.n_min or n_to > self.n_max:
            raise WindowError(
                f"window [{self.n_min},{self.n_max}] does not cover "
                f"[{n_from},{n_to}]"
            )

    def alpha(self, n: int) -> complex:
        self.require(n, n)
        return complex(self.values[n - self.n_min])

    def slice(self, n_from: int, n_to: int) -> np.ndarray:
        self.require(n_from, n_to)
        return self.values[n_from - self.n_min : n_to - self.n_min + 1]

    def rho(self, n_from: int, n_to: int) -> np.ndarray:
        """rho(n) = sqrt((1 - |a|)(1 + |a|)) for n in [n_from, n_to], with
        |a| by ``np.hypot``, which is Python's complex ``abs`` bit for bit."""
        a = self.slice(n_from, n_to)
        m = np.hypot(a.real, a.imag)
        return np.sqrt((1.0 - m) * (1.0 + m))

    @staticmethod
    def constant(value: complex, n_min: int, n_max: int) -> "VerblunskySequence":
        vals = np.full(n_max - n_min + 1, complex(value))
        return VerblunskySequence(n_min, n_max, vals)

    @staticmethod
    def impurity(background: complex, site_value: complex, n_min: int,
                 n_max: int) -> "VerblunskySequence":
        """``background`` everywhere but ``site_value`` at n = 0."""
        if not n_min <= 0 <= n_max:
            raise WindowError(f"window [{n_min},{n_max}] does not hold n = 0")
        vals = np.full(n_max - n_min + 1, complex(background))
        vals[-n_min] = complex(site_value)
        return VerblunskySequence(n_min, n_max, vals)

    def to_csv(self, path, seed: int):
        write_verblunsky_csv(path, self, seed)

    @staticmethod
    def from_csv(path) -> "VerblunskySequence":
        header, rows = read_csv(path)
        if header[:3] != ["n", "re_alpha", "im_alpha"]:
            raise DomainError("coefficient csv must start with n,re_alpha,im_alpha")
        ns, vals = [], []
        for row in rows:
            ns.append(int(row[0]))
            vals.append(complex(float(row[1]), float(row[2])))
        if not ns:
            raise WindowError("coefficient csv has no rows")
        if ns != list(range(ns[0], ns[0] + len(ns))):
            raise WindowError("coefficient csv rows must be consecutive in n")
        return VerblunskySequence(ns[0], ns[-1], np.array(vals))


def verblunsky_window(
    f,
    system: TorusDynamics,
    omega: TorusPoint,
    n_min: int,
    n_max: int,
) -> VerblunskySequence:
    """alpha(n) = f(T^n omega) for n in [n_min, n_max].

    The orbit is walked on integer residues: omega is scaled once to the
    denominator d that f evaluates on (``f.denominator`` of the common
    denominator of the system and omega), ``integer_orbit`` steps those
    residues from T^n_min omega on, and f evaluates each with
    ``at_residues``, so no torus point is built.  For f from
    :func:`tube_function` a time whose point is a ball centre reads the
    ball that construction located, one dict read; other times are
    searched.  ``VerblunskySequence`` checks that every value lies in the
    open unit disk.
    """
    if n_min > n_max:
        raise WindowError("n_min must be <= n_max")
    d = f.denominator(integer_kernel(system, omega)[0])
    p = tuple(scaled(x, d) for x in omega.coords)
    vals = [f.at_residues(x, d) for x in integer_orbit(system, d, p, n_min, n_max)]
    return VerblunskySequence(n_min, n_max, np.array(vals, dtype=complex))


# ---------------------------------------------------------------------------
# Distance to the tube class (Chebyshev radii of value sets)
# ---------------------------------------------------------------------------


def _circumcircle(a: complex, b: complex, c: complex):
    d = 2 * (a.real * (b.imag - c.imag) + b.real * (c.imag - a.imag)
             + c.real * (a.imag - b.imag))
    if abs(d) < 1e-30:
        return None
    ux = (abs(a) ** 2 * (b.imag - c.imag) + abs(b) ** 2 * (c.imag - a.imag)
          + abs(c) ** 2 * (a.imag - b.imag)) / d
    uy = (abs(a) ** 2 * (c.real - b.real) + abs(b) ** 2 * (a.real - c.real)
          + abs(c) ** 2 * (b.real - a.real)) / d
    ctr = complex(ux, uy)
    return ctr, abs(a - ctr)


def min_enclosing_circle(points: Sequence[complex]) -> tuple[complex, float]:
    """Smallest circle containing the points (Welzl, "Smallest enclosing
    disks", 1991): three passes over the points in their given order.  A
    point p outside restarts the circle on p, the next pass keeps p on the
    boundary and the innermost keeps p and s there."""
    pts = [complex(p) for p in points]
    if not pts:
        raise DomainError("no points")

    def contains(c, r, p):
        return abs(p - c) <= r + 1e-12 * (1 + r)

    c, r = pts[0], 0.0
    for i, p in enumerate(pts):
        if contains(c, r, p):
            continue
        c, r = p, 0.0
        for j, s in enumerate(pts[:i]):
            if contains(c, r, s):
                continue
            c, r = (p + s) / 2, abs(p - s) / 2
            for t in pts[:j]:
                if not contains(c, r, t):
                    c, r = _circumcircle(p, s, t)
    return c, r


def tube_sample_points(tubes: TubeFunction, j: int, grid: int) -> list[TorusPoint]:
    """Grid of points inside the closed balls of tube j."""
    offs = _grid(tubes.radius, grid)
    return [
        TorusPoint([x + t for x, t in zip(c.coords, off)])
        for c in tubes.tube_balls(j)
        for off in product(offs, repeat=c.dim)
    ]


@dataclass(frozen=True)
class TubeDistanceReport:
    distance: float
    per_tube: tuple[float, ...]
    grid: int


def distance_to_tubes(f, tubes: TubeFunction, grid: int = 5) -> TubeDistanceReport:
    """Sup-distance from f to the tube-constant class, estimated from below.

    The nearest constant-on-tubes function can match f exactly off the
    tubes, so the distance is the worst Chebyshev radius of f's value set
    over a single tube.  Only a sample grid of each tube is read, and a
    subset's radius is at most the whole set's: never an upper bound.
    """
    if grid < 1:
        raise DomainError("grid must be >= 1")
    radii = []
    for j in range(1, tubes.q + 1):
        vals = [f(p) for p in tube_sample_points(tubes, j, grid)]
        _, r = min_enclosing_circle(vals)
        radii.append(r)
    return TubeDistanceReport(
        distance=max(radii), per_tube=tuple(radii), grid=grid
    )


def tube_tolerance_verdict(f, tubes: TubeFunction, k: int, grid: int = 5):
    """Is f within half of (tolerance/4) of the tube-constant class?

    The tolerance is the coefficient perturbation budget from the transfer
    module at level k, period q, radius sup|f|.  The distance is sampled
    from below (``distance_to_tubes``), so "inside" is not a proof.
    """
    from .transfer import coefficient_tolerance

    report = distance_to_tubes(f, tubes, grid)
    tol = coefficient_tolerance(k, tubes.q, f.sup_norm)
    threshold = 0.5 * (tol.value / 4.0)
    return report, tol, report.distance < threshold


def periodic_defect_maxima(f, system: TorusDynamics, omega: TorusPoint,
                           q: int) -> tuple[float, float, float, float]:
    """The four block-difference maxima across the window [-2q, 3q]:

        max_{1<=j<=q} |f(T^(j+m q) w) - f(T^(j+(m+1) q) w)|,  m = -2..1.

    For omega on the designated orbit point of a tube function these are
    exactly zero; for functions within d of the class they are < 2d.  The
    values come from one coefficient window over [-2q + 1, 3q].
    """
    from .transfer import shift_differences

    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    alpha = verblunsky_window(f, system, omega, -2 * q + 1, 3 * q).values
    return tuple(shift_differences(alpha, q).reshape(4, q).max(axis=1).tolist())
