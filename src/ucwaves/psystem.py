"""Traveling waves for the p-system with cubic stress and BBM-type dispersion.

The wave profile solves u' = w, s*A*w' = s*w + s^2*(u - u_-) - (u^3 - u_-^3):
each locus point is that Lienard form of ``phaseplane``, T = 1/A and
P(u) = -(u^3 - u_-^3 - s^2*(u - u_-))/(s*A).  Its outside equilibria are
saddles exactly when s and A have opposite signs.  With the definiteness
convention A > 0, u_- > 0, s < 0, the saddle-saddle family is parametrized
by b = u_+/u_- on (-1, -1/2):

    u_-(b) = (2 / (9*(1+b)^2)) * sqrt(b^2 + b + 1) / A,   u_+ = b*u_-(b).

All other sign quadrants are reached through the two exact symmetries of
the system (odd map, A-flip).

Note on orientation: the invariance conditions for the connecting parabola
w = k*(u - u_-)*(u - u_+) force s*k = (3/2)*(u_- + u_+), whose right side is
positive on -1 < b < -1/2 while s < 0.  The parabola coefficient of the
actual orbit is therefore negative (w > 0 between the saddles, i.e. the
heteroclinic runs from u_+ to u_-), while the reported k field keeps the
conventional positive value 1/sqrt(-2*A*s); the magnitude identity
|s|*k = (3/2)*(u_- + u_+) holds exactly.  Shooting records the realized
orientation.
"""

import math
import sys
from dataclasses import dataclass, replace

from .errors import (DomainError, NoLocusError, NoSaddleError, _check_cubes,
                     _check_finite)
from .kinetics import _RTOL, brentq
from .phaseplane import OrbitResult, shoot_saddle_connection


@dataclass(frozen=True)
class PSystemLocusPoint:
    """One undercompressive p-system wave, also the Lienard form of its ODE."""

    b: float
    A: float
    u_minus: float
    u_plus: float
    u_zero: float
    s: float
    k: float
    v_minus: float
    v_plus: float

    @property
    def T(self):
        return 1.0 / self.A

    def P(self, u):
        um, s = self.u_minus, self.s
        return -(u * u * u - um * um * um - s * s * (u - um)) / (s * self.A)

    def dP(self, u):
        return -(3.0 * u * u - self.s * self.s) / (self.s * self.A)


def psys_threshold(A):
    """Smallest u_- carrying an undercompressive wave: 4*sqrt(3)/(9*A)."""
    _check_finite("psys_threshold", A=A)
    if A <= 0:
        raise DomainError("threshold defined for A > 0; map A < 0 via psys_symmetry")
    return 4.0 * math.sqrt(3.0) / (9.0 * A)


def psys_locus(b, A, v_minus=0.0):
    """Evaluate the parametric locus at ratio b = u_+/u_- (A > 0 convention).

    Valid for -1 < b <= -1/2; the b = -1/2 endpoint is the degenerate
    coalescence u_0 = u_+ (equal to the existence threshold).  The second
    component states satisfy v_+ = v_- - s*(u_+ - u_-).
    """
    _check_finite("psys_locus", b=b, A=A, v_minus=v_minus)
    if A <= 0:
        raise DomainError("psys_locus fixes A > 0; map A < 0 via psys_symmetry")
    if not -1.0 < b <= -0.5:
        raise DomainError(
            f"b={b!r} outside (-1, -1/2]: states diverge at b = -1 (energy "
            "restriction) and equilibria coalesce at b = -1/2"
        )
    u_minus = _u_minus(b, A)
    _check_cubes(f"psys_locus at b={b!r}, A={A!r}", u_minus=u_minus)
    u_plus = b * u_minus
    # |u_+| < u_-: below 1.5e-154 its square loses digits, then underflows
    # to 0, where s = -0.0 and k = 1/sqrt(-2*A*s) divides by zero
    if u_plus * u_plus < sys.float_info.min:
        raise DomainError(f"psys_locus at b={b!r}, A={A!r}: the square of "
                          f"u_plus={u_plus!r} underflows (u_plus^2="
                          f"{u_plus * u_plus!r})")
    u_zero = -(u_minus + u_plus)
    s = -math.sqrt(u_plus * u_plus + u_plus * u_minus + u_minus * u_minus)
    k = 1.0 / math.sqrt(-2.0 * A * s)
    v_plus = v_minus - s * (u_plus - u_minus)
    return PSystemLocusPoint(b, A, u_minus, u_plus, u_zero, s, k, v_minus, v_plus)


def _u_minus(b, A):
    y = 1.0 + b
    return 2.0 / (9.0 * (y * y)) * math.sqrt(b * b + b + 1.0) / A


def psys_kinetic_u_plus(u_minus, A):
    """The unique u_+ in [-u_-, -u_-/2) paired with u_- (requires
    u_- > psys_threshold(A), strictly, and a finite u_-^3).

    Inverts the decreasing map b -> u_-(b) on (-1, -1/2) by brentq in
    y = 1 + b, where 9*A*u_-*y^2 = 2*sqrt(y^2 - y + 1) lies in [sqrt(3), 2):
    y^2 / c lies in [sqrt(3)/2, 1) for c = 2/(9*A*u_-).  The lower end of
    the bracket meets the root y = 1/2 at the threshold, so it is capped at
    1/4; the upper end is sqrt(2*c), since below the spacing of floats at 1
    sqrt(y^2 - y + 1) rounds to 1 and the root to sqrt(c).  The tolerance is
    relative to y alone: a large u_- puts y below the spacing of floats at
    b = -1, where u_+ = (y - 1)*u_- rounds to -u_-.
    """
    _check_finite("psys_kinetic_u_plus", u_minus=u_minus)
    _check_cubes("psys_kinetic_u_plus", u_minus=u_minus)
    thr = psys_threshold(A)
    if u_minus <= thr:
        raise NoLocusError(
            f"u_minus={u_minus!r} at or below the threshold {thr!r} for A={A!r}"
        )
    c = 2.0 / (9.0 * A) / u_minus
    y = brentq(lambda y: y * y - c * math.sqrt(y * y - y + 1.0),
               min(math.sqrt(0.5 * math.sqrt(3.0) * c), 0.25),
               min(math.sqrt(2.0 * c), 0.5), xtol=math.ulp(0.0), rtol=_RTOL)
    return (y - 1.0) * u_minus


def resolved_parabola_coefficient(point: PSystemLocusPoint):
    """Signed coefficient of the invariant parabola actually containing the
    orbit: (3/2)*(u_- + u_+)/s (negative under the A > 0, s < 0 convention)."""
    return 1.5 * (point.u_minus + point.u_plus) / point.s


def psys_shoot(point: PSystemLocusPoint):
    """Verify the saddle-saddle connection of a locus point by shooting.

    Raises NoSaddleError unless s*A < 0.  Between the saddles w has the sign
    of -k, k the resolved parabola coefficient, so the orbit leaves the
    lower state when k < 0 and the upper state when k > 0; one shot from
    that state decides.  Under the A > 0, s < 0 convention it leaves u_+.
    The realized orientation is readable off trajectory[0].
    """
    if point.s * point.A >= 0:
        raise NoSaddleError(
            f"outside equilibria are saddles only for s*A < 0, "
            f"got s={point.s!r}, A={point.A!r}"
        )
    k = resolved_parabola_coefficient(point)
    span = abs(point.u_minus - point.u_plus)
    vmax = 50.0 * (1.0 + abs(k) * (span * span))
    lower, upper = sorted((point.u_minus, point.u_plus))
    start, end = (lower, upper) if k < 0 else (upper, lower)
    return shoot_saddle_connection(point, start, end, vmax=vmax)


def psys_parabola_residual(orbit: OrbitResult, point: PSystemLocusPoint):
    """Max deviation of a shot orbit from the orientation-resolved parabola."""
    u, w = orbit.trajectory[:, 1], orbit.trajectory[:, 2]
    k = resolved_parabola_coefficient(point)
    dev = w - k * (u - point.u_minus) * (u - point.u_plus)
    return float(abs(dev).max())


def psys_symmetry(point: PSystemLocusPoint, which):
    """Apply one of the two exact symmetries; locus membership is preserved.

    which="odd":    (u, v) -> (-u, -v), same A and s (parabola coefficient
                    flips sign).
    which="a_flip": A -> -A, s -> -s, xi -> -xi, states unchanged (wave
                    direction and traversal reverse; |k| unchanged).
    """
    if which == "odd":
        return replace(
            point,
            u_minus=-point.u_minus, u_plus=-point.u_plus, u_zero=-point.u_zero,
            v_minus=-point.v_minus, v_plus=-point.v_plus, k=-point.k,
        )
    if which == "a_flip":
        v_plus = point.v_minus - (-point.s) * (point.u_plus - point.u_minus)
        return replace(point, A=-point.A, s=-point.s, v_plus=v_plus)
    raise DomainError(f"unknown symmetry {which!r}; use 'odd' or 'a_flip'")
