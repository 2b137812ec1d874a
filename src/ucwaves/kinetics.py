"""Closed-form undercompressive (saddle-saddle) locus for the scalar law.

A connection from u_- > 0 to u_+ < 0 exists only when the pair satisfies

    sqrt(1 - (u_+^2 + u_- u_+ + u_-^2)) * (u_+ + u_-) = -sqrt(2)/3 * gamma,

which is solved parametrically with u_- = -a*u_+ for 1/2 <= a <= a_tilde(gamma):

    u_+ = -sqrt((1 +- sqrt(D)) / (2*(1 - a + a^2))),
    D(a, gamma) = 1 - (8/9)*gamma^2*(1 + a/(a-1)^2).

The family exists for 0 < gamma < sqrt(3/8); both branches merge at
a = a_tilde where D = 0, and at a = 1/2 the middle equilibrium collides
with u_- (tangent chord).  Both endpoints are included and flagged.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import DomainError, NoLocusError, PoleError
from .model import rh_speed

#: No undercompressive locus exists at or beyond this dissipation ratio.
GAMMA_MAX = math.sqrt(3.0 / 8.0)

_A_ENDPOINT_ATOL = 1e-12
#: brentq tolerances of both kinetic maps: a root is found to within
#: _XTOL + _RTOL*|root|
_XTOL, _RTOL = 1e-14, 8.9e-16


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class KineticPoint:
    """One point of the undercompressive locus.

    endpoint is "a_half" / "a_tilde" for the degenerate ends of the curve
    (middle-equilibrium collision, branch merge) and None in the interior.
    """

    a: float
    branch: Branch
    u_minus: float
    u_zero: float
    u_plus: float
    s: float
    gamma: float
    endpoint: str | None = None


def _check_gamma(gamma):
    if not 0.0 < gamma <= GAMMA_MAX:
        raise NoLocusError(
            f"no undercompressive locus for gamma={gamma!r}; "
            f"requires 0 < gamma <= sqrt(3/8) = {GAMMA_MAX!r}"
        )


def discriminant(a, gamma):
    """D(a, gamma) = 1 - (8/9)*gamma^2*(1 + a/(a-1)^2); pole at a = 1."""
    a = np.asarray(a) if not np.isscalar(a) else a
    if np.any(np.asarray(a) == 1.0):
        raise PoleError("discriminant has a pole at a = 1")
    return 1.0 - (8.0 / 9.0) * gamma**2 * (1.0 + a / (a - 1.0) ** 2)


def a_tilde(gamma):
    """Largest ratio a with D(a, gamma) >= 0; in (1/2, 1) for gamma < sqrt(3/8)."""
    _check_gamma(gamma)
    k = 8.0 * gamma**2 / 9.0
    return (k - 2.0 + math.sqrt(k * (4.0 - 3.0 * k))) / (2.0 * (k - 1.0))


def locus_point(a, gamma, branch):
    """Evaluate the parametric locus at ratio a on the given branch.

    Returns a KineticPoint with u_- = -a*u_+, u_0 = -(u_- + u_+) and the
    Rankine-Hugoniot speed.  Valid for 1/2 <= a <= a_tilde(gamma).
    """
    _check_gamma(gamma)
    at = a_tilde(gamma)
    if not 0.5 - _A_ENDPOINT_ATOL <= a <= at + _A_ENDPOINT_ATOL:
        raise DomainError(
            f"a={a!r} outside the locus range [1/2, a_tilde={at!r}]"
        )
    a = min(max(a, 0.5), at)
    # D >= 0 on [1/2, a_tilde]; below 0 it is rounding, about 2e-16/(1 - a)
    # next to a_tilde, which nears the pole a = 1 as gamma -> 0
    d = max(discriminant(a, gamma), 0.0)
    sgn = 1.0 if branch is Branch.PLUS else -1.0
    x = (1.0 + sgn * math.sqrt(d)) / (2.0 * (1.0 - a + a * a))
    u_plus = -math.sqrt(x)
    u_minus = -a * u_plus
    u_zero = -(u_minus + u_plus)
    s = rh_speed(u_minus, u_plus)
    endpoint = None
    if abs(a - 0.5) <= _A_ENDPOINT_ATOL:
        endpoint = "a_half"
    elif abs(a - at) <= _A_ENDPOINT_ATOL:
        endpoint = "a_tilde"
    return KineticPoint(a, branch, u_minus, u_zero, u_plus, s, gamma, endpoint)


def u_plus_bounds(gamma):
    """Range (lower, upper) of undercompressive right states u_+ < 0.

    These are the a = 1/2 endpoint values
    u_+ = -sqrt(2/3*(1 +- sqrt(1 - 8*gamma^2/3))); they coincide at
    gamma = sqrt(3/8).
    """
    _check_gamma(gamma)
    inner = math.sqrt(max(1.0 - 8.0 * gamma**2 / 3.0, 0.0))
    lower = -math.sqrt(2.0 / 3.0 * (1.0 + inner))
    upper = -math.sqrt(2.0 / 3.0 * (1.0 - inner))
    return lower, upper


def _connection_residual(u_minus, u_plus, gamma):
    """Residual of the pairing equation; zero exactly on the locus."""
    q = u_plus**2 + u_minus * u_plus + u_minus**2
    return (u_minus + u_plus) * math.sqrt(max(1.0 - q, 0.0)) + math.sqrt(2.0) / 3.0 * gamma


def kinetic_u_minus(u_plus, gamma):
    """Kinetic function inverse: the unique left state paired with u_+.

    u_+ must lie strictly inside u_plus_bounds(gamma).  The root is
    bracketed on (|u_+|/2, |u_+|), where the pairing residual changes sign
    exactly once.
    """
    _check_gamma(gamma)
    lower, upper = u_plus_bounds(gamma)
    if not lower < u_plus < upper:
        raise NoLocusError(
            f"u_plus={u_plus!r} outside the locus range ({lower!r}, {upper!r})"
        )
    m = -u_plus
    # keep the bracket inside {s > 0}: q = 1 at u_- = (m + sqrt(4 - 3m^2))/2
    u_s0 = 0.5 * (m + math.sqrt(max(4.0 - 3.0 * m * m, 0.0)))
    lo, hi = 0.5 * m, min(m, u_s0)
    # the residual is < 0 at lo and > 0 at hi, but rounding hides the sign of
    # an end the root sits on (lo at the bounds, u_s0 as s -> 0): that end
    # is then the root
    if _connection_residual(lo, u_plus, gamma) >= 0.0:
        return lo
    if _connection_residual(hi, u_plus, gamma) <= 0.0:
        return hi
    return brentq(_connection_residual, lo, hi, args=(u_plus, gamma),
                  xtol=_XTOL, rtol=_RTOL)


def _u_minus_of_a(a, gamma, branch):
    return locus_point(a, gamma, branch).u_minus


def kinetic_u_plus_candidates(u_minus, gamma):
    """All right states u_+ paired with the given u_- (0, 1 or 2 of them).

    Scans both monotone pieces of the parametric family: u_- is increasing
    in a on the minus branch, and increases then decreases on the plus
    branch, so a horizontal line can meet the curve twice.
    """
    _check_gamma(gamma)
    at = a_tilde(gamma)
    out = []

    # a = 1/2 gives the ends of the u_+ range, where kinetic_u_minus and
    # u_plus_bounds place u_- only to within the root-finder's tolerance:
    # u_minus that close to u_-(1/2) may lie just outside the branch's
    # values, and that end is then the root
    end_tol = _XTOL + _RTOL * abs(u_minus)

    def scan(a_lo, a_hi, branch):
        f_lo = _u_minus_of_a(a_lo, gamma, branch) - u_minus
        f_hi = _u_minus_of_a(a_hi, gamma, branch) - u_minus
        if f_lo == 0.0 or (a_lo == 0.5 and abs(f_lo) <= end_tol):
            out.append(locus_point(a_lo, gamma, branch))
            return
        if f_hi == 0.0:
            out.append(locus_point(a_hi, gamma, branch))
            return
        if f_lo * f_hi < 0:
            a_root = brentq(
                lambda a: _u_minus_of_a(a, gamma, branch) - u_minus,
                a_lo, a_hi, xtol=_XTOL, rtol=_RTOL,
            )
            out.append(locus_point(a_root, gamma, branch))

    scan(0.5, at, Branch.MINUS)
    # plus branch: locate the interior maximum of u_-(a), then scan both sides
    res = minimize_scalar(
        lambda a: -_u_minus_of_a(a, gamma, Branch.PLUS),
        bounds=(0.5, at), method="bounded",
        options={"xatol": 1e-12},
    )
    a_peak = float(res.x)
    scan(0.5, a_peak, Branch.PLUS)
    scan(a_peak, at, Branch.PLUS)

    # the branches merge at a_tilde; drop duplicates found on both sides
    unique = []
    for p in sorted(out, key=lambda p: p.u_plus):
        if not any(abs(p.u_plus - q.u_plus) < 1e-9 for q in unique):
            unique.append(p)
    return unique


def entropy_integral(u_minus, u_plus):
    """Signed area between the chord and the flux graph, oriented as in the
    traveling-wave dissipation argument.

    Computes the exact integral of the equilibrium cubic
    c(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-) over [u_+, u_-]; it is
    positive exactly when the connection orientation is admissible
    (|u_-| < |u_+|) and zero when u_+ = -u_-.
    """
    s = rh_speed(u_minus, u_plus)
    b = u_minus**3 - u_minus

    def antideriv(u):
        return u**4 / 4.0 - u**2 / 2.0 - b * u + s * (u**2 / 2.0 - u_minus * u)

    return antideriv(u_minus) - antideriv(u_plus)


def locus_sweep(gamma, n):
    """KineticPoints on an n-point a-grid over both branches (plus first)."""
    at = a_tilde(gamma)
    grid = np.linspace(0.5, at, n)
    points = [locus_point(a, gamma, Branch.PLUS) for a in grid]
    points += [locus_point(a, gamma, Branch.MINUS) for a in grid]
    return points
