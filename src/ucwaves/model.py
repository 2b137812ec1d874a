"""Flux and shock algebra for the scalar law u_t + (u - u^3)_x = 0.

The flux f(u) = u - u^3 is concave for u > 0 and convex for u < 0 (the sign
of f'' = -6u decides; prose descriptions elsewhere are not relied upon).
Also provides the linear dispersion relation of the regularized equation
u_t + f(u)_x = beta*u_xx + mu*u_xxt about a constant state.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, PoleError

#: Absolute tolerance of "a speed equals a characteristic speed" (tangent
#: chords, sonic and characteristic shocks) and of the Riemann solver's
#: threshold equalities; all states are O(1).
EQ_TOL = 1e-10


class ShockKind(Enum):
    LAX = "lax"
    UNDERCOMPRESSIVE_CANDIDATE = "undercompressive_candidate"
    INADMISSIBLE = "inadmissible"
    CHARACTERISTIC = "characteristic"


@dataclass(frozen=True)
class ShockPair:
    """A candidate discontinuity (u_minus, u_plus) with its RH speed.

    ``sonic`` is set when the speed equals the characteristic speed on one
    side to within EQ_TOL (tangent chord); such pairs are classified
    INADMISSIBLE and handled separately by the Riemann solver.

    ``kind`` is a pointwise classification by characteristic inequalities
    only; UNDERCOMPRESSIVE_CANDIDATE does not assert that a traveling-wave
    profile exists (that is decided by the kinetics/phaseplane modules).
    """

    u_minus: float
    u_plus: float
    speed: float
    kind: ShockKind
    sonic: bool = False


def flux(u):
    """Cubic flux f(u) = u - u**3, by multiplication (a power is far slower)."""
    u = np.asarray(u) if not np.isscalar(u) else u
    return u - u * u * u


def char_speed(u):
    """Characteristic speed f'(u) = 1 - 3u**2, by multiplication: a float's
    power calls libm's pow, which is not correctly rounded, and an array's
    square is u*u."""
    u = np.asarray(u) if not np.isscalar(u) else u
    return 1.0 - 3.0 * (u * u)


def rh_speed(u_minus, u_plus):
    """Rankine-Hugoniot speed: chord slope s = 1 - (u_+^2 + u_+ u_- + u_-^2).

    Symmetric in its arguments; reduces to char_speed(u) when both states
    coincide.  Raises DomainError where the square of a finite state
    overflows; a sum of finite squares that overflows gives -inf.
    """
    mm, pp = u_minus * u_minus, u_plus * u_plus
    s = 1.0 - (pp + u_plus * u_minus + mm)
    # math.isfinite on a float: numpy's costs a microsecond a call
    finite = np.isfinite(s).all() if isinstance(s, np.ndarray) else math.isfinite(s)
    if not finite and np.any(np.isinf(mm) & np.isfinite(u_minus)
                             | np.isinf(pp) & np.isfinite(u_plus)):
        raise DomainError(f"invalid rh_speed: the square of u_minus={u_minus!r} "
                          f"or u_plus={u_plus!r} overflows")
    return s


def classify_shock(u_minus, u_plus):
    """Classify the pair by the Lax inequalities (strict).

    LAX when 1 - 3u_+^2 < s < 1 - 3u_-^2, UNDERCOMPRESSIVE_CANDIDATE when s
    exceeds the characteristic speed on both sides (supersonic-supersonic),
    CHARACTERISTIC for coincident states.  Equality with either
    characteristic speed (within EQ_TOL) yields INADMISSIBLE with sonic=True.
    """
    s = rh_speed(u_minus, u_plus)
    if abs(u_plus - u_minus) <= EQ_TOL:
        return ShockPair(u_minus, u_plus, s, ShockKind.CHARACTERISTIC)
    cl = char_speed(u_minus)
    cr = char_speed(u_plus)
    sonic = abs(s - cl) <= EQ_TOL or abs(s - cr) <= EQ_TOL
    if sonic:
        kind = ShockKind.INADMISSIBLE
    elif cr < s < cl:
        kind = ShockKind.LAX
    elif s > cl and s > cr:
        kind = ShockKind.UNDERCOMPRESSIVE_CANDIDATE
    else:
        kind = ShockKind.INADMISSIBLE
    return ShockPair(u_minus, u_plus, s, kind, sonic)


def dispersion_lambda(u_bar, beta, mu, xi):
    """Growth rate lambda(xi) of a linear mode exp(i*xi*x + lambda*t).

    lambda(xi) = (-i*xi*f'(u_bar) - beta*xi**2) / (1 + mu*xi**2).

    For beta > 0, mu > 0 every nonzero wavenumber decays.  For mu < 0 the
    denominator vanishes at xi = 1/sqrt(-mu) (raises PoleError) and
    Re(lambda) > 0 beyond it.
    """
    xi2 = xi * xi
    denom = 1.0 + mu * xi2
    if denom == 0.0:
        raise PoleError(
            f"dispersion relation has a pole at xi = 1/sqrt(-mu) = {xi}"
        )
    return (-1j * xi * char_speed(u_bar) - beta * xi2) / denom
