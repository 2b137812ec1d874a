"""Closed-form undercompressive (saddle-saddle) locus for the scalar law.

A connection from u_- > 0 to u_+ < 0 exists only when the pair satisfies

    sqrt(1 - (u_+^2 + u_- u_+ + u_-^2)) * (u_+ + u_-) = -sqrt(2)/3 * gamma,

which is solved parametrically with u_- = -a*u_+ for 1/2 <= a <= a_tilde(gamma):

    u_+ = -sqrt((1 +- sqrt(D)) / (2*(1 - a + a^2))),
    D(a, gamma) = 1 - (8/9)*gamma^2*(1 + a/(a-1)^2).

The family exists for 0 < gamma < sqrt(3/8); both branches merge at
a = a_tilde where D = 0, and at a = 1/2 the middle equilibrium collides
with u_- (tangent chord).  Both endpoints are included and flagged.

Each point is computed as one graph over sigma = min(s, 1 - s)
= (1 - sqrt(D))/2.  With q = u_+^2 + u_- u_+ + u_-^2 = 1 - s, the plus
branch has s = sigma and the minus branch q = sigma; the pairing equation
gives w = u_- + u_+ = -sqrt(2)/3*gamma/sqrt(s), and u_+ = (w - sqrt(4q -
3w^2))/2 is the lower root of q = u_+^2 - w*u_+ + w^2.  As gamma -> 0,
D -> 1 and 1 - sqrt(D) cancels, so sigma is taken as (1 - D)/(2*(1 +
sqrt(D))) with 1 - D = (8/9)*gamma^2*(1 + a/(a-1)^2) computed directly:
the small one of s and q keeps its digits on both branches, and the a = 1/2
end of the minus branch equals the upper end of u_plus_bounds to rounding.
The locus is still parametrised by a: next to a_tilde, sqrt(D) magnifies
the rounding of a, and once gamma is below about 1e-16, a_tilde rounds to
the pole a = 1.  locus_point and locus_sweep share this graph
(_locus_graph), which uses only products, sqrt, + - * / and a minimum, so
locus_sweep evaluates a branch in one array pass and gets the bits of each
point.  No closed form here takes a float power: a float's x**2 calls
libm's pow, which is not correctly rounded, where an array squares by x*x.

Both kinetic maps solve the pairing equation in w = u_- + u_+, given one
known state k (u_+ for kinetic_u_minus, u_- for kinetic_u_plus_candidates):
with q = w^2 - k*w + k^2 it reads r(w; k) = w*sqrt(1 - q) + sqrt(2)/3*gamma
= 0.  As gamma -> 0, a_tilde = 1 - O(gamma) crowds the pole a = 1, and the
ratio a loses the digits of w, which is O(gamma) on the minus branch; w
itself keeps them, so brentq needs only a relative tolerance.  The roots
lie between the a = 1/2 end w = -u_- = u_+/2 and w = 0, where s = 1 - q >= 0.
There r has one interior minimum, at w* = (3k - sqrt(32 - 23k^2))/8, so the
brackets [lo, w*] and [w*, hi] hold at most one root each; for k = u_+, w*
lies below the bracket, which holds exactly one.  Two end rules:

- for k = u_-, the a = 1/2 end is a root when u_+ = 2w lies within
  rounding of u_plus_bounds (a closed-form test: the rounding of
  sqrt(1 - 3u_-^2) hides the sign of r there).  kinetic_u_minus takes u_+
  strictly inside u_plus_bounds, where the end is never a root;
- s is computed as a product that vanishes at the q = 1 ends, so r is
  exactly sqrt(2)/3*gamma > 0 at an s = 0 end, which never hides a root.

brentq, which psystem shares, is a port of scipy's brentq.c (Brent,
Algorithms for Minimization without Derivatives, 1973, ch. 4): it takes
the same float operations in the same order, so it keeps scipy's roots to
the bit and its count of evaluations, and a kinetic map loads no scipy.
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DomainError, NoLocusError, PoleError, RootFindError,
                     _check_finite)
from .model import rh_speed

#: No undercompressive locus exists at or beyond this dissipation ratio.
GAMMA_MAX = math.sqrt(3.0 / 8.0)

_A_ENDPOINT_ATOL = 1e-12
#: brentq's relative tolerance on w = u_- + u_+ in both kinetic maps
_RTOL = 8.9e-16
#: brentq's step cap.  At k = -1 the upper end of s >= 0 is w = 0, where
#: s ~ -w and r ~ -|w|^(3/2)/gamma + sqrt(2)/3, so the root |w| ~
#: gamma^(2/3) lies as low as 1e-206 in the bracket [-1/2, 0]: brentq took
#: 1474 steps there at the least normal gamma, past scipy's default of 100.
_MAXITER = 4000


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
    a = np.asarray(a, dtype=float)
    if (a == 1.0).any():
        raise PoleError("discriminant has a pole at a = 1")
    return 1.0 - (8.0 / 9.0) * (gamma * gamma) * (
        1.0 + a / ((a - 1.0) * (a - 1.0)))


def a_tilde(gamma):
    """Largest ratio a with D(a, gamma) >= 0; in (1/2, 1) for gamma < sqrt(3/8)."""
    _check_gamma(gamma)
    k = 8.0 * (gamma * gamma) / 9.0
    return (k - 2.0 + math.sqrt(k * (4.0 - 3.0 * k))) / (2.0 * (k - 1.0))


def locus_point(a, gamma, branch):
    """Evaluate the parametric locus at ratio a on the given branch.

    Returns a KineticPoint with u_- = -a*u_+, u_0 = -(u_- + u_+) and the
    Rankine-Hugoniot speed.  Valid for 1/2 <= a <= a_tilde(gamma).
    """
    return _locus_point(a, gamma, branch, a_tilde(gamma))


def _locus_point(a, gamma, branch, at):
    """locus_point with at = a_tilde(gamma) given, so gamma is not checked."""
    if not 0.5 - _A_ENDPOINT_ATOL <= a <= at + _A_ENDPOINT_ATOL:
        raise DomainError(
            f"a={a!r} outside the locus range [1/2, a_tilde={at!r}]"
        )
    a = min(max(a, 0.5), at)
    if a == 1.0:  # a_tilde rounds to 1 for gamma below about 1e-16
        raise PoleError("discriminant has a pole at a = 1")
    if gamma * gamma < sys.float_info.min:
        raise DomainError(f"gamma={gamma!r} is too small for the locus: "
                          "its square is subnormal")
    u_minus, u_zero, u_plus, s = map(float, _locus_graph(a, gamma, branch))
    return KineticPoint(a, branch, u_minus, u_zero, u_plus, s, gamma,
                        _endpoint(a, at))


def _locus_graph(a, gamma, branch):
    """(u_-, u_0, u_+, s) on the branch at the ratios a, a float or an array
    in [1/2, a_tilde] that holds no pole a = 1, for a gamma whose square is
    normal (below, s or q loses its digits, and s underflows to 0 under
    1e-162).  Only products, sqrt, + - * / and a minimum: an array gives the
    bits of each of its floats.
    """
    # 1 - D <= 1 on [1/2, a_tilde]; above 1 it is rounding, about
    # 2e-16/(1 - a) next to a_tilde, which nears the pole a = 1 as gamma -> 0
    one_minus_d = np.minimum((8.0 / 9.0) * (gamma * gamma)
                             * (1.0 + a / ((a - 1.0) * (a - 1.0))), 1.0)
    sigma = one_minus_d / (2.0 * (1.0 + np.sqrt(1.0 - one_minus_d)))
    s, q = (sigma, 1.0 - sigma) if branch is Branch.PLUS else (1.0 - sigma, sigma)
    w = -math.sqrt(2.0) / 3.0 * gamma / np.sqrt(s)
    u_plus = 0.5 * (w - np.sqrt(4.0 * q - 3.0 * w * w))
    u_minus = -a * u_plus
    return u_minus, -(u_minus + u_plus), u_plus, s


def _endpoint(a, at):
    """"a_half" or "a_tilde" when the ratio a is at that end of [1/2, at]."""
    if abs(a - 0.5) <= _A_ENDPOINT_ATOL:
        return "a_half"
    if abs(a - at) <= _A_ENDPOINT_ATOL:
        return "a_tilde"
    return None


def u_plus_bounds(gamma):
    """Range (lower, upper) of undercompressive right states u_+ < 0.

    These are the a = 1/2 endpoint values
    u_+ = -sqrt(2/3*(1 +- sqrt(1 - 8*gamma^2/3))); they coincide at
    gamma = sqrt(3/8).
    """
    _check_gamma(gamma)
    inner = math.sqrt(max(1.0 - 8.0 * (gamma * gamma) / 3.0, 0.0))
    lower = -math.sqrt(2.0 / 3.0 * (1.0 + inner))
    # 1 - inner = (8/3)*gamma^2/(1 + inner) keeps the digits as gamma -> 0
    upper = -4.0 / 3.0 * gamma / math.sqrt(1.0 + inner)
    return lower, upper


def _s0_ends(k):
    """The w where q = w^2 - k*w + k^2 = 1 (k/2 twice if q > 1 for all w)."""
    root = math.sqrt(max(4.0 - 3.0 * k * k, 0.0))
    return 0.5 * (k - root), 0.5 * (k + root)


def _pairing(w, k, gamma):
    """The pairing residual r(w; k)/gamma of the pair (k, w - k).

    s = 1 - q is taken as (w - w_lo)*(w_hi - w) between the ends w_lo, w_hi
    of _s0_ends(k), so it is exactly 0 there, and as 0 beyond them.
    Dividing by gamma keeps the values, and brentq's products of them,
    clear of underflow as gamma -> 0.
    """
    w_lo, w_hi = _s0_ends(k)
    s = max((w - w_lo) * (w_hi - w), 0.0)
    return w / gamma * math.sqrt(s) + math.sqrt(2.0) / 3.0


def _at_a_half(u_plus, gamma):
    """Whether u_+ lies at an end of u_plus_bounds(gamma) to within rounding.

    Rounding of r moves the end's sign change by up to _RTOL*|u_+|/inner,
    inner = sqrt(1 - 8*gamma^2/3) = 3/4*(lower^2 - upper^2).  The two ends
    merge as inner -> 0, into a double root that rounding moves by
    sqrt(_RTOL).
    """
    lower, upper = u_plus_bounds(gamma)
    inner = 0.75 * (lower * lower - upper * upper)
    tol = _RTOL / max(inner, math.sqrt(_RTOL))
    return min(abs(u_plus / lower - 1.0), abs(u_plus / upper - 1.0)) <= tol


def brentq(f, a, b, args=(), *, xtol, rtol, maxiter=100):
    """A root of f(x, *args) in the bracket [a, b], by Brent's method.

    A port of scipy's ``brentq.c``, the compiled core of scipy's brentq:
    the same steps in the same float operations, so the same root to the
    bit and the same evaluations of f.  Returns once the bracket is within
    2*delta, delta = (xtol + rtol*|x|)/2.  Raises RootFindError when f(a)
    and f(b) have the same sign, or after maxiter steps.
    """
    x_pre, x_cur = a, b
    f_pre, f_cur = f(a, *args), f(b, *args)
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if (f_pre < 0.0) == (f_cur < 0.0):
        raise RootFindError(f"f({a!r}) = {f_pre!r} and f({b!r}) = {f_cur!r} "
                            "have the same sign")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        if f_cur == 0.0:
            return x_cur
        if (f_pre < 0.0) != (f_cur < 0.0):  # x_pre becomes the far end
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):  # x_cur takes the smaller |f|
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (xtol + rtol * abs(x_cur)) / 2.0
        s_bis = (x_blk - x_cur) / 2.0
        if abs(s_bis) < delta:
            return x_cur
        s_try = math.inf  # bisect unless the test below takes a short step
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            try:
                if x_pre == x_blk:  # secant
                    s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
                else:  # inverse quadratic interpolation
                    d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                    d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                    s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                             / (d_blk * d_pre * (f_blk - f_pre)))
            except ZeroDivisionError:  # C's inf or nan, which bisects
                pass
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0.0 else -delta)
        f_cur = f(x_cur, *args)
    raise RootFindError(f"no root within {maxiter} steps; the last "
                        f"iterate is {x_cur!r}")


def _pairing_roots(k, w_half, gamma, end_rule):
    """The roots w of r(w; k) (none, one or two), in increasing order.

    w_half = -u_- = u_+/2 is the a = 1/2 end, a root if end_rule and
    _at_a_half.  Between it and the ends of s >= 0, r falls to its one
    interior minimum at w* and rises to r > 0 at its upper end, so [lo, w*]
    and [w*, hi] hold at most one root each.
    """
    w_lo, w_hi = _s0_ends(k)
    lo, hi = max(w_half, w_lo), min(w_hi, 0.0)
    if end_rule and lo == w_half and _at_a_half(2.0 * lo, gamma):
        f_lo = 0.0  # rounding hides the sign of r there
    else:
        f_lo = _pairing(lo, k, gamma)
    w_star = (3.0 * k - math.sqrt(32.0 - 23.0 * k * k)) / 8.0
    brackets = []
    if lo < w_star < hi:
        f_star = _pairing(w_star, k, gamma)
        if f_lo >= 0.0 > f_star:
            brackets.append((lo, w_star, f_lo))
        lo, f_lo = w_star, f_star
    if f_lo <= 0.0:
        brackets.append((lo, hi, f_lo))
    # brentq needs xtol > 0, but w needs only a relative tolerance
    return [a if f_a == 0.0 else brentq(_pairing, a, b, args=(k, gamma),
                                        xtol=math.ulp(0.0), rtol=_RTOL,
                                        maxiter=_MAXITER)
            for a, b, f_a in brackets]


def _check_map_input(name, gamma, **state):
    """Raise unless gamma is in range and normal and the state finite."""
    _check_gamma(gamma)
    _check_finite(name, **state)
    if gamma < sys.float_info.min:  # w/gamma would overflow
        raise DomainError(f"gamma={gamma!r} is subnormal")


def kinetic_u_minus(u_plus, gamma):
    """Kinetic function inverse: the unique left state paired with u_+.

    u_+ must lie strictly inside u_plus_bounds(gamma).  w* lies below the
    a = 1/2 end w = u_+/2 there, so r(w; u_+) rises through 0 exactly once.
    """
    _check_map_input("kinetic_u_minus", gamma, u_plus=u_plus)
    lower, upper = u_plus_bounds(gamma)
    if not lower < u_plus < upper:
        raise NoLocusError(
            f"u_plus={u_plus!r} outside the locus range ({lower!r}, {upper!r})"
        )
    w_half = 0.5 * u_plus
    roots = _pairing_roots(u_plus, w_half, gamma, end_rule=False)
    # only rounding at the a = 1/2 end could hide the root, which is then there
    return (roots[0] if roots else w_half) - u_plus


def kinetic_u_plus_candidates(u_minus, gamma):
    """All right states u_+ paired with the given u_- (0, 1 or 2 of them).

    The roots w of r(w; u_-), ordered by u_+.  A pair is on the plus branch
    when q > 1/2: the branches merge at q = 1/2.
    """
    _check_map_input("kinetic_u_plus_candidates", gamma, u_minus=u_minus)
    if not 0.0 < u_minus < 1.0:  # u_- > 0, and q > u_-^2 on [-u_-, 0)
        return []
    at = a_tilde(gamma)
    out = []
    for w in _pairing_roots(u_minus, -u_minus, gamma, end_rule=True):
        u_plus = w - u_minus
        a = -u_minus / u_plus
        r = gamma / w
        s = 2.0 / 9.0 * (r * r)  # the pairing law s*w^2 = 2gamma^2/9
        branch = Branch.PLUS if s < 0.5 else Branch.MINUS
        out.append(KineticPoint(a, branch, u_minus, -(u_minus + u_plus),
                                u_plus, s, gamma, _endpoint(a, at)))
    return out


def entropy_integral(u_minus, u_plus):
    """Signed area between the chord and the flux graph, oriented as in the
    traveling-wave dissipation argument.

    Computes the exact integral of the equilibrium cubic
    c(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-) over [u_+, u_-]; it is
    positive exactly when the connection orientation is admissible
    (|u_-| < |u_+|) and zero when u_+ = -u_-.
    """
    s = rh_speed(u_minus, u_plus)
    b = u_minus * u_minus * u_minus - u_minus

    def antideriv(u):
        uu = u * u
        return uu * uu / 4.0 - uu / 2.0 - b * u + s * (uu / 2.0 - u_minus * u)

    return antideriv(u_minus) - antideriv(u_plus)


def locus_sweep(gamma, a_values):
    """Plus, then minus branch at the distinct a_values clipped to a_tilde,
    in increasing order; gamma is checked once, an a < 1/2 is a DomainError."""
    a, ends, columns = _sweep(gamma, a_values)
    return [KineticPoint(x, branch, u_minus, u_zero, u_plus, s, gamma, end)
            for branch, cols in zip(Branch, columns)
            for x, end, u_minus, u_zero, u_plus, s in zip(a, ends, *cols)]


def _sweep(gamma, a_values):
    """The ratios a of ``locus_sweep(gamma, a_values)``, their endpoint flags
    and, for each branch in the order of Branch, the columns u_-, u_0, u_+
    and s, all lists of floats: one array pass of _locus_graph a branch.
    Raises what _locus_point raises at the first ratio it refuses."""
    at = a_tilde(gamma)
    grid = sorted({min(float(a), at) for a in a_values})
    raw = np.array(grid, dtype=float)
    a = np.minimum(np.maximum(raw, 0.5), at)
    # the ratios _locus_point refuses, and every ratio if it refuses gamma
    refused = (~((0.5 - _A_ENDPOINT_ATOL <= raw) & (raw <= at + _A_ENDPOINT_ATOL))
               | (a == 1.0) | (gamma * gamma < sys.float_info.min))
    if refused.any():
        _locus_point(grid[refused.argmax()], gamma, Branch.PLUS, at)
    ratios = a.tolist()
    return (ratios, [_endpoint(x, at) for x in ratios],
            [[c.tolist() for c in _locus_graph(a, gamma, branch)]
             for branch in Branch])
