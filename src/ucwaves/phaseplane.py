"""Traveling-wave phase-plane analysis and heteroclinic shooting.

Both traveling-wave ODEs, of the scalar law and of the p-system (``psystem``),
are Lienard forms u' = v, v' = T*v + P(u) in the stretched variable xi: an
object with the attribute ``T`` and the methods ``P(u)``, ``dP(u)``.  The
scalar form ``TWProblem`` has T = gamma/sqrt(s) and
P(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-).
Saddle-saddle connections (undercompressive profiles) are verified by a
bidirectional graph march: along a heteroclinic the orbit is a monotone
graph v = v(u), so each arc solves dv/du = T + P(u)/v away from its saddle,
which is numerically contracting toward the connection from both ends.  The
two arcs march as one system in a shared parameter that takes each from its
launch to the midpoint section (``_march``, one ``solve_ivp`` call), so the
rows of a graph-marched orbit follow the steps of that system.  They are
matched at the section; the matching defect is the connection certificate
(reported as ``terminal_distance``).  Lax profiles
(node-to-saddle) are verified by integrating the saddle's stable manifold
backward in xi until it falls into the node, which is attracting for the
reversed flow.  The shot connects as soon as a step end enters a sublevel
set of a quadratic Lyapunov function of the node's linearisation on which
that function provably decreases under the full cubic field
(``_capture_certificate``; H. K. Khalil, Nonlinear Systems, 3rd ed., 2002,
chs. 4 and 8): from there the flow cannot miss the node, so the slow last
approach to it is not integrated.  That approach held 60 % of the steps of
the Lax shots of the ``riemann_map`` benchmark.

Every shot starts on the Taylor graph v = phi(u) of its saddle's invariant
manifold, as at the ends of a connecting orbit in W.-J. Beyn, "The
numerical computation of connecting orbits in dynamical systems", IMA J.
Numer. Anal. 10 (1990): phi*phi' = T*phi + P(u) fixes its coefficients
(``_manifold_series``), and the integrator starts at the farthest point
span/2^k, k >= 2, at which the series is exact to rounding (``_launch``).
On the kinetic locus phi is the paper's parabola and the series ends at
order 2, so a shot launches a quarter span out; next to the saddle the
graph ODE is 0/0 and stiff, and DOP853 would grow its step from there by a
few times a step.  Off the locus the launch backs off toward the saddle,
never nearer than SEED_OFFSET * max(1, |u|).  Rows of phi at offsets
doubling from that distance up to the launch point begin every orbit.

Every shot integrates with DOP853 (Hairer, Norsett & Wanner, Solving ODEs
I), except stiff backward shots, which use BDF with the analytic Jacobian
(Hairer & Wanner, Solving ODEs II).  The reversed flow decays at a rate of
order T off the manifold while the shot moves along it at its slow rates, as
slow as ~|P'|/T; an explicit method then takes ~T steps per unit of xi, BDF
a few hundred steps in all.  Every backward shot is judged by one rule,
``_Shot.stops``, at the end of each accepted step: it connects inside the
node's capture certificate or inside half of CONNECTION_TOL of the node,
and misses outside the box.  Two steppers feed it: scipy's compiled DOP853
(``scipy.integrate.ode``, whose per-step cost is a fraction of
``solve_ivp``'s on a 2-vector) and scipy's ``BDF`` stepped directly.  Only
the graph march runs through ``solve_ivp``, whose events locate each arc's
fold inside the step.  scipy is imported on the first shot, not
with the module: the march calls ``solve_ivp`` through the forwarder of
``ucwaves._scipy``, the stiff branch imports ``BDF``, and the one compiled
integrator of the process is made by ``_compiled_dop853`` on the first
compiled shot.  A shot that spends more than MAX_NFEV
right-hand-side evaluations raises ``ShootingBudgetError``; a backward shot
stiffer than MAX_STIFF_RATIO, where BDF itself fails, raises
``DegenerateSpeedError`` before it starts.  An end that is not an
equilibrium of the form to within the seed offset, ends within twice the
seed offset of each other, a manifold graph whose scale overflows, and a
saddle-saddle graph with a row that is not a normal float raise
``DomainError``.
"""

import functools
import math
import operator
import sys
import threading
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._scipy import solve_ivp
from .errors import (
    DegenerateSpeedError,
    DomainError,
    ShootingBudgetError,
    _check_cubes,
    _check_finite,
)
from .kinetics import KineticPoint

#: constants fixed by design: the tolerances of every shot, the right-hand-side
#: evaluations one shot may spend, the stiffness above which a backward shot
#: runs implicitly, seed offset along the eigenvector (times max(1, |u|)),
#: connection tolerance, and bounding box |u|<=3, |v|<=10.
RTOL = 1e-10
ATOL = 1e-12
MAX_NFEV = 100_000
#: An explicit step is stable up to ~1/T, so T * _slow_time counts the steps
#: an explicit shot needs.  On the Lax cells of the fig3 grid the compiled
#: DOP853 is faster than BDF up to about 1.2e4 and spends 3 to 4.5
#: evaluations per unit, so that at 1e4 a shot stays under half of MAX_NFEV.
STIFF_RATIO = 1e4
#: Above this T * _slow_time BDF itself fails: at u_- = 0 and 0.3, gamma =
#: 0.05, 0.4 and 0.6, shots return wrong ``diverges`` verdicts or spend their
#: budget from 1.4e32, and lu_factor overflows from 6.6e293.  Such a shot is
#: refused before it starts.
MAX_STIFF_RATIO = 1e30
SEED_OFFSET = 1e-8
#: Order of the Taylor graph of a shot's invariant manifold (``_launch``).
#: It does not change the graph marches of the kinetic locus, whose series
#: ends at order 2.  Off the locus a higher order holds the series farther
#: out: the 16 Lax shots of the ``riemann_map`` benchmark at seed 1, run
#: until they came within CONNECTION_TOL / 2 of their nodes (before the
#: capture certificate), took 2192 DOP853 steps from the linear seed, and
#: 2176, 1963, 1881, 1711, 1570, 1519 and 1462 steps at orders 4, 6, 8,
#: 12, 16, 20 and 24, about 12 us a step (2-vCPU Xeon, Python 3.11).
#: Each order costs ~3 us a launch, which the locus marches pay without
#: gain; past 20 the Lax steps fall by under 4 %.
MANIFOLD_ORDER = 20
CONNECTION_TOL = 1e-6
U_BOX = 3.0
V_BOX = 10.0

#: above this, a matching defect is reported as a plain miss (no connection
#: nearby); below it the defect still decides the verdict against
#: CONNECTION_TOL.
_V_FLOOR = 1e-11


class Verdict(Enum):
    CONNECTS = "connects"
    MISSES_ABOVE = "misses_above"
    MISSES_BELOW = "misses_below"
    DIVERGES = "diverges"


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of a shooting run.

    trajectory has columns (xi, u, v).  It starts SEED_OFFSET * max(1, |u|)
    from the saddle with the rows of the manifold's Taylor graph up to the
    launch point (``_launch``), where xi runs from 0 by the trapezoid rule
    on du / v.  Graph-marched orbits keep that rule throughout; past the
    launch their rows lie at the steps that the two arcs of a connection
    take together (``_march``).  A backward shot continues from the launch
    with xi decreasing by the reversed time it integrates.  For a
    saddle-saddle CONNECTS, terminal_distance is the matching defect of the
    two arcs at the midpoint section.  For a backward CONNECTS it is the
    distance of the orbit's last row from the node: below CONNECTION_TOL /
    2 when the shot closed in on the node, or below r / sqrt(2), r the
    radius of the node's capture certificate (``_capture_certificate``),
    when it stopped on entering that certificate, from which the flow
    provably falls into the node.  The distance is then not below
    CONNECTION_TOL in general.  Otherwise it is the closest approach of the
    computed arc to the target equilibrium.  nfev is the number of
    right-hand-side evaluations the shot spent, summed over the marches of
    a saddle-saddle shot.
    """

    trajectory: np.ndarray
    verdict: Verdict
    terminal_distance: float
    nfev: int


@dataclass(frozen=True)
class TWProblem:
    """Lienard form of the scalar traveling-wave ODE (requires s > 0)."""

    gamma: float
    s: float
    u_minus: float

    def __post_init__(self):
        _check_finite("TWProblem", gamma=self.gamma, s=self.s,
                      u_minus=self.u_minus)
        _check_cubes("TWProblem", u_minus=self.u_minus)
        if self.s <= 0:
            raise DegenerateSpeedError(
                f"traveling-wave reduction requires s > 0, got s={self.s!r}"
            )
        # the constant term of P, once per problem, not once per evaluation
        um = self.u_minus
        object.__setattr__(self, "_p_minus", um * um * um - um)

    @classmethod
    def from_kinetic_point(cls, point: KineticPoint):
        return cls(gamma=point.gamma, s=point.s, u_minus=point.u_minus)

    @property
    def equilibria(self):
        return equilibria(self.u_minus, self.s)

    @property
    def T(self):
        """Damping coefficient gamma/sqrt(s), a Python float for Python
        float inputs (read on every evaluation of the shot's field)."""
        return self.gamma / math.sqrt(self.s)

    def P(self, u):
        """Equilibrium cubic P(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-)."""
        return u * u * u - u - self._p_minus + self.s * (u - self.u_minus)

    def dP(self, u):
        return 3.0 * (u * u) - 1.0 + self.s


def equilibria(u_minus, s):
    """Equilibrium states: u_- plus the real roots of the chord condition.

    The companions are u = (-u_- +- sqrt(4*(1-s) - 3*u_-^2))/2; when three
    distinct equilibria exist they sum to zero.  Coincident roots are
    returned once (sorted tuple).
    """
    roots = [u_minus]
    disc = 4.0 * (1.0 - s) - 3.0 * (u_minus * u_minus)
    if disc >= 0.0:
        r = np.sqrt(disc)
        roots += [0.5 * (-u_minus + r), 0.5 * (-u_minus - r)]
    uniq = []
    for u in sorted(roots):
        if not uniq or abs(u - uniq[-1]) > 1e-12:
            uniq.append(u)
    return tuple(uniq)


def jacobian(u, form):
    """Jacobian of (u', v') at (u, v) (it does not depend on v)."""
    return np.array([[0.0, 1.0], [form.dP(u), form.T]])


def eigenvalues(u, form):
    """Eigenvalues (lam_plus, lam_minus) at an equilibrium.

    lam = (T +- sqrt(T^2 + 4*P'(u)))/2: real with opposite signs at a saddle
    (P' > 0), a complex pair with real part T/2 possible at the middle
    equilibrium.
    """
    t, dp = float(form.T), float(form.dP(u))
    disc = t * t + 4.0 * dp
    if disc < 0.0:
        root = np.sqrt(complex(disc))
        return 0.5 * (t + root), 0.5 * (t - root)
    # the root of larger modulus first, the other from lam_plus*lam_minus =
    # -dP: (T - sqrt(T^2 + 4 dP))/2 cancels to noise at large T.  From
    # |T| ~ 1e154 T^2 overflows (to inf, as Python floats do without a
    # warning), and sqrt(T^2 + 4 dP) is |T| to double precision.
    sign = 1.0 if t >= 0.0 else -1.0
    far = 0.5 * (t + sign * (np.sqrt(disc) if disc < math.inf else abs(t)))
    near = -dp / far if far else 0.0
    return (far, near) if sign > 0.0 else (near, far)


def _over_budget(method, reached):
    """ShootingBudgetError of a shot whose integrations stopped at
    ``reached``: (variable, its value, (start, end)) for each."""
    at = ", ".join(f"{x} = {t:.6g} of [{a:.6g}, {b:.6g}]"
                   for x, t, (a, b) in reached)
    return ShootingBudgetError(
        f"{method} shot stopped at {at} after more than {MAX_NFEV} "
        f"right-hand-side evaluations")


def _cubic_terms(form, u):
    """Taylor coefficients P_1, P_2, P_3 of the form's cubic P at u: dP(u),
    and from dP by central differences with step max(1, |u|), exact for a
    quadratic dP.  P_m = 0 above 3."""
    h = max(1.0, abs(u))
    lo, mid, hi = form.dP(u - h), form.dP(u), form.dP(u + h)
    return mid, (hi - lo) / (4.0 * h), (hi - 2.0 * mid + lo) / (6.0 * h * h)


#: A backward shot connects once V(e) < _CAPTURE_MARGIN * lam_min(M) * r^2,
#: halfway into the certified sublevel set, so that the true orbit, off the
#: computed step end by the step's error, is still inside that set.
_CAPTURE_MARGIN = 0.5
#: the certificate of a node that does not attract the reversed flow: V = 0
#: and no point below level 0
_NO_CAPTURE = (0.0, 0.0, 0.0, 0.0)


def _capture_certificate(form, node_u):
    """Lyapunov certificate (m1, m2, m3, level) that the reversed flow
    u' = -v, v' = -(T*v + P(u)) carries every point with V(e) < level into
    the equilibrium node_u, where e = (u - node_u, v) and V(e) = e^T M e,
    M = [[m1, m2], [m2, m3]]; _NO_CAPTURE when a linearised eigenvalue has
    real part >= 0, or when lam_max(M) or the level overflows.

    J = [[0, -1], [-P_1, -T]] is the linearisation at the node, P_1 =
    dP(node_u); its eigenvalues have negative real parts exactly when T > 0
    and P_1 < 0.  M solves J^T M + M J = -I: m2 = 1/(2 P_1), m3 = (1/2 -
    m2)/T, m1 = -T m2 - P_1 m3, positive definite with det M = -m2/2 -
    P_1 m3^2.  The remainder of the cubic P about the node is exactly
    P_2 x^2 + P_3 x^3 (``_cubic_terms``), so along the reversed flow
    dV/dt <= -|e|^2 (1 - 2 ||M|| (|P_2| r + |P_3| r^2)) on the ball
    |e| <= r.  So V decreases on the ball of the radius r at which that
    bracket vanishes, and the sublevel set V < lam_min(M) r^2 lies inside
    it (H. K. Khalil, Nonlinear Systems, 3rd ed., 2002, chs. 4 and 8).
    The level keeps _CAPTURE_MARGIN of that.
    """
    T = float(form.T)
    p1, p2, p3 = _cubic_terms(form, float(node_u))
    if not (T > 0.0 and p1 < 0.0):
        return _NO_CAPTURE
    m2 = 0.5 / p1
    m3 = (0.5 - m2) / T
    m1 = -T * m2 - p1 * m3
    # the larger eigenvalue is a sum of positive terms; the smaller one is
    # det/lam_max, not half_trace - dev, which cancels when m1 >> m3
    lam_max = 0.5 * (m1 + m3) + math.hypot(0.5 * (m1 - m3), m2)
    if not lam_max < math.inf:  # M overflows: T or 1/P_1 near the float limit
        return _NO_CAPTURE
    lam_min = (-0.5 * m2 - p1 * (m3 * m3)) / lam_max
    # positive root of |P_3| r^2 + |P_2| r = c, in the form without
    # cancellation (r = c/|P_2| when P_3 = 0)
    c = 0.5 / lam_max
    a2, a3 = abs(p2), abs(p3)
    r = 2.0 * c / (a2 + math.sqrt(a2 * a2 + 4.0 * a3 * c))
    level = _CAPTURE_MARGIN * lam_min * (r * r)
    # m3*m3 overflows first when T is tiny (m3 ~ 1/T): an infinite level
    # would capture every point
    if not level < math.inf:
        return _NO_CAPTURE
    return m1, m2, m3, level


class _Shot:
    """One backward shot: the field's T and P, the node it aims at and its
    capture certificate, its evaluation count, and its accepted steps
    (t, u, v)."""

    __slots__ = ("T", "P", "node_u", "capture", "nfev", "steps", "connects")

    def __init__(self, form, node_u):
        self.T, self.P, self.node_u = form.T, form.P, node_u
        self.capture = _capture_certificate(form, node_u)
        self.nfev, self.steps, self.connects = 0, [], False

    def stops(self, t, y):
        """Record the step end (t, y).  The shot connects at a step end
        inside the node's capture certificate (``_capture_certificate``),
        from which the flow provably falls into the node, or within half of
        CONNECTION_TOL of it; it misses outside the box or over the
        evaluation budget."""
        u, v = y.tolist()
        self.steps.append((t, u, v))
        x = u - self.node_u
        m1, m2, m3, level = self.capture
        if (math.hypot(x, v) < 0.5 * CONNECTION_TOL
                or x * (m1 * x + 2.0 * m2 * v) + m3 * (v * v) < level):
            self.connects = True
            return True
        return abs(u) > U_BOX or abs(v) > V_BOX or self.nfev > MAX_NFEV


#: The running shot.  scipy's compiled DOP853 wrapper (``_dop``, scipy 1.17)
#: keeps a reference to every right-hand side and integrator handed to it,
#: so a closure per shot would leak its problem and trajectory (13.6 MB over
#: 960 shots of one cell).  All shots share one field function instead, and
#: all compiled shots the one integrator of ``_compiled_dop853``, which read
#: the shot from here; _SHOT_LOCK keeps two threads from running a shot at
#: once, and from making that integrator twice.
_shot = None
_SHOT_LOCK = threading.Lock()


def _reversed_field(_, y):
    shot = _shot
    shot.nfev += 1
    u, v = y.tolist()
    return [-v, -(shot.T * v + shot.P(u))]


def _step_end(t, y):
    """solout of the compiled DOP853: -1 stops it."""
    return -1 if _shot.stops(t, y) else 0


@functools.cache
def _compiled_dop853():
    """The process's one compiled DOP853, made on the first compiled shot
    (under _SHOT_LOCK), so that importing the package loads no scipy."""
    from scipy.integrate import ode
    # nsteps at the int32 limit: the evaluation budget, checked in
    # _Shot.stops, bounds a shot instead
    integrator = ode(_reversed_field).set_integrator(
        "dop853", rtol=RTOL, atol=ATOL, nsteps=2**31 - 1)
    integrator.set_solout(_step_end)
    return integrator


def _dop853(y0, horizon):
    """Run the shot from y0 on the shared compiled DOP853."""
    integrator = _compiled_dop853()
    integrator.set_initial_value(y0, 0.0)
    # IWORK(4) < 0 turns off DOP853's stiffness test, which scipy does not
    # expose: its interrupt (istate -4) would read as a miss.  A failed
    # step (istate < 0) warns; the shot reads it as a miss, so the warning
    # is silenced to keep stderr clean.
    integrator._integrator.iwork[3] = -1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        integrator.integrate(horizon)


def _step_through(solver):
    """Step a scipy ``OdeSolver`` of _reversed_field until the shot stops,
    the solver reaches its horizon, or a step fails (``step`` then returns
    its message, and the unchanged end is not recorded again)."""
    shot = _shot
    while not shot.stops(solver.t, solver.y):
        if solver.status != "running" or solver.step():
            break


def _backward_shot(form, node_u, y0, horizon, stiff):
    """Shot of the reversed flow from y0: (t, u, v, connects, nfev).  A
    stiff shot steps BDF with the analytic Jacobian, minus the forward one;
    the others run on the compiled DOP853."""
    global _shot
    shot = _Shot(form, node_u)
    with _SHOT_LOCK:
        _shot = shot
        try:
            if stiff:
                from scipy.integrate import BDF
                _step_through(BDF(_reversed_field, 0.0, y0, horizon,
                                  rtol=RTOL, atol=ATOL,
                                  jac=lambda _, y: -jacobian(y[0], form)))
            else:
                _dop853(y0, horizon)
        finally:
            _shot = None
    t, u, v = np.array(shot.steps).T
    if shot.nfev > MAX_NFEV and not shot.connects:
        raise _over_budget("BDF" if stiff else "DOP853",
                           [("t", t[-1], (0.0, horizon))])
    return t, u, v, shot.connects, shot.nfev


def _manifold_series(form, u_s, lam, span):
    """Taylor coefficients b_1..b_K (K at most MANIFOLD_ORDER) of the graph
    v = phi(u) of the invariant manifold of the equilibrium u_s whose
    eigenvalue is lam, scaled so that no power of a large offset is taken:
    phi(u_s + span*t) = span*rate*sum_m b_m*t^m, rate = |lam| + |T|.

    phi*phi' = T*phi + P(u) gives, for x = u - u_s and phi = sum_m c_m*x^m,
    c_1 = lam and c_m*((m+1)*lam - T) = P_m - (m+1)/2*sum_{i=2}^{m-1}
    c_i*c_{m+1-i}, where P_1..P_3 are the Taylor coefficients of the cubic
    P at u_s (``_cubic_terms``).  At a saddle (and at a
    saddle-node start, lam = T > 0) the divisor has the sign of lam for
    either sign of T and is of the order of rate or larger, so it never
    vanishes.  The series stops before a coefficient that is not finite.
    """
    # in Python floats: numpy scalar arithmetic costs several times more
    T, lam, u_s = float(form.T), float(lam), float(u_s)
    rate = abs(lam) + abs(T)
    _, p2, p3 = _cubic_terms(form, u_s)
    scale = span / rate
    # P_m * span^(m-1) / rate^2 for m = 2, 3; P_m = 0 above 3
    q = {2: p2 / rate * scale, 3: p3 * scale * scale}
    b = [lam / rate]
    for m in range(2, MANIFOLD_ORDER + 1):
        inner = b[1:m - 1]  # b_2..b_{m-1}
        conv = sum(map(operator.mul, inner, reversed(inner)))
        b_m = ((q.get(m, 0.0) - 0.5 * (m + 1) * conv)
               / ((m + 1) * b[0] - T / rate))
        if not math.isfinite(b_m):
            break
        b.append(b_m)
    return b, span * rate


def _horner(b, t):
    """sum_m b_m * t^m for b = [b_1, b_2, ...], t a float or an array."""
    acc = 0.0
    for c in reversed(b):
        acc = acc * t + c
    return acc * t


def _launch(form, u_s, toward, lam):
    """Rows (u, v) of the Taylor graph phi of the manifold of the
    equilibrium u_s (eigenvalue lam) on the side of ``toward``; the last row
    is the launch point of the shot.

    The first row lies SEED_OFFSET * max(1, |u_s|) from u_s, so that a step
    near it stays above the spacing of floats at u_s; the offsets double
    from there up to the launch.  The launch lies span/2^k from u_s, span =
    |toward - u_s|, for the smallest k >= 2 at which the last two terms of
    the series are below 1e-16 of its sum, that is at the farthest of those
    points at which phi is exact to rounding, and never nearer than the
    first row; a series cut short by a coefficient that is not finite
    launches there.  On the kinetic locus the series ends at order 2 (the
    parabola), so a shot launches a quarter span out.  A graph whose scale
    span*(|lam| + |T|) overflows raises DomainError.
    """
    sgn = 1.0 if toward > u_s else -1.0
    span = abs(toward - u_s)
    b, v_scale = _manifold_series(form, u_s, lam, span)
    if not v_scale < math.inf:  # T infinite, or a huge span at a large T
        raise DomainError(f"the manifold of u={u_s!r} has a scale span*(|lam| "
                          f"+ |T|) = {v_scale:.3g} that overflows (T = "
                          f"{form.T:.3g}, span = {span:.3g})")
    near = SEED_OFFSET * max(1.0, abs(u_s))
    far = near
    if len(b) == MANIFOLD_ORDER:
        k = 2
        while math.ldexp(span, -k) > near:
            psi = abs(_horner(b, math.ldexp(sgn, -k)))
            if max(math.ldexp(abs(b[-2]), -k * (MANIFOLD_ORDER - 1)),
                   math.ldexp(abs(b[-1]), -k * MANIFOLD_ORDER)) < 1e-16 * psi:
                far = math.ldexp(span, -k)
                break
            k += 1
    offsets = [near]
    while 2.0 * offsets[-1] < far:
        offsets.append(2.0 * offsets[-1])
    if far > near:
        offsets.append(far)
    u = u_s + sgn * np.array(offsets)
    return u, v_scale * _horner(b, (u - u_s) / span)


def _check_equilibria(form, **ends):
    """Raise DomainError naming each of the two ends u off equilibrium by
    more than the seed offset: |P(u)| above SEED_OFFSET * max(1, |u|) *
    max(1, |dP(u)|), or not finite (an infinite P passes the bound when the
    bound overflows too).  An end whose cube overflows is refused first,
    and then ends that coincide: the span between them scales a shot's
    launch.  Last, ends not more than twice the seed offset SEED_OFFSET *
    max(1, |u_1|, |u_2|) apart are refused: the orbit's first row lies that
    offset out from its start, past the midpoint of a saddle-saddle march
    or past the node of a backward shot."""
    _check_cubes("shooting", **ends)
    bad = [f"{name}={u!r} (P(u) = {form.P(u):.3g})" for name, u in ends.items()
           if not abs(form.P(u)) <= min(SEED_OFFSET * max(1.0, abs(u))
                                        * max(1.0, abs(form.dP(u))),
                                        sys.float_info.max)]
    if bad:
        raise DomainError("shooting requires equilibria at both ends; off "
                          "equilibrium: " + ", ".join(bad))
    a, b = ends.values()
    seed = SEED_OFFSET * max(1.0, abs(a), abs(b))
    if not abs(b - a) > 2.0 * seed:
        named = ", ".join(f"{k}={u!r}" for k, u in ends.items())
        if a == b:
            raise DomainError("shooting requires two distinct equilibria, got "
                              + named)
        raise DomainError(f"shooting requires ends more than twice the seed "
                          f"offset {seed:.3g} apart, or the orbit starts past "
                          f"its other end: {named}")


def _march(form, launches, u_end, vmax):
    """March the graph ODE dv/du = T + P(u)/v of every arc of ``launches``
    from the last of its rows (u, v) to u_end, all arcs as one system in a
    shared parameter tau in [0, 1]: u = u0 + tau*(u_end - u0) and dv/dtau =
    (u_end - u0)*(T + P(u)/v) for an arc launched at (u0, v0).  Returns the
    arcs, (status, u, v) each, the rows and then the steps, and the
    right-hand-side evaluations spent.

    Each arc ends the march on a fold ("fold": v crossing zero, detected
    robustly by v*sgn(v0) falling through _V_FLOOR) or on |v| exceeding vmax
    ("diverges").  An arc that reaches tau = 1 is "ok", its last u exactly
    u_end; one that another arc's event stopped short is "stopped".  A
    failed step ends every arc not yet done as "diverges", as it ends one
    arc marched alone.  The system's error norm is the RMS of the arcs', so
    each arc's local error may reach sqrt(n) times the tolerance of one.
    """
    T, P = form.T, form.P
    arcs = [(float(u[-1]), u_end - float(u[-1])) for u, _ in launches]
    nfev = 0

    def rhs(tau, y):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_NFEV:
            raise _over_budget("DOP853", [("u", u0 + tau * d, (u0, u_end))
                                          for u0, d in arcs])
        # in Python floats: numpy scalar arithmetic costs several times more
        tau = float(tau)
        return [d * (T + P(u0 + tau * d) / v)
                for (u0, d), v in zip(arcs, y.tolist())]

    def fold(i, sgn):
        def event(tau, y):
            return y[i] * sgn - _V_FLOOR
        event.terminal, event.direction = True, -1
        return event

    def big(i):
        def event(tau, y):
            return abs(y[i]) - vmax
        event.terminal = True
        return event

    v0 = [float(v[-1]) for _, v in launches]
    events = [ev for i, v in enumerate(v0)
              for ev in (fold(i, 1.0 if v > 0 else -1.0), big(i))]
    # a field that overflows in the stepper's error norm fails the step,
    # which reads as the arcs' divergence, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, 1.0), v0, method="DOP853", rtol=RTOL,
                        atol=ATOL, events=events)
    out = []
    for i, ((u0, d), (ru, rv)) in enumerate(zip(arcs, launches)):
        u = u0 + sol.t * d
        if sol.t_events[2 * i].size:
            status = "fold"
        elif sol.t_events[2 * i + 1].size:
            status = "diverges"
        elif sol.status == 0:
            status = "ok"
            u[-1] = u_end
        else:
            status = "stopped" if sol.status == 1 else "diverges"
        out.append((status, np.concatenate([ru[:-1], u]),
                    np.concatenate([rv[:-1], sol.y[i]])))
    return out, nfev


def _xi(u, v):
    """xi along a graph v(u) from 0 at its first point, by the trapezoid
    rule on du / v."""
    xi = np.zeros_like(u)
    if len(u) > 1:
        du = np.diff(u)
        xi[1:] = np.cumsum(du * 0.5 * (1.0 / v[1:] + 1.0 / v[:-1]))
    return xi


def _graph_orbit(u, v, verdict, dist, nfev):
    """OrbitResult of a graph-marched orbit."""
    return OrbitResult(np.column_stack([_xi(u, v), u, v]), verdict,
                       float(dist), nfev)


def shoot_saddle_connection(form, u_from, u_to, vmax=V_BOX):
    """Bidirectional saddle-saddle shooting for the Lienard form ``form``.

    Both ends must be distinct equilibria (``_check_equilibria``), more
    than twice the seed offset apart, with dP > 0 (saddles); dP = 0 is
    accepted at u_from (saddle-node endpoint, exit along the
    T-eigendirection, which needs T > 0).  Marches the
    unstable-manifold graph from u_from and the stable-manifold graph from
    u_to to the midpoint section, as one system (``_march``), and compares
    them there; they connect when the defect is below CONNECTION_TOL times
    the orbit's v-scale max(1, span*rate), the scale of the launch's series
    (``_manifold_series``).  The forward arc decides first: when the
    backward arc folds or diverges first, the forward one is finished alone,
    and its own fold (a miss) or divergence is the verdict; only then does
    the backward arc's failure make the shot diverge.  Graphs whose rows are
    not normal floats, which the march could not divide by, are refused.
    """
    _check_equilibria(form, u_from=u_from, u_to=u_to)
    if form.dP(u_from) < -1e-9 or form.dP(u_to) <= 0.0:
        raise DomainError("shooting requires saddle equilibria at both ends")
    sgn = 1.0 if u_to > u_from else -1.0
    umid = 0.5 * (u_from + u_to)

    lam_u, _ = eigenvalues(u_from, form)
    if isinstance(lam_u, complex) or not lam_u > 0.0:
        raise DomainError(f"u_from={u_from!r} has no unstable direction "
                          f"(T = {form.T:.3g}, P'(u) = {form.dP(u_from):.3g})")
    _, lam_s = eigenvalues(u_to, form)
    launches = [_launch(form, u_from, u_to, lam_u),
                _launch(form, u_to, u_from, lam_s)]
    # the graph ODE and xi divide by v: at T ~ 1e300 the stable eigenvalue
    # -dP/T of u_to is ~1e-300, and its graph rounds to v = 0 by the launch
    flat = [f"{name}={u!r} (|v| down to {min(abs(v)):.3g})" for name, u, (_, v)
            in zip(("u_from", "u_to"), (u_from, u_to), launches)
            if not min(abs(v)) >= sys.float_info.min]
    if flat:
        raise DomainError(f"shooting requires manifold graphs whose rows are "
                          f"normal floats (T = {form.T:.3g}); got "
                          + ", ".join(flat))
    ((st_f, uf, vf), (st_b, ub, vb)), nfev = _march(form, launches, umid, vmax)
    if st_f == "stopped":
        # the backward arc stopped first: the forward arc still decides first
        ((st_f, uf, vf),), more = _march(form, [(uf, vf)], umid, vmax)
        nfev += more
    closest = np.hypot(uf - u_to, vf).min() if uf.size else np.inf
    if st_f != "ok":
        verdict = Verdict.DIVERGES
        if st_f == "fold":
            verdict = Verdict.MISSES_ABOVE if sgn < 0 else Verdict.MISSES_BELOW
        return _graph_orbit(uf, vf, verdict, closest, nfev)
    if st_b != "ok":
        return _graph_orbit(uf, vf, Verdict.DIVERGES, closest, nfev)

    defect = float(vf[-1] - vb[-1])
    # both arcs end exactly at the midpoint section; keep one copy
    uu = np.concatenate([uf, ub[::-1][1:]])
    vv = np.concatenate([vf, vb[::-1][1:]])
    # v grows like span^2 on the p-system, where an absolute tolerance reads
    # the rounding of the defect past |u| ~ 1e4
    v_scale = max(1.0, abs(u_to - u_from) * (abs(lam_u) + abs(form.T)))
    if abs(defect) < CONNECTION_TOL * v_scale:
        return _graph_orbit(uu, vv, Verdict.CONNECTS, abs(defect), nfev)
    verdict = Verdict.MISSES_ABOVE if defect > 0 else Verdict.MISSES_BELOW
    return _graph_orbit(uu, vv, verdict, closest, nfev)


def shoot_unstable(prob: TWProblem, from_u, toward, backward=False):
    """Shoot a manifold of the equilibrium ``from_u`` toward ``toward``.

    With backward=False (default) both states must be saddle-type outside
    equilibria; the saddle-saddle connection is sought (undercompressive
    profile).  With backward=True the stable manifold of the saddle
    ``from_u`` is integrated backward in xi toward the middle equilibrium
    ``toward``; convergence into that node/focus establishes a Lax profile.
    """
    if backward:
        return _shoot_backward_to_node(prob, from_u, toward)
    return shoot_saddle_connection(prob, from_u, toward)


def _slow_time(form, saddle_u, node_u, tol):
    """Time the reversed flow takes to leave the saddle from SEED_OFFSET and
    then close in on the node to ``tol``, each at its slowest linear rate
    (at a focus the real part T/2); 0 when the node does not attract it.
    It is measured from the first row of the orbit, not from its launch
    point, so that the horizon and the choice of stepper do not depend on
    how far out the manifold's series holds."""
    r_node = eigenvalues(node_u, form)[1].real
    if r_node <= 0.0:
        return 0.0
    span = abs(node_u - saddle_u)
    lam_s = eigenvalues(saddle_u, form)[1]
    return float(np.log(span / SEED_OFFSET) / abs(lam_s)
                 + np.log(span / tol) / r_node)


def _shoot_backward_to_node(form, saddle_u, node_u):
    """Reverse-xi integration of the saddle's stable manifold; it connects
    when a step end enters the node's capture certificate or comes within
    half of CONNECTION_TOL of the node (``_Shot.stops``).  The ends are
    checked as a saddle-saddle shot's are (``_check_equilibria``)."""
    _check_equilibria(form, saddle_u=saddle_u, node_u=node_u)
    if form.dP(saddle_u) <= 0:
        raise DomainError(f"u={saddle_u!r} is not a saddle of the problem")
    # integrate twice the slow time, at least 5000: weak shocks near u = 0
    # are slow at both ends.  In Python floats the product overflows to inf
    # at subnormal speeds, without a warning, and is refused.
    T = float(form.T)
    t_slow = _slow_time(form, saddle_u, node_u, CONNECTION_TOL)
    stiffness = T * t_slow
    # NaN at T = inf, whose node term is 0
    if not stiffness <= MAX_STIFF_RATIO:
        raise DegenerateSpeedError(
            f"backward shot at T = {T:.6g} is too stiff to integrate: T times "
            f"its slow time is {stiffness:.3g}, above {MAX_STIFF_RATIO:.0e}")
    horizon = max(5000.0, 2.0 * t_slow)
    ru, rv = _launch(form, saddle_u, node_u, eigenvalues(saddle_u, form)[1])
    t, u, v, connects, nfev = _backward_shot(form, node_u, [ru[-1], rv[-1]],
                                             horizon, stiffness > STIFF_RATIO)
    # the rows before the launch, xi from the graph; then xi = -t onward
    xi = _xi(ru, rv)
    u, v = np.concatenate([ru[:-1], u]), np.concatenate([rv[:-1], v])
    dist = np.hypot(u - node_u, v)
    traj = np.column_stack([np.concatenate([xi[:-1], xi[-1] - t]), u, v])
    if connects:
        return OrbitResult(traj, Verdict.CONNECTS, float(dist[-1]), nfev)
    return OrbitResult(traj, Verdict.DIVERGES, float(dist.min()), nfev)


def parabola_residual(orbit: OrbitResult, u_minus, u_plus):
    """Max deviation of the orbit from the invariant parabola
    v = (1/sqrt(2))*(u - u_-)*(u - u_+).

    Small only for saddle-saddle (undercompressive) orbits; Lax profiles
    deviate at O(1).
    """
    u, v = orbit.trajectory[:, 1], orbit.trajectory[:, 2]
    k = 1.0 / np.sqrt(2.0)
    return float(np.abs(v - k * (u - u_minus) * (u - u_plus)).max())
