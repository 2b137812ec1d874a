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
two arcs are matched at the midpoint section; the matching defect is the
connection certificate (reported as ``terminal_distance``).  Lax profiles
(node-to-saddle) are verified by integrating the saddle's stable manifold
backward in xi until it falls into the node, which is attracting for the
reversed flow.

Every shot integrates with DOP853 (Hairer, Norsett & Wanner, Solving ODEs
I), except stiff backward shots, which use BDF with the analytic Jacobian
(Hairer & Wanner, Solving ODEs II).  The reversed flow decays at a rate of
order T off the manifold while the shot moves along it at its slow rates, as
slow as ~|P'|/T; an explicit method then takes ~T steps per unit of xi, BDF
a few hundred steps in all.  Every backward shot is judged by one rule,
``_Shot.stops``, at the end of each accepted step: it connects inside half
of CONNECTION_TOL of the node and misses outside the box.  Two steppers feed
it: scipy's compiled DOP853 (``scipy.integrate.ode``, whose per-step cost is
a fraction of ``solve_ivp``'s on a 2-vector) and scipy's ``BDF`` stepped
directly.  Only the graph march runs through ``solve_ivp``, whose events
locate the fold inside the step.  A shot that spends more than MAX_NFEV
right-hand-side evaluations raises ``ShootingBudgetError``; a backward shot
stiffer than MAX_STIFF_RATIO, where BDF itself fails, raises
``DegenerateSpeedError`` before it starts.
"""

import math
import threading
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import BDF, ode, solve_ivp

from .errors import (
    DegenerateSpeedError,
    DomainError,
    ShootingBudgetError,
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

    trajectory has columns (xi, u, v); xi is reconstructed for graph-marched
    orbits.  For CONNECTS, terminal_distance is the matching defect of the
    two arcs at the midpoint section; otherwise it is the closest approach
    of the computed arc to the target equilibrium.
    """

    trajectory: np.ndarray
    verdict: Verdict
    terminal_distance: float


@dataclass(frozen=True)
class TWProblem:
    """Lienard form of the scalar traveling-wave ODE (requires s > 0)."""

    gamma: float
    s: float
    u_minus: float

    def __post_init__(self):
        _check_finite("TWProblem", gamma=self.gamma, s=self.s,
                      u_minus=self.u_minus)
        if self.s <= 0:
            raise DegenerateSpeedError(
                f"traveling-wave reduction requires s > 0, got s={self.s!r}"
            )

    @classmethod
    def from_kinetic_point(cls, point: KineticPoint):
        return cls(gamma=point.gamma, s=point.s, u_minus=point.u_minus)

    @property
    def equilibria(self):
        return equilibria(self.u_minus, self.s)

    @property
    def T(self):
        """Damping coefficient gamma/sqrt(s)."""
        return self.gamma / np.sqrt(self.s)

    def P(self, u):
        """Equilibrium cubic P(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-)."""
        return u**3 - u - (self.u_minus**3 - self.u_minus) + self.s * (u - self.u_minus)

    def dP(self, u):
        return 3.0 * u**2 - 1.0 + self.s


def equilibria(u_minus, s):
    """Equilibrium states: u_- plus the real roots of the chord condition.

    The companions are u = (-u_- +- sqrt(4*(1-s) - 3*u_-^2))/2; when three
    distinct equilibria exist they sum to zero.  Coincident roots are
    returned once (sorted tuple).
    """
    roots = [u_minus]
    disc = 4.0 * (1.0 - s) - 3.0 * u_minus**2
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


def _over_budget(method, t, span):
    return ShootingBudgetError(
        f"{method} shot stopped at t = {t:.6g} of [{span[0]:.6g}, "
        f"{span[1]:.6g}] after more than {MAX_NFEV} right-hand-side "
        f"evaluations")


class _Shot:
    """One backward shot: the field's T and P, the node it aims at, its
    evaluation count, and its accepted steps (t, u, v)."""

    __slots__ = ("T", "P", "node_u", "nfev", "steps", "connects")

    def __init__(self, form, node_u):
        self.T, self.P, self.node_u = form.T, form.P, node_u
        self.nfev, self.steps, self.connects = 0, [], False

    def stops(self, t, y):
        """Record the step end (t, y); the shot stops inside half the
        tolerance of the node (so the recorded end is within
        CONNECTION_TOL), outside the box, or over the evaluation budget."""
        u, v = y.tolist()
        self.steps.append((t, u, v))
        if math.hypot(u - self.node_u, v) < 0.5 * CONNECTION_TOL:
            self.connects = True
            return True
        return abs(u) > U_BOX or abs(v) > V_BOX or self.nfev > MAX_NFEV


#: The running shot.  scipy's compiled DOP853 wrapper (``_dop``, scipy 1.17)
#: keeps a reference to every right-hand side and integrator handed to it,
#: so a closure per shot would leak its problem and trajectory (13.6 MB over
#: 960 shots of one cell).  All shots share one field function instead, and
#: all compiled shots one integrator, which read the shot from here;
#: _SHOT_LOCK keeps two threads from running a shot at once.
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


# nsteps at the int32 limit: the evaluation budget, checked in _Shot.stops,
# bounds a shot instead
_DOP853 = ode(_reversed_field).set_integrator(
    "dop853", rtol=RTOL, atol=ATOL, nsteps=2**31 - 1)
_DOP853.set_solout(_step_end)


def _dop853(y0, horizon):
    """Run the shot from y0 on the shared compiled DOP853."""
    _DOP853.set_initial_value(y0, 0.0)
    # IWORK(4) < 0 turns off DOP853's stiffness test, which scipy does not
    # expose: its interrupt (istate -4) would read as a miss.  A failed
    # step (istate < 0) warns; the shot reads it as a miss, so the warning
    # is silenced to keep stderr clean.
    _DOP853._integrator.iwork[3] = -1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _DOP853.integrate(horizon)


def _step_through(solver):
    """Step a scipy ``OdeSolver`` of _reversed_field until the shot stops,
    the solver reaches its horizon, or a step fails (``step`` then returns
    its message, and the unchanged end is not recorded again)."""
    shot = _shot
    while not shot.stops(solver.t, solver.y):
        if solver.status != "running" or solver.step():
            break


def _backward_shot(form, node_u, y0, horizon, stiff):
    """Shot of the reversed flow from y0: (t, u, v, connects).  A stiff shot
    steps BDF with the analytic Jacobian, minus the forward one; the others
    run on the compiled DOP853."""
    global _shot
    shot = _Shot(form, node_u)
    with _SHOT_LOCK:
        _shot = shot
        try:
            if stiff:
                _step_through(BDF(_reversed_field, 0.0, y0, horizon,
                                  rtol=RTOL, atol=ATOL,
                                  jac=lambda _, y: -jacobian(y[0], form)))
            else:
                _dop853(y0, horizon)
        finally:
            _shot = None
    t, u, v = np.array(shot.steps).T
    if shot.nfev > MAX_NFEV and not shot.connects:
        raise _over_budget("BDF" if stiff else "DOP853", t[-1], (0.0, horizon))
    return t, u, v, shot.connects


def _seed(u, sgn, lam):
    """Launch point off the equilibrium u on the side ``sgn`` of the
    eigenvector of ``lam``, SEED_OFFSET * max(1, |u|) away in u: a step
    near it must stay above the spacing of floats at u."""
    du = sgn * SEED_OFFSET * max(1.0, abs(u))
    return u + du, du * lam


def _march_arc(form, u0, v0, u_end, vmax):
    """Integrate the graph ODE dv/du = T + P(u)/v from (u0, v0) to u_end.

    Terminates on a fold (v crossing zero, detected robustly by a sign
    change of v relative to its launch sign) or on |v| exceeding vmax.
    """
    T, P = form.T, form.P
    sgn_v = 1.0 if v0 > 0 else -1.0
    nfev = 0

    def rhs(u, y):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_NFEV:
            raise _over_budget("DOP853", u, (u0, u_end))
        return (T + P(u) / y[0],)

    def ev_fold(u, y):
        return y[0] * sgn_v - _V_FLOOR
    ev_fold.terminal = True
    ev_fold.direction = -1

    def ev_big(u, y):
        return abs(y[0]) - vmax
    ev_big.terminal = True

    sol = solve_ivp(rhs, (u0, u_end), [v0], method="DOP853", rtol=RTOL,
                    atol=ATOL, events=[ev_fold, ev_big])
    if sol.t_events[0].size:
        return "fold", sol.t, sol.y[0]
    ok = sol.success and not sol.t_events[1].size
    return "ok" if ok else "diverges", sol.t, sol.y[0]


def _graph_orbit(u, v, verdict, dist):
    """OrbitResult of a graph-marched arc, xi by the trapezoid rule on du / v."""
    xi = np.zeros_like(u)
    if len(u) > 1:
        du = np.diff(u)
        xi[1:] = np.cumsum(du * 0.5 * (1.0 / v[1:] + 1.0 / v[:-1]))
    return OrbitResult(np.column_stack([xi, u, v]), verdict, float(dist))


def shoot_saddle_connection(form, u_from, u_to, vmax=V_BOX):
    """Bidirectional saddle-saddle shooting for the Lienard form ``form``.

    Requires dP > 0 (saddle) at both equilibria; dP = 0 is accepted at
    u_from (saddle-node endpoint, exit along the T-eigendirection).  Marches
    the unstable-manifold graph from u_from and the stable-manifold graph
    from u_to to the midpoint section and compares them there; they connect
    when the defect is below CONNECTION_TOL.
    """
    if form.dP(u_from) < -1e-9 or form.dP(u_to) <= 0.0:
        raise DomainError("shooting requires saddle equilibria at both ends")
    sgn = 1.0 if u_to > u_from else -1.0
    umid = 0.5 * (u_from + u_to)

    lam_u, _ = eigenvalues(u_from, form)
    st_f, uf, vf = _march_arc(form, *_seed(u_from, sgn, lam_u), umid, vmax)
    closest = np.hypot(uf - u_to, vf).min() if uf.size else np.inf
    if st_f != "ok":
        verdict = Verdict.DIVERGES
        if st_f == "fold":
            verdict = Verdict.MISSES_ABOVE if sgn < 0 else Verdict.MISSES_BELOW
        return _graph_orbit(uf, vf, verdict, closest)

    _, lam_s = eigenvalues(u_to, form)
    st_b, ub, vb = _march_arc(form, *_seed(u_to, -sgn, lam_s), umid, vmax)
    if st_b != "ok":
        return _graph_orbit(uf, vf, Verdict.DIVERGES, closest)

    defect = float(vf[-1] - vb[-1])
    # both arcs end exactly at the midpoint section; keep one copy
    uu = np.concatenate([uf, ub[::-1][1:]])
    vv = np.concatenate([vf, vb[::-1][1:]])
    if abs(defect) < CONNECTION_TOL:
        return _graph_orbit(uu, vv, Verdict.CONNECTS, abs(defect))
    verdict = Verdict.MISSES_ABOVE if defect > 0 else Verdict.MISSES_BELOW
    return _graph_orbit(uu, vv, verdict, closest)


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
    """Time the reversed flow takes to leave the saddle from the seed and then
    close in on the node to ``tol``, each at its slowest linear rate (at a
    focus the real part T/2); 0 when the node does not attract it."""
    r_node = eigenvalues(node_u, form)[1].real
    if r_node <= 0.0:
        return 0.0
    span = abs(node_u - saddle_u)
    lam_s = eigenvalues(saddle_u, form)[1]
    return float(np.log(span / SEED_OFFSET) / abs(lam_s)
                 + np.log(span / tol) / r_node)


def _shoot_backward_to_node(form, saddle_u, node_u):
    """Reverse-xi integration of the saddle's stable manifold; it connects
    when it closes in on the node to CONNECTION_TOL."""
    if form.dP(saddle_u) <= 0:
        raise DomainError(f"u={saddle_u!r} is not a saddle of the problem")
    _, lam_s = eigenvalues(saddle_u, form)
    sgn = 1.0 if node_u > saddle_u else -1.0
    y0 = _seed(saddle_u, sgn, lam_s)

    # integrate twice the slow time, at least 5000: weak shocks near u = 0
    # are slow at both ends.  In Python floats the product overflows to inf
    # at subnormal speeds, without a warning, and is refused.
    T = float(form.T)
    t_slow = _slow_time(form, saddle_u, node_u, CONNECTION_TOL)
    stiffness = T * t_slow
    if stiffness > MAX_STIFF_RATIO:
        raise DegenerateSpeedError(
            f"backward shot at T = {T:.6g} is too stiff to integrate: T times "
            f"its slow time is {stiffness:.3g}, above {MAX_STIFF_RATIO:.0e}")
    horizon = max(5000.0, 2.0 * t_slow)
    t, u, v, connects = _backward_shot(form, node_u, y0, horizon,
                                       stiffness > STIFF_RATIO)
    dist = np.hypot(u - node_u, v)
    traj = np.column_stack([-t, u, v])
    if connects:
        return OrbitResult(traj, Verdict.CONNECTS, float(dist[-1]))
    return OrbitResult(traj, Verdict.DIVERGES, float(dist.min()))


def parabola_residual(orbit: OrbitResult, u_minus, u_plus):
    """Max deviation of the orbit from the invariant parabola
    v = (1/sqrt(2))*(u - u_-)*(u - u_+).

    Small only for saddle-saddle (undercompressive) orbits; Lax profiles
    deviate at O(1).
    """
    u, v = orbit.trajectory[:, 1], orbit.trajectory[:, 2]
    k = 1.0 / np.sqrt(2.0)
    return float(np.abs(v - k * (u - u_minus) * (u - u_plus)).max())
