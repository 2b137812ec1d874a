"""Traveling-wave phase-plane analysis and heteroclinic shooting.

The scalar traveling-wave ODE in the stretched variable xi is the Lienard
form system

    u' = v,    v' = T*v + P(u),

with T = gamma/sqrt(s) and P(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-).
Saddle-saddle connections (undercompressive profiles) are verified by a
bidirectional graph march: along a heteroclinic the orbit is a monotone
graph v = v(u), so each arc solves dv/du = T + P(u)/v away from its saddle,
which is numerically contracting toward the connection from both ends.  The
two arcs are matched at the midpoint section; the matching defect is the
connection certificate (reported as ``terminal_distance``).  Lax profiles
(node-to-saddle) are verified by integrating the saddle's stable manifold
backward in xi until it falls into the node, which is attracting for the
reversed flow.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DegenerateSpeedError, DomainError
from .kinetics import KineticPoint

#: defaults fixed by design: RK45 with these tolerances, seed offset along
#: the eigenvector, connection tolerance, and bounding box |u|<=3, |v|<=10.
RTOL = 1e-10
ATOL = 1e-12
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
    """Parameters of the scalar traveling-wave ODE (requires s > 0)."""

    gamma: float
    s: float
    u_minus: float

    def __post_init__(self):
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

    def c(self, u):
        """Equilibrium cubic c(u) = u^3 - u - (u_-^3 - u_-) + s*(u - u_-)."""
        return u**3 - u - (self.u_minus**3 - self.u_minus) + self.s * (u - self.u_minus)

    def c_prime(self, u):
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


def vector_field(u, v, prob: TWProblem):
    """Right-hand side (u', v') of the first-order traveling-wave system."""
    return v, prob.gamma / np.sqrt(prob.s) * v + prob.c(u)


def jacobian(u, prob: TWProblem):
    return np.array([
        [0.0, 1.0],
        [prob.c_prime(u), prob.gamma / np.sqrt(prob.s)],
    ])


def eigenvalues(u, prob: TWProblem):
    """Eigenvalues (lam_plus, lam_minus) at an equilibrium.

    lam = (T +- sqrt(T^2 + 4*c'(u)))/2 with T = gamma/sqrt(s); real with
    opposite signs at the outside equilibria, complex with positive real
    part possible at the middle one.
    """
    t = prob.gamma / np.sqrt(prob.s)
    disc = t * t + 4.0 * prob.c_prime(u)
    root = np.sqrt(complex(disc))
    lp, lm = 0.5 * (t + root), 0.5 * (t - root)
    if disc >= 0.0:
        return lp.real, lm.real
    return lp, lm


# ---------------------------------------------------------------------------
# generic shooting engine for u' = v, v' = T*v + P(u)


def _lienard_eigs(T, dP_val):
    disc = T * T + 4.0 * max(dP_val, 0.0)
    r = np.sqrt(disc)
    return 0.5 * (T + r), 0.5 * (T - r)


def _march_arc(T, P, u0, v0, u_end, vmax):
    """Integrate the graph ODE dv/du = T + P(u)/v from (u0, v0) to u_end.

    Terminates on a fold (v crossing zero, detected robustly by a sign
    change of v relative to its launch sign) or on |v| exceeding vmax.
    """
    sgn_v = 1.0 if v0 > 0 else -1.0

    def rhs(u, y):
        return (T + P(u) / y[0],)

    def ev_fold(u, y):
        return y[0] * sgn_v - _V_FLOOR
    ev_fold.terminal = True
    ev_fold.direction = -1

    def ev_big(u, y):
        return abs(y[0]) - vmax
    ev_big.terminal = True

    sol = solve_ivp(rhs, (u0, u_end), [v0], method="RK45", rtol=RTOL, atol=ATOL,
                    events=[ev_fold, ev_big])
    if sol.t_events[0].size:
        return "fold", sol.t, sol.y[0]
    if sol.t_events[1].size:
        return "big", sol.t, sol.y[0]
    if not sol.success:
        return "error", sol.t, sol.y[0]
    return "ok", sol.t, sol.y[0]


def _xi_along_graph(u, v):
    """Reconstruct xi by trapezoidal integration of dxi = du / v."""
    xi = np.zeros_like(u)
    if len(u) > 1:
        du = np.diff(u)
        xi[1:] = np.cumsum(du * 0.5 * (1.0 / v[1:] + 1.0 / v[:-1]))
    return xi


def shoot_saddle_connection(T, P, dP, u_from, u_to, tol=CONNECTION_TOL,
                            seed_offset=SEED_OFFSET, vmax=V_BOX):
    """Bidirectional saddle-saddle shooting for u' = v, v' = T*v + P(u).

    Requires dP > 0 (saddle) at both equilibria; dP = 0 is accepted at
    u_from (saddle-node endpoint, exit along the T-eigendirection).  Marches
    the unstable-manifold graph from u_from and the stable-manifold graph
    from u_to to the midpoint section and compares them there.
    """
    if dP(u_from) < -1e-9 or dP(u_to) <= 0.0:
        raise DomainError("shooting requires saddle equilibria at both ends")
    sgn = 1.0 if u_to > u_from else -1.0
    umid = 0.5 * (u_from + u_to)

    lam_u, _ = _lienard_eigs(T, dP(u_from))
    st_f, uf, vf = _march_arc(T, P, u_from + sgn * seed_offset,
                              sgn * seed_offset * lam_u, umid, vmax)
    if st_f != "ok":
        traj = np.column_stack([_xi_along_graph(uf, vf), uf, vf])
        if st_f == "fold":
            verdict = Verdict.MISSES_ABOVE if sgn < 0 else Verdict.MISSES_BELOW
        else:
            verdict = Verdict.DIVERGES
        dist = float(np.hypot(uf - u_to, vf).min()) if uf.size else np.inf
        return OrbitResult(traj, verdict, dist)

    _, lam_s = _lienard_eigs(T, dP(u_to))
    st_b, ub, vb = _march_arc(T, P, u_to - sgn * seed_offset,
                              -sgn * seed_offset * lam_s, umid, vmax)
    if st_b != "ok":
        traj = np.column_stack([_xi_along_graph(uf, vf), uf, vf])
        dist = float(np.hypot(uf - u_to, vf).min())
        return OrbitResult(traj, Verdict.DIVERGES, dist)

    defect = float(vf[-1] - vb[-1])
    # both arcs end exactly at the midpoint section; keep one copy
    uu = np.concatenate([uf, ub[::-1][1:]])
    vv = np.concatenate([vf, vb[::-1][1:]])
    traj = np.column_stack([_xi_along_graph(uu, vv), uu, vv])
    if abs(defect) < tol:
        return OrbitResult(traj, Verdict.CONNECTS, abs(defect))
    verdict = Verdict.MISSES_ABOVE if defect > 0 else Verdict.MISSES_BELOW
    dist = float(np.hypot(uf - u_to, vf).min())
    return OrbitResult(traj, verdict, dist)


def shoot_unstable(prob: TWProblem, from_u, toward, tol=CONNECTION_TOL,
                   backward=False):
    """Shoot a manifold of the equilibrium ``from_u`` toward ``toward``.

    With backward=False (default) both states must be saddle-type outside
    equilibria; the saddle-saddle connection is sought (undercompressive
    profile).  With backward=True the stable manifold of the saddle
    ``from_u`` is integrated backward in xi toward the middle equilibrium
    ``toward``; convergence into that node/focus establishes a Lax profile.
    """
    if backward:
        return _shoot_backward_to_node(prob, from_u, toward, tol)
    T = prob.gamma / np.sqrt(prob.s)
    return shoot_saddle_connection(T, prob.c, prob.c_prime, from_u, toward,
                                   tol=tol)


def _shoot_backward_to_node(prob: TWProblem, saddle_u, node_u, tol):
    """Reverse-xi integration of the saddle's stable manifold."""
    if prob.c_prime(saddle_u) <= 0:
        raise DomainError(f"u={saddle_u!r} is not a saddle of the problem")
    t = prob.gamma / np.sqrt(prob.s)

    def rhs(_, y):
        u, v = y
        return (-v, -(t * v + prob.c(u)))

    _, lam_s = _lienard_eigs(t, prob.c_prime(saddle_u))
    sgn = 1.0 if node_u > saddle_u else -1.0
    y0 = (saddle_u + sgn * SEED_OFFSET, sgn * SEED_OFFSET * lam_s)

    def ev_close(_, y):
        return np.hypot(y[0] - node_u, y[1]) - tol
    ev_close.terminal = True
    ev_close.direction = -1

    def ev_box(_, y):
        return min(U_BOX - abs(y[0]), V_BOX - abs(y[1]))
    ev_box.terminal = True

    # integrate long enough to leave the saddle from the seed and then close
    # in on the node, each at its slowest linear rate under the reversed
    # flow (twice that, at least 5000): weak shocks near u = 0 are slow at
    # both ends.  The node is a focus when the discriminant is negative.
    disc = t * t + 4.0 * prob.c_prime(node_u)
    r_node = 0.5 * (t - np.sqrt(disc)) if disc >= 0.0 else 0.5 * t
    span = abs(node_u - saddle_u)
    horizon = 5000.0
    if r_node > 0.0:
        horizon = max(horizon, 2.0 * (np.log(span / SEED_OFFSET) / abs(lam_s)
                                      + np.log(span / tol) / r_node))
    sol = solve_ivp(rhs, (0.0, horizon), y0, method="RK45", rtol=RTOL, atol=ATOL,
                    events=[ev_close, ev_box])
    dist = np.hypot(sol.y[0] - node_u, sol.y[1])
    traj = np.column_stack([-sol.t, sol.y[0], sol.y[1]])
    if sol.t_events[0].size:
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
