"""Finite-difference simulator for u_t + (u - u^3)_x = beta*u_xx + mu*u_xxt.

Method of lines: second-order central differences in space; every
evaluation of u_t solves the tridiagonal system (I - mu*D2) w = beta*D2 u -
D1 f(u), and the profile advances with classical RK4.  For mu > 0 the BBM
term bounds the symbol of the right-hand side independent of dx, so the
default explicit step is set by beta, mu and max|f'|, not by the grid
(``default_dt``).  mu < 0 (the linearly unstable regime) is accepted on a
periodic grid only, so the growth of short waves can be observed there: its
symbol 1 + mu*k**2 has a pole, so on a bounded grid a run would hinge on
where the grid's modes fall against it (``SimConfig`` refuses it).  Its
default step is taken from the largest eigenvalue over the grid modes, and
a pole on a grid mode is refused.

One ghost-cell stencil serves every boundary condition, which only names
the two values outside the grid.  Only the implicit solve differs: FFT
diagonalization for periodic runs, otherwise one symmetric positive definite
tridiagonal form whose end rows are the condition's own (Dirichlet: w = 0,
decoupled; Neumann: halved), factored once per config as LDL^T (LAPACK's
dpttrf).  Each stage solves in place on its own right-hand side (dpttrs).

Each RK4 step runs every stage in place, in the operation order of the
textbook expressions, so profiles keep their bits (``step``).  The
``"exp"`` front-speed fit scores all its decay rates in one array pass
(``_fit_positions``).  ``detect_fronts`` trims, values and groups each flat
run in one pass of array operations.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._scipy import dpttrf, dpttrs as solve_banded
from .errors import (DomainError, SimulationDivergedError, _check_cubes,
                     _check_finite, _not_finite)
from .kinetics import KineticPoint
from .model import char_speed, flux

#: Share of RK4's stability limit taken by the default step.  At 0.35, the
#: plateaus and front speeds of Riemann runs at dx = 0.05 stay within 9 % of
#: the Riemann solver's tolerance (1 %, 2 %) of their values at a 13x
#: smaller step; at 1.0 the front speeds leave that tolerance.
DEFAULT_SYMBOL_SAFETY = 0.35
_FLOAT_MAX = float(np.finfo(float).max)
_RK4_REAL_LIMIT = 2.78  # RK4 is stable on [-2.78, 0] (and on i*[-2.83, 2.83])
#: The most time steps a run may plan; t_end/dt above it is refused before
#: the run (fig4 plans 5000).
MAX_STEPS = 10**6
#: The most grid points a run may have.
MAX_NX = 10**6
#: Grid points a flat run needs to count as a plateau, and the scale of the
#: gap across which two runs of nearly equal value merge (4 * MIN_RUN).
MIN_RUN = 25
#: A grid point is flat when abs(du/dx) is below this.
PLATEAU_TOL = 0.01


class BoundaryCondition(Enum):
    DIRICHLET_FARFIELD = "dirichlet_farfield"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class SmoothedRiemann:
    """tanh profile u(x) = ((u_R - u_L)*tanh(k*x) + (u_R + u_L))/2."""

    u_left: float
    u_right: float
    steepness: float

    def __post_init__(self):
        _check_finite("SmoothedRiemann", u_left=self.u_left,
                      u_right=self.u_right, steepness=self.steepness)

    def profile(self, x, mu):
        with np.errstate(over="ignore"):  # steepness*x may overflow: tanh(+-inf) = +-1
            return 0.5 * ((self.u_right - self.u_left) * np.tanh(self.steepness * x)
                          + (self.u_right + self.u_left))


@dataclass(frozen=True)
class TravelingWaveSeed:
    """Exact undercompressive profile of a kinetic-locus point.

    The parabola orbit integrates to
    u(xi) = (u_- + u_+)/2 - (u_- - u_+)/2 * tanh((u_- - u_+)*xi/(2*sqrt(2)))
    with xi = (x - center)/sqrt(mu*s), so it needs mu > 0.
    """

    point: KineticPoint
    center: float = 0.0

    def profile(self, x, mu):
        if not mu > 0:
            raise DomainError(f"traveling-wave seed at mu={mu!r}: needs mu > 0, as "
                              "its scale is sqrt(mu*s)")
        um, up, s = self.point.u_minus, self.point.u_plus, self.point.s
        xi = (np.asarray(x) - self.center) / np.sqrt(mu * s)
        gap = um - up
        return 0.5 * (um + up) - 0.5 * gap * np.tanh(gap * xi / (2.0 * np.sqrt(2.0)))


@dataclass(frozen=True, eq=False)
class CustomProfile:
    """u = fn(x); compared and hashed by identity, so fn need not hash."""

    fn: object  # callable x-array -> u-array

    def profile(self, x, mu):
        u = np.asarray(self.fn(x), dtype=float)
        if u.shape != x.shape:
            raise DomainError("custom profile must return one value per grid point")
        return u


@dataclass(frozen=True)
class SimConfig:
    beta: float
    mu: float
    x_min: float
    x_max: float
    nx: int
    t_end: float
    initial: object  # hashable, with profile(x, mu) -> u on the grid x
    dt: float | None = None
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET_FARFIELD

    def __post_init__(self):
        bad = _not_finite(beta=self.beta, mu=self.mu, x_min=self.x_min,
                          x_max=self.x_max, t_end=self.t_end, dt=self.dt)
        if self.beta <= 0:
            bad.append(f"beta={self.beta!r} (must be > 0)")
        if self.mu == 0:
            bad.append("mu=0 (must be nonzero; mu < 0 only on a periodic grid)")
        if not isinstance(self.bc, BoundaryCondition):
            bad.append(f"bc={self.bc!r} (must be a BoundaryCondition)")
        elif self.mu < 0 and self.bc is not BoundaryCondition.PERIODIC:
            bad.append(f"mu={self.mu!r} on a {self.bc.value} grid (mu < 0 needs "
                       "bc=periodic)")
        if not 3 <= self.nx <= MAX_NX:
            bad.append(f"nx={self.nx!r} (must be >= 3 and <= {MAX_NX})")
        if self.x_max <= self.x_min:
            bad.append(f"x range [{self.x_min!r}, {self.x_max!r}] (empty)")
        elif (float(self.x_max) - float(self.x_min) == math.inf
              and math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            bad.append(f"x range [{self.x_min!r}, {self.x_max!r}] (its width "
                       "overflows)")
        if self.dt is not None and self.dt <= 0:
            bad.append(f"dt={self.dt!r} (must be > 0)")
        if self.t_end < 0:
            bad.append(f"t_end={self.t_end!r} (must be >= 0)")
        init = self.initial  # must hash: operators are cached per config
        if not callable(getattr(init, "profile", None)) or type(init).__hash__ is None:
            bad.append(f"initial={init!r} (needs a profile(x, mu) method and a hash)")
        if bad:
            raise DomainError("invalid SimConfig: " + "; ".join(bad))


@dataclass(frozen=True)
class SimState:
    t: float
    u: np.ndarray
    dx: float
    x0: float = 0.0  # x-coordinate of the first grid point


@dataclass(frozen=True)
class SimResult:
    final: SimState
    snapshots: tuple


def x_grid(cfg: SimConfig):
    if cfg.bc is BoundaryCondition.PERIODIC:
        dx = (cfg.x_max - cfg.x_min) / cfg.nx
        return cfg.x_min + dx * np.arange(cfg.nx), dx
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    return x, x[1] - x[0]


def initial_profile(cfg: SimConfig):
    """The state at t = 0; DomainError unless the cube of its largest |u| is
    finite (so a NaN is refused too)."""
    x, dx = x_grid(cfg)
    u = cfg.initial.profile(x, cfg.mu)
    _check_cubes("initial profile", max_abs_u=float(np.abs(u).max()))
    return SimState(0.0, u.astype(float), dx, float(x[0]))


def _periodic_symbol(n, dx, mu):
    """(theta, L, 1 - mu*L) at the modes k = 0..n//2 of a periodic grid of n
    points: theta = 2*pi*k/n, and L = (2*cos(theta) - 2)/dx**2 is the
    symbol of D2."""
    theta = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / n
    lam = (2.0 * np.cos(theta) - 2.0) / (dx * dx)
    return theta, lam, 1.0 - mu * lam


def default_dt(cfg: SimConfig):
    """Explicit RK4 step from the discrete symbol of u_t.

    A grid mode exp(i*theta*j) about a state with |f'| <= a, a = max(1,
    max|f'(u0)|), has the eigenvalue
    (-beta*sigma - i*f'*sin(theta)/dx) / (1 + mu*sigma), sigma =
    4*sin(theta/2)**2/dx**2.  For mu > 0 it lies in the box
    |Im| <= min(a/(2*sqrt(mu)), a/dx), |Re| <= min(beta/mu, 4*beta/dx**2),
    which is bounded independent of dx.  At 2.78/(bound_im + bound_re),
    dt*lambda lies in the left half of the diamond |Re| + |Im| <= 2.78,
    which RK4's stability region contains; the step takes the share
    DEFAULT_SYMBOL_SAFETY of that.  For mu < 0, which runs on a periodic
    grid only, the symbol has a pole, so no box independent of dx holds it.
    The grid's modes are theta_k = 2*pi*k/n, with sigma_k = -L_k from the
    solve's own symbol (``_periodic_symbol``), and the step is the same
    share of 2.78/max_k (beta*sigma_k + a*|sin(theta_k)|/dx) / |1 +
    mu*sigma_k|.  That keeps |Re| + |Im| of dt*lambda within the same share
    of 2.78 at every mode; a mode near the pole shrinks the step, and an
    overflow makes it 0.
    """
    state = initial_profile(cfg)
    dx, beta, mu = float(state.dx), float(cfg.beta), float(cfg.mu)  # overflow: inf
    amax = max(1.0, float(np.abs(char_speed(state.u)).max()))
    if mu < 0:  # a periodic grid
        theta, lam, symbol = _periodic_symbol(cfg.nx, dx, mu)
        # an overflow, or a pole on a grid mode, bounds dt*lambda by inf: dt = 0
        with np.errstate(over="ignore", divide="ignore"):
            bound = float(np.max((beta * np.abs(lam) + amax * np.abs(np.sin(theta))
                                  / dx) / np.abs(symbol)))
        return DEFAULT_SYMBOL_SAFETY * _RK4_REAL_LIMIT / bound
    bound_im = min(amax / (2.0 * math.sqrt(mu)), amax / dx)
    bound_re = min(beta / mu, 4.0 * beta / (dx * dx))
    return DEFAULT_SYMBOL_SAFETY * _RK4_REAL_LIMIT / (bound_im + bound_re)


#: Ghost values u[-1], u[n] as slices of u: the periodic wrap, the Neumann
#: mirror; Dirichlet rows are pinned after the stencil, so any value serves.
_GHOSTS = {
    BoundaryCondition.PERIODIC: (slice(-1, None), slice(0, 1)),
    BoundaryCondition.NEUMANN: (slice(1, 2), slice(-2, -1)),
    BoundaryCondition.DIRICHLET_FARFIELD: (slice(0, 1), slice(-1, None)),
}


class _Operator:
    """u_t of one config (stencil and implicit solve) and its time step.

    The implicit operator I - mu*D2 is factored here, once per config: its
    FFT symbol for periodic runs, otherwise its one symmetric positive
    definite form of n rows (mu > 0 there, as ``SimConfig`` requires) as
    LDL^T (LAPACK dpttrf; each stage solves in place with dpttrs, bound as
    ``solve_banded``).  DomainError refuses a grid on which dx**2 or an entry
    of D2 or mu*D2 overflows, a periodic one whose mu < 0 pole lands on a
    grid mode, and a Neumann one whose identity part is lost to rounding
    (the stored matrix is then mu*D2, which annihilates constants).  Cached
    per config and shared, so it holds no arrays a call writes to: the
    caller passes the work arrays."""

    def __init__(self, cfg: SimConfig):
        self.beta = cfg.beta
        self.left, self.right = _GHOSTS[cfg.bc]
        n, dx, mu = cfg.nx, float(x_grid(cfg)[1]), cfg.mu
        self.dx2, self.two_dx = dx * dx, 2.0 * dx
        # dx**2 must be finite, and so must 4/dx**2 and 4*|mu|/dx**2, which
        # bound every entry and eigenvalue of D2 and mu*D2
        if not (self.dx2 < math.inf
                and max(1.0, abs(mu)) <= _FLOAT_MAX / 4.0 * self.dx2):
            raise DomainError(f"dx**2, 4/dx**2 or 4*|mu|/dx**2 overflows at mu={mu!r}, "
                              f"dx={dx!r} on the x range [{cfg.x_min!r}, "
                              f"{cfg.x_max!r}]; shrink |mu| or change the range or nx")
        self.dt = cfg.dt if cfg.dt is not None else default_dt(cfg)
        if cfg.bc is BoundaryCondition.PERIODIC:
            self.symbol = _periodic_symbol(n, dx, mu)[2]
            if np.any(np.abs(self.symbol) < 1e-14):
                raise DomainError(
                    "mu < 0 pole lands on a grid mode; shift mu or the domain size"
                )
            self.solve = self._solve_fft
            return
        r = mu / self.dx2
        # end rows: Dirichlet's are w = 0, decoupled; Neumann's (the ghost
        # doubles their coupling) halved
        self.pinned = cfg.bc is BoundaryCondition.DIRICHLET_FARFIELD
        d, e = np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r)
        if self.pinned:
            d[0] = d[-1] = 1.0
            e[0] = e[-1] = 0.0
        else:
            d[0] = d[-1] = 0.5 + r
        *self.factors, info = dpttrf(d, e)  # (d, e)
        if info:  # Neumann from mu/dx**2 ~ 4.5e15, where 0.5 + r rounds to r
            raise DomainError(f"I - mu*D2 on the {cfg.bc.value} grid rounds to a "
                              f"singular matrix at mu/dx**2={r!r}; shrink mu or "
                              "coarsen the grid")
        self.solve = self._solve_ldl

    # each solve overwrites rhs with w and returns it

    def _solve_fft(self, rhs):
        spec = np.fft.rfft(rhs)
        spec /= self.symbol
        return np.fft.irfft(spec, n=len(rhs), out=rhs)

    def _solve_ldl(self, rhs):
        if self.pinned:  # w = 0
            rhs[0] = rhs[-1] = 0.0
        else:  # halved, as their rows are
            rhs[0] *= 0.5
            rhs[-1] *= 0.5
        solve_banded(*self.factors, rhs, overwrite_b=1)
        return rhs

    def u_t(self, g, tmp):
        """Solve (I - mu*D2) w = beta*D2 u - D1 f(u) for w = u_t, a fresh
        array.

        ``g`` (len(u) + 2) holds u in ``g[1:-1]``; this fills its ghost
        cells.  ``tmp`` (len(u)) is overwritten.  The in-place
        ufuncs take the operations of
        beta*(g[2:] - 2*g[1:-1] + g[:-2])/dx**2 - (f[2:] - f[:-2])/(2*dx)
        in the same order, so the bits are those of that expression.
        """
        u = g[1:-1]
        g[:1] = u[self.left]
        g[-1:] = u[self.right]
        f = flux(g)
        rhs = np.multiply(u, 2.0)  # the solve's own right-hand side
        np.subtract(g[2:], rhs, out=rhs)
        rhs += g[:-2]
        rhs *= self.beta
        rhs /= self.dx2
        np.subtract(f[2:], f[:-2], out=tmp)
        tmp /= self.two_dx
        rhs -= tmp
        return self.solve(rhs)


_operator = functools.lru_cache(maxsize=16)(_Operator)  # keyed on the config


def step(state: SimState, cfg: SimConfig, dt=None):
    """Advance one time step with RK4 on the implicitly defined u_t.

    The stage inputs u + h/2*k go into the interior of the padded work
    array, and u + h/6*(k1 + 2*k2 + 2*k3 + k4) is formed in place on k2, in
    the operation order of those expressions: IEEE addition and
    multiplication commute, so the bits are theirs.
    """
    op = _operator(cfg)
    h = dt if dt is not None else op.dt
    u = state.u
    n = len(u)
    g, tmp = np.empty(n + 2), np.empty(n)
    y = g[1:-1]
    y[...] = u
    k1 = op.u_t(g, tmp)
    np.multiply(k1, 0.5 * h, out=y)
    y += u
    k2 = op.u_t(g, tmp)
    np.multiply(k2, 0.5 * h, out=y)
    y += u
    k3 = op.u_t(g, tmp)
    np.multiply(k3, h, out=y)
    y += u
    k4 = op.u_t(g, tmp)
    new = k2  # each k is a fresh array
    new *= 2.0
    new += k1
    k3 *= 2.0
    new += k3
    new += k4
    new *= h / 6.0
    new += u
    return SimState(state.t + h, new, state.dx, state.x0)


def _time_step(cfg: SimConfig):
    """(steps, step) of a run: its dt, adjusted to divide t_end evenly.
    DomainError when t_end/dt is not finite or rounds above MAX_STEPS."""
    dt = _operator(cfg).dt
    ratio = cfg.t_end / dt if dt else math.inf  # a default dt may underflow to 0
    if not ratio < MAX_STEPS + 0.5:  # NaN and inf too
        raise DomainError(f"t_end={cfg.t_end!r} at dt={float(dt)!r} plans "
                          f"{ratio:.7g} steps, more than {MAX_STEPS}")
    nsteps = max(1, int(round(ratio)))
    return nsteps, cfg.t_end / nsteps


def simulate(cfg: SimConfig, snapshot_times=()):
    """Run to t_end; dt is adjusted to divide t_end evenly.

    Snapshots are recorded at the steps nearest the requested times (always
    including the final state).  Raises SimulationDivergedError at the first
    step whose profile is not finite.
    """
    nsteps, h = _time_step(cfg)  # a periodic pole on a grid mode fails here
    state = initial_profile(cfg)
    if cfg.t_end == 0.0:
        return SimResult(state, (state,))
    want = sorted(set(min(nsteps, max(0, int(round(t / h)))) for t in snapshot_times))
    snaps = []
    if 0 in want:
        snaps.append(state)
    # a blow-up is reported by the finite check, not by numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            state = step(state, cfg, dt=h)
            if not np.isfinite(state.u).all():
                raise SimulationDivergedError(state.t, i)
            if i in want:
                snaps.append(state)
    if not snaps or snaps[-1] is not state:
        snaps.append(state)
    return SimResult(state, tuple(snaps))


@dataclass(frozen=True)
class Plateau:
    value: float
    x_left: float
    x_right: float


@dataclass(frozen=True)
class Front:
    position: float
    left_value: float
    right_value: float


@dataclass(frozen=True)
class FrontReport:
    plateaus: tuple
    fronts: tuple


def _crossings(u, left, right):
    """Fractional indices where u crosses the mid-level of the values
    ``left`` and ``right``, going from left toward right."""
    d = u - 0.5 * (left + right)
    slope = u[1:] - u[:-1] if right > left else u[:-1] - u[1:]
    j = np.nonzero((d[:-1] * d[1:] <= 0) & (slope > 0))[0]
    return j + d[j] / (d[j] - d[j + 1])  # d[j] != d[j + 1]: the slope is strict


def detect_fronts(state: SimState):
    """Locate plateaus (flat runs of |du/dx| < PLATEAU_TOL, at least MIN_RUN
    points long) and the fronts between them.

    One pass over the flat runs handles each once.  A run is trimmed to the
    contiguous stretch within merge_tol of its flattest point (a slowly
    varying ramp or a dispersive corner layer can satisfy the gradient test
    without being a plateau), and its value is the median of the trimmed
    run's middle half.  It joins the previous run's group when the values
    are within merge_tol and the gap is at most 4 * MIN_RUN points; a group's
    plateau takes the value of its longest run (the first on a tie).  A
    front's position is the first mid-level crossing (``_crossings``)
    between its neighboring plateaus.
    """
    u, dx, x0 = state.u, state.dx, state.x0
    grad = np.gradient(u, dx)
    flat = np.abs(grad) < PLATEAU_TOL
    merge_tol = max(1e-8, 0.005 * (float(u.max()) - float(u.min())))

    # each flat run [i0, i1) starts where the padded mask rises and stops where it falls
    edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
    groups = []  # [first j0, last j1, last value, longest j1 - j0, its value]
    for i0, i1 in edges.reshape(-1, 2).tolist():
        if i1 - i0 < MIN_RUN:
            continue
        k = i0 + int(np.argmin(np.abs(grad[i0:i1])))
        # points farther than merge_tol from u[k] (never k itself); the two
        # around k bound the trimmed run
        off = i0 + np.flatnonzero(np.abs(u[i0:i1] - u[k]) > merge_tol)
        p = int(np.searchsorted(off, k))
        j0 = int(off[p - 1]) + 1 if p else i0
        j1 = int(off[p]) - 1 if p < off.size else i1 - 1
        if j1 - j0 + 1 < MIN_RUN:
            continue
        q = (j1 - j0) // 4
        v = float(np.median(u[j0 + q:j1 - q + 1]))
        g = groups[-1] if groups else None
        if g and abs(v - g[2]) < merge_tol and j0 - g[1] <= 4 * MIN_RUN:
            g[1:3] = j1, v
            if j1 - j0 > g[3]:
                g[3:] = j1 - j0, v
        else:
            groups.append([j0, j1, v, j1 - j0, v])
    plateaus = [Plateau(v, x0 + j0 * dx, x0 + j1 * dx) for j0, j1, _, _, v in groups]

    fronts = []
    for left, right in zip(plateaus[:-1], plateaus[1:]):
        i0 = int(round((left.x_right - x0) / dx))
        i1 = int(round((right.x_left - x0) / dx))
        cross = _crossings(u, left.value, right.value)
        cross = cross[(cross >= i0) & (cross <= i1)]
        if cross.size:
            pos = x0 + cross[0] * dx
        else:
            pos = x0 + (i0 + int(np.argmax(np.abs(grad[i0:i1 + 1])))) * dx
        fronts.append(Front(float(pos), left.value, right.value))
    return FrontReport(tuple(plateaus), tuple(fronts))


@dataclass(frozen=True)
class FrontFit:
    speed: float
    intercept: float
    positions: tuple


def _fit_positions(ts, pos, transient):
    if transient == "exp" and len(ts) >= 5:
        # front positions approach their asymptote s*t + c exponentially as
        # the initial-data mass defect drains into the shock; for fixed decay
        # rate the model s*t + c + b*exp(-r*(t - t0)) is linear in (s, c, b)
        # (variable projection).  With (t, 1) projected out once, each rate's
        # residual is that of one column, so all rates are scored in one
        # array pass; the first best rate is then solved as one problem.
        t0, span = ts[0], ts[-1] - ts[0]
        rates = np.geomspace(0.25 / span, 40.0 / span, 80)
        q, _ = np.linalg.qr(np.column_stack([ts, np.ones_like(ts)]))
        p, e = pos.copy(), np.exp(np.multiply.outer(-rates, ts - t0))
        # project (t, 1) out by matrix-vector products: a process's first
        # matrix-matrix product allocates BLAS buffers (0.25 MB measured)
        for col in q.T:
            p -= (p @ col) * col
            e -= np.multiply.outer(e @ col, col)
        # the residual itself, not |p|^2 - (e.p)^2/|e|^2, which cancels
        res = p - ((e @ p) / (e * e).sum(axis=1))[:, None] * e
        r = rates[np.argmin((res * res).sum(axis=1))]
        cols = np.column_stack([ts, np.ones_like(ts), np.exp(-r * (ts - t0))])
        coef, *_ = np.linalg.lstsq(cols, pos, rcond=None)
        return float(coef[0]), float(coef[1])
    coef = np.polyfit(ts, pos, 1)
    return float(coef[0]), float(coef[1])


def fit_front_speeds(cfg: SimConfig, result: SimResult, transient="linear"):
    """Estimate front speeds from position vs time over the recorded
    snapshots.

    The fronts of the final state anchor the measurement: each front's
    mid-level crossing (with matching slope sign) is traced backward through
    the snapshots by nearest-position matching.  transient="linear" fits a
    plain least-squares line; transient="exp" adds an exponentially decaying
    term to absorb the slow settling of fronts emerging from smoothed data
    (requires at least five points, otherwise linear).
    """
    rep = detect_fronts(result.final)
    snaps = sorted((s for s in result.snapshots if s.t > 0.0), key=lambda s: s.t)
    if len(snaps) < 2:
        return []
    fits = []
    for front in rep.fronts:
        ts, pos = [], []
        anchor = front.position
        t_anchor = result.final.t
        for st in reversed(snaps):
            cands = st.x0 + _crossings(st.u, front.left_value,
                                       front.right_value) * st.dx
            if not cands.size:
                continue
            p = float(cands[np.argmin(np.abs(cands - anchor))])
            # reject jumps faster than any characteristic or chord speed
            umax = max(1.0, float(np.abs(st.u).max()))
            max_jump = 2.0 * umax * umax
            if abs(p - anchor) > max_jump * abs(t_anchor - st.t) + 2.0:
                continue
            ts.append(st.t)
            pos.append(p)
            anchor, t_anchor = p, st.t
        if len(ts) < 2:
            continue
        ts = np.array(ts[::-1])
        pos = np.array(pos[::-1])
        speed, intercept = _fit_positions(ts, pos, transient)
        fits.append(FrontFit(speed, intercept, tuple(float(p) for p in pos)))
    return fits


def total_mass(state: SimState):
    """Trapezoidal integral of u over the grid."""
    return float(np.trapezoid(state.u, dx=state.dx))
