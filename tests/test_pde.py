import math
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

from ucwaves import (
    BoundaryCondition,
    Branch,
    CustomProfile,
    SimConfig,
    SimState,
    SimulationDivergedError,
    SmoothedRiemann,
    TravelingWaveSeed,
    UCWavesError,
    char_speed,
    detect_fronts,
    dispersion_lambda,
    fit_front_speeds,
    initial_profile,
    locus_point,
    simulate,
    step,
)
from ucwaves import pde
from ucwaves.errors import DomainError
from ucwaves.pde import (
    DEFAULT_SYMBOL_SAFETY,
    MIN_RUN,
    PLATEAU_TOL,
    Front,
    FrontReport,
    Plateau,
    _crossings,
    _fit_positions,
    default_dt,
    total_mass,
    x_grid,
)

GAMMA = 1 / math.sqrt(6)
BETA, MU = 0.1, 0.06


def _case_id(value):
    """A boundary condition's value as its test id; pytest's own for others."""
    return value.value if isinstance(value, BoundaryCondition) else None


def smoothed_cfg(**kw):
    base = dict(beta=BETA, mu=MU, x_min=-10.0, x_max=10.0, nx=401, t_end=1.0,
                dt=0.01, initial=SmoothedRiemann(0.4, -0.8, GAMMA))
    base.update(kw)
    return SimConfig(**base)


def test_config_validation_lists_all_fields():
    with pytest.raises(DomainError) as err:
        SimConfig(beta=-1.0, mu=0.0, x_min=0.0, x_max=-1.0, nx=2, t_end=-2.0,
                  dt=0.0, initial=object(), bc="neumann")
    msg = str(err.value)
    for field in ("beta", "mu", "nx", "x range", "dt", "t_end", "initial", "bc"):
        assert field in msg


def test_config_caps_nx():
    # far above any memory, so that no grid is ever allocated
    with pytest.raises(DomainError, match=r"nx=1000000000000 \(must be >= 3 and "
                                          r"<= 1000000\)"):
        smoothed_cfg(nx=10**12)
    assert smoothed_cfg(nx=pde.MAX_NX).nx == 10**6


def test_config_refuses_an_x_range_whose_width_overflows():
    # linspace warned of the overflow and made a grid of NaNs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"beta=-1\.0 .*; x range \[-1e\+308, "
                                              r"1e\+308\] \(its width overflows\)"):
            smoothed_cfg(beta=-1.0, x_min=-1e308, x_max=1e308, nx=5)
        assert smoothed_cfg(x_min=-8e307, x_max=8e307, nx=5).x_max == 8e307


@pytest.mark.parametrize("field", ["beta", "mu", "x_min", "x_max", "t_end", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(DomainError, match=f"{field}={value!r} \\(must be finite\\)"):
        smoothed_cfg(**{field: value})


@pytest.mark.parametrize("field", ["u_left", "u_right", "steepness"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_smoothed_riemann_rejects_non_finite_values(field, value):
    args = {"u_left": 0.4, "u_right": -0.8, "steepness": GAMMA, field: value}
    with pytest.raises(DomainError, match=f"{field}={value!r} \\(must be finite\\)"):
        SmoothedRiemann(**args)


@pytest.mark.parametrize("initial", [
    SmoothedRiemann(1e200, 0.0, GAMMA),
    CustomProfile(lambda x: np.where(x > 0, math.nan, 0.0)),
])
def test_initial_profile_with_an_infinite_cube_is_a_domain_error(initial):
    cfg = smoothed_cfg(initial=initial)
    with pytest.raises(DomainError, match=r"max_abs_u\^3=(inf|nan)"):
        simulate(cfg)


def test_initial_profile_midpoint_and_far_field():
    cfg = smoothed_cfg(x_min=-40.0, x_max=40.0, nx=1601)
    state = initial_profile(cfg)
    x, _ = x_grid(cfg)
    i0 = int(np.argmin(np.abs(x)))
    assert state.u[i0] == pytest.approx((0.4 + -0.8) / 2, abs=1e-12)
    assert state.u[0] == pytest.approx(0.4, abs=1e-6)
    assert state.u[-1] == pytest.approx(-0.8, abs=1e-6)


def test_initial_profile_constant():
    cfg = smoothed_cfg(initial=SmoothedRiemann(0.25, 0.25, GAMMA))
    assert np.allclose(initial_profile(cfg).u, 0.25, atol=0)


def test_custom_profile():
    cfg = smoothed_cfg(initial=CustomProfile(lambda x: np.sin(x)))
    x, _ = x_grid(cfg)
    assert np.allclose(initial_profile(cfg).u, np.sin(x))


def test_custom_profile_callable_need_not_hash():
    @dataclass
    class Bump:  # a plain dataclass defines __eq__, so it does not hash
        height: float

        def __call__(self, x):
            return self.height * np.exp(-x * x)

        def profile(self, x, mu):
            return self(x)

    res = simulate(smoothed_cfg(initial=CustomProfile(Bump(0.1)), t_end=0.05))
    assert np.all(np.isfinite(res.final.u))
    with pytest.raises(DomainError, match="initial"):
        smoothed_cfg(initial=Bump(0.1))


def test_constant_state_fixed_point():
    cfg = smoothed_cfg(initial=SmoothedRiemann(0.3, 0.3, GAMMA), t_end=0.5)
    res = simulate(cfg)
    assert np.abs(res.final.u - 0.3).max() < 1e-14


def test_single_step_matches_simulate_steps():
    cfg = smoothed_cfg(t_end=0.05, dt=0.01)
    state = initial_profile(cfg)
    for _ in range(5):
        state = step(state, cfg)
    res = simulate(cfg)
    assert state.t == pytest.approx(res.final.t, abs=1e-12)
    assert np.abs(state.u - res.final.u).max() < 1e-13


def textbook_rk4(cfg, nsteps):
    """u after nsteps of classical RK4 on the method-of-lines u_t, written
    with fresh arrays for every operation.  The Neumann end rows are halved,
    which makes the operator symmetric; scipy's ``solveh_banded`` (mu > 0
    there) solves the Dirichlet interior rows or all Neumann rows."""
    u, dx, n, bc = initial_profile(cfg).u, x_grid(cfg)[1], cfg.nx, cfg.bc
    left, right = {BoundaryCondition.PERIODIC: (-1, 0), BoundaryCondition.NEUMANN:
                   (1, -2), BoundaryCondition.DIRICHLET_FARFIELD: (0, -1)}[bc]
    lam = (2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n) - 2.0) / dx**2
    r = cfg.mu / dx**2
    # upper symmetric band form: the superdiagonal (first entry unused) over
    # the diagonal
    sym = np.array([np.full(n, -r), np.full(n, 1.0 + 2.0 * r)])
    sym[1, 0] = sym[1, -1] = 0.5 + r  # Neumann's end rows halved

    def u_t(u):
        g = np.concatenate(([u[left]], u, [u[right]]))
        f = g - g * g * g
        rhs = (cfg.beta * (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dx**2
               - (f[2:] - f[:-2]) / (2.0 * dx))
        if bc is BoundaryCondition.PERIODIC:
            return np.fft.irfft(np.fft.rfft(rhs) / (1.0 - cfg.mu * lam), n=n)
        if bc is BoundaryCondition.DIRICHLET_FARFIELD:
            rhs[0] = rhs[-1] = 0.0
        else:
            rhs[0] /= 2.0
            rhs[-1] /= 2.0
        if bc is BoundaryCondition.DIRICHLET_FARFIELD:
            rhs[1:-1] = solveh_banded(sym[:, 1:-1], rhs[1:-1], check_finite=False)
            return rhs
        return solveh_banded(sym, rhs, check_finite=False)

    h = cfg.t_end / nsteps
    for _ in range(nsteps):
        k1 = u_t(u)
        k2 = u_t(u + 0.5 * h * k1)
        k3 = u_t(u + 0.5 * h * k2)
        k4 = u_t(u + h * k3)
        u = u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


@pytest.mark.parametrize("bc,mu", [(bc, MU) for bc in BoundaryCondition]
                         + [(BoundaryCondition.PERIODIC, -0.3)], ids=_case_id)
def test_simulate_has_the_bits_of_textbook_rk4(bc, mu):
    cfg = smoothed_cfg(bc=bc, mu=mu, nx=101, dt=0.01, t_end=0.2)
    u = simulate(cfg).final.u
    assert np.isfinite(u).all() and np.abs(u - initial_profile(cfg).u).max() > 1e-3
    assert u.tobytes() == textbook_rk4(cfg, 20).tobytes()


def _counted(monkeypatch, name):
    """The list that gets one entry per call through ``pde``'s ``name``."""
    calls, fn = [], getattr(pde, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(pde, name, counted)
    return calls


def test_operator_factors_once_per_config_and_solves_once_per_stage(monkeypatch):
    # LDL^T (dpttrf), solved through pde.solve_banded (dpttrs); a periodic
    # run calls neither
    calls = {name: _counted(monkeypatch, name) for name in ("dpttrf", "solve_banded")}
    pde._operator.cache_clear()
    cfg = smoothed_cfg(nx=101, dt=0.01, t_end=0.2)  # 20 steps
    first, second = simulate(cfg), simulate(cfg)
    want = {"dpttrf": 1, "solve_banded": 2 * 4 * 20}
    assert {name: len(c) for name, c in calls.items()} == want
    assert first.final.u.tobytes() == second.final.u.tobytes()
    for mu in (MU, -0.3):
        simulate(smoothed_cfg(mu=mu, bc=BoundaryCondition.PERIODIC, nx=64, t_end=0.2))
    assert {name: len(c) for name, c in calls.items()} == want


def _dense_operator(bc, n, dx, mu):
    """I - mu*D2 of the three-point stencil as a dense matrix; a Dirichlet
    end row is w = 0."""
    d2 = (np.eye(n, k=1) - 2.0 * np.eye(n) + np.eye(n, k=-1)) / (dx * dx)
    if bc is BoundaryCondition.PERIODIC:
        d2[0, -1] = d2[-1, 0] = 1.0 / (dx * dx)
    elif bc is BoundaryCondition.NEUMANN:  # the mirrored ghost u[1], u[n - 2]
        d2[0, 1] = d2[-1, -2] = 2.0 / (dx * dx)
    else:  # the identity's end rows alone
        d2[0] = d2[-1] = 0.0
    return np.eye(n) - mu * d2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bc_sign=st.sampled_from([(bc, 1.0) for bc in BoundaryCondition]
                               + [(BoundaryCondition.PERIODIC, -1.0)]),
       nx=st.integers(3, 200), length=st.floats(0.5, 200.0),
       log_r=st.floats(-3.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_implicit_solve_has_a_small_residual(bc_sign, nx, length, log_r, seed):
    # the solve's w against a dense I - mu*D2 built from the stencil here;
    # r = |mu|/dx**2 spans 1e-3..1e6, and mu < 0 (periodic only) is kept off
    # its poles
    bc, sign = bc_sign
    cfg = smoothed_cfg(bc=bc, nx=nx, x_min=0.0, x_max=length, mu=1.0)
    dx = x_grid(cfg)[1]
    mu = sign * 10.0**log_r * dx * dx
    cfg = smoothed_cfg(bc=bc, nx=nx, x_min=0.0, x_max=length, mu=mu)
    a = _dense_operator(bc, nx, dx, mu)
    eig = np.abs(np.linalg.eigvals(a))
    assume(eig.min() > 1e-6 * eig.max())
    rhs = np.random.default_rng(seed).standard_normal(nx)
    if bc is BoundaryCondition.DIRICHLET_FARFIELD:
        rhs[0] = rhs[-1] = 0.0
    w = pde._operator(cfg).solve(rhs.copy())
    norm_a = np.abs(a).sum(axis=1).max()
    assert np.abs(a @ w - rhs).max() <= 16 * np.finfo(float).eps * norm_a * np.abs(w).max()


#: 1 - mu*L_1 = 0 exactly on a periodic grid of 4 points over [0, 2*pi]:
#: L_1 = -2/dx**2 = -8/pi**2, mu = 1/L_1
POLE_MU = -1.23370055013617

#: the refusal a mu < 0 run meets: SimConfig's on a bounded grid, before any
#: operator is built, and _Operator's pole test on a periodic one
POLE_REFUSAL = {BoundaryCondition.DIRICHLET_FARFIELD: r"mu < 0 needs bc=periodic",
                BoundaryCondition.NEUMANN: r"mu < 0 needs bc=periodic",
                BoundaryCondition.PERIODIC: "mu < 0 pole lands on a grid mode"}


def pole_cfg(bc, toward=None):
    """A config whose operator is singular, or one ulp of mu off it toward
    ``toward``.  Bounded: dx = 1 and mu = -1/2, where the Dirichlet middle
    row 1 + 2 mu/dx**2 was 0 and the two Neumann end rows equal.  Periodic:
    4 points over [0, 2*pi] and POLE_MU, mode 1 on the pole."""
    if bc is BoundaryCondition.PERIODIC:
        mu = POLE_MU if toward is None else math.nextafter(POLE_MU, toward)
        return smoothed_cfg(bc=bc, mu=mu, x_min=0.0, x_max=2.0 * math.pi, nx=4,
                            dt=0.01, initial=SmoothedRiemann(0.4, -0.8, 1.0))
    mu = -0.5 if toward is None else math.nextafter(-0.5, toward)
    return smoothed_cfg(bc=bc, mu=mu, x_min=0.0, x_max=2.0, nx=3, dt=0.05)


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
def test_singular_implicit_operator_is_a_domain_error(bc):
    assert pde._periodic_symbol(4, math.pi / 2.0, POLE_MU)[2][1] == 0.0
    with pytest.raises(DomainError, match=POLE_REFUSAL[bc]):
        simulate(pole_cfg(bc))


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("toward,symbol", [(0.0, 1.1102230246251565e-16),
                                           (-math.inf, -2.220446049250313e-16)],
                         ids=["ulp_above", "ulp_below"])
def test_nearly_singular_implicit_operator_is_a_domain_error(bc, toward, symbol):
    # one ulp off the periodic pole, mode 1 is divided by about 1e-16;
    # without the refusal such a run warned of a division by zero or
    # diverged at step 1 (the bounded runs, before mu < 0 was refused there,
    # diverged within six steps)
    assert pde._periodic_symbol(4, math.pi / 2.0, math.nextafter(POLE_MU, toward))[2][1] \
        == symbol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=POLE_REFUSAL[bc]):
            simulate(pole_cfg(bc, toward))


@pytest.mark.parametrize("mu,bc", [(mu, bc) for mu in (1e300, -1e300)
                                   for bc in BoundaryCondition], ids=_case_id)
def test_an_overflowing_mu_over_dx2_is_refused_before_factoring(bc, mu, monkeypatch):
    # dx ~ 1e-6, so mu/dx**2 ~ 1e312: periodic runs warned of the overflow
    # and ran, Dirichlet runs factored NaNs and diverged at step 1; a bounded
    # mu < 0 is now refused by SimConfig before the overflow test
    factors = _counted(monkeypatch, "dpttrf")
    bounded_negative = mu < 0 and bc is not BoundaryCondition.PERIODIC
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=POLE_REFUSAL[bc] if bounded_negative
                           else r"4\*\|mu\|/dx\*\*2 overflows"):
            simulate(smoothed_cfg(bc=bc, mu=mu, x_min=0.0, x_max=1e-3, nx=1000, dt=None))
    assert factors == []


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
@pytest.mark.parametrize("x_max", [1e200, 1e-160], ids=["dx2", "4_over_dx2"])
def test_a_grid_whose_dx2_or_its_inverse_overflows_is_refused_before_the_default_step(
        bc, x_max, monkeypatch):
    # dx**2 = inf: default_dt warned and the run went on as if beta and mu
    # were 0; 4/dx**2 = inf: the periodic symbol warned
    def never(cfg):
        raise AssertionError("default_dt ran")

    monkeypatch.setattr(pde, "default_dt", never)
    cfg = smoothed_cfg(bc=bc, mu=5e-324, x_min=-x_max, x_max=x_max, nx=5, dt=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"dx\*\*2, 4/dx\*\*2 or 4\*\|mu\|/dx\*\*2 "
                                              r"overflows at .* on the x range \["
                                              + re.escape(repr(-x_max))):
            simulate(cfg)


def test_a_default_step_that_underflows_to_0_is_refused():
    # beta/mu overflows, so the bound on the symbol is inf and the step 0;
    # t_end/dt warned (0/0) before
    cfg = smoothed_cfg(beta=1e308, mu=5e-324, dt=None, t_end=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_dt(cfg) == 0.0
        with pytest.raises(DomainError, match="plans inf steps"):
            simulate(cfg)


@pytest.mark.parametrize("kw,dt", [
    # beta*|L_k| overflows
    (dict(beta=1e308, mu=-0.06, nx=41), 0.0),
    # 1 - mu*L_1 = -2.4e-14, just past the pole test: |lambda_1| ~ 4.9e13
    (dict(mu=-0.33333333333334136, x_min=0.0, x_max=3.0, nx=3), 2.0011e-14),
])
def test_a_periodic_default_step_near_a_pole_or_an_overflow_is_refused(kw, dt):
    # at the CFL step 0.4*dx/a used before, such runs went ahead
    cfg = smoothed_cfg(**kw, bc=BoundaryCondition.PERIODIC, dt=None, t_end=1e-6,
                       initial=SmoothedRiemann(0.4, -0.8, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert default_dt(cfg) == pytest.approx(dt, rel=1e-4, abs=0.0)
        with pytest.raises(DomainError, match=r"plans \S+ steps, more than 1000000"):
            simulate(cfg)


def test_the_default_step_takes_the_finite_bound_without_a_warning():
    # 4*beta/dx**2 overflows (numpy warned), and beta/mu = 1e300 bounds |Re|
    cfg = smoothed_cfg(beta=1e300, mu=1.0, x_min=0.0, x_max=4e-5, nx=5, dt=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dt = default_dt(cfg)
    assert dt == pytest.approx(DEFAULT_SYMBOL_SAFETY * 2.78 / 1e300, rel=1e-12)


def test_a_steep_smoothed_profile_saturates_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = SmoothedRiemann(0.4, -0.8, 1e300).profile(np.array([-1e10, 0.0, 1e10]), MU)
    assert u.tolist() == pytest.approx([0.4, -0.2, -0.8], abs=1e-15)


@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC,
                                BoundaryCondition.DIRICHLET_FARFIELD],
                         ids=lambda bc: bc.value)
def test_the_largest_mu_whose_operator_does_not_overflow_runs(bc):
    # dx = 1: 4*mu is the largest float at mu = max/4 and overflows one ulp
    # above it
    largest = sys.float_info.max / 4.0
    x_max = 8.0 if bc is BoundaryCondition.PERIODIC else 7.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = smoothed_cfg(bc=bc, mu=largest, x_min=0.0, x_max=x_max, nx=8, dt=None)
        assert initial_profile(cfg).dx == 1.0
        assert np.isfinite(simulate(cfg).final.u).all()
        with pytest.raises(DomainError, match="overflows"):
            simulate(smoothed_cfg(bc=bc, mu=math.nextafter(largest, math.inf),
                                  x_min=0.0, x_max=x_max, nx=8))


@pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
def test_mass_conservation_equal_far_field_fluxes(bc):
    # f(0.4) = f(w) for w = (-0.4 + sqrt(3.52))/2: a stationary shock pair
    w = 0.5 * (-0.4 + math.sqrt(3.52))
    cfg = smoothed_cfg(initial=SmoothedRiemann(0.4, w, 1.0), x_min=-20.0,
                       x_max=20.0, nx=1201, t_end=4.0, dt=0.01, bc=bc)
    res = simulate(cfg)

    def mass(state):
        if bc is BoundaryCondition.PERIODIC:
            # the periodic grid conserves dx*sum(u) exactly; the trapezoid
            # halves the end weights of a grid that has no ends
            return state.dx * float(state.u.sum())
        return total_mass(state)

    m0 = mass(initial_profile(cfg))
    m1 = mass(res.final)
    assert abs(m1 - m0) / abs(m0) < 1e-6


def test_no_growth_for_small_perturbations():
    # beta, mu > 0: no growing modes about a constant
    cfg = SimConfig(beta=0.5, mu=1.0, x_min=0.0, x_max=2 * np.pi, nx=128,
                    t_end=2.0, dt=0.01, bc=BoundaryCondition.PERIODIC,
                    initial=CustomProfile(lambda x: 0.1 + 1e-3 * np.sin(x)))
    res = simulate(cfg)
    dev0 = 1e-3
    dev1 = np.abs(res.final.u - 0.1).max()
    assert dev1 < dev0


@pytest.mark.parametrize("bc, k", [(BoundaryCondition.NEUMANN, 1.5),
                                   (BoundaryCondition.PERIODIC, 2.0)],
                         ids=["neumann", "periodic"])
def test_cosine_mode_decays_at_dispersion_rate(bc, k):
    # about u = 1/sqrt(3), where f' = 0, cos(k*x) is an eigenvector of the
    # ghost-cell stencil for both boundary conditions (cos(1.5 x) is flat at
    # 0 and 2*pi); a wrong ghost value distorts it near the boundary
    c, eps, t_end = 1.0 / math.sqrt(3.0), 1e-6, 2.0
    cfg = SimConfig(beta=0.5, mu=1.0, x_min=0.0, x_max=2 * np.pi, nx=201,
                    t_end=t_end, dt=0.01, bc=bc,
                    initial=CustomProfile(lambda x: c + eps * np.cos(k * x)))
    res = simulate(cfg)
    x, _ = x_grid(cfg)
    mode = np.cos(k * x)
    amp = (res.final.u - c) @ mode / (mode @ mode)
    rate = math.log(amp / eps) / t_end
    lam = dispersion_lambda(c, cfg.beta, cfg.mu, k).real
    assert abs(rate - lam) < 1e-3 * abs(lam)
    assert np.abs(res.final.u - c - amp * mode).max() < 1e-4 * amp


def test_traveling_wave_translates():
    p = locus_point(0.5, GAMMA, Branch.MINUS)
    cfg = SimConfig(beta=BETA, mu=MU, x_min=-12.0, x_max=16.0, nx=2801,
                    t_end=3.0, dt=0.005, initial=TravelingWaveSeed(p))
    res = simulate(cfg)
    x, _ = x_grid(cfg)
    exact = TravelingWaveSeed(p, center=p.s * cfg.t_end).profile(x, MU)
    err = np.abs(res.final.u - exact)
    # exclude clamped boundary neighborhoods
    interior = slice(50, -50)
    assert err[interior].max() < 1e-3


def test_a_traveling_wave_seed_at_negative_mu_names_mu():
    # its scale sqrt(mu*s) warned (invalid value in sqrt), and the run was
    # refused for max_abs_u^3=nan, which no input had set
    cfg = SimConfig(beta=0.1, mu=-0.06, x_min=-10.0, x_max=10.0, nx=101, t_end=0.1,
                    dt=0.01, bc=BoundaryCondition.PERIODIC,
                    initial=TravelingWaveSeed(locus_point(0.6, 0.4, Branch.MINUS)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"traveling-wave seed at mu=-0\.06: "
                                              r"needs mu > 0"):
            simulate(cfg)


def _mid_level_speed(p, beta, mu, refine, scheme_beta):
    """Speed of the mid-level crossing of the seeded exact wave of ``p``
    between t = 10 and t = 20, on [-20, 20 + 20 s] at dx = 0.1 / refine and
    the default dt; the scheme runs at ``scheme_beta``."""
    cells = math.ceil((40.0 + 20.0 * p.s) / 0.1)
    cfg = SimConfig(beta=scheme_beta, mu=mu, x_min=-20.0,
                    x_max=-20.0 + 0.1 * cells, nx=cells * refine + 1,
                    t_end=20.0, initial=TravelingWaveSeed(p))
    level = 0.5 * (p.u_minus + p.u_plus)
    early, late = simulate(cfg, snapshot_times=(10.0, 20.0)).snapshots

    def crossing(st):  # linear between the grid points around it
        i = int(np.flatnonzero(np.diff(np.sign(st.u - level)))[0])
        return st.x0 + st.dx * (i + (st.u[i] - level) / (st.u[i] - st.u[i + 1]))

    return (crossing(late) - crossing(early)) / (late.t - early.t)


@pytest.mark.parametrize("beta,mu", [(0.1, 0.06), (0.2, 0.3)])  # gamma 0.408, 0.365
@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS], ids=["plus", "minus"])
def test_traveling_wave_speed_extrapolated_in_dx(beta, mu, branch):
    # the exact wave's speed error is second order in dx: the differences of
    # the errors at dx = 0.1, 0.05, 0.025 fall by 3.7 to 4.1 here; Richardson
    # on the finest pair leaves at most 1.7e-5 (relative).  A 1% error in the
    # scheme's beta (seed and oracle kept) leaves 3.5e-4 to 4.1e-3.
    p = locus_point(0.6, beta / math.sqrt(mu), branch)
    for scheme_beta, within in ((beta, True), (1.01 * beta, False)):
        e1, e2, e4 = (_mid_level_speed(p, beta, mu, k, scheme_beta) / p.s - 1.0
                      for k in (1, 2, 4))
        if within:
            assert 3.0 < (e1 - e2) / (e2 - e4) < 5.0
        assert (abs((4.0 * e4 - e2) / 3.0) <= 1e-4) == within


def test_grid_convergence_of_plateaus():
    # the intermediate plateau needs t ~ 40 to develop (the two fronts
    # separate at only 0.155 per unit time for this data); comparing two
    # resolutions at the same t isolates the spatial error
    u_m_exact = 0.5287607139443834
    vals = []
    for nx, dt in [(2001, 0.02), (4001, 0.01)]:
        cfg = SimConfig(beta=BETA, mu=MU, x_min=-18.0, x_max=32.0, nx=nx,
                        t_end=40.0, dt=dt,
                        initial=SmoothedRiemann(0.4, -0.8, GAMMA))
        res = simulate(cfg)
        rep = detect_fronts(res.final)
        mids = [p.value for p in rep.plateaus
                if abs(p.value - u_m_exact) < 0.05]
        assert mids, rep.plateaus
        vals.append(mids[0])
    assert abs(vals[1] - vals[0]) / abs(u_m_exact) < 1e-3


def test_sonic_composite_realized_by_pde():
    # classical R + attached sonic shock (data outside the kinetic range):
    # the front must travel at the tangency speed f'(0.1) = 0.97
    from ucwaves import solve

    sol = solve(0.2, -0.2, GAMMA)
    assert sol.pattern == "RS"
    s_sonic = sol.waves[-1].speed_range[0]
    cfg = SimConfig(beta=BETA, mu=MU, x_min=-10.0, x_max=32.0, nx=1601,
                    t_end=25.0, dt=0.015,
                    initial=SmoothedRiemann(0.2, -0.2, GAMMA))
    res = simulate(cfg, snapshot_times=np.arange(12.5, 25.01, 1.0))
    fits = fit_front_speeds(cfg, res)
    assert fits, "no front detected"
    assert abs(fits[0].speed - s_sonic) < 0.01 * s_sonic
    rep = detect_fronts(res.final)
    vals = [p.value for p in rep.plateaus]
    assert any(abs(v - 0.2) < 0.002 for v in vals)
    assert any(abs(v + 0.2) < 0.005 for v in vals)


def test_detect_fronts_constant_profile():
    cfg = smoothed_cfg(initial=SmoothedRiemann(0.3, 0.3, GAMMA))
    rep = detect_fronts(initial_profile(cfg))
    assert len(rep.plateaus) == 1
    assert rep.fronts == ()
    assert rep.plateaus[0].value == pytest.approx(0.3, abs=1e-12)


def test_detect_fronts_single_step_profile():
    cfg = smoothed_cfg(x_min=-30.0, x_max=30.0, nx=1201,
                       initial=SmoothedRiemann(0.4, -0.8, 2.0))
    rep = detect_fronts(initial_profile(cfg))
    assert len(rep.plateaus) == 2
    assert len(rep.fronts) == 1
    assert rep.fronts[0].position == pytest.approx(0.0, abs=0.2)


def test_detect_fronts_merges_a_plateau_split_by_a_bump():
    # the bump's slope (up to 0.011) cuts the left flat run in two; both
    # halves hold 0.4, so they are one plateau
    x = np.linspace(-30.0, 30.0, 1201)
    u = (0.4 - 0.6 * (1.0 + np.tanh(x))
         + 0.004 * np.exp(-((x + 15.0) / 0.3) ** 2))
    assert np.abs(np.gradient(u, x[1] - x[0])[:500]).max() > 0.01
    rep = detect_fronts(SimState(0.0, u, x[1] - x[0], x[0]))
    assert [p.value for p in rep.plateaus] == pytest.approx([0.4, -0.8])
    assert (rep.plateaus[0].x_left, rep.plateaus[0].x_right) == \
        pytest.approx((-30.0, -2.75))
    assert len(rep.fronts) == 1
    assert rep.fronts[0].position == pytest.approx(0.0, abs=0.05)


def walked_fronts(state):
    """detect_fronts as it was with a point-by-point walk and a grouping
    pass of its own: the reference for the one-pass version."""
    u, dx, x0 = state.u, state.dx, state.x0
    grad = np.gradient(u, dx)
    flat = np.abs(grad) < PLATEAU_TOL
    edges = np.flatnonzero(np.diff(flat, prepend=False, append=False))
    raw = [(i, j - 1) for i, j in edges.reshape(-1, 2).tolist() if j - i >= MIN_RUN]
    if not raw:
        return FrontReport((), ())
    u_range = float(u.max()) - float(u.min())
    merge_tol = max(1e-8, 0.005 * u_range)
    runs = []
    for i0, i1 in raw:
        k = i0 + int(np.argmin(np.abs(grad[i0:i1 + 1])))
        v_anchor = u[k]
        j0 = k
        while j0 - 1 >= i0 and abs(u[j0 - 1] - v_anchor) <= merge_tol:
            j0 -= 1
        j1 = k
        while j1 + 1 <= i1 and abs(u[j1 + 1] - v_anchor) <= merge_tol:
            j1 += 1
        if j1 - j0 + 1 >= MIN_RUN:
            runs.append((j0, j1))
    if not runs:
        return FrontReport((), ())

    def run_value(i0, i1):
        q = (i1 - i0) // 4
        return float(np.median(u[i0 + q:i1 - q + 1]))

    groups = [[runs[0]]]
    for r in runs[1:]:
        prev = groups[-1][-1]
        close_value = abs(run_value(*r) - run_value(*prev)) < merge_tol
        close_gap = r[0] - prev[1] <= 4 * MIN_RUN
        if close_value and close_gap:
            groups[-1].append(r)
        else:
            groups.append([r])
    plateaus = []
    for g in groups:
        i0, i1 = g[0][0], g[-1][1]
        longest = max(g, key=lambda r: r[1] - r[0])
        plateaus.append(Plateau(run_value(*longest), x0 + i0 * dx, x0 + i1 * dx))
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


def test_detect_fronts_groups_each_run_with_the_one_before():
    # terraces rising 0.004 every 40 points on the upper plateau: each run is
    # within merge_tol (0.0051) of the one before, not of the one two back
    x = np.linspace(-30.0, 30.0, 1201)
    i = np.arange(x.size)
    u = 0.5 * np.tanh(x) + 0.004 * np.clip((i - 700) // 40, 0, 5)
    state = SimState(0.0, u, x[1] - x[0], x[0])
    rep = detect_fronts(state)
    assert repr(rep) == repr(walked_fronts(state))
    assert [p.value for p in rep.plateaus] == pytest.approx([-0.5, 0.52])
    assert len(rep.fronts) == 1


@st.composite
def stepped_profiles(draw):
    """1-4 levels joined by tanh steps of widths 0.05-3, with an optional
    ramp, bumps, spikes, terraces and noise, on a grid of random size, step
    and origin."""
    nx = draw(st.integers(50, 1500))
    dx = draw(st.floats(0.005, 0.2))
    x0 = draw(st.floats(-100.0, 100.0))
    x = x0 + dx * np.arange(nx)
    levels = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4))
    u = np.full(nx, levels[0])
    for a, b in zip(levels, levels[1:]):
        center = draw(st.floats(x[0], x[-1]))
        width = draw(st.floats(0.05, 3.0))
        u += 0.5 * (b - a) * (1.0 + np.tanh((x - center) / width))
    if draw(st.booleans()):
        u += draw(st.floats(-0.01, 0.01)) * (x - x0)
    for _ in range(draw(st.integers(0, 3))):
        center = draw(st.floats(x[0], x[-1]))
        u += draw(st.floats(-0.02, 0.02)) * np.exp(
            -((x - center) / draw(st.floats(0.1, 2.0))) ** 2)
    if draw(st.booleans()):  # spikes cut a ramped plateau into a chain of runs
        u[draw(st.integers(0, nx - 1))::draw(st.integers(20, 150))] += \
            draw(st.floats(-0.05, 0.05))
    if draw(st.booleans()):  # and so do terraces, of a rise near merge_tol
        rise = draw(st.floats(-2.0, 2.0)) * 0.005 * (u.max() - u.min() + 1e-3)
        steps = (np.arange(nx) - draw(st.integers(0, nx - 1))) // draw(
            st.integers(20, 150))
        u += rise * np.clip(steps, 0, draw(st.integers(1, 6)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u += draw(st.floats(1e-6, 1e-3)) * rng.standard_normal(nx)
    return SimState(0.0, u, dx, x0)


@settings(max_examples=300, deadline=None)
@given(stepped_profiles())
def test_detect_fronts_has_the_bits_of_the_walk(state):
    assert repr(detect_fronts(state)) == repr(walked_fronts(state))


def test_neumann_boundary_runs():
    cfg = smoothed_cfg(bc=BoundaryCondition.NEUMANN, t_end=0.2)
    res = simulate(cfg)
    assert np.all(np.isfinite(res.final.u))


def test_auto_time_step():
    # mu > 0: a share of RK4's real-axis limit over the sum of the half-widths
    # of the box |Im| <= min(a/(2 sqrt(mu)), a/dx), |Re| <= min(beta/mu,
    # 4 beta/dx^2) that holds the discrete symbol (a = max(1, max|f'(u0)|));
    # mu < 0: on a periodic grid the same share of RK4's real-axis limit over
    # max_k (beta |L_k| + a |sin theta_k|/dx) / |1 - mu L_k|, theta_k =
    # 2 pi k/n, L_k = (2 cos theta_k - 2)/dx^2
    def closed_form(beta, mu, dx, a):
        bound_im = min(a / (2.0 * math.sqrt(mu)), a / dx)
        bound_re = min(beta / mu, 4.0 * beta / dx**2)
        return DEFAULT_SYMBOL_SAFETY * 2.78 / (bound_im + bound_re)

    cfg = smoothed_cfg(dt=None, t_end=0.2)  # |f'| <= 0.92 on [-0.8, 0.4]
    assert default_dt(cfg) == pytest.approx(closed_form(BETA, MU, 0.05, 1.0),
                                            rel=1e-15)
    steep = smoothed_cfg(dt=None, initial=SmoothedRiemann(1.0, 1.0, GAMMA))
    assert default_dt(steep) == pytest.approx(closed_form(BETA, MU, 0.05, 2.0),
                                              rel=1e-15)  # f'(1) = -2
    coarse = smoothed_cfg(dt=None, nx=5)  # dx = 5: both dx terms bind
    assert default_dt(coarse) == pytest.approx(closed_form(BETA, MU, 5.0, 1.0),
                                               rel=1e-15)
    periodic = smoothed_cfg(dt=None, mu=-MU, bc=BoundaryCondition.PERIODIC)
    n, dx = periodic.nx, 20.0 / periodic.nx
    theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    lap = (2.0 * np.cos(theta) - 2.0) / dx**2
    bound = ((BETA * np.abs(lap) + np.abs(np.sin(theta)) / dx)  # a = 1
             / np.abs(1.0 + MU * lap)).max()
    assert default_dt(periodic) == pytest.approx(DEFAULT_SYMBOL_SAFETY * 2.78 / bound,
                                                 rel=1e-15)
    res = simulate(cfg)
    assert np.all(np.isfinite(res.final.u))
    assert res.final.t == pytest.approx(0.2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(1e-3, 10.0), mu=st.floats(1e-3, 10.0),
       u_left=st.floats(-2.0, 2.0), u_right=st.floats(-2.0, 2.0),
       length=st.floats(0.5, 200.0), nx=st.integers(3, 300))
def test_default_step_keeps_every_grid_mode_rk4_stable(beta, mu, u_left, u_right,
                                                        length, nx):
    # every state u of the initial profile has |f'(u)| <= a; each periodic
    # grid mode theta about it has the symbol
    # (-beta*sigma - i*f'(u)*sin(theta)/dx) / (1 + mu*sigma)
    cfg = SimConfig(beta=beta, mu=mu, x_min=0.0, x_max=length, nx=nx, t_end=1.0,
                    bc=BoundaryCondition.PERIODIC,
                    initial=SmoothedRiemann(u_left, u_right, 1.0))
    dx = initial_profile(cfg).dx
    speeds = char_speed(initial_profile(cfg).u)[:, None]
    theta = np.linspace(0.0, np.pi, 513)
    sigma = 4.0 * np.sin(theta / 2.0) ** 2 / dx**2
    lam = (-beta * sigma - 1j * speeds * np.sin(theta) / dx) / (1.0 + mu * sigma)
    h = default_dt(cfg)
    # the box argument itself holds at the full RK4 limit, not only with the
    # safety factor
    for dt in (h, h / DEFAULT_SYMBOL_SAFETY):
        z = dt * lam
        amp = np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
        assert amp.max() <= 1.0 + 1e-12


@st.composite
def unstable_periodic_configs(draw):
    """A periodic config at mu < 0 whose pole 1/sqrt(-mu) sits anywhere: at
    the grid mode q (theta = 2*pi*q/nx, q real) or, past nx/2, beyond every
    grid mode.  Half the draws put q within 1e-6 of a whole mode."""
    nx, length = draw(st.integers(3, 300)), draw(st.floats(0.5, 200.0))
    q = draw(st.floats(0.05, 0.6 * nx))
    if draw(st.booleans()):
        q = max(1.0, round(q)) + draw(st.floats(-1e-6, 1e-6))
    dx, theta = length / nx, 2.0 * np.pi * q / nx
    mu = (-dx * dx / (2.0 - 2.0 * np.cos(theta)) if theta <= np.pi
          else -dx * dx / (4.0 * (theta / np.pi) ** 2))
    return SimConfig(beta=draw(st.floats(1e-3, 10.0)), mu=mu, x_min=0.0,
                     x_max=length, nx=nx, t_end=1.0, bc=BoundaryCondition.PERIODIC,
                     initial=SmoothedRiemann(draw(st.floats(-2.0, 2.0)),
                                             draw(st.floats(-2.0, 2.0)), 1.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(unstable_periodic_configs())
def test_unstable_periodic_default_step_keeps_every_grid_mode_rk4_stable(cfg):
    # each grid mode theta_k = 2*pi*k/n, numbered as the solve's FFT numbers
    # them, about each state u of the profile has the eigenvalue
    # (beta*L_k - i*f'(u)*sin(theta_k)/dx) / (1 - mu*L_k),
    # L_k = (2*cos(theta_k) - 2)/dx**2
    state = initial_profile(cfg)
    n, dx = cfg.nx, state.dx
    theta = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / n
    lap = (2.0 * np.cos(theta) - 2.0) / (dx * dx)
    symbol = 1.0 - cfg.mu * lap
    assume(np.abs(symbol).min() >= 1e-14)  # a pole on a mode is refused
    speeds = char_speed(state.u)[:, None]
    lam = (cfg.beta * lap - 1j * speeds * np.sin(theta) / dx) / symbol
    dt = default_dt(cfg)
    z = dt * lam
    diamond = np.abs(z.real) + np.abs(z.imag)
    assert diamond.max() <= DEFAULT_SYMBOL_SAFETY * 2.78 + 1e-12
    amp = np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
    assert amp[lam.real < 0].max(initial=0.0) <= 1.0 + 1e-12
    # R(z) = exp(z) - r(z), |r(z)| <= |z|**5/120 / (1 - |z|/6) as j! >=
    # 120*6**(j - 5), so w = exp(-Re z)*|r| bounds |log|R(z)| - Re z| by
    # -log(1 - w); 64 ulps more cover the rounding of R(z) and its log
    w = np.exp(-z.real) * np.abs(z) ** 5 / (120.0 * (1.0 - np.abs(z) / 6.0))
    err = np.abs(np.log(amp) / dt - lam.real)
    assert (err <= (-np.log1p(-w) + 64 * np.finfo(float).eps) / dt).all()


def test_unstable_periodic_rates_at_the_default_step():
    # criterion 7's mu < 0 modes, one on each side of the pole 1/sqrt(-mu) =
    # 1.5, at the default step (8 steps of 0.25) and at a quarter of it.
    # Measured: within 0.15 % of the oracle and of the quarter step
    base = dict(beta=0.3, mu=-4.0 / 9.0, x_min=0.0, x_max=2.0 * np.pi, nx=512,
                t_end=2.0, bc=BoundaryCondition.PERIODIC,
                initial=CustomProfile(lambda x: 1e-6 * (np.sin(x) + np.sin(2 * x))))
    h = default_dt(SimConfig(**base))
    a0 = np.abs(np.fft.rfft(initial_profile(SimConfig(**base)).u))
    rates = []
    for dt in (None, h / 4.0):
        a1 = np.abs(np.fft.rfft(simulate(SimConfig(**base, dt=dt)).final.u))
        rates.append(np.log(a1[1:3] / a0[1:3]) / base["t_end"])
    rate, rate4 = rates
    lam = np.array([dispersion_lambda(0.0, base["beta"], base["mu"], k).real
                    for k in (1.0, 2.0)])
    assert lam[0] < 0 < lam[1]
    assert (np.abs(rate - lam) <= 0.05 * np.abs(lam)).all()
    assert (np.abs(rate - rate4) <= 0.01 * np.abs(rate4)).all()


def test_default_step_matches_a_quarter_step():
    # S-Sigma data at dx = 0.05.  Measured against dt/4: plateaus move by
    # 1.3e-4 and front speeds by 9.4e-5 (at DEFAULT_SYMBOL_SAFETY = 0.5 by
    # 5.5e-4 and 9.7e-4); the Riemann solver's oracle allows 1 % of a
    # plateau (5e-3) and 2 % of a speed (7e-3)
    tol = 5e-4
    base = dict(beta=BETA, mu=MU, x_min=-10.0, x_max=35.2, nx=905, t_end=50.0,
                initial=SmoothedRiemann(0.4, -0.8, GAMMA))
    h = default_dt(SimConfig(**base))
    snaps = np.arange(25.0, 50.0 + 1e-9, 2.0)
    runs = []
    for dt in (h, h / 4.0):
        cfg = SimConfig(**base, dt=dt)
        res = simulate(cfg, snapshot_times=snaps)
        runs.append(([p.value for p in detect_fronts(res.final).plateaus],
                     [f.speed for f in fit_front_speeds(cfg, res, transient="exp")]))
    (plateaus, speeds), (plateaus4, speeds4) = runs
    assert len(plateaus) == len(plateaus4) == 3
    assert len(speeds) == len(speeds4) == 2
    assert np.abs(np.subtract(plateaus, plateaus4)).max() < tol
    assert np.abs(np.subtract(speeds, speeds4)).max() < tol


def test_blown_up_run_raises():
    cfg = SimConfig(beta=BETA, mu=MU, x_min=-30.0, x_max=60.0, nx=1801,
                    t_end=50.0, dt=2.0, initial=SmoothedRiemann(0.4, -0.8, GAMMA))
    with pytest.raises(SimulationDivergedError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")  # the error, not overflow warnings
        simulate(cfg)
    assert isinstance(err.value, UCWavesError)
    assert 0 < err.value.step < 25
    assert err.value.t == pytest.approx(2.0 * err.value.step)


def test_default_time_step_resolved_once_per_config():
    calls = []

    def fn(x):
        calls.append(1)
        return 0.4 - 0.6 * (1.0 + np.tanh(x))

    cfg = SimConfig(beta=BETA, mu=MU, x_min=-10.0, x_max=10.0, nx=201,
                    t_end=1.0, initial=CustomProfile(fn))
    state = initial_profile(cfg)
    calls.clear()
    for _ in range(3):
        state = step(state, cfg)
    assert len(calls) == 1  # dt is resolved once, with the cached operator
    assert state.t == pytest.approx(3 * default_dt(cfg), rel=1e-15)


def per_rate_fits(ts, pos):
    """(sse, speed) of each decay rate of the "exp" fit, each solved by its
    own least-squares problem."""
    t0, span = ts[0], ts[-1] - ts[0]
    fits = []
    for r in np.geomspace(0.25 / span, 40.0 / span, 80):
        cols = np.column_stack([ts, np.ones_like(ts), np.exp(-r * (ts - t0))])
        coef, *_ = np.linalg.lstsq(cols, pos, rcond=None)
        fits.append((float(((cols @ coef - pos) ** 2).sum()), float(coef[0])))
    return fits


@st.composite
def settling_fronts(draw):
    """Times and positions s*t + c + b*exp(-r*(t - t0)) plus noise."""
    m = draw(st.integers(5, 30))
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=m - 1, max_size=m - 1))
    ts = draw(st.floats(0.0, 50.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    s = draw(st.floats(-2.0, 2.0))
    c = draw(st.floats(-50.0, 50.0))
    b = draw(st.floats(-5.0, 5.0))
    rate = draw(st.floats(0.1, 60.0)) / (ts[-1] - ts[0])
    noise = draw(st.floats(1e-6, 1e-1)) * np.random.default_rng(
        draw(st.integers(0, 2**32 - 1))).standard_normal(m)
    return ts, s * ts + c + b * np.exp(-rate * (ts - ts[0])) + noise


@settings(max_examples=150, deadline=None)
@given(settling_fronts())
def test_exp_fit_picks_the_rate_of_the_least_squares_loop(data):
    ts, pos = data
    fits = per_rate_fits(ts, pos)
    sse = np.array([f[0] for f in fits])
    best, second = np.sort(sse)[:2]
    # each sse is rounded at the scale |pos|*sqrt(sse), which exceeds sse
    # itself when the noise is small against the positions
    tie = 1e-12 * (best + np.linalg.norm(pos) * np.sqrt(best))
    speed, _ = _fit_positions(ts, pos, "exp")
    if second - best > tie:
        assert speed == fits[int(np.argmin(sse))][1]
    else:  # a near-tie may go either way, but only to a tied rate
        chosen = [i for i, f in enumerate(fits) if f[1] == speed]
        assert chosen and sse[chosen[0]] <= best + tie


def test_snapshots_recorded():
    cfg = smoothed_cfg(t_end=1.0, dt=0.01)
    res = simulate(cfg, snapshot_times=[0.0, 0.5, 1.0])
    times = [s.t for s in res.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    assert any(abs(t - 0.5) < 1e-9 for t in times)
