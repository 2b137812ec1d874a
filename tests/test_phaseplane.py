import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853
from scipy.optimize import brentq

from ucwaves import (
    GAMMA_MAX,
    Branch,
    DegenerateSpeedError,
    ShootingBudgetError,
    TWProblem,
    Verdict,
    eigenvalues,
    equilibria,
    locus_point,
    parabola_residual,
    rh_speed,
    shoot_unstable,
    solve,
    verify_solution,
)
from ucwaves import phaseplane
from ucwaves.errors import DomainError
from ucwaves.phaseplane import STIFF_RATIO, jacobian

GAMMA = 1 / math.sqrt(6)


def test_problem_requires_positive_speed():
    with pytest.raises(DegenerateSpeedError):
        TWProblem(GAMMA, 0.0, 0.4)
    with pytest.raises(DegenerateSpeedError):
        TWProblem(GAMMA, -0.3, 0.4)


@pytest.mark.parametrize("field", ["gamma", "s", "u_minus"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_values(field, value):
    args = {"gamma": GAMMA, "s": 0.3, "u_minus": 0.4, field: value}
    with pytest.raises(DomainError, match=f"{field}={value!r} \\(must be finite\\)"):
        TWProblem(**args)


def test_equilibria_three_roots():
    roots = equilibria(0.6, 0.25)
    assert roots == pytest.approx((-0.9928203230275509, 0.3928203230275509, 0.6),
                                  abs=1e-12)
    assert sum(roots) == pytest.approx(0.0, abs=1e-12)


def test_equilibria_degenerate_cases():
    assert equilibria(0.0, 1.0) == (0.0,)
    assert equilibria(1.0, 0.9) == (1.0,)


def test_equilibria_existence_condition():
    # exactly three equilibria iff 1 - s > 3 u_-^2 / 4
    for um in (0.2, 0.6, 1.0):
        for s in (0.1, 0.5, 0.9):
            three = len(equilibria(um, s)) == 3
            assert three == (1 - s > 3 * um * um / 4 + 1e-15)


# the vector field of the profile ODE is (u', v') = (v, T*v + P(u))


def test_vector_field_at_equilibria():
    p = locus_point(0.5, GAMMA, Branch.MINUS)
    prob = TWProblem.from_kinetic_point(p)
    for u in prob.equilibria:
        assert prob.P(u) == pytest.approx(0.0, abs=1e-13)


def test_vector_field_on_middle_equilibrium_with_slope():
    p = locus_point(0.5, GAMMA, Branch.MINUS)
    prob = TWProblem.from_kinetic_point(p)
    dv = prob.T * 1.0 + prob.P(p.u_zero)
    assert dv == pytest.approx(GAMMA / math.sqrt(p.s), abs=1e-12)


def test_vector_field_rh_pair_is_equilibrium():
    prob = TWProblem(GAMMA, rh_speed(0.4, -0.8), 0.4)
    assert prob.P(-0.8) == pytest.approx(0.0, abs=1e-13)


def test_eigenvalues_match_jacobian():
    p = locus_point(0.6, GAMMA, Branch.MINUS)
    prob = TWProblem.from_kinetic_point(p)
    for u in prob.equilibria:
        lam = np.sort_complex(np.array(eigenvalues(u, prob), dtype=complex))
        ref = np.sort_complex(np.linalg.eigvals(jacobian(u, prob)))
        assert np.allclose(lam, ref, atol=1e-12)


def test_eigenvalues_saddle_signs():
    p = locus_point(0.6, GAMMA, Branch.MINUS)
    prob = TWProblem.from_kinetic_point(p)
    for u in (p.u_minus, p.u_plus):
        lp, lm = eigenvalues(u, prob)
        assert lp > 0 > lm
        assert lp * lm == pytest.approx(-prob.dP(u), rel=1e-12)


def test_eigenvalues_middle_unstable():
    p = locus_point(0.6, GAMMA, Branch.MINUS)
    prob = TWProblem.from_kinetic_point(p)
    lp, lm = eigenvalues(p.u_zero, prob)
    tr = GAMMA / math.sqrt(p.s)
    assert complex(lp).real == pytest.approx(tr / 2, abs=1e-12)
    assert complex(lp).imag != 0.0


def test_eigenvalues_zero_gamma_symmetric():
    prob = TWProblem(1e-300, 0.5, 0.6)
    for u in prob.equilibria:
        lp, lm = eigenvalues(u, prob)
        if prob.dP(u) > 0:
            assert lp == pytest.approx(-lm, rel=1e-10)
            assert lp == pytest.approx(math.sqrt(prob.dP(u)), rel=1e-10)


@pytest.mark.parametrize("a,branch", [
    (0.5, Branch.MINUS), (0.5, Branch.PLUS),
    (0.55, Branch.MINUS), (0.6, Branch.PLUS),
    (0.65, Branch.MINUS),
])
def test_shoot_connects_on_locus(a, branch):
    p = locus_point(a, GAMMA, branch)
    prob = TWProblem.from_kinetic_point(p)
    res = shoot_unstable(prob, p.u_minus, p.u_plus)
    assert res.verdict is Verdict.CONNECTS
    assert res.terminal_distance < 1e-6
    assert parabola_residual(res, p.u_minus, p.u_plus) < 1e-5


def test_shoot_perturbed_pairs_fail():
    p = locus_point(0.6, GAMMA, Branch.MINUS)
    for fac in (1.05, 0.95):
        up = p.u_plus * fac
        prob = TWProblem(GAMMA, rh_speed(p.u_minus, up), p.u_minus)
        res = shoot_unstable(prob, p.u_minus, up)
        assert res.verdict in (Verdict.MISSES_ABOVE, Verdict.MISSES_BELOW)


def test_shoot_perturbation_sides_differ():
    p = locus_point(0.55, GAMMA, Branch.MINUS)
    verdicts = set()
    for fac in (1.05, 0.95):
        up = p.u_plus * fac
        prob = TWProblem(GAMMA, rh_speed(p.u_minus, up), p.u_minus)
        verdicts.add(shoot_unstable(prob, p.u_minus, up).verdict)
    assert verdicts == {Verdict.MISSES_ABOVE, Verdict.MISSES_BELOW}


def test_shoot_off_locus_pair_rejected():
    # (0.20601, -0.39) is off the locus: no connection
    um = 0.20601
    up = -0.39
    prob = TWProblem(GAMMA, rh_speed(um, up), um)
    res = shoot_unstable(prob, um, up)
    assert res.verdict in (Verdict.MISSES_ABOVE, Verdict.MISSES_BELOW)


def test_shoot_rejects_non_saddle_start():
    # (0.1, 0.3) is a Lax pair: u = 0.1 is the middle (node) equilibrium
    prob = TWProblem(GAMMA, rh_speed(0.1, 0.3), 0.1)
    with pytest.raises(DomainError):
        shoot_unstable(prob, 0.1, 0.3)


def test_lax_profile_backward_shoot():
    prob = TWProblem(GAMMA, rh_speed(0.1, 0.3), 0.1)
    res = shoot_unstable(prob, 0.3, 0.1, backward=True)
    assert res.verdict is Verdict.CONNECTS
    assert res.terminal_distance <= 1e-6
    # a Lax orbit is nowhere near the undercompressive parabola
    assert parabola_residual(res, 0.1, 0.3) > 1e-3


def test_lax_profile_fails_beyond_kinetic_threshold():
    # for u_R = -0.8 the single Lax profile exists only up to
    # u_L = 0.8 - psi(-0.8) = 0.27124
    for ul, expect in [(0.26, True), (0.1, True), (0.28, False), (0.35, False)]:
        prob = TWProblem(GAMMA, rh_speed(ul, -0.8), ul)
        res = shoot_unstable(prob, -0.8, ul, backward=True)
        assert (res.verdict is Verdict.CONNECTS) == expect


def test_trajectory_endpoints():
    p = locus_point(0.58, GAMMA, Branch.MINUS)
    prob = TWProblem.from_kinetic_point(p)
    res = shoot_unstable(prob, p.u_minus, p.u_plus)
    u = res.trajectory[:, 1]
    assert abs(u[0] - p.u_minus) < 1e-6
    assert abs(u[-1] - p.u_plus) < 1e-6
    # xi increases along the orbit
    assert np.all(np.diff(res.trajectory[:, 0]) > 0)


def _lax_problem(gamma, s, u_node=0.0, side=1.0):
    """The problem at speed s with middle equilibrium u_node, and its outside
    saddle on ``side`` (+1 above, -1 below)."""
    prob = TWProblem(gamma, s, u_node)
    low, _, high = prob.equilibria
    return prob, high if side > 0 else low


def _lax_shot(gamma, s, u_node=0.0, side=1.0):
    """Backward shot from that saddle into u_node."""
    prob, saddle = _lax_problem(gamma, s, u_node, side)
    return shoot_unstable(prob, saddle, u_node, backward=True)


def test_eigenvalues_accurate_at_large_damping():
    # (T - sqrt(T^2 + 4 dP))/2 cancels to noise: at T = 1e9 it reads 0
    prob = TWProblem(0.4, (0.4 / 1e9) ** 2, 0.0)
    for u in prob.equilibria:
        lp, lm = eigenvalues(u, prob)
        assert lp * lm == pytest.approx(-prob.dP(u), rel=1e-12)
        assert lp + lm == pytest.approx(prob.T, rel=1e-12)


def test_shot_budget_raises_typed_error(monkeypatch):
    monkeypatch.setattr(phaseplane, "MAX_NFEV", 50)
    p = locus_point(0.6, GAMMA, Branch.MINUS)
    with pytest.raises(ShootingBudgetError, match="50 right-hand-side"):
        shoot_unstable(TWProblem.from_kinetic_point(p), p.u_minus, p.u_plus)
    for T in (1.0, 1e3):  # DOP853 and BDF
        with pytest.raises(ShootingBudgetError):
            _lax_shot(0.4, (0.4 / T) ** 2)


def test_stiff_lax_cell_verifies():
    # s = 4.4e-16, T = 1.9e7: an explicit method takes ~T^2 steps here
    sol = solve(0.0, 0.9999999999999998, 0.4)
    checks = verify_solution(sol)
    assert [c.detail for c in checks] == ["profile shoot: connects"]
    assert all(c.passed for c in checks)


# s down to 1e-16: double-precision Riemann data near |u| = 1 give no
# smaller positive speed.  gamma from 0.01: as T -> 0 the middle equilibrium
# becomes a center and the reversed orbit spirals ~1/T times into it, so the
# cost of a shot grows like 1/T (T > 10 gamma here).
@settings(max_examples=30, deadline=None)
@given(log_s=st.floats(-16.0, -2.0), gamma=st.floats(0.01, 0.7),
       side=st.sampled_from([1.0, -1.0]))
def test_small_speed_lax_shots_connect_within_budget(log_s, gamma, side):
    res = _lax_shot(gamma, 10.0 ** log_s, side=side)
    assert res.verdict is Verdict.CONNECTS
    assert res.terminal_distance <= 1e-6


def test_weak_lax_shock_of_a_sigma_pattern_verifies():
    # a fig3 grid cell: the Lax shock of S + Sigma has |u_R - u_L| = 1e-3 and
    # T = 4.2, but slow rates ~1e-3; DOP853 would spend ~3.6e5 evaluations
    sol = solve(-0.575, 1.1, 0.55 * GAMMA_MAX)
    assert sol.pattern == "SΣ"
    checks = verify_solution(sol)
    assert checks[0].detail == "profile shoot: connects"
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("u_node,side", [(0.0, 1.0), (0.2, 1.0), (0.2, -1.0),
                                         (-0.4, -1.0)])
def test_explicit_and_implicit_shots_agree_at_the_threshold(u_node, side,
                                                            monkeypatch):
    methods = []
    step_through, dop853 = phaseplane._step_through, phaseplane._dop853

    def stepped(solver):  # a stiff shot steps scipy's BDF
        methods.append(type(solver).__name__)
        return step_through(solver)

    def compiled(*args):  # the explicit shot on scipy's compiled DOP853
        methods.append("DOP853")
        return dop853(*args)

    def excess(T):  # over STIFF_RATIO, of the shot at T
        prob, saddle = _lax_problem(gamma, (gamma / T) ** 2, u_node, side)
        return T * phaseplane._slow_time(prob, saddle, u_node, 1e-6) - STIFF_RATIO

    monkeypatch.setattr(phaseplane, "_step_through", stepped)
    monkeypatch.setattr(phaseplane, "_dop853", compiled)
    gamma = 0.4
    t_star = brentq(excess, 1.0, 100.0)
    below, above = (_lax_shot(gamma, (gamma / (t_star * f)) ** 2, u_node, side)
                    for f in (1.0 - 1e-3, 1.0 + 1e-3))
    assert methods == ["DOP853", "BDF"]
    assert below.verdict is above.verdict is Verdict.CONNECTS
    assert max(below.terminal_distance, above.terminal_distance) <= 1e-6


FIG3_AXIS = np.linspace(-1.2, 1.2, 97)


# a fifth of the cells shoot a Lax profile; the rest are filtered out
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(f=st.floats(0.05, 1.1), i=st.integers(0, 96), j=st.integers(0, 96))
def test_compiled_shot_agrees_with_solve_ivp_dop853(f, i, j):
    sol = solve(float(FIG3_AXIS[i]), float(FIG3_AXIS[j]), f * GAMMA_MAX)
    compiled = [c.detail for c in verify_solution(sol)]
    assume(any(d.startswith("profile shoot") for d in compiled))
    with pytest.MonkeyPatch.context() as mp:
        # the same field and judge on scipy's Python DOP853
        mp.setattr(phaseplane, "_dop853", lambda y0, horizon: (
            phaseplane._step_through(DOP853(
                phaseplane._reversed_field, 0.0, y0, horizon,
                rtol=phaseplane.RTOL, atol=phaseplane.ATOL))))
        assert [c.detail for c in verify_solution(sol)] == compiled


def test_compiled_shot_releases_its_problem():
    for s in (0.01, (0.4 / 1e3) ** 2):  # compiled DOP853, then BDF
        prob, saddle = _lax_problem(0.4, s)
        first = weakref.ref(prob)
        res = shoot_unstable(prob, saddle, 0.0, backward=True)
        assert res.verdict is Verdict.CONNECTS
        assert _lax_shot(0.4, 2 * s).verdict is Verdict.CONNECTS
        del prob
        gc.collect()
        assert first() is None
