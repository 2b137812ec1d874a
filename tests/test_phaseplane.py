import ast
import gc
import inspect
import math
import re
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from ucwaves import (
    GAMMA_MAX,
    Branch,
    DegenerateSpeedError,
    ShootingBudgetError,
    TWProblem,
    Verdict,
    a_tilde,
    char_speed,
    discriminant,
    dispersion_lambda,
    eigenvalues,
    entropy_integral,
    equilibria,
    kinetic_u_minus,
    locus_point,
    parabola_residual,
    psys_locus,
    psys_symmetry,
    rh_speed,
    shoot_unstable,
    solve,
    u_plus_bounds,
    verify_solution,
)
from ucwaves import kinetics, pde, phaseplane, psystem
from ucwaves.errors import DomainError
from ucwaves.phaseplane import CONNECTION_TOL, SEED_OFFSET, STIFF_RATIO, jacobian
from ucwaves.psystem import resolved_parabola_coefficient

GAMMA = 1 / math.sqrt(6)


def test_damping_is_a_python_float():
    # the shot's field reads T at every evaluation
    prob = TWProblem(GAMMA, 0.5, 0.4)
    assert type(prob.T) is float
    assert prob.T == GAMMA / math.sqrt(0.5)


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


def test_both_arcs_end_exactly_on_the_midpoint_section():
    # both launches u0 of this point give u0 + 1.0*(umid - u0) != umid, so
    # the march sets the last u of each arc to the section itself
    p = locus_point(0.5027281068746259, GAMMA, Branch.MINUS)
    umid = 0.5 * (p.u_minus + p.u_plus)
    res = shoot_unstable(TWProblem.from_kinetic_point(p), p.u_minus, p.u_plus)
    assert res.verdict is Verdict.CONNECTS
    assert (res.trajectory[:, 1] == umid).sum() == 1


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


@pytest.mark.parametrize("u_minus,u_plus,reaches_midpoint", [
    (0.5084542170893335, -0.9245206179347696, False),  # the forward arc fails
    (0.22485930061453524, -0.21621086597551464, True),  # the backward one folds
])
def test_shoot_reports_a_failed_arc_as_diverging(u_minus, u_plus,
                                                 reaches_midpoint):
    prob = TWProblem(GAMMA, rh_speed(u_minus, u_plus), u_minus)
    res = shoot_unstable(prob, u_minus, u_plus)
    assert res.verdict is Verdict.DIVERGES
    # the orbit is the forward arc alone, from the seed next to u_-
    u = res.trajectory[:, 1]
    assert u[0] == pytest.approx(u_minus, abs=1e-7)
    assert (u[-1] == 0.5 * (u_minus + u_plus)) == reaches_midpoint
    assert res.terminal_distance == np.hypot(u - u_plus,
                                             res.trajectory[:, 2]).min()


def _counted_solve_ivp(monkeypatch):
    """[calls, evaluations] of phaseplane.solve_ivp from here on."""
    count, solve = [0, 0], phaseplane.solve_ivp

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        count[0] += 1
        count[1] += sol.nfev
        return sol

    monkeypatch.setattr(phaseplane, "solve_ivp", counted)
    return count


@pytest.mark.parametrize("shot,calls", [
    (lambda: _scalar_shot(GAMMA, *README_PAIR), 1),
    (lambda: _scalar_shot(GAMMA, *BACKWARD_FOLDS), 2),  # the forward arc alone
    (lambda: (psystem.psys_shoot, (psys_locus(-0.6, 4.0),)), 1),
], ids=["readme_pair", "backward_folds", "psystem"])
def test_orbit_nfev_counts_the_evaluations_of_its_marches(monkeypatch, shot,
                                                          calls):
    # both arcs of a connection march in one solve_ivp call
    count = _counted_solve_ivp(monkeypatch)
    shoot, args = shot()
    res = shoot(*args)
    assert count == [calls, res.nfev]


def test_orbit_nfev_of_a_backward_shot_is_its_shot_count(monkeypatch):
    shots = []

    class Recorded(phaseplane._Shot):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            shots.append(self)

    monkeypatch.setattr(phaseplane, "_Shot", Recorded)
    count = _counted_solve_ivp(monkeypatch)
    res = _lax_shot(0.4, 0.25)
    assert res.verdict is Verdict.CONNECTS
    assert count == [0, 0] and res.nfev == shots[0].nfev > 0


def test_shoot_rejects_non_saddle_start():
    # (0.1, 0.3) is a Lax pair: u = 0.1 is the middle (node) equilibrium
    prob = TWProblem(GAMMA, rh_speed(0.1, 0.3), 0.1)
    with pytest.raises(DomainError):
        shoot_unstable(prob, 0.1, 0.3)


def test_shots_refuse_coincident_ends_and_a_start_without_unstable_direction():
    # a shot spans the distance between its ends; both used to return a
    # verdict for a shot from an equilibrium to itself
    prob = TWProblem(GAMMA, 0.25, 1.0)
    for backward in (False, True):
        with pytest.raises(DomainError, match="two distinct equilibria"):
            shoot_unstable(prob, 1.0, 1.0, backward=backward)
    # gamma = 0 at a saddle-node start: both eigenvalues vanish (this used
    # to raise ZeroDivisionError)
    with pytest.raises(DomainError, match="no unstable direction"):
        shoot_unstable(TWProblem(0.0, 0.25, -0.5), -0.5, 1.0)


def test_backward_shot_refuses_ends_within_twice_the_seed_offset():
    # a Lax shock of span 1e-9: the orbit's first row, 1e-8 out from the
    # saddle, lay past the node, and the shot used to report CONNECTS
    prob = TWProblem(0.4, rh_speed(0.3, 0.300000001), 0.3)
    with pytest.raises(DomainError, match=r"seed offset 1e-08 apart.*"
                       r"saddle_u=0\.300000001, node_u=0\.3$"):
        shoot_unstable(prob, 0.300000001, 0.3, backward=True)
    # three seed offsets apart, the shot runs and connects
    prob = TWProblem(0.4, rh_speed(0.3, 0.30000003), 0.3)
    res = shoot_unstable(prob, 0.30000003, 0.3, backward=True)
    assert res.verdict is Verdict.CONNECTS


#: the README's phase example, a saddle-saddle pair at its RH speed 0.77216...
README_PAIR = (0.3285142, -0.5475237)


@pytest.mark.parametrize("s", [0.78, 0.4, 0.7721655])
def test_shots_refuse_an_end_off_equilibrium(s):
    # at 0.7721655, the RH speed to 7 digits, u_+ is 3.7e-8 off an
    # equilibrium, beyond the 1e-8 seed; at 0.4 u_+ would also be a saddle
    um, up = README_PAIR
    prob = TWProblem(GAMMA, s, um)
    with pytest.raises(DomainError, match=r"u_to=-0\.5475237 \(P\(u\) = "):
        shoot_unstable(prob, um, up)
    with pytest.raises(DomainError, match=r"saddle_u=-0\.5475237 \(P\(u\) = "):
        shoot_unstable(prob, up, um, backward=True)
    exact = TWProblem(GAMMA, rh_speed(um, up), um)
    assert shoot_unstable(exact, um, up).verdict is Verdict.CONNECTS


@pytest.mark.parametrize("gamma,s,u_minus,u_plus,match", [
    # P(u_+) = inf: the bound |P| is held to overflowed too
    (0.0, 2.7781035853581304e299, 0.0, 6.4709363046683224e16,
     r"off equilibrium: u_to=6\.4709363046683224e\+16 \(P\(u\) = inf\)"),
    # the stable graph of u_+ rounds to v = 0 at the launch (gamma = 1e300)
    (1e300, None, 0.5127296671069506, -1.0254593342139011,
     r"rows are normal floats .*u_to=-1\.0254593342139011 \(\|v\| down to 0\)"),
    # and the unstable graph of a tiny u_- at gamma = 1e-300: 1/v overflowed
    # in xi
    (1e-300, None, 9.427252327594122e-09, -1.885450465519767e-08,
     r"rows are normal floats .*u_from=9\.427252327594122e-09 \(\|v\| down to "),
    # T = inf: the launch scale overflows
    (1e300, 5e-324, 0.5773502691896257, -1.1547005383792515,
     r"scale span\*\(\|lam\| \+ \|T\|\) = inf that overflows"),
], ids=["infinite_P", "flat_launch", "subnormal_rows", "infinite_T"])
def test_saddle_saddle_shots_that_cannot_march_are_a_domain_error(
        gamma, s, u_minus, u_plus, match):
    s = rh_speed(u_minus, u_plus) if s is None else s
    with pytest.raises(DomainError, match=match):
        shoot_unstable(TWProblem(gamma, s, u_minus), u_minus, u_plus)


def test_backward_shot_refuses_a_node_off_equilibrium():
    prob = TWProblem(GAMMA, rh_speed(0.1, 0.3), 0.1)
    with pytest.raises(DomainError, match=r"node_u=0\.15 \(P\(u\) = "):
        shoot_unstable(prob, 0.3, 0.15, backward=True)


@pytest.mark.parametrize("ends", [(1e200, 0.0), (0.3, 1e200), (0.3, -1e103)])
def test_huge_states_are_a_domain_error(ends):
    # past |u| ~ 5.6e102 the cube overflows: refused before any power of it
    with pytest.raises(DomainError, match=r"\^3=-?inf \(must be finite\)"):
        shoot_unstable(TWProblem(GAMMA, 0.5, ends[0]), *ends)


def test_rh_speed_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="u_minus=1e\\+200 or u_plus=0.0 overflows"):
        rh_speed(1e200, 0.0)
    # the squares stay finite and their sum overflows: TWProblem refuses it
    s = rh_speed(1.2e154, 1.2e154)
    assert s == -math.inf
    with pytest.raises(DomainError, match=r"s=-inf \(must be finite\)"):
        TWProblem(GAMMA, s, 1.2e154)


def test_lax_profile_backward_shoot():
    prob = TWProblem(GAMMA, rh_speed(0.1, 0.3), 0.1)
    res = shoot_unstable(prob, 0.3, 0.1, backward=True)
    assert res.verdict is Verdict.CONNECTS
    _assert_captured(res, prob, 0.1)
    _assert_lax_orbit_starts_at_its_saddle(res, 0.3)
    # a Lax orbit is nowhere near the undercompressive parabola
    assert parabola_residual(res, 0.1, 0.3) > 1e-3


def test_lax_profile_fails_beyond_kinetic_threshold():
    # for u_R = -0.8 the single Lax profile exists only up to
    # u_L = 0.8 - psi(-0.8) = 0.27124
    for ul, expect in [(0.26, True), (0.1, True), (0.28, False), (0.35, False)]:
        prob = TWProblem(GAMMA, rh_speed(ul, -0.8), ul)
        res = shoot_unstable(prob, -0.8, ul, backward=True)
        assert (res.verdict is Verdict.CONNECTS) == expect
        _assert_lax_orbit_starts_at_its_saddle(res, -0.8)


@st.composite
def _kinetic_right_states(draw):
    """(gamma, u_R) with u_R strictly inside u_plus_bounds(gamma)."""
    gamma = draw(st.floats(0.05, 0.6))
    lower, upper = u_plus_bounds(gamma)
    return gamma, draw(st.floats(lower, upper, exclude_min=True, exclude_max=True))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(state=_kinetic_right_states(), sign=st.sampled_from([1.0, -1.0]))
def test_the_lax_profile_is_lost_at_the_kinetic_threshold(state, sign):
    # the paper's selection rule: the crossing Lax shock from u_L to u_R has
    # a traveling wave exactly for u_L below u_0 = -u_R - psi(u_R).  Bisect
    # u_L, to a width of 1e-7, on the verdict of the backward shot from the
    # saddle u_R into the node u_L, over a bracket that ends at the sonic
    # state -u_R/2; sign = -1 shoots the mirror image u -> -u
    gamma, ur = state
    u0 = -ur - kinetic_u_minus(ur, gamma)
    lo, hi = u0 - 0.05, min(u0 + 0.05, -ur / 2.0)
    # s is concave in u_L, so positive at both ends means positive between;
    # a sonic end within the bound of u_0 (u_R at an end of its range) would
    # pass whatever the shots said
    assume(rh_speed(lo, ur) > 0.0 and rh_speed(hi, ur) > 0.0 and hi - u0 > 1e-7)

    def connects(ul):
        prob = TWProblem(gamma, rh_speed(sign * ul, sign * ur), sign * ul)
        res = shoot_unstable(prob, sign * ur, sign * ul, backward=True)
        return res.verdict is Verdict.CONNECTS

    assert connects(lo)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if connects(mid):
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - u0) <= 1e-7


def _same_bits(f, *args):
    """Whether f of floats and f of one-element arrays agree to the bit."""
    return (np.float64(f(*args)).tobytes()
            == f(*(np.array([x]) for x in args))[0].tobytes())


@settings(max_examples=200, deadline=None)
@given(u=st.floats(-2.0, 2.0), w=st.floats(-2.0, 2.0))
@example(u=1.740289695151073, w=0.0)  # P: u**3 of a float (libm pow) != the array's
@example(u=1.9686715461435784, w=0.0)  # dP: u**2 of a float != numpy's u*u
@example(u=-1.0798461936420436, w=0.29864772598326583)  # char_speed, rh_speed
@example(u=0.8752956962632124, w=1.5152512010219268)  # entropy_integral
@example(u=1.4873696142784607, w=0.0)  # discriminant: (a - 1)**2
def test_lienard_forms_give_a_float_and_an_array_the_same_bits(u, w):
    for form in (TWProblem(0.4, 0.3, 0.2), psys_locus(-0.7, 2.0)):
        for f in (form.P, form.dP):
            assert _same_bits(f, u)
    assert _same_bits(char_speed, u)
    assert _same_bits(rh_speed, u, w)
    assert _same_bits(entropy_integral, u, w)
    if u != 1.0:  # the pole
        assert _same_bits(lambda a: discriminant(a, 0.4), u)


#: the closed forms that take only floats, and the float squares of the
#: grid, the shot ends and the dispersion relation, held to products by
#: their source: a float's power calls libm's pow, which is not correctly
#: rounded, so the figures built on them could change with the host's libm
_NO_POWER_FORMS = [a_tilde, kinetics._locus_point, u_plus_bounds,
                     kinetics.kinetic_u_plus_candidates, psys_locus,
                     psystem._u_minus, pde.default_dt, pde._Operator,
                     equilibria, psystem.psys_shoot, dispersion_lambda,
                     pde.fit_front_speeds]


@pytest.mark.parametrize("f", _NO_POWER_FORMS, ids=lambda f: f.__name__)
def test_float_only_closed_forms_take_no_powers(f):
    tree = ast.parse(textwrap.dedent(inspect.getsource(f)))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]


def _series(form, u_s, toward, lam):
    """The Taylor coefficients c_1..c_K of the manifold graph at u_s, and
    the scaled ones b_m, proportional to c_m * span^m."""
    span = abs(toward - u_s)
    b, v_scale = phaseplane._manifold_series(form, u_s, lam, span)
    return [bm * v_scale / span**m for m, bm in enumerate(b, 1)], b


def _shot_saddles(form, u_from, u_to):
    """(saddle, other end, eigenvalue) of the two arcs of a saddle-saddle
    shot: the unstable manifold of u_from, the stable one of u_to."""
    return ((u_from, u_to, eigenvalues(u_from, form)[0]),
            (u_to, u_from, eigenvalues(u_to, form)[1]))


def _psys_ends(p):
    """(u_from, u_to) of ``psys_shoot``: it leaves the lower state when the
    resolved parabola coefficient is negative."""
    lower, upper = sorted((p.u_minus, p.u_plus))
    k = resolved_parabola_coefficient(p)
    return (lower, upper) if k < 0 else (upper, lower)


PSYS_QUADRANTS = [(), ("odd",), ("a_flip",), ("odd", "a_flip")]


def _psys_point(b, A, symmetries):
    p = psys_locus(b, A)
    for which in symmetries:
        p = psys_symmetry(p, which)
    return p


# The saddle-node end a = 1/2 (f = 0) and points across each branch.  On the
# locus the manifold is the parabola v = (u - u_-)(u - u_+)/sqrt(2): about
# either saddle c_1 is the eigenvalue, c_2 = 1/sqrt(2), and the series ends.
@pytest.mark.parametrize("f", [0.0, 0.5, 0.999])
@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("gamma", [0.05, GAMMA, 0.6])
def test_manifold_series_is_the_parabola_on_the_locus(gamma, branch, f):
    p = locus_point(0.5 + f * (a_tilde(gamma) - 0.5), gamma, branch)
    prob = TWProblem.from_kinetic_point(p)
    for u_s, toward, lam in _shot_saddles(prob, p.u_minus, p.u_plus):
        c, b = _series(prob, u_s, toward, lam)
        assert len(c) == phaseplane.MANIFOLD_ORDER
        assert c[0] == pytest.approx(lam, rel=1e-14)
        assert c[1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
        # c_3..c_K at rounding: each term at the far end of the span
        assert max(map(abs, b[2:])) <= 1e-12 * abs(b[0])


@pytest.mark.parametrize("symmetries", PSYS_QUADRANTS)
@pytest.mark.parametrize("b,A", [(-0.99, 0.5), (-0.7, 2.0), (-0.51, 40.0),
                                 (-0.5, 4.0)])
def test_manifold_series_is_the_parabola_of_the_psystem(b, A, symmetries):
    # T = 1/A < 0 after the A-flip; the parabola coefficient is signed
    p = _psys_point(b, A, symmetries)
    for u_s, toward, lam in _shot_saddles(p, *_psys_ends(p)):
        c, coef = _series(p, u_s, toward, lam)
        assert c[0] == pytest.approx(lam, rel=1e-14)
        k = resolved_parabola_coefficient(p)
        assert c[1] == pytest.approx(k, rel=1e-13)
        assert max(map(abs, coef[2:])) <= 1e-12 * abs(coef[0])


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("gamma", [0.05, GAMMA, 0.6])
def test_manifold_series_does_not_end_off_the_locus(gamma, branch):
    p = locus_point(0.5 + 0.999 * (a_tilde(gamma) - 0.5), gamma, branch)
    up = 1.01 * p.u_plus
    prob = TWProblem(gamma, rh_speed(p.u_minus, up), p.u_minus)
    for u_s, toward, lam in _shot_saddles(prob, p.u_minus, up):
        _, b = _series(prob, u_s, toward, lam)
        assert abs(b[2]) > 1e-5 * abs(b[0])


#: the u_+ factors of the perturbed scalar shots
U_PLUS_FACTORS = (1.0, 1.05, 0.95, 1.01, 0.99, 1.001, 0.999)
#: a pair whose backward arc folds before the midpoint section, the second
#: case of test_shoot_reports_a_failed_arc_as_diverging
BACKWARD_FOLDS = (0.22485930061453524, -0.21621086597551464)


def _scalar_shot(gamma, u_minus, u_plus):
    return shoot_unstable, (TWProblem(gamma, rh_speed(u_minus, u_plus), u_minus),
                            u_minus, u_plus)


@st.composite
def _saddle_saddle_shots(draw):
    """(shoot, args): a scalar locus point with u_+ times one of
    U_PLUS_FACTORS, or a p-system locus point in one of the four
    quadrants."""
    if draw(st.booleans()):
        p = _psys_point(draw(st.floats(-0.99, -0.51)), draw(st.floats(0.5, 4.0)),
                        draw(st.sampled_from(PSYS_QUADRANTS)))
        return psystem.psys_shoot, (p,)
    gamma = draw(st.floats(0.05, 0.6))
    p = locus_point(0.5 + draw(st.floats(0.05, 0.95)) * (a_tilde(gamma) - 0.5),
                    gamma, draw(st.sampled_from(Branch)))
    up = p.u_plus * draw(st.sampled_from(U_PLUS_FACTORS))
    assume(rh_speed(p.u_minus, up) > 0.0)
    return _scalar_shot(gamma, p.u_minus, up)


def _recorded_shot(shoot, args):
    """shoot(*args), and the (form, u_from, u_to, vmax) of the saddle-saddle
    shot it ran."""
    original, seen = phaseplane.shoot_saddle_connection, []

    def record(form, u_from, u_to, vmax=phaseplane.V_BOX):
        seen.append((form, u_from, u_to, vmax))
        return original(form, u_from, u_to, vmax)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phaseplane, "shoot_saddle_connection", record)
        mp.setattr(psystem, "shoot_saddle_connection", record)
        res = shoot(*args)
    return res, seen[0]


def _arc_by_arc(form, u_from, u_to, vmax):
    """(verdict, last u) of the saddle-saddle shot whose two arcs each march
    alone, decided in this order: the forward arc's fold or divergence, then
    the backward arc's failure, then the matching defect."""
    umid = 0.5 * (u_from + u_to)
    arcs = []
    for u_s, toward, lam in _shot_saddles(form, u_from, u_to):
        ((status, u, v),), _ = phaseplane._march(
            form, [phaseplane._launch(form, u_s, toward, lam)], umid, vmax)
        arcs.append((status, u, v))
        if status != "ok":
            break
    status, uf, vf = arcs[0]
    if status == "fold":
        return (Verdict.MISSES_ABOVE if u_to < u_from else Verdict.MISSES_BELOW,
                uf[-1])
    if status != "ok" or arcs[1][0] != "ok":
        return Verdict.DIVERGES, uf[-1]
    _, ub, vb = arcs[1]
    defect = vf[-1] - vb[-1]
    lam_u = eigenvalues(u_from, form)[0]
    if abs(defect) < CONNECTION_TOL * max(1.0, abs(u_to - u_from)
                                          * (abs(lam_u) + abs(form.T))):
        return Verdict.CONNECTS, ub[0]
    return (Verdict.MISSES_ABOVE if defect > 0 else Verdict.MISSES_BELOW), ub[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shot=_saddle_saddle_shots())
@example(shot=_scalar_shot(GAMMA, *BACKWARD_FOLDS))
def test_the_joint_march_decides_as_arc_by_arc_marches(shot):
    # both arcs march as one system; when the backward one stops first, the
    # forward one is finished alone, so its fold or divergence still decides
    # first, and the orbit ends where the arc-by-arc orbit ends
    try:
        res, (form, u_from, u_to, vmax) = _recorded_shot(*shot)
    except DomainError:  # a perturbed end that is not a saddle
        assume(False)
    verdict, last_u = _arc_by_arc(form, u_from, u_to, vmax)
    assert res.verdict is verdict
    assert res.trajectory[0, 1] == u_from + (SEED_OFFSET * max(1.0, abs(u_from))
                                             * math.copysign(1.0, u_to - u_from))
    assert res.trajectory[-1, 1] == pytest.approx(last_u, abs=1e-6)


def _invariance_residual(form, u_s, toward, lam, p_scale):
    """|phi*phi' - T*phi - P| at the launch point of the shot from u_s
    toward ``toward``, over the size of its terms; ``p_scale(u)`` bounds the
    terms of P(u), whose cancellation sets its rounding."""
    us, vs = phaseplane._launch(form, u_s, toward, lam)
    u, phi = us[-1], vs[-1]
    span = abs(toward - u_s)
    b, v_scale = phaseplane._manifold_series(form, u_s, lam, span)
    t = (u - u_s) / span
    dphi = v_scale / span * sum(m * bm * t ** (m - 1)
                                for m, bm in enumerate(b, 1))
    resid = phi * dphi - form.T * phi - form.P(u)
    return abs(resid) / (abs(phi * dphi) + abs(form.T * phi) + p_scale(u))


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.01, 0.7), log_s=st.floats(-6.0, -0.01),
       u_minus=st.floats(-1.1, 1.1), b=st.floats(-0.99, -0.5),
       A=st.floats(0.2, 40.0), symmetries=st.sampled_from(PSYS_QUADRANTS))
def test_launch_point_lies_on_the_invariant_manifold(gamma, log_s, u_minus, b,
                                                     A, symmetries):
    # phi*phi' = T*phi + P(u) to rounding where each shot starts: both
    # eigen-directions of an outer saddle toward each other equilibrium
    prob = TWProblem(gamma, 10.0**log_s, u_minus)
    um, s = prob.u_minus, prob.s
    scalar_scale = lambda u: (abs(u)**3 + abs(u) + abs(um)**3 + abs(um)
                              + s * abs(u - um))
    eqs = prob.equilibria
    for saddle in (eqs[0], eqs[-1]):
        for toward in eqs:
            if toward == saddle or prob.dP(saddle) <= 0.0:
                continue
            for lam in eigenvalues(saddle, prob):
                assert _invariance_residual(prob, saddle, toward, lam,
                                            scalar_scale) <= 1e-14
    p = _psys_point(b, A, symmetries)
    psys_scale = lambda u: ((abs(u)**3 + abs(p.u_minus)**3 + p.s * p.s
                             * abs(u - p.u_minus)) / abs(p.s * p.A))
    for u_s, toward, lam in _shot_saddles(p, *_psys_ends(p)):
        assert _invariance_residual(p, u_s, toward, lam, psys_scale) <= 1e-14


# u_+ moved by 1e-3 (relative) off the locus: the shot must not connect
@pytest.mark.parametrize("fac", [1.001, 0.999])
@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("gamma", [0.05, GAMMA, 0.6])
def test_shot_rejects_a_pair_a_thousandth_off_the_locus(gamma, branch, fac):
    p = locus_point(0.5 + 0.9 * (a_tilde(gamma) - 0.5), gamma, branch)
    up = fac * p.u_plus
    prob = TWProblem(gamma, rh_speed(p.u_minus, up), p.u_minus)
    assert shoot_unstable(prob, p.u_minus, up).verdict in (
        Verdict.MISSES_ABOVE, Verdict.MISSES_BELOW)


def _assert_lax_orbit_starts_at_its_saddle(res, saddle):
    """The first row lies within SEED_OFFSET * max(1, |u|) of the saddle, xi
    starts at 0, and the shot's time -xi increases along the orbit (the
    stable manifold is integrated backward in xi)."""
    xi, u = res.trajectory[:, 0], res.trajectory[:, 1]
    near = SEED_OFFSET * max(1.0, abs(saddle))
    assert abs(u[0] - saddle) <= near * (1 + 1e-6)
    assert xi[0] == 0.0
    assert np.all(np.diff(xi) < 0)


def _reversed_field(prob):
    return lambda t, y: [-y[1], -(prob.T * y[1] + prob.P(y[0]))]


def _assert_captured(res, prob, node_u):
    """A backward CONNECTS ends within CONNECTION_TOL/2 of the node, or in
    the node's certified capture set, and then scipy's LSODA, continuing the
    reversed flow from that end, reaches CONNECTION_TOL/2 of the node."""
    _, u, v = res.trajectory[-1]
    x = u - node_u
    dist = math.hypot(x, v)
    if dist < 0.5 * CONNECTION_TOL:
        return
    m1, m2, m3, level = phaseplane._capture_certificate(prob, node_u)
    assert m1 * x * x + 2.0 * m2 * x * v + m3 * v * v < level
    # the slowest linear rate at the node, from numpy, sets the horizon
    rate = -np.linalg.eigvals([[0.0, -1.0], [-prob.dP(node_u), -prob.T]]).real.max()
    assert rate > 0.0

    def close(t, y):
        return math.hypot(y[0] - node_u, y[1]) - 0.5 * CONNECTION_TOL
    close.terminal = True
    horizon = 10.0 * (1.0 + max(0.0, math.log(dist / CONNECTION_TOL))) / rate
    sol = solve_ivp(_reversed_field(prob), (0.0, horizon), [u, v],
                    method="LSODA", rtol=1e-10, atol=1e-12, events=close)
    assert sol.status == 1 and sol.t_events[0].size == 1


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
    with pytest.raises(ShootingBudgetError, match="50 right-hand-side") as err:
        shoot_unstable(TWProblem.from_kinetic_point(p), p.u_minus, p.u_plus)
    # one budget for the march of both arcs; the message names the u that
    # each arc reached on its way from its launch to the midpoint section
    reached = re.fullmatch(r"DOP853 shot stopped at u = (\S+) of \[(\S+), (\S+)\], "
                           r"u = (\S+) of \[(\S+), (\S+)\] after more than "
                           r"50 right-hand-side evaluations", str(err.value))
    umid = 0.5 * (p.u_minus + p.u_plus)
    for u, start, end, saddle in [(*map(float, reached.groups()[:3]), p.u_minus),
                                  (*map(float, reached.groups()[3:]), p.u_plus)]:
        assert end == pytest.approx(umid, rel=1e-5)
        assert abs(start - saddle) < abs(u - saddle) < abs(end - saddle)
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
    prob, saddle = _lax_problem(gamma, 10.0 ** log_s, side=side)
    res = shoot_unstable(prob, saddle, 0.0, backward=True)
    assert res.verdict is Verdict.CONNECTS
    _assert_captured(res, prob, 0.0)
    _assert_lax_orbit_starts_at_its_saddle(res, saddle)


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
    for f in (1.0 - 1e-3, 1.0 + 1e-3):
        prob, saddle = _lax_problem(gamma, (gamma / (t_star * f)) ** 2,
                                    u_node, side)
        res = shoot_unstable(prob, saddle, u_node, backward=True)
        assert res.verdict is Verdict.CONNECTS
        _assert_captured(res, prob, u_node)
        _assert_lax_orbit_starts_at_its_saddle(res, saddle)
    assert methods == ["DOP853", "BDF"]


FIG3_AXIS = np.linspace(-1.2, 1.2, 97)


# a Lax configuration: u_node the middle equilibrium at speed s, which
# P'(u_node) = 3 u_node^2 - 1 + s < 0 makes it; gamma and s spread T^2 +
# 4 P'(u_node) over both signs, so the node is a node or a focus
@settings(max_examples=200, deadline=None, derandomize=True)
@given(gamma=st.floats(0.01, 1.0), u_node=st.floats(-0.5, 0.5),
       f=st.floats(1e-3, 0.999))
@example(gamma=0.01, u_node=0.0, f=0.5)  # a focus
@example(gamma=1.0, u_node=-0.5, f=1e-3)  # a node
def test_capture_certificate_is_a_lyapunov_sublevel_set(gamma, u_node, f):
    prob = TWProblem(gamma, f * (1.0 - 3.0 * u_node * u_node), u_node)
    m1, m2, m3, level = phaseplane._capture_certificate(prob, u_node)
    M = np.array([[m1, m2], [m2, m3]])
    # J^T M + M J = -I to rounding, J the linearised reversed flow
    J = np.array([[0.0, -1.0], [-prob.dP(u_node), -prob.T]])
    residual = J.T @ M + M @ J + np.eye(2)
    assert np.abs(residual).max() <= 1e-14 * np.abs(J).max() * np.abs(M).max()
    # the level is half of lam_min(M) r^2, where r solves 2 ||M|| (|P_2| r +
    # |P_3| r^2) = 1; P_2 = 3 u_node and P_3 = 1 for the scalar cubic
    lam_min, lam_max = np.linalg.eigvalsh(M)
    assert lam_min > 0.0
    r = max(np.roots([1.0, 3.0 * abs(u_node), -0.5 / lam_max]).real)
    assert level == pytest.approx(0.5 * lam_min * r * r, rel=1e-6)
    # on the boundaries of the sublevel sets V < level and V < 2 level, the
    # full cubic field points inward
    angle = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    d = np.array([np.cos(angle), np.sin(angle)])
    for c in (level, 2.0 * level):
        x, v = d * np.sqrt(c / np.einsum("in,ij,jn->n", d, M, d))
        assert np.all(np.hypot(x, v) <= r * (1.0 + 1e-12))
        field = np.array(_reversed_field(prob)(0.0, (u_node + x, v)))
        assert np.all(np.einsum("in,ij,jn->n", np.array([x, v]), M, field) < 0.0)


@pytest.mark.parametrize("gamma,u_node", [
    (GAMMA, 0.3),  # a saddle: P'(0.3) > 0 at s = 0.9
    (0.0, 0.0),  # T = 0: a center, eigenvalues +-i sqrt(0.1)
])
def test_a_target_that_does_not_attract_gets_no_capture_certificate(gamma,
                                                                    u_node):
    prob = TWProblem(gamma, 0.9, u_node)
    assert phaseplane._capture_certificate(prob, u_node) == phaseplane._NO_CAPTURE
    # no point next to the target is captured, only the distance test holds
    shot = phaseplane._Shot(prob, u_node)
    for e in (1e-3, 1e-6):
        assert not shot.stops(0.0, np.array([u_node + e, 0.0]))
    assert shot.stops(0.0, np.array([u_node + 1e-7, 0.0])) and shot.connects


def test_a_node_whose_lyapunov_matrix_overflows_gets_no_capture_certificate():
    # T = 1e300/1e-150 overflows to inf: m1 = -T*m2 is inf
    prob = TWProblem(1e300, 1e-300, 0.0)
    assert prob.T == math.inf
    assert phaseplane._capture_certificate(prob, 0.0) == phaseplane._NO_CAPTURE


def test_a_focus_whose_lyapunov_level_overflows_gets_no_capture_certificate():
    # T = 2e-200: m3 ~ 1/T stays finite, so does lam_max, but m3*m3 in
    # lam_min overflows; an infinite level would capture every point
    prob = TWProblem(1e-200, 0.25, 0.0)
    assert phaseplane._capture_certificate(prob, 0.0) == phaseplane._NO_CAPTURE
    shot = phaseplane._Shot(prob, 0.0)
    assert not shot.stops(0.0, np.array([0.5, 0.0]))
    # the focus decays at a rate of 1e-200: the shot cannot reach it
    with pytest.raises(ShootingBudgetError):
        shoot_unstable(prob, math.sqrt(0.75), 0.0, backward=True)


def test_a_fig3_lax_shot_stops_in_its_capture_certificate():
    # the S cell (0, -0.6) of the fig3 grid: its Lax shot ends inside the
    # certificate, far outside CONNECTION_TOL of the node u_L = 0
    sol = solve(float(FIG3_AXIS[48]), float(FIG3_AXIS[24]), GAMMA)
    (shock,) = sol.waves
    prob = TWProblem(GAMMA, shock.speed_range[0], shock.left_state)
    res = shoot_unstable(prob, shock.right_state, shock.left_state,
                         backward=True)
    assert res.verdict is Verdict.CONNECTS
    assert res.terminal_distance > 1e-2
    _assert_captured(res, prob, shock.left_state)



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


def test_compiled_shots_share_one_integrator(monkeypatch):
    made, factory = [], phaseplane._compiled_dop853

    def recorded():
        made.append(factory())
        return made[-1]
    monkeypatch.setattr(phaseplane, "_compiled_dop853", recorded)
    for s in (0.01, 0.02):
        assert _lax_shot(0.4, s).verdict is Verdict.CONNECTS
    assert len(made) == 2 and made[0] is made[1]


#: traced bytes that 100 compiled shots of one cell may leave behind: scipy
#: 1.17 keeps about 64 B a shot (the argument list of each DOP853 reset),
#: 9-10 kB over 100 shots with the shared integrator; one integrator per
#: shot kept about 109 kB
_HUNDRED_SHOTS_BYTES = 40_000


def test_repeated_compiled_shots_hold_little_memory():
    prob, saddle = _lax_problem(0.4, 0.01)
    shoot_unstable(prob, saddle, 0.0, backward=True)
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(100):
            shoot_unstable(prob, saddle, 0.0, backward=True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < _HUNDRED_SHOTS_BYTES
