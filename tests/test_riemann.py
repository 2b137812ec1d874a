import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ucwaves import (
    GAMMA_MAX,
    WaveKind,
    char_speed,
    classify_plane,
    evaluate,
    flux,
    kinetic_u_minus,
    rh_speed,
    solve,
    u_plus_bounds,
    verify_solution,
)
from ucwaves.errors import DomainError
from ucwaves.riemann import (
    EQ_TOL,
    RiemannSolution,
    Wave,
    solution_from_dict,
    solution_to_dict,
)

GAMMA = 1 / math.sqrt(6)


def test_constant_data():
    sol = solve(0.2, 0.2, GAMMA)
    assert sol.waves == ()
    assert sol.pattern == ""
    assert evaluate(sol, -5.0) == 0.2
    assert evaluate(sol, 5.0) == 0.2


def test_single_rarefaction():
    sol = solve(0.3, 0.1, GAMMA)
    assert sol.pattern == "R"
    w = sol.waves[0]
    assert w.speed_range == pytest.approx((0.73, 0.97), abs=1e-12)
    # fan inversion identity: at r = 1 - 3u^2 the fan value is u
    assert evaluate(sol, 1 - 3 * 0.2**2) == pytest.approx(0.2, abs=1e-12)


def test_single_lax_shock():
    sol = solve(0.1, 0.3, GAMMA)
    assert sol.pattern == "S"
    assert sol.waves[0].speed_range[0] == pytest.approx(0.87, abs=1e-12)
    checks = verify_solution(sol)
    assert all(c.passed for c in checks)


def test_fig4_composite():
    sol = solve(0.4, -0.8, GAMMA)
    assert sol.pattern == "SΣ"
    u_m = kinetic_u_minus(-0.8, GAMMA)
    assert sol.states[1] == pytest.approx(u_m, abs=1e-12)
    assert sol.states[1] == pytest.approx(0.5288, abs=1e-4)
    s_lax, s_uc = (w.speed_range[0] for w in sol.waves)
    assert s_lax == pytest.approx(0.3486, abs=5e-4)
    assert s_uc == pytest.approx(0.5034, abs=5e-4)
    assert s_lax < s_uc
    assert all(c.passed for c in verify_solution(sol))


def test_fig4_evaluate_plateau():
    sol = solve(0.4, -0.8, GAMMA)
    assert evaluate(sol, -1e9) == 0.4
    assert evaluate(sol, 1e9) == -0.8
    assert evaluate(sol, 0.45) == pytest.approx(0.5288, abs=1e-4)
    # right-continuity at the shock location
    s_uc = sol.waves[1].speed_range[0]
    assert evaluate(sol, s_uc) == -0.8


def test_rarefaction_undercompressive_composite():
    sol = solve(0.55, -0.8, GAMMA)
    assert sol.pattern == "RΣ"
    fan, uc = sol.waves
    assert fan.kind is WaveKind.RAREFACTION
    assert fan.right_state == pytest.approx(kinetic_u_minus(-0.8, GAMMA), abs=1e-12)
    assert fan.speed_range[1] < uc.speed_range[0]


def test_pure_undercompressive():
    u_m = kinetic_u_minus(-0.7, GAMMA)
    sol = solve(u_m, -0.7, GAMMA)
    assert sol.pattern == "Σ"
    assert len(sol.waves) == 1


def test_classical_below_threshold():
    # for u_R = -0.8 the nonclassical region starts at u_L > 0.27124
    u_m = kinetic_u_minus(-0.8, GAMMA)
    threshold = 0.8 - u_m
    sol = solve(threshold - 0.01, -0.8, GAMMA)
    assert sol.pattern == "S"
    sol2 = solve(threshold + 0.01, -0.8, GAMMA)
    assert sol2.pattern == "SΣ"
    # speeds coincide at the threshold: the double structure moves as one jump
    s_lax, s_uc = (w.speed_range[0] for w in sol2.waves)
    assert s_lax < s_uc
    assert rh_speed(threshold, -0.8) == pytest.approx(
        rh_speed(u_m, -0.8), abs=1e-2)


def test_mirror_composite():
    sol = solve(-0.4, 0.8, GAMMA)
    assert sol.pattern == "SΣ"
    assert sol.states[1] == pytest.approx(-kinetic_u_minus(-0.8, GAMMA), abs=1e-12)


def test_classical_sonic_composite():
    sol = solve(0.1, -0.1, GAMMA)
    assert sol.pattern == "RS"
    fan, shock = sol.waves
    assert fan.right_state == pytest.approx(0.05, abs=1e-12)
    # attached: the shock is sonic at its left state
    assert shock.speed_range[0] == pytest.approx(char_speed(0.05), abs=1e-12)
    assert fan.speed_range[1] == pytest.approx(shock.speed_range[0], abs=1e-12)


def test_strong_right_state_goes_classical():
    # u_R below the kinetic range: no undercompressive wave possible
    sol = solve(0.5, -1.5, GAMMA)
    assert "Σ" not in sol.pattern
    assert sol.pattern == "S"
    assert all(c.passed for c in verify_solution(sol))


def test_verify_refuses_a_lax_shock_within_the_seed_offset():
    # its backward shot would launch past the node: a DomainError, not a
    # verdict, as a shot too stiff to integrate is a DegenerateSpeedError
    sol = solve(0.3, 0.300000001, 0.4)
    assert sol.pattern == "S"
    with pytest.raises(DomainError, match="twice the seed offset"):
        verify_solution(sol)


def test_negative_speed_shock_accepted():
    sol = solve(0.5, -1.5, GAMMA)
    assert sol.waves[0].speed_range[0] < 0
    checks = verify_solution(sol)
    assert checks[0].passed


def test_classical_only_for_large_gamma():
    sol = solve(0.4, -0.8, 0.7)
    assert "Σ" not in sol.pattern


def test_gamma_validation():
    with pytest.raises(DomainError):
        solve(0.4, -0.8, 0.0)
    with pytest.raises(DomainError):
        solve(0.4, -0.8, -0.3)
    with pytest.raises(DomainError):
        classify_plane(0.0, [0.4], [-0.8])


def test_wave_ordering_and_adjacency():
    rng = np.random.default_rng(7)
    for ul, ur in rng.uniform(-1.3, 1.3, size=(200, 2)):
        sol = solve(float(ul), float(ur), GAMMA)
        state = sol.u_left
        prev_top = -np.inf
        for w in sol.waves:
            assert w.left_state == pytest.approx(state, abs=1e-12)
            assert w.speed_range[0] >= prev_top - 1e-12
            assert w.speed_range[1] >= w.speed_range[0] - 1e-12
            prev_top = w.speed_range[1]
            state = w.right_state
        assert state == pytest.approx(sol.u_right, abs=1e-12)


def test_evaluate_far_field_and_monotone_sampling():
    for ul, ur in [(0.4, -0.8), (0.3, 0.1), (0.1, -0.1), (-0.4, 0.8)]:
        sol = solve(ul, ur, GAMMA)
        assert evaluate(sol, -100.0) == ul
        assert evaluate(sol, 100.0) == ur
        rs = np.linspace(-2, 2, 801)
        vals = np.array([evaluate(sol, float(r)) for r in rs])
        assert np.all(np.isfinite(vals))


def test_every_sigma_wave_is_on_the_locus():
    rng = np.random.default_rng(11)
    for ul, ur in rng.uniform(-1.2, 1.2, size=(150, 2)):
        sol = solve(float(ul), float(ur), GAMMA)
        for c in verify_solution(sol):
            assert c.passed, (ul, ur, c)


def test_classify_plane_cells_and_symmetry():
    uls = np.linspace(-1.0, 1.0, 9)
    urs = np.linspace(-1.0, 1.0, 9)
    pat = classify_plane(GAMMA, uls, urs)
    for i in range(9):
        assert pat[i, i] == ""
    # odd symmetry of the map
    for i in range(9):
        for j in range(9):
            assert pat[i, j] == pat[8 - i, 8 - j]
    assert solve(0.4, -0.8, GAMMA).pattern == "SΣ"


@pytest.mark.parametrize("gamma", [0.184, 0.3995, 0.6846, 0.7])
def test_classify_plane_equals_solve(gamma):
    uls = np.linspace(-1.2, 1.2, 25)
    urs = np.linspace(-1.2, 1.2, 21)
    pat = classify_plane(gamma, uls, urs)
    assert pat.shape == (25, 21)
    for i, ul in enumerate(uls.tolist()):
        for j, ur in enumerate(urs.tolist()):
            assert pat[i, j] == solve(ul, ur, gamma).pattern, (ul, ur)


def _oracle_kinetic_pair(u_r, gamma):
    """(psi(u_r), u_0) when u_r <= 0 lies inside the kinetic range, else None."""
    if not gamma < GAMMA_MAX:
        return None
    lo, hi = u_plus_bounds(gamma)
    if not lo + EQ_TOL < u_r < hi - EQ_TOL:
        return None
    u_m = kinetic_u_minus(u_r, gamma)
    return u_m, -u_r - u_m


def _oracle_pattern(u_l, u_r, kinetic):
    """The scalar pattern rule, one cell at a time, kept as an oracle for the
    array rule that solve and classify_plane share: the label of the data
    (u_l, u_r <= 0), with kinetic = _oracle_kinetic_pair(u_r)."""
    if kinetic is not None:
        u_m, u_0 = kinetic
        if u_l > u_0 + EQ_TOL:
            if abs(u_l - u_m) <= EQ_TOL:
                return "Σ"
            return ("S" if u_l < u_m else "R") + "Σ"
    if u_l == u_r:
        return ""
    if u_l < u_r or u_r == 0.0:
        return "R"
    return "S" if u_l <= -0.5 * u_r + EQ_TOL else "RS"


@pytest.mark.parametrize("gamma", [0.05, 0.3, GAMMA, 0.6, GAMMA_MAX, 0.7])
def test_classify_plane_at_the_breakpoints(gamma):
    # the u_L axis holds every breakpoint of every column, and the floats
    # one and two ulps either side: u_R, the tangent point, u_0 + EQ_TOL,
    # psi(u_R) -+ EQ_TOL, and 0.0 and -0.0; the columns lie inside and
    # outside the kinetic range, on both sides of u_R = 0
    u_rs = [-1.2, -0.7, -0.3, -0.02, -0.0, 0.0, 0.02, 0.5, 1.1]
    if gamma < GAMMA_MAX:
        lo, hi = u_plus_bounds(gamma)
        u_rs += [lo + (hi - lo) * f for f in (0.02, 0.5, 0.98)]
        u_rs += [-u for u in u_rs[-3:]]
    columns = []
    u_ls = []
    for u_r in u_rs:
        sign = -1.0 if u_r > 0.0 else 1.0
        mirrored = sign * u_r
        kinetic = _oracle_kinetic_pair(mirrored, gamma)
        columns.append((sign, kinetic))
        points = [mirrored, -0.5 * mirrored + EQ_TOL, 0.0, -0.0]
        if kinetic is not None:
            u_m, u_0 = kinetic
            points += [u_0 + EQ_TOL, u_m - EQ_TOL, u_m + EQ_TOL]
        for p in points:
            below = np.nextafter(p, -np.inf)
            above = np.nextafter(p, np.inf)
            near = [np.nextafter(below, -np.inf), below, p, above,
                    np.nextafter(above, np.inf)]
            u_ls += [sign * float(u) for u in near]
    assert any(k is not None for _, k in columns) == (gamma < GAMMA_MAX)
    pat = classify_plane(gamma, u_ls, u_rs)
    assert pat.dtype == object and pat.shape == (len(u_ls), len(u_rs))
    for j, (u_r, (sign, kinetic)) in enumerate(zip(u_rs, columns)):
        for i, u_l in enumerate(u_ls):
            want = _oracle_pattern(sign * u_l, sign * u_r, kinetic)
            assert pat[i, j] == want, (u_l, u_r)


def test_json_round_trip():
    sol = solve(0.4, -0.8, GAMMA)
    payload = json.dumps(solution_to_dict(sol))
    back = solution_from_dict(json.loads(payload))
    assert back == sol


@pytest.mark.parametrize("offset", [5e-12, -5e-12, 5e-11, -5e-11])
@pytest.mark.parametrize("mirror", [1.0, -1.0])
def test_sigma_data_within_eq_tol(offset, mirror):
    # u_L within EQ_TOL of psi(u_R): the single undercompressive wave starts
    # at u_L itself and stays on the locus to far below verify's 1e-8
    u_l = mirror * (kinetic_u_minus(-0.7, GAMMA) + offset)
    sol = solve(u_l, mirror * -0.7, GAMMA)
    assert sol.pattern == "Σ"
    assert sol.waves[0].left_state == u_l
    assert all(c.passed for c in verify_solution(sol))


@pytest.mark.parametrize("args", [
    (math.nan, -0.8, 0.4), (0.4, math.nan, 0.4), (0.4, -0.8, math.nan),
    (0.4, -0.8, math.inf), (math.inf, -0.8, 0.4), (0.4, -math.inf, 0.4),
])
def test_non_finite_input_raises(args):
    with pytest.raises(DomainError):
        solve(*args)
    u_l, u_r, gamma = args
    with pytest.raises(DomainError):
        classify_plane(gamma, [0.1, u_l], [u_r, 0.2])


@pytest.mark.parametrize("u_l,u_r,gamma", [
    (0.0, -0.025, 0.3995), (0.0, 0.025, 0.3995), (0.025, 0.05, 0.65),
])
def test_weak_lax_shocks_next_to_zero_verify(u_l, u_r, gamma):
    # weak shocks: the linear rates at the saddle and the node are small, so
    # the backward shoot needs longer than the old fixed horizon of 5000
    sol = solve(u_l, u_r, gamma)
    assert sol.pattern == "S"
    checks = verify_solution(sol)
    assert [c.detail for c in checks] == ["profile shoot: connects"]


STATE = st.floats(-1.3, 1.3)
GAMMAS = st.floats(0.05, 0.7)
#: speeds of states with |u| <= 1.3 lie in [1 - 3*1.3**2, 1], inside |r| <= M
M = 6.0


def _speeds(*sols):
    return sorted({r for sol in sols for w in sol.waves for r in w.speed_range})


@settings(max_examples=300, deadline=None)
@given(u_l=STATE, u_r=STATE | st.just(0.0), gamma=GAMMAS)
def test_integral_balance(u_l, u_r, gamma):
    # conservation over |x/t| <= M: integral of u = M(u_L + u_R) - [f];
    # quad on the pieces between wave speeds is accurate to 7e-9 on 3000
    # random data (worst for fans that end next to u = 0, where u(r) is
    # sqrt-like), so 1e-7 leaves a margin
    sol = solve(u_l, u_r, gamma)
    lhs, _ = quad(lambda r: evaluate(sol, r), -M, M, points=_speeds(sol) or None,
                  limit=200)
    rhs = M * (u_l + u_r) - (flux(u_r) - flux(u_l))
    assert abs(lhs - rhs) <= 1e-7


@settings(max_examples=300, deadline=None)
@given(u_l=STATE, u_r=STATE | st.just(0.0), gamma=GAMMAS)
@example(u_l=-0.25 - 0.6 * EQ_TOL, u_r=0.5, gamma=0.7)  # tangent, EQ_TOL/2 band
def test_mirror_symmetry(u_l, u_r, gamma):
    sol = solve(u_l, u_r, gamma)
    mirror = solve(-u_l, -u_r, gamma)
    assert mirror.pattern == sol.pattern
    assert mirror.states == [-u for u in sol.states]
    assert ([w.speed_range for w in mirror.waves]
            == [w.speed_range for w in sol.waves])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(u_l=FINITE, u_r=FINITE, gamma=FINITE)
@example(u_l=1e200, u_r=0.0, gamma=0.4)  # a power overflowed
@example(u_l=1.2544988637366674e154, u_r=-1e-105, gamma=0.4)  # speed -inf
def test_solve_is_finite_or_a_domain_error(u_l, u_r, gamma):
    # over the whole float range: refused, or states and speeds valid JSON
    try:
        sol = solve(u_l, u_r, gamma)
    except DomainError:
        return
    json.dumps(solution_to_dict(sol), allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(STATE, min_size=1, max_size=8), gamma=GAMMAS)
def test_classify_plane_matches_per_cell_solve(values, gamma):
    axis = values + [0.0]  # u_R = 0 column; shared axes hold the diagonal
    pat = classify_plane(gamma, axis, axis)
    for i, u_l in enumerate(axis):
        for j, u_r in enumerate(axis):
            assert pat[i, j] == solve(u_l, u_r, gamma).pattern


@settings(max_examples=100, deadline=None)
@given(gamma=st.floats(0.01, GAMMA_MAX - 1e-4), frac=st.floats(1e-4, 1 - 1e-4))
def test_evaluate_is_continuous_across_the_threshold(gamma, frac):
    # on either side of u_0 the classical crossing shock and the S + Sigma
    # pair differ by an O(delta) plateau; the two left states differ by
    # 2*delta over at most M + 1 of r, so the L1 gap stays below
    # 2(M + 1)*delta = 14*delta (measured up to 13.9998*delta)
    lo, hi = u_plus_bounds(gamma)
    u_r = lo + (hi - lo) * frac
    u_0 = -u_r - kinetic_u_minus(u_r, gamma)
    gaps = []
    for delta in (1e-2, 1e-3, 1e-4):
        below, above = solve(u_0 - delta, u_r, gamma), solve(u_0 + delta, u_r, gamma)
        assert "Σ" in above.pattern and "Σ" not in below.pattern
        gap, _ = quad(lambda r: abs(evaluate(above, r) - evaluate(below, r)),
                      -M, M, points=_speeds(below, above), limit=200)
        assert gap <= 2 * (M + 1) * delta * (1 + 1e-6)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_near_characteristic_shock_counts_as_attached():
    # states within EQ_TOL of each other (CHARACTERISTIC), whose speed
    # misses both characteristic speeds by more than EQ_TOL: attached, not shot
    u_l = 0.55
    u_r = u_l - 0.9 * EQ_TOL
    s = rh_speed(u_l, u_r)
    assert s > 0.0 and abs(s - char_speed(u_l)) > EQ_TOL
    sol = RiemannSolution(u_l, u_r, GAMMA,
                          (Wave(WaveKind.LAX_SHOCK, u_l, u_r, (s, s)),), "S")
    assert [(c.passed, c.detail) for c in verify_solution(sol)] == [
        (True, "sonic attachment")]
