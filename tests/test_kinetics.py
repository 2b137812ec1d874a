import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucwaves import (
    Branch,
    GAMMA_MAX,
    NoLocusError,
    PoleError,
    RootFindError,
    UCWavesError,
    a_tilde,
    discriminant,
    entropy_integral,
    flux,
    kinetic_u_minus,
    kinetic_u_plus_candidates,
    locus_point,
    locus_sweep,
    psys_kinetic_u_plus,
    psys_threshold,
    rh_speed,
    u_plus_bounds,
)
from ucwaves import kinetics, psystem
from ucwaves.errors import DomainError
from ucwaves.kinetics import _RTOL, brentq

GAMMA = 1 / math.sqrt(6)


def exact_u_minus(u_plus, gamma):
    """The u_- paired with the float u_+, bisected to 60 digits in decimal:
    the root w = u_- + u_+ in [u_+/2, 0] of w*sqrt(1 - q) + sqrt(2)/3*gamma
    with q = w^2 - u_+*w + u_+^2."""
    with localcontext() as ctx:
        ctx.prec = 60
        k = Decimal(u_plus)
        c = Decimal(2).sqrt() / 3 * Decimal(gamma)
        lo, hi = k / 2, Decimal(0)
        for _ in range(200):
            w = (lo + hi) / 2
            if w * max(1 - (w * w - k * w + k * k), Decimal(0)).sqrt() + c < 0:
                lo = w
            else:
                hi = w
        return float(lo - k)


def bisect(f, lo, hi, n=200):
    flo = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_discriminant_reference_values():
    assert discriminant(0.5, GAMMA) == pytest.approx(5.0 / 9.0, abs=1e-14)
    # a/(a-1)^2 = 2 at a = 1/2 for any gamma
    for g in (0.1, 0.3, 0.5):
        assert discriminant(0.5, g) == pytest.approx(1 - 8 * g * g / 3, abs=1e-14)
    # pole side: D -> -inf as a -> 1
    assert discriminant(0.999999, 0.3) < -1e6


def test_discriminant_pole():
    for a in (1.0, np.float64(1.0), [0.5, 1.0]):
        with pytest.raises(PoleError):
            discriminant(a, 0.3)
    # below gamma of about 1.2e-16, a_tilde rounds to the pole
    with pytest.raises(PoleError):
        locus_point(a_tilde(1e-17), 1e-17, Branch.PLUS)


def test_discriminant_on_arrays():
    a = np.linspace(0.5, 0.9, 9)
    d = discriminant(a, 0.3)
    assert isinstance(d, np.ndarray)
    np.testing.assert_array_equal(
        d, 1.0 - (8.0 / 9.0) * 0.3**2 * (1.0 + a / (a - 1.0) ** 2))
    assert d.tolist() == pytest.approx([discriminant(x, 0.3) for x in a.tolist()],
                                       rel=1e-15, abs=0)


def test_a_tilde_value_and_root_property():
    at = a_tilde(GAMMA)
    assert at == pytest.approx(0.66096, abs=1e-5)
    # bisection on D as an independent oracle
    at_oracle = bisect(lambda a: discriminant(a, GAMMA), 0.5, 0.999)
    assert at == pytest.approx(at_oracle, abs=1e-12)
    assert abs(discriminant(at, GAMMA)) < 1e-12


def test_a_tilde_limit_and_failure():
    assert a_tilde(GAMMA_MAX * (1 - 1e-12)) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(NoLocusError):
        a_tilde(0.7)
    with pytest.raises(NoLocusError):
        a_tilde(0.0)


def test_locus_point_a_half_minus():
    p = locus_point(0.5, GAMMA, Branch.MINUS)
    assert p.u_plus == pytest.approx(-0.41202, abs=1e-5)
    assert p.u_minus == pytest.approx(0.20601, abs=1e-5)
    assert p.u_zero == pytest.approx(0.20601, abs=1e-5)
    assert p.s == pytest.approx(0.87268, abs=1e-5)
    assert p.endpoint == "a_half"
    # middle-equilibrium formula
    assert p.u_zero == pytest.approx(math.sqrt(2) * GAMMA / (3 * math.sqrt(p.s)),
                                     abs=1e-12)


def test_locus_point_a_half_plus():
    p = locus_point(0.5, GAMMA, Branch.PLUS)
    assert p.u_plus == pytest.approx(-1.07869, abs=1e-5)
    assert p.u_minus == pytest.approx(0.53934, abs=1e-5)


def test_locus_point_branch_merge():
    at = a_tilde(GAMMA)
    p1 = locus_point(at, GAMMA, Branch.PLUS)
    p2 = locus_point(at, GAMMA, Branch.MINUS)
    assert p1.u_plus == pytest.approx(p2.u_plus, abs=1e-7)
    assert p1.endpoint == "a_tilde"


def test_locus_point_domain_errors():
    at = a_tilde(GAMMA)
    with pytest.raises(DomainError):
        locus_point(0.4, GAMMA, Branch.PLUS)
    with pytest.raises(DomainError):
        locus_point(at + 1e-3, GAMMA, Branch.PLUS)
    with pytest.raises(NoLocusError):
        locus_point(0.55, 0.7, Branch.PLUS)


@pytest.mark.parametrize("gamma", [0.1, 0.25, GAMMA, 0.55])
def test_kinetic_point_invariants(gamma):
    at = a_tilde(gamma)
    for a in np.linspace(0.5, at, 25):
        for br in (Branch.PLUS, Branch.MINUS):
            p = locus_point(float(a), gamma, br)
            assert abs(p.u_minus + p.u_zero + p.u_plus) < 1e-12
            assert p.u_zero > 0
            assert abs(p.u_zero - math.sqrt(2) * gamma / (3 * math.sqrt(p.s))) < 1e-10
            q = p.u_plus**2 + p.u_minus * p.u_plus + p.u_minus**2
            res = (p.u_minus + p.u_plus) * math.sqrt(1 - q) + math.sqrt(2) / 3 * gamma
            assert abs(res) < 1e-10
            assert p.s == pytest.approx(rh_speed(p.u_minus, p.u_plus), abs=1e-14)
            if p.endpoint is None:
                # outside equilibria strictly supersonic, middle subsonic
                assert 1 - 3 * p.u_minus**2 < p.s < 1 - 3 * p.u_zero**2
                assert 1 - 3 * p.u_plus**2 < p.s
                assert 0.5 < p.a < 1.0


def test_u_plus_bounds_reference():
    lo, hi = u_plus_bounds(GAMMA)
    assert lo == pytest.approx(-1.07869, abs=1e-5)
    assert hi == pytest.approx(-0.41202, abs=1e-5)
    # endpoint identity with the a = 1/2 locus points
    assert lo == pytest.approx(locus_point(0.5, GAMMA, Branch.PLUS).u_plus, abs=1e-14)
    assert hi == pytest.approx(locus_point(0.5, GAMMA, Branch.MINUS).u_plus, abs=1e-14)


def test_u_plus_bounds_limits():
    lo, hi = u_plus_bounds(1e-9)
    assert lo == pytest.approx(-math.sqrt(4.0 / 3.0), rel=1e-6)
    assert hi == pytest.approx(0.0, abs=1e-4)
    # at gamma = sqrt(3/8) the inner radical vanishes up to roundoff in
    # gamma**2, so the two bounds coincide only to ~1e-8
    lo, hi = u_plus_bounds(GAMMA_MAX)
    assert lo == pytest.approx(-math.sqrt(2.0 / 3.0), abs=1e-7)
    assert hi == pytest.approx(lo, abs=1e-7)
    with pytest.raises(NoLocusError):
        u_plus_bounds(0.7)


def test_kinetic_u_minus_reference():
    um = kinetic_u_minus(-0.8, GAMMA)
    assert um == pytest.approx(0.5288, abs=1e-4)
    # independent oracle: invert the parametric branch map a -> u_+^(-)(a)
    a_oracle = bisect(
        lambda a: locus_point(a, GAMMA, Branch.MINUS).u_plus - (-0.8),
        a_tilde(GAMMA), 0.5,
    )
    assert um == pytest.approx(locus_point(a_oracle, GAMMA, Branch.MINUS).u_minus,
                               abs=1e-9)


def test_kinetic_u_minus_endpoint_consistency():
    um = kinetic_u_minus(-0.41202265916659664 * (1 + 1e-9), GAMMA)
    assert um == pytest.approx(0.20601, abs=1e-4)


def test_kinetic_u_minus_out_of_range():
    with pytest.raises(NoLocusError):
        kinetic_u_minus(-0.2, GAMMA)
    with pytest.raises(NoLocusError):
        kinetic_u_minus(-1.2, GAMMA)
    with pytest.raises(NoLocusError):
        kinetic_u_minus(-0.8, 0.7)


def test_round_trip_locus_to_kinetic_u_minus():
    at = a_tilde(GAMMA)
    for a in np.linspace(0.501, at - 1e-4, 15):
        for br in (Branch.PLUS, Branch.MINUS):
            p = locus_point(float(a), GAMMA, br)
            assert kinetic_u_minus(p.u_plus, GAMMA) == pytest.approx(
                p.u_minus, abs=1e-8)


def test_branch_monotonicity():
    at = a_tilde(GAMMA)
    grid = np.linspace(0.5, at, 400)
    up_plus = np.array([locus_point(float(a), GAMMA, Branch.PLUS).u_plus
                        for a in grid])
    up_minus = np.array([locus_point(float(a), GAMMA, Branch.MINUS).u_plus
                         for a in grid])
    assert np.all(np.diff(up_plus) > 0)   # increasing
    assert np.all(np.diff(up_minus) < 0)  # decreasing
    assert np.all(up_plus <= up_minus + 1e-15)


def test_candidate_counts():
    # u_minus ranges (gamma = 1/sqrt6): minus branch [0.20601, 0.53058],
    # plus branch [0.53058, 0.60701] covered twice above 0.53934
    assert kinetic_u_plus_candidates(0.1, GAMMA) == []
    assert len(kinetic_u_plus_candidates(0.4, GAMMA)) == 1
    assert len(kinetic_u_plus_candidates(0.53, GAMMA)) == 1
    assert len(kinetic_u_plus_candidates(0.55, GAMMA)) == 2
    assert len(kinetic_u_plus_candidates(0.605, GAMMA)) == 2
    assert kinetic_u_plus_candidates(0.62, GAMMA) == []


def test_candidates_round_trip():
    for um in (0.3, 0.45, 0.55, 0.58):
        for p in kinetic_u_plus_candidates(um, GAMMA):
            assert kinetic_u_minus(p.u_plus, GAMMA) == pytest.approx(um, abs=1e-8)


def test_entropy_integral_signs():
    for u in (0.1, 0.35, 0.7):
        assert entropy_integral(u, -u) == pytest.approx(0.0, abs=1e-14)
    assert entropy_integral(0.20601, -0.41202) > 0
    assert entropy_integral(0.41202, -0.20601) < 0


def test_entropy_integral_against_quadrature():
    from scipy.integrate import quad

    for um, up in [(0.20601, -0.41202), (0.5288, -0.8), (0.3, -0.5)]:
        s = rh_speed(um, up)

        def c(u):
            return u**3 - u - (um**3 - um) + s * (u - um)

        val, _ = quad(c, up, um, epsabs=1e-13)
        assert entropy_integral(um, up) == pytest.approx(val, abs=1e-10)


def test_locus_positive_entropy():
    at = a_tilde(GAMMA)
    for a in np.linspace(0.51, at - 1e-3, 10):
        for br in (Branch.PLUS, Branch.MINUS):
            p = locus_point(float(a), GAMMA, br)
            assert entropy_integral(p.u_minus, p.u_plus) > 0


def test_no_locus_above_gamma_max():
    for fn in (
        lambda: a_tilde(0.62),
        lambda: locus_point(0.55, 0.62, Branch.PLUS),
        lambda: u_plus_bounds(0.62),
        lambda: kinetic_u_minus(-0.8, 0.62),
        lambda: kinetic_u_plus_candidates(0.4, 0.62),
    ):
        with pytest.raises(NoLocusError):
            fn()


def test_locus_symmetric_limit_as_gamma_vanishes():
    # the locus collapses onto u_+ = -u_- as gamma -> 0
    p = locus_point(0.9999, 1e-6, Branch.MINUS)
    assert p.u_minus == pytest.approx(-p.u_plus, rel=1e-3)


def test_locus_point_a_half_minus_end_keeps_its_digits():
    # u_+ is the upper end of u_plus_bounds there; 1 - sqrt(D) would cancel
    # as gamma -> 0 (D -> 1), 4e-4 off at gamma = 1e-7
    for gamma in np.geomspace(1e-7, 0.6, 40).tolist():
        u_plus = locus_point(0.5, gamma, Branch.MINUS).u_plus
        assert u_plus == pytest.approx(u_plus_bounds(gamma)[1], rel=1e-15, abs=0)


def test_candidates_at_the_a_half_minus_end():
    # the end's u_- is on the branch, so its own u_+ comes back as a candidate
    for gamma in np.geomspace(1.7e-3, 0.093, 83).tolist():
        p = locus_point(0.5, gamma, Branch.MINUS)
        cands = kinetic_u_plus_candidates(p.u_minus, gamma)
        assert min((abs(c.u_plus / p.u_plus - 1.0) for c in cands),
                   default=math.inf) <= 1e-15, gamma


def test_locus_sweep_shape():
    pts = locus_sweep(GAMMA, np.linspace(0.5, a_tilde(GAMMA), 31))
    assert len(pts) == 62
    assert [p.branch for p in pts] == [Branch.PLUS] * 31 + [Branch.MINUS] * 31
    assert [p.a for p in pts[:31]] == [p.a for p in pts[31:]]
    assert (pts[0].endpoint, pts[30].endpoint) == ("a_half", "a_tilde")


def test_locus_sweep_clips_sorts_and_drops_repeated_ratios():
    at = a_tilde(GAMMA)
    pts = locus_sweep(GAMMA, [0.6, 0.5, 0.99, 0.55, 0.6, at, 0.5])
    assert [p.a for p in pts] == [0.5, 0.55, 0.6, at] * 2
    # at sqrt(3/8) a_tilde rounds to the next float above 1/2
    at = a_tilde(GAMMA_MAX)
    assert [p.a for p in locus_sweep(GAMMA_MAX, np.linspace(0.5, at, 101))] \
        == [0.5, at] * 2


def test_locus_sweep_errors():
    with pytest.raises(DomainError):
        locus_sweep(GAMMA, [0.6, 0.49])
    with pytest.raises(NoLocusError):
        locus_sweep(0.7, [0.6])


def _point_bits(p):
    """A KineticPoint with each float as its bytes: -0.0 and NaN compare."""
    return (p.branch, p.endpoint) + tuple(
        np.float64(v).tobytes()
        for v in (p.a, p.u_minus, p.u_zero, p.u_plus, p.s, p.gamma))


def _sweep_of_locus_points(gamma, a_values):
    """The locus sweep point by point, as it was written before its array
    pass: the outcome, a list of points or the error raised."""
    try:
        at = a_tilde(gamma)
        grid = sorted({min(float(a), at) for a in a_values})
        return [locus_point(a, gamma, branch) for branch in Branch for a in grid]
    except (DomainError, NoLocusError, PoleError) as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(gamma=st.one_of(st.floats(0.0, GAMMA_MAX, exclude_min=True),
                       st.floats(math.log(1e-170), 0.0).map(math.exp)
                       .filter(lambda g: g <= GAMMA_MAX)),
       fractions=st.lists(st.floats(0.0, 2.0), max_size=40),
       below_half=st.lists(st.floats(0.5 - 2e-12, 0.5), max_size=2))
@example(gamma=GAMMA, fractions=[0.0, 1.0, 1.5], below_half=[])
@example(gamma=GAMMA_MAX, fractions=[0.3, 1.0], below_half=[0.5 - 1e-12])
@example(gamma=1e-17, fractions=[0.5], below_half=[])  # a_tilde rounds to 1
@example(gamma=1e-160, fractions=[0.5], below_half=[])  # gamma^2 subnormal
def test_locus_sweep_is_its_locus_points_to_the_bit(gamma, fractions,
                                                   below_half):
    # ratios across [1/2, a_tilde] and past it (clipped), 1/2 and a_tilde
    # themselves, and ratios at most 2e-12 below 1/2 (clipped, or refused)
    at = a_tilde(gamma)
    a_values = ([0.5, at] + [0.5 + f * (at - 0.5) for f in fractions]
                + below_half)
    expected = _sweep_of_locus_points(gamma, a_values)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            locus_sweep(gamma, a_values)
        assert str(exc.value) == str(expected)
        return
    got = locus_sweep(gamma, np.array(a_values))
    assert list(map(_point_bits, got)) == list(map(_point_bits, expected))
    assert {type(v) for p in got
            for v in (p.a, p.u_minus, p.u_zero, p.u_plus, p.s)} == {float}


@pytest.mark.parametrize("gamma", [1e-3, 0.3, GAMMA, 0.6])
def test_locus_sweep_points_are_locus_points_in_floats(gamma):
    for p in locus_sweep(gamma, np.linspace(0.5, a_tilde(gamma), 17)):
        assert p == locus_point(p.a, gamma, p.branch)
        assert {type(v) for v in (p.a, p.u_minus, p.u_zero, p.u_plus, p.s)} == {float}


@pytest.mark.parametrize("gamma,u_plus", [
    (0.612368583404469, -0.8179433720339303),      # 8e-16 inside the lower bound
    (9.944557797752658e-09, -9.37581900625662e-09),  # 2 floats inside the upper
    (1.1285747185090648e-08, -1.1547005377004287),  # root next to s = 0
])
def test_kinetic_u_minus_within_rounding_of_an_end(gamma, u_plus):
    # rounding hides the residual's sign change at the end the root sits on
    lo, hi = u_plus_bounds(gamma)
    assert lo < u_plus < hi
    u_minus = kinetic_u_minus(u_plus, gamma)
    assert -0.5 * u_plus <= u_minus <= -u_plus
    q = u_plus**2 + u_plus * u_minus + u_minus**2
    pairing = math.sqrt(max(1.0 - q, 0.0)) * (u_plus + u_minus)
    assert pairing == pytest.approx(-math.sqrt(2.0) / 3.0 * gamma, abs=1e-7)


# gamma from 1e-3, below which locus_point's ratio a crowds the pole a = 1
# (a_tilde = 1 - O(gamma)), to 1e-6 short of sqrt(3/8), where the range of u_+
# closes like sqrt(1 - gamma/GAMMA_MAX)
GAMMAS = st.floats(1e-3, GAMMA_MAX * (1.0 - 1e-6))
# the kinetic maps work in w = u_- + u_+ and need no a: gamma log-uniform from
# 1e-15, u_+ anywhere strictly inside the range, up to one float from its
# ends.  Over 200 000 random draws the round trip u_+ -> u_- -> u_+ comes
# back within 2.2e-16 (relative) in 99 % of them and 1.7e-13 at worst: next
# to the fold of the plus branch, where its two candidates merge, the root is
# double and rounding moves it further; the bound of 1e-10 leaves room for
# draws closer to the fold.
MAP_GAMMAS = st.floats(math.log(1e-15),
                       math.log(GAMMA_MAX * (1.0 - 1e-6))).map(math.exp)


@settings(max_examples=150, deadline=None)
@given(gamma=MAP_GAMMAS, t=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(gamma=1e-3, t=0.5)  # a_tilde next to the pole a = 1
# u_+ = -0.81593111170892, 3.4e-15 inside the upper bound 1e-8 short of
# sqrt(3/8), where rounding of the residual hides its sign at the a = 1/2 end
@example(gamma=0.6123718486740213, t=0.9999999999970539)
@example(gamma=1e-300, t=0.5)  # far below the float resolution of a
# next to the corner (1/sqrt3, -2/sqrt3), u_+ within rounding of the lower
# bound: the a = 1/2 end rule of kinetic_u_plus_candidates once moved
# kinetic_u_minus by 6.8e-8 here
@example(gamma=math.exp(-12.28125), t=8.9e-16)
# at that corner four ulp of u_+ move u_- by 7e-8, so the round trip's u_-
# is no reference for the candidate u_+ = -1.1547005383792506
@example(gamma=math.exp(-33.0), t=0.5)
def test_kinetic_maps_invert_each_other(gamma, t):
    lo, hi = u_plus_bounds(gamma)
    u_plus = lo + t * (hi - lo)
    assume(lo < u_plus < hi)  # a tiny t * (hi - lo) rounds onto an end
    u_minus = kinetic_u_minus(u_plus, gamma)
    cands = kinetic_u_plus_candidates(u_minus, gamma)
    assert min(abs(c.u_plus - u_plus) for c in cands) <= 1e-10 * abs(u_plus)
    for c in cands:
        assert c.u_minus == u_minus
        if lo < c.u_plus < hi:
            # u_+ -> u_- keeps half the digits next to (1/sqrt3, -2/sqrt3),
            # where the plus branch meets s = 0 with q stationary in u_-
            assert kinetic_u_minus(c.u_plus, gamma) == pytest.approx(
                exact_u_minus(c.u_plus, gamma), rel=1e-8)


@pytest.mark.parametrize("u_plus,gamma", [
    (-1.1547005383709714, math.exp(-12.28125)),
    (-1.1547005383709719, math.exp(-12.28125)),
    (-1.1547005383792506, math.exp(-33.0)),
])
def test_kinetic_u_minus_next_to_the_corner(u_plus, gamma):
    # u_+ a few ulp inside the lower bound -2/sqrt3 + O(gamma^2), where the
    # a = 1/2 end rule once cost 4.8e-8 to 7.0e-8 relative
    assert kinetic_u_minus(u_plus, gamma) == pytest.approx(
        exact_u_minus(u_plus, gamma), rel=1e-8)


def test_plus_candidate_speed_keeps_the_pairing_law_as_gamma_vanishes():
    # s is O(gamma^2) here, where 1 - q of the rounded states would cancel
    gamma = 1e-8
    for u_minus in (0.6, 0.75, 0.9):
        p = kinetic_u_plus_candidates(u_minus, gamma)[0]  # the lowest u_+
        assert p.branch is Branch.PLUS and p.s < 1e-15
        w = p.u_minus + p.u_plus
        assert p.s == pytest.approx(2.0 * gamma**2 / (9.0 * w * w), rel=1e-15, abs=0)


@pytest.mark.parametrize("gamma", [1e-3, 0.1, 0.3, GAMMA, 0.55, 0.6])
def test_candidates_next_to_the_branch_merge(gamma):
    # the pair (u_-, candidate) satisfies the pairing equation to rounding
    # for a from 1e-12 to 1e-4 below a_tilde
    at = a_tilde(gamma)
    for e in range(-12, -3):
        for branch in Branch:
            p = locus_point(at - 10.0**e, gamma, branch)
            c = min(kinetic_u_plus_candidates(p.u_minus, gamma),
                    key=lambda c: abs(c.u_plus - p.u_plus))
            um, up = p.u_minus, c.u_plus
            q = up * up + up * um + um * um
            pairing = (um + up) * math.sqrt(1.0 - q) + math.sqrt(2.0) / 3.0 * gamma
            assert abs(pairing) < 1e-14


def test_kinetic_maps_reject_non_finite_and_subnormal_input():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            kinetic_u_minus(value, GAMMA)
        with pytest.raises(DomainError):
            kinetic_u_plus_candidates(value, GAMMA)
    with pytest.raises(DomainError):
        kinetic_u_plus_candidates(0.5, 5e-324)


@settings(max_examples=150, deadline=None)
@given(gamma=GAMMAS, f=st.floats(0.0, 1.0), branch=st.sampled_from(Branch))
def test_locus_identities_at_random_points(gamma, f, branch):
    p = locus_point(0.5 + f * (a_tilde(gamma) - 0.5), gamma, branch)
    um, up = p.u_minus, p.u_plus
    assert um == -p.a * up
    assert p.u_zero == -(um + up)
    # the chord slope of the flux, and the pairing equation
    # sqrt(1 - (u_+^2 + u_+ u_- + u_-^2)) (u_+ + u_-) = -sqrt(2)/3 gamma
    assert p.s == pytest.approx((flux(up) - flux(um)) / (up - um), abs=1e-12)
    q = up * up + up * um + um * um
    assert math.sqrt(1.0 - q) * (up + um) == pytest.approx(
        -math.sqrt(2.0) / 3.0 * gamma, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(gamma=MAP_GAMMAS, f=st.floats(0.0, 0.99), branch=st.sampled_from(Branch))
@example(gamma=math.exp(-4.0), f=0.0, branch=Branch.PLUS)
def test_locus_points_keep_the_pairing_law_in_s(gamma, f, branch):
    # s*w^2 = 2*gamma^2/9 with w = u_+*(1 - a), to rounding also where s is
    # O(gamma^2) on the plus branch; off the merge at a_tilde, where sqrt(D)
    # magnifies the rounding of a.  abs=0: pytest's default abs=1e-12
    # would pass any s below 1e-12
    p = locus_point(0.5 + f * (a_tilde(gamma) - 0.5), gamma, branch)
    assert p.u_minus == -p.a * p.u_plus
    assert p.s * (p.u_plus * (1.0 - p.a)) ** 2 == pytest.approx(
        2.0 * gamma**2 / 9.0, rel=1e-13, abs=0)


def _counted(f):
    """f and a list whose length counts its calls."""
    calls = []

    def counted(*x):
        calls.append(x)
        return f(*x)
    return counted, calls


def _as_scipy(f, a, b, args=(), **tols):
    """kinetics.brentq on f, checked against scipy.optimize.brentq on the
    same bracket and tolerances: the same root, bit for bit, or the same
    failure, after the same evaluations of f.  Returns (root.hex() or None,
    evaluations)."""
    out = []
    for solver, failure in ((brentq, RootFindError),
                            (scipy.optimize.brentq, RuntimeError)):
        counted, calls = _counted(f)
        try:
            root = solver(counted, a, b, args, **tols).hex()
        except failure:
            root = None
        out.append((root, len(calls)))
    assert out[0] == out[1], (a, b, args, tols)
    return out[0]


def _root_finds_against_scipy(run):
    """Run ``run()`` with every brentq of kinetics and psystem checked by
    _as_scipy.  Returns the number of root-finds."""
    finds = []

    def checked(f, a, b, args=(), **tols):
        finds.append(_as_scipy(f, a, b, args, **tols))
        return brentq(f, a, b, args, **tols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kinetics, "brentq", checked)
        mp.setattr(psystem, "brentq", checked)
        run()
    return len(finds)


# gamma log-uniform down to 1e-300, where w/gamma and the pairing residual
# still keep clear of overflow and underflow
TINY_GAMMAS = st.floats(math.log(1e-300),
                        math.log(GAMMA_MAX * (1.0 - 1e-6))).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(gamma=TINY_GAMMAS,
       u_plus=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        st.floats(-1.0 - 1e-9, -1.0 + 1e-9)),
       u_minus=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(gamma=1e-300, u_plus=-1.0, u_minus=0.5)  # the root |w| ~ 1e-200
def test_brentq_is_scipys_on_the_pairing_equation(gamma, u_plus, u_minus):
    lower, upper = u_plus_bounds(gamma)
    if u_plus > 0.0:  # a fraction of the way along the range of u_+
        u_plus = lower + u_plus * (upper - lower)
    assume(lower < u_plus < upper)
    _root_finds_against_scipy(lambda: kinetic_u_minus(u_plus, gamma))
    _root_finds_against_scipy(lambda: kinetic_u_plus_candidates(u_minus, gamma))


@settings(max_examples=300, deadline=None)
@given(A=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
       excess=st.floats(math.log(1e-14), math.log(1e100)).map(math.exp))
@example(A=4.0, excess=1e-14)
def test_brentq_is_scipys_on_the_psystem_map(A, excess):
    u_minus = psys_threshold(A) * (1.0 + excess)
    assume(math.isfinite(u_minus * u_minus * u_minus))
    assert _root_finds_against_scipy(lambda: psys_kinetic_u_plus(u_minus, A)) == 1


@settings(max_examples=300, deadline=None)
@given(c=st.floats(-1.0, 1.0), power=st.sampled_from([1, 3, 5]),
       a=st.floats(-3.0, -1.0), b=st.floats(1.0, 3.0),
       xtol=st.sampled_from([math.ulp(0.0), 2e-12, 1e-3]))
def test_brentq_is_scipys_at_multiple_roots(c, power, a, b, xtol):
    # a root of odd multiplicity takes every branch of Brent's step (secant,
    # inverse quadratic interpolation, either one refused, bisection), and
    # with xtol = 5e-324 it may spend scipy's default 100 steps
    _as_scipy(lambda x: (x - c) ** power, a, b, xtol=xtol, rtol=_RTOL)


def test_brentq_failures_are_typed():
    tols = dict(xtol=math.ulp(0.0), rtol=_RTOL)
    with pytest.raises(RootFindError, match="have the same sign") as same_sign:
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, **tols)
    with pytest.raises(RootFindError, match="no root within 1 steps") as spent:
        brentq(lambda x: x * x * x - 2.0, 0.0, 2.0, maxiter=1, **tols)
    for err in (same_sign.value, spent.value):
        assert isinstance(err, UCWavesError)
        assert not isinstance(err, (RuntimeError, ValueError))
