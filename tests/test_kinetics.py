import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucwaves import (
    Branch,
    GAMMA_MAX,
    NoLocusError,
    PoleError,
    a_tilde,
    discriminant,
    entropy_integral,
    flux,
    kinetic_u_minus,
    kinetic_u_plus_candidates,
    locus_point,
    locus_sweep,
    rh_speed,
    u_plus_bounds,
)
from ucwaves.errors import DomainError

GAMMA = 1 / math.sqrt(6)


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
    with pytest.raises(PoleError):
        discriminant(1.0, 0.3)


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


def test_locus_sweep_shape():
    pts = locus_sweep(GAMMA, n=31)
    assert len(pts) == 62
    assert {p.branch for p in pts} == {Branch.PLUS, Branch.MINUS}


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
            assert kinetic_u_minus(c.u_plus, gamma) == pytest.approx(u_minus,
                                                                     rel=1e-8)


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
