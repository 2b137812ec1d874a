import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucwaves import (
    NoLocusError,
    NoSaddleError,
    Verdict,
    eigenvalues,
    psys_kinetic_u_plus,
    psys_locus,
    psys_parabola_residual,
    psys_shoot,
    psys_symmetry,
    psys_threshold,
)
from ucwaves.errors import DomainError
from ucwaves.phaseplane import jacobian

B_GRID = [-0.95, -0.9, -0.85, -0.8, -0.75, -0.7, -0.65, -0.6, -0.55]
A_GRID = [0.5, 1.0, 2.0, 4.0]


def check_point_invariants(p):
    assert p.u_minus == pytest.approx(
        2 / (9 * (1 + p.b) ** 2) * math.sqrt(p.b**2 + p.b + 1) / p.A, rel=1e-14)
    assert p.u_plus == pytest.approx(p.b * p.u_minus, rel=1e-14)
    assert p.s**2 == pytest.approx(
        p.u_plus**2 + p.u_plus * p.u_minus + p.u_minus**2, rel=1e-12)
    assert p.s < 0
    assert p.u_zero + p.u_plus + p.u_minus == pytest.approx(0.0, abs=1e-12)
    assert p.k == pytest.approx(1 / math.sqrt(-2 * p.A * p.s), rel=1e-14)
    assert abs(p.s) * p.k == pytest.approx(1.5 * (p.u_minus + p.u_plus), abs=1e-10)
    assert p.s**2 < 3 * p.u_minus**2
    assert p.s**2 < 3 * p.u_plus**2
    assert p.v_plus == pytest.approx(p.v_minus - p.s * (p.u_plus - p.u_minus),
                                     abs=1e-14)


def test_reference_point():
    p = psys_locus(-0.6, 4.0)
    assert p.u_minus == pytest.approx(0.302701, abs=1e-5)
    assert p.u_plus == pytest.approx(-0.181621, abs=1e-5)
    assert p.s == pytest.approx(-0.263889, abs=1e-5)
    assert p.k == pytest.approx(3 / math.sqrt(19), abs=1e-14)


def test_boundary_point_equals_threshold():
    for A in A_GRID:
        p = psys_locus(-0.5, A)
        assert p.u_minus == pytest.approx(psys_threshold(A), abs=1e-12)
        # equilibrium coalescence u_0 = u_+ at b = -1/2
        assert p.u_zero == pytest.approx(p.u_plus, abs=1e-12)


def test_threshold_values():
    assert psys_threshold(4.0) == pytest.approx(0.19245, abs=1e-5)
    assert psys_threshold(1.0) == pytest.approx(4 * math.sqrt(3) / 9, abs=1e-14)
    with pytest.raises(DomainError):
        psys_threshold(-1.0)


def test_locus_domain_errors():
    with pytest.raises(DomainError):
        psys_locus(-0.4, 4.0)
    with pytest.raises(DomainError):
        psys_locus(-1.0, 4.0)
    with pytest.raises(DomainError):
        psys_locus(-1.5, 4.0)
    with pytest.raises(DomainError):
        psys_locus(-0.6, -4.0)


def test_locus_divergence_toward_b_minus_one():
    assert psys_locus(-0.999, 1.0).u_minus > 1e4


def test_grid_invariants():
    for b in B_GRID:
        for A in A_GRID:
            check_point_invariants(psys_locus(b, A))


def test_speeds_single_sign():
    # all undercompressive waves travel opposite to sign(A)
    for b in B_GRID:
        for A in A_GRID:
            assert psys_locus(b, A).s < 0
            flipped = psys_symmetry(psys_locus(b, A), "a_flip")
            assert flipped.A < 0 and flipped.s > 0


def test_kinetic_u_plus_round_trip():
    for b in (-0.55, -0.6, -0.7, -0.9):
        for A in (1.0, 4.0):
            p = psys_locus(b, A)
            up = psys_kinetic_u_plus(p.u_minus, A)
            assert up == pytest.approx(p.u_plus, rel=1e-10)
            assert -p.u_minus < up < -0.5 * p.u_minus


def test_kinetic_u_plus_reference():
    assert psys_kinetic_u_plus(0.302702, 4.0) == pytest.approx(-0.181621, abs=1e-5)


def test_kinetic_u_plus_threshold_strict():
    with pytest.raises(NoLocusError):
        psys_kinetic_u_plus(psys_threshold(4.0), 4.0)
    with pytest.raises(NoLocusError):
        psys_kinetic_u_plus(0.1, 4.0)


def test_kinetic_monotonicity():
    # larger u_- maps to b closer to -1 (ratio decreasing)
    A = 2.0
    ums = np.linspace(psys_threshold(A) * 1.01, psys_threshold(A) * 4, 12)
    ratios = [psys_kinetic_u_plus(float(u), A) / u for u in ums]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_shoot_connects_and_orientation():
    p = psys_locus(-0.6, 4.0)
    res = psys_shoot(p)
    assert res.verdict is Verdict.CONNECTS
    assert res.terminal_distance < 1e-6
    assert psys_parabola_residual(res, p) < 1e-5
    # orbit leaves u_+ with w > 0 strictly between the endpoints
    assert abs(res.trajectory[0, 1] - p.u_plus) < 1e-6
    w_interior = res.trajectory[5:-5, 2]
    assert np.all(w_interior > 0)


@pytest.mark.parametrize("b,A", [(-0.995, 0.5), (-0.999, 0.5), (-0.999, 4.0)])
def test_shoot_connects_at_large_states(b, A):
    # |u| from 1.8e4 to 4.4e5: an absolute 1e-8 seed is a few thousand
    # float spacings of u, below DOP853's smallest step
    p = psys_locus(b, A)
    res = psys_shoot(p)
    assert res.verdict is Verdict.CONNECTS
    assert res.terminal_distance < 1e-6


def test_shoot_rejects_perturbed():
    p = psys_locus(-0.6, 4.0)
    for fac in (1.05, 0.95):
        up = p.u_plus * fac
        s = -math.sqrt(up**2 + up * p.u_minus + p.u_minus**2)
        from dataclasses import replace
        q = replace(p, u_plus=up, s=s, u_zero=-(p.u_minus + up),
                    k=1 / math.sqrt(-2 * p.A * s))
        res = psys_shoot(q)
        assert res.verdict is not Verdict.CONNECTS


def test_shoot_requires_saddles():
    p = psys_locus(-0.6, 4.0)
    from dataclasses import replace
    bad = replace(p, s=-p.s)  # s*A > 0
    with pytest.raises(NoSaddleError):
        psys_shoot(bad)


def test_odd_symmetry_preserves_membership():
    p = psys_locus(-0.6, 4.0)
    q = psys_symmetry(p, "odd")
    assert q.u_minus == -p.u_minus and q.u_plus == -p.u_plus
    assert q.s == p.s and q.A == p.A
    assert q.u_zero + q.u_plus + q.u_minus == pytest.approx(0.0, abs=1e-14)
    assert q.s**2 == pytest.approx(
        q.u_plus**2 + q.u_plus * q.u_minus + q.u_minus**2, rel=1e-12)
    assert q.v_plus - q.v_minus == pytest.approx(-q.s * (q.u_plus - q.u_minus),
                                                 abs=1e-14)
    assert psys_symmetry(q, "odd") == p


def test_a_flip_symmetry_preserves_membership():
    p = psys_locus(-0.7, 2.0)
    q = psys_symmetry(p, "a_flip")
    assert q.A == -p.A and q.s == -p.s
    assert q.s * q.A < 0  # saddle condition preserved
    assert q.s**2 == pytest.approx(
        q.u_plus**2 + q.u_plus * q.u_minus + q.u_minus**2, rel=1e-12)
    assert q.k**2 == pytest.approx(-1 / (2 * q.A * q.s), rel=1e-12)
    assert q.v_plus - q.v_minus == pytest.approx(-q.s * (q.u_plus - q.u_minus),
                                                 abs=1e-14)
    assert psys_symmetry(q, "a_flip") == p


@pytest.mark.parametrize("symmetries, start", [
    ((), "u_plus"),
    (("odd",), "u_plus"),
    (("a_flip",), "u_minus"),
    (("odd", "a_flip"), "u_minus"),
], ids=["identity", "odd", "a_flip", "odd+a_flip"])
def test_shoot_after_a_flip(symmetries, start):
    # one shot from the state the sign of the parabola coefficient predicts
    p = psys_locus(-0.65, 1.0)
    for which in symmetries:
        p = psys_symmetry(p, which)
    res = psys_shoot(p)
    assert res.verdict is Verdict.CONNECTS
    assert res.trajectory[0, 1] == pytest.approx(getattr(p, start), abs=1e-7)


def test_unknown_symmetry_rejected():
    with pytest.raises(DomainError):
        psys_symmetry(psys_locus(-0.6, 4.0), "rotate")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_input_raises(value):
    calls = [(psys_threshold, value), (psys_locus, -0.7, value),
             (psys_locus, value, 1.0), (psys_locus, -0.7, 1.0, value),
             (psys_kinetic_u_plus, 1.0, value), (psys_kinetic_u_plus, value, 1.0)]
    for fn, *args in calls:
        with pytest.raises(DomainError, match="must be finite"):
            fn(*args)


QUADRANTS = [(), ("odd",), ("a_flip",), ("odd", "a_flip")]


@settings(max_examples=60, deadline=None)
@given(b=st.floats(-0.97, -0.52), A=st.floats(0.1, 10.0),
       symmetries=st.sampled_from(QUADRANTS))
def test_symmetries_preserve_membership(b, A, symmetries):
    # the odd map and the A-flip carry a locus point to a locus point of
    # another sign quadrant, and each undoes itself
    p = base = psys_locus(b, A)
    for which in symmetries:
        q = psys_symmetry(p, which)
        assert psys_symmetry(q, which) == p
        p = q
    odd = -1.0 if "odd" in symmetries else 1.0  # flips the states
    flip = -1.0 if "a_flip" in symmetries else 1.0  # flips A and s
    assert (p.u_minus, p.u_plus) == (odd * base.u_minus, odd * base.u_plus)
    assert (p.A, p.s) == (flip * base.A, flip * base.s)
    assert p.s * p.A < 0  # saddles
    assert p.s**2 == pytest.approx(
        p.u_plus**2 + p.u_plus * p.u_minus + p.u_minus**2, rel=1e-12)
    assert abs(p.s) * p.k == pytest.approx(1.5 * (p.u_minus + p.u_plus), rel=1e-9)
    assert p.k**2 == pytest.approx(-1 / (2 * p.A * p.s), rel=1e-12)
    assert p.v_plus == p.v_minus - p.s * (p.u_plus - p.u_minus)
    assert abs(p.u_zero + p.u_plus + p.u_minus) <= 1e-14 * abs(p.u_minus)
    assert psys_shoot(p).verdict is Verdict.CONNECTS


@settings(max_examples=300, deadline=None)
@given(b=st.floats(-1.0, -0.5 - 1e-9, exclude_min=True),
       A=st.floats(0.2, 5.0), symmetries=st.sampled_from(QUADRANTS))
def test_lienard_form_at_outside_equilibria(b, A, symmetries):
    # a locus point is the Lienard form u' = w, w' = T*w + P(u): both states
    # are roots of P and saddles, with the eigenvalues of the Jacobian.
    # dP(u_+) is O(b + 1/2), so within rounding of the coalescence at
    # b = -1/2 its sign is not resolved; b stays 1e-9 away.
    p = psys_locus(b, A)
    for which in symmetries:
        p = psys_symmetry(p, which)
    um, s = p.u_minus, p.s
    for u in (p.u_minus, p.u_plus):
        scale = (abs(u) ** 3 + abs(um) ** 3 + s * s * abs(u - um)) / abs(s * p.A)
        assert abs(p.P(u)) <= 1e-12 * scale
        lp, lm = eigenvalues(u, p)
        assert not isinstance(lp, complex) and not isinstance(lm, complex)
        assert lp > 0 > lm
        jac = jacobian(u, p)
        ref = np.sort(np.linalg.eigvals(jac))
        np.testing.assert_allclose([lm, lp], ref, rtol=1e-10,
                                   atol=1e-13 * np.abs(jac).max())
