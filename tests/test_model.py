import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucwaves import (
    PoleError,
    ShockKind,
    char_speed,
    classify_shock,
    dispersion_lambda,
    flux,
    rh_speed,
)


def test_flux_values():
    assert flux(0.0) == 0.0
    assert flux(1.0) == 0.0
    assert flux(0.4) == pytest.approx(0.336, abs=1e-15)


def test_flux_by_multiplication_matches_the_power():
    # relative to the size of the terms: u - u**3 cancels near u = +-1
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], 10_000)
    u = np.concatenate([rng.uniform(-3.0, 3.0, 10_000),
                        signs * 10.0 ** rng.uniform(-8.0, 3.0, 10_000)])
    err = np.abs(flux(u) - (u - u**3)) / (np.abs(u) + np.abs(u) ** 3)
    assert err.max() <= 1e-15
    for x in u[:100]:
        assert abs(flux(float(x)) - (x - x**3)) <= 1e-15 * (abs(x) + abs(x) ** 3)


def test_char_speed_values():
    assert char_speed(0.0) == 1.0
    assert char_speed(1 / np.sqrt(3)) == pytest.approx(0.0, abs=1e-15)
    assert char_speed(0.4) == pytest.approx(0.52, abs=1e-15)


def test_rh_speed_values():
    assert rh_speed(0.0, 0.0) == 1.0
    assert rh_speed(0.4, -0.8) == pytest.approx(0.52, abs=1e-15)
    for u in (0.3, 0.7, -0.2):
        assert rh_speed(u, -u) == pytest.approx(1 - u * u, abs=1e-15)


def test_rh_speed_symmetry_and_consistency():
    rng = np.random.default_rng(0)
    for ul, ur in rng.uniform(-1.5, 1.5, size=(50, 2)):
        assert rh_speed(ul, ur) == pytest.approx(rh_speed(ur, ul), abs=1e-15)
        assert rh_speed(ul, ul) == pytest.approx(char_speed(ul), abs=1e-15)


def test_classify_lax():
    pair = classify_shock(0.1, 0.3)
    assert pair.kind is ShockKind.LAX
    assert pair.speed == pytest.approx(0.87, abs=1e-15)
    assert char_speed(0.3) < pair.speed < char_speed(0.1)


def test_classify_undercompressive_candidate():
    pair = classify_shock(0.5288, -0.8)
    assert pair.kind is ShockKind.UNDERCOMPRESSIVE_CANDIDATE
    assert pair.speed > char_speed(0.5288)
    assert pair.speed > char_speed(-0.8)


def test_classify_characteristic_and_inadmissible():
    assert classify_shock(0.2, 0.2).kind is ShockKind.CHARACTERISTIC
    # expansion-type jump: characteristics leave both sides
    pair = classify_shock(0.3, 0.25)
    assert pair.kind is ShockKind.INADMISSIBLE


def test_classify_sonic_contact_flag():
    # chord from -0.8 is tangent to the flux graph at 0.4
    pair = classify_shock(0.4, -0.8)
    assert pair.sonic
    assert pair.kind is ShockKind.INADMISSIBLE


def test_classify_odd_symmetry():
    rng = np.random.default_rng(1)
    for ul, ur in rng.uniform(-1.2, 1.2, size=(100, 2)):
        a = classify_shock(ul, ur)
        b = classify_shock(-ul, -ur)
        assert a.kind is b.kind
        assert a.speed == pytest.approx(b.speed, abs=1e-14)


def test_flux_odd_symmetry():
    u = np.linspace(-2, 2, 41)
    assert np.allclose(flux(-u), -flux(u), atol=1e-15)


def test_dispersion_zero_wavenumber():
    assert dispersion_lambda(0.7, 2.0, 0.5, 0.0) == 0.0


def test_dispersion_reference_value():
    lam = dispersion_lambda(0.0, 1.0, 1.0, 1.0)
    assert lam == pytest.approx((-1.0 - 1.0j) / 2.0, abs=1e-15)


def test_dispersion_unstable_for_negative_mu():
    lam = dispersion_lambda(0.0, 1.0, -1.0, 2.0)
    assert lam.real == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert lam.real > 0


def test_dispersion_pole_reported():
    with pytest.raises(PoleError):
        dispersion_lambda(0.0, 1.0, -1.0, 1.0)


_CTX = decimal.Context(prec=60)


def _bbm_symbol(mu, xi):
    """1 + mu*xi**2 in 60-digit decimal from the floats' exact values."""
    xi = Decimal(xi)
    return _CTX.add(1, _CTX.multiply(Decimal(mu), _CTX.multiply(xi, xi)))


def _dispersion_reference(u_bar, beta, mu, xi):
    """(Re, Im, 1 + mu*xi**2) of (-i*xi*f'(u_bar) - beta*xi**2)/(1 + mu*xi**2),
    f'(u) = 1 - 3u**2, in 60-digit decimal from the floats' exact values."""
    denom = _bbm_symbol(mu, xi)
    u_bar, beta, xi = map(Decimal, (u_bar, beta, xi))
    xi2 = _CTX.multiply(xi, xi)
    slope = _CTX.subtract(1, _CTX.multiply(3, _CTX.multiply(u_bar, u_bar)))
    return (_CTX.divide(-_CTX.multiply(beta, xi2), denom),
            _CTX.divide(-_CTX.multiply(xi, slope), denom), denom)


@st.composite
def _dispersion_args(draw):
    """(u_bar, beta, mu, xi); in half the mu < 0 draws xi lies 1e-14 to 1e-3
    (relative) from the pole 1/sqrt(-mu)."""
    u_bar = draw(st.floats(-2.0, 2.0))
    beta = 10.0 ** draw(st.floats(-3.0, 1.0))
    mu = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    side = draw(st.sampled_from([1.0, -1.0]))
    if mu < 0 and draw(st.booleans()):
        offset = 10.0 ** draw(st.floats(-14.0, -3.0))
        xi = side / math.sqrt(-mu) * (1.0 + draw(st.sampled_from([1.0, -1.0])) * offset)
    else:
        xi = side * 10.0 ** draw(st.floats(-3.0, 3.0))
    return u_bar, beta, mu, xi


@settings(max_examples=500, deadline=None, derandomize=True)
@given(args=_dispersion_args())
def test_dispersion_lambda_within_its_conditioning_of_the_exact_value(args):
    # Each part's first-order error, in units r = 2**-53 of its own size:
    # Re = -(beta*xi2)/(1 + mu*xi2), xi2 = xi*xi, rounds xi2 (d1), beta*xi2,
    # mu*xi2, the sum and the quotient.  d1 enters the numerator once and
    # the denominator times mu*xi2/D, D = 1 + mu*xi2, so together d1/D; the
    # rest add 1 + 1 + |mu*xi2/D| + 1.  With |1/D| <= 1 + |mu*xi2/D| that is
    # at most 4 + 2|mu*xi2/D| <= 4*kappa_re, kappa_re = 1 + |mu*xi2/D|.
    # Im = -(xi*f')/D rounds xi*f' (1), the three operations of f' = 1 -
    # 3*(u_bar*u_bar) (1 + 2*3u_bar**2/|1 - 3u_bar**2| relative to f'), D
    # (1 + 2|mu*xi2/D|) and the quotient (1): at most 4*kappa_im, kappa_im =
    # kappa_re + 3u_bar**2/|1 - 3u_bar**2|.  A relative error e*r of x is
    # below e ulps of x, so C = 4 (20 000 random such draws reached 2.3); the
    # second-order terms are of relative size kappa*r <= 1e-2 here.
    u_bar, beta, mu, xi = args
    try:
        lam = dispersion_lambda(u_bar, beta, mu, xi)
    except PoleError:  # only where 1 + mu*xi**2 rounds to 0
        assert abs(_bbm_symbol(mu, xi)) <= 4 * Decimal(2) ** -53
        return
    re, im, denom = _dispersion_reference(u_bar, beta, mu, xi)
    kappa_re = 1 + abs(Decimal(mu) * Decimal(xi) ** 2 / denom)
    u2 = 3 * Decimal(u_bar) ** 2
    kappa_im = kappa_re + abs(u2 / (1 - u2))
    for got, want, kappa in ((lam.real, re, kappa_re), (lam.imag, im, kappa_im)):
        err = abs(Decimal(got) - want) / Decimal(math.ulp(float(want)))
        assert err <= 4 * kappa


def test_dispersion_damping_on_log_grid():
    xi = np.logspace(-3, 3, 200)
    for beta, mu in [(0.1, 0.06), (1.0, 1.0), (0.5, 2.0)]:
        lam = np.array([dispersion_lambda(0.3, beta, mu, x) for x in xi])
        assert np.all(lam.real < 0)
