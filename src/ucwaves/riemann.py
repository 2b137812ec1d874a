"""Nonclassical Riemann solver for u_t + (u - u^3)_x = 0.

The flux is odd, so the solution for data (u_L, u_R) with u_R > 0 is the
mirror image u -> -u of the solution for (-u_L, -u_R): ``solve`` maps every
problem onto u_R <= 0 and builds the waves back on the original states.
On that half-plane the pattern depends only on where u_L lies against the
breakpoints of u_R: u_R itself, the tangent point -u_R/2 (classical
Lax-Oleinik envelope: constant, R, S or R + attached S) and, when u_R lies
inside the kinetic range, the kinetic state psi(u_R) and the middle
equilibrium u_0 = -u_R - psi(u_R) of the kinetic triple ending at u_R.  A
classical crossing shock stops having a traveling-wave profile exactly when
u_L passes u_0.  Beyond that threshold the fastest jump is replaced by the
undercompressive shock psi(u_R) -> u_R and the remaining Riemann problem
u_L -> psi(u_R) is solved classically (a Lax shock or a rarefaction on the
same convexity side).  At the threshold both representations coincide
(equal speeds, collinear chord), so the regions tile the plane.
``_pattern`` states this rule once, as comparisons over arrays: ``solve``
applies it to one cell and ``classify_plane`` to a whole grid.  Outside the
kinetic range psi(u_R) and u_0 are NaN, which fails every comparison and
leaves the classical labels.

An undercompressive shock is supersonic on both sides, so no wave can
follow it: patterns are "", R, S, RS, S(Sigma), R(Sigma), (Sigma).
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import DomainError, _check_cubes, _check_finite
from .kinetics import (
    GAMMA_MAX,
    _pairing,
    kinetic_u_minus,
    u_plus_bounds,
)
from .model import EQ_TOL, ShockKind, char_speed, classify_shock, rh_speed
from .phaseplane import TWProblem, Verdict, shoot_unstable

SIGMA = "Σ"


class WaveKind(Enum):
    RAREFACTION = "rarefaction"
    LAX_SHOCK = "lax_shock"
    UNDERCOMPRESSIVE_SHOCK = "undercompressive_shock"


@dataclass(frozen=True)
class Wave:
    """One elementary wave; speed_range collapses to (s, s) for shocks."""

    kind: WaveKind
    left_state: float
    right_state: float
    speed_range: tuple


@dataclass(frozen=True)
class RiemannSolution:
    u_left: float
    u_right: float
    gamma: float
    waves: tuple
    pattern: str

    @property
    def states(self):
        """Constant states from left to right (plateaus of the solution)."""
        out = [self.u_left]
        for w in self.waves:
            out.append(w.right_state)
        if not self.waves:
            out = [self.u_left, self.u_right]
        return out


def _shock(u_l, u_r, kind=WaveKind.LAX_SHOCK):
    s = rh_speed(u_l, u_r)
    return Wave(kind, u_l, u_r, (s, s))


def _fan(u_l, u_r):
    return Wave(WaveKind.RAREFACTION, u_l, u_r,
                (char_speed(u_l), char_speed(u_r)))


#: wave constructor for each letter of a pattern
_WAVE = {"R": _fan, "S": _shock,
         SIGMA: partial(_shock, kind=WaveKind.UNDERCOMPRESSIVE_SHOCK)}


def _kinetic_pair(u_r, gamma):
    """(psi(u_r), u_0) when u_r <= 0 lies inside the kinetic range, else
    (nan, nan): a NaN fails every comparison of ``_pattern``."""
    if gamma < GAMMA_MAX:
        lo, hi = u_plus_bounds(gamma)
        if lo + EQ_TOL < u_r < hi - EQ_TOL:
            u_m = kinetic_u_minus(u_r, gamma)
            return u_m, -u_r - u_m  # u_0: middle equilibrium of the triple
    return math.nan, math.nan


#: the labels, indexed by the codes of ``_pattern``
_LABELS = np.array(["", "R", "S", "RS", SIGMA, "S" + SIGMA, "R" + SIGMA],
                   dtype=object)


def _pattern(u_l, u_r, u_m, u_0):
    """Pattern labels of the data (u_l, u_r <= 0), over broadcast arrays or
    numbers; (u_m, u_0) is _kinetic_pair(u_r).  An object array of str, or
    one str."""
    # constant, R (always at u_R = 0), S up to the tangent point, else RS
    classical = np.where(
        u_l == u_r, 0, np.where((u_l < u_r) | (u_r == 0.0), 1,
                                np.where(u_l <= -0.5 * u_r + EQ_TOL, 2, 3)))
    # past u_0: Sigma alone within EQ_TOL of psi, else S or R into psi first
    kinetic = np.where(np.abs(u_l - u_m) <= EQ_TOL, 4,
                       np.where(u_l < u_m, 5, 6))
    return _LABELS[np.where(u_l > u_0 + EQ_TOL, kinetic, classical)]


def _check_ordering(waves, u_l, u_r):
    state = u_l
    prev = -np.inf
    for w in waves:
        if abs(w.left_state - state) > 1e-12:
            raise AssertionError("adjacent waves do not share states")
        if w.speed_range[0] < prev - 1e-12:
            raise AssertionError("wave speeds out of order")
        prev = w.speed_range[1]
        state = w.right_state
    if abs(state - u_r) > 1e-12:
        raise AssertionError("rightmost state does not match u_R")


def solve(u_left, u_right, gamma):
    """Self-similar solution of the Riemann problem with TW-admissible shocks.

    gamma > 0 and finite states whose cubes are finite are required, so every
    speed is finite; for gamma >= sqrt(3/8) the kinetic locus is empty and
    only classical patterns occur.
    """
    _check_finite("solve", gamma=gamma, u_left=u_left, u_right=u_right)
    _check_cubes("solve", u_left=u_left, u_right=u_right)
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    sign = -1.0 if u_right > 0.0 else 1.0  # maps the data onto u_R <= 0
    kinetic = _kinetic_pair(sign * u_right, gamma)
    pattern = _pattern(sign * u_left, sign * u_right, *kinetic)
    states = [u_left, u_right]
    if len(pattern) == 2:  # the middle state is psi or the tangent point
        states.insert(1, sign * kinetic[0] if pattern[1] == SIGMA else -0.5 * u_right)
    waves = [_WAVE[c](a, b) for c, a, b in zip(pattern, states, states[1:])]
    _check_ordering(waves, u_left, u_right)
    return RiemannSolution(u_left, u_right, gamma, tuple(waves), pattern)


def evaluate(sol: RiemannSolution, r):
    """Value of the self-similar solution at r = x/t.

    Right-continuous at shock locations: evaluate(sol, s) returns the right
    state of a shock with speed s.  Inside a fan the state follows
    u(r) = sign * sqrt((1 - r)/3) on the branch matching the fan's states.
    """
    _check_finite("evaluate", r=r)
    state = sol.u_left
    for w in sol.waves:
        lo, hi = w.speed_range
        if r < lo:
            return state
        if r < hi:  # only possible inside a rarefaction fan
            sign = 1.0 if (w.left_state + w.right_state) > 0 else -1.0
            return sign * np.sqrt((1.0 - r) / 3.0)
        state = w.right_state
    return state


def classify_plane(gamma, u_left_values, u_right_values):
    """Pattern label for every cell of a (u_L, u_R) grid.

    Returns an object array of shape (len(u_left_values), len(u_right_values)).
    The data are mirrored onto u_R <= 0 column by column; the kinetic pair
    depends only on the mirrored u_R, so it is found once per distinct
    |u_R|, and ``_pattern`` labels the whole grid at once.
    """
    _check_finite("classify_plane", gamma=gamma, u_left_values=u_left_values,
                  u_right_values=u_right_values)
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    u_r = np.asarray(u_right_values, dtype=float)
    sign = np.where(u_r > 0.0, -1.0, 1.0)
    u_r = sign * u_r
    mirrored, column = np.unique(u_r, return_inverse=True)
    pairs = np.array([_kinetic_pair(u, gamma) for u in mirrored.tolist()])
    u_m, u_0 = pairs.reshape(-1, 2)[column].T  # (0, 2) for an empty axis
    u_l = np.asarray(u_left_values, dtype=float)[:, None] * sign
    return _pattern(u_l, u_r, u_m, u_0)


@dataclass(frozen=True)
class WaveCheck:
    index: int
    kind: WaveKind
    passed: bool
    detail: str


def verify_solution(sol: RiemannSolution):
    """Re-check admissibility of every wave in a solution.

    Undercompressive shocks must sit on the kinetic locus (pairing residual
    < 1e-8); strict Lax shocks with s > 0 must possess a phase-plane profile
    (backward shoot from the saddle into the middle equilibrium, until it
    enters the node's capture certificate or comes within
    phaseplane.CONNECTION_TOL).  A shot that cannot be made raises:
    ``DegenerateSpeedError`` when it is too stiff, ``DomainError`` when its
    ends lie within twice the seed offset of each other.  Attached shocks
    (sonic or characteristic by ``classify_shock``, within EQ_TOL) and negative-speed Lax shocks are
    accepted by construction: for s < 0 the traveling wave runs from the
    middle equilibrium into an attracting outside equilibrium of a damped
    field and exists unconditionally, and the phase-plane reduction used
    here is restricted to s > 0.
    """
    checks = []
    for i, w in enumerate(sol.waves):
        if w.kind is WaveKind.RAREFACTION:
            ok = (abs(w.speed_range[0] - char_speed(w.left_state)) < 1e-12
                  and w.speed_range[1] >= w.speed_range[0])
            checks.append(WaveCheck(i, w.kind, ok, "characteristic fan"))
        elif w.kind is WaveKind.UNDERCOMPRESSIVE_SHOCK:
            ul, ur = w.left_state, w.right_state
            if ul < 0:  # mirrored wave; residual is stated for u_- > 0
                ul, ur = -ul, -ur
            res = sol.gamma * abs(_pairing(ul + ur, ul, sol.gamma))
            checks.append(WaveCheck(i, w.kind, res < 1e-8,
                                    f"kinetic residual {res:.3e}"))
        else:
            s = w.speed_range[0]
            pair = classify_shock(w.left_state, w.right_state)
            if s <= 0.0:
                checks.append(WaveCheck(i, w.kind, True,
                                        "s <= 0: profile exists unconditionally"))
            elif pair.sonic or pair.kind is ShockKind.CHARACTERISTIC:
                checks.append(WaveCheck(i, w.kind, True, "sonic attachment"))
            else:
                prob = TWProblem(sol.gamma, s, w.left_state)
                # for a strict Lax shock the right state is the outside
                # saddle (s > f'(right)) and the left state the middle node
                res = shoot_unstable(prob, w.right_state, w.left_state,
                                     backward=True)
                ok = res.verdict is Verdict.CONNECTS
                checks.append(WaveCheck(i, w.kind, ok,
                                        f"profile shoot: {res.verdict.value}"))
    return checks


def solution_to_dict(sol: RiemannSolution):
    return {
        "u_left": sol.u_left,
        "u_right": sol.u_right,
        "gamma": sol.gamma,
        "pattern": sol.pattern,
        "states": list(sol.states),
        "waves": [
            {
                "kind": w.kind.value,
                "left_state": w.left_state,
                "right_state": w.right_state,
                "speed_left": w.speed_range[0],
                "speed_right": w.speed_range[1],
            }
            for w in sol.waves
        ],
    }


def solution_from_dict(d):
    waves = tuple(
        Wave(WaveKind(w["kind"]), w["left_state"], w["right_state"],
             (w["speed_left"], w["speed_right"]))
        for w in d["waves"]
    )
    return RiemannSolution(d["u_left"], d["u_right"], d["gamma"], waves,
                           d["pattern"])
