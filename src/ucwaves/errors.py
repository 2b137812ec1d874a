"""Exception types shared across the package."""

import math

import numpy as np


class UCWavesError(Exception):
    """Base class for all ucwaves errors."""


class DomainError(UCWavesError):
    """A parameter lies outside the validity range of an operation."""


class NoLocusError(UCWavesError):
    """No undercompressive connection exists for the requested parameters."""


class PoleError(UCWavesError):
    """A formula was evaluated at a pole of its defining expression."""


class DegenerateSpeedError(UCWavesError):
    """The traveling-wave reduction degenerates (wave speed s <= 0)."""


class NoSaddleError(UCWavesError):
    """The outside equilibria are not saddle points (p-system: s*A > 0)."""


class ShootingBudgetError(UCWavesError):
    """A phase-plane shot spent its budget of right-hand-side evaluations."""


class RootFindError(UCWavesError):
    """A root-find's ends do not bracket a sign change, or it ran out of
    steps."""


class SimulationDivergedError(UCWavesError):
    """A simulation step produced a non-finite value (the run blew up)."""

    def __init__(self, t, step):
        super().__init__(f"simulation diverged: u is not finite at t = {t:.6g} "
                         f"(step {step})")
        self.t = t
        self.step = step


def _not_finite(**values):
    """One complaint per number or array holding NaN or an infinity (None is
    skipped)."""
    return [f"{name}={value!r} (must be finite)" for name, value in values.items()
            if value is not None and not np.isfinite(value).all()]


def _check_finite(what, **values):
    """Raise DomainError naming every value that is NaN or infinite."""
    bad = _not_finite(**values)
    if bad:
        raise DomainError(f"invalid {what}: " + "; ".join(bad))


def _check_cubes(what, **states):
    """Raise DomainError naming every state (a number) whose cube u^3 is not
    finite: past |u| ~ 5.6e102 the flux u - u^3 overflows, and with it every
    speed and profile built on it.  The product overflows to inf, where a
    Python float power would raise OverflowError."""
    if not all(math.isfinite(u * u * u) for u in states.values()):
        _check_finite(what, **{f"{name}^3": u * u * u
                               for name, u in states.items()})
