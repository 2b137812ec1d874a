"""scipy's entry points, each imported on its first call.

Importing ``scipy.integrate`` or ``scipy.linalg`` takes several times as
long as a closed-form command, a kinetic root-find or a periodic simulation
runs, and those never call scipy.  So the package imports numpy only, and
the modules bind these forwarders: ``pde.dpttrf`` and ``pde.solve_banded``
(LAPACK's tridiagonal LDL^T and ``dpttrs``, its solve, for Dirichlet and
Neumann grids) and ``phaseplane.solve_ivp`` stay module attributes that
every call goes through.  A forwarder keeps scipy's function once it has
imported it: an import statement on every call would cost about 1 us,
against about 7 us for a Dirichlet solve.
"""

import importlib


def _imported_on_first_call(module, name):
    """A function that imports ``module.name`` on its first call and
    forwards every call to it."""
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = f"``{module}.{name}``, imported on the first call."
    return forward


dpttrf = _imported_on_first_call("scipy.linalg.lapack", "dpttrf")
dpttrs = _imported_on_first_call("scipy.linalg.lapack", "dpttrs")
solve_ivp = _imported_on_first_call("scipy.integrate", "solve_ivp")
