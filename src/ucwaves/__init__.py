"""Undercompressive shock waves for the cubic conservation law
u_t + (u - u^3)_x = 0 regularized by Burgers dissipation and BBM-type
dispersion, plus the analogous p-system traveling waves."""

from .errors import (
    DegenerateSpeedError,
    DomainError,
    NoLocusError,
    NoSaddleError,
    PoleError,
    RootFindError,
    ShootingBudgetError,
    SimulationDivergedError,
    UCWavesError,
)
from .kinetics import (
    GAMMA_MAX,
    Branch,
    KineticPoint,
    a_tilde,
    discriminant,
    entropy_integral,
    kinetic_u_minus,
    kinetic_u_plus_candidates,
    locus_point,
    locus_sweep,
    u_plus_bounds,
)
from .model import (
    ShockKind,
    ShockPair,
    char_speed,
    classify_shock,
    dispersion_lambda,
    flux,
    rh_speed,
)
from .pde import (
    BoundaryCondition,
    CustomProfile,
    SimConfig,
    SimState,
    SmoothedRiemann,
    TravelingWaveSeed,
    detect_fronts,
    fit_front_speeds,
    initial_profile,
    simulate,
    step,
)
from .phaseplane import (
    OrbitResult,
    TWProblem,
    Verdict,
    eigenvalues,
    equilibria,
    parabola_residual,
    shoot_unstable,
)
from .psystem import (
    PSystemLocusPoint,
    psys_kinetic_u_plus,
    psys_locus,
    psys_parabola_residual,
    psys_shoot,
    psys_symmetry,
    psys_threshold,
)
from .riemann import (
    RiemannSolution,
    Wave,
    WaveKind,
    classify_plane,
    evaluate,
    solve,
    verify_solution,
)

__version__ = "0.1.0"
