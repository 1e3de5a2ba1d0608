"""Travelling-wave analysis for u_t = (u^{m-1} u_x)_x + u^p - u^q.

The package nondimensionalizes the five-parameter reaction-diffusion
equation, builds the phase-plane systems whose heteroclinic orbits are the
travelling waves, computes and classifies those orbits by shooting,
reconstructs wave profiles, and cross-validates everything against direct
PDE runs.
"""

from .errors import (
    ConfigError,
    DegenerateScaleError,
    DomainError,
    DomainTooSmallError,
    InconclusiveError,
    InsufficientTailError,
    InvalidParameterError,
    KppWavesError,
    MissingArtifactError,
    NegativityError,
    NoFrontError,
    NoIntersectionError,
    NotAConnectionError,
    SeedFailureError,
    StabilityViolationError,
    StepFailureError,
    UnsupportedModelError,
)
from .model import (
    CanonicalModel,
    GeneralModel,
    Regime,
    ScalingMap,
    SpeedClass,
    classify_speed,
    critical_speed,
    model_from_json,
    model_to_json,
    nondimensionalize,
)
from .phaseplane import (
    FixedPointInfo,
    FixedPointKind,
    PhaseSystemI,
    PhaseSystemII,
    axis_equilibria,
    build_system,
    dulac_divergence,
    fixed_points,
    jacobian,
    region_G_residual,
    vector_field,
    zero_speed_X0,
    zero_speed_curve,
)
from .connect import (
    ConnectionResult,
    EventKind,
    Trajectory,
    TrajectoryEvent,
    WaveProfile,
    classify_connection,
    detect_finite_propagation,
    first_X_axis_intersection,
    reconstruct_profile,
    shoot,
    threshold_crossings,
    x0_monotonicity_check,
)
from .pde import (
    AdvectResult,
    PdeRun,
    advect_profile_test,
    evolve,
    front_position,
    make_run,
    measure_front_speed,
    step,
    support_edge,
    wave_ode_residual,
)
from .config import PdeConfig, RunConfig, SweepConfig, load_config, parse_config

__version__ = "0.1.0"
