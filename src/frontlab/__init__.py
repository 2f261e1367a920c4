"""Nonlocal Fisher-KPP free boundaries: semi-waves, spreading speeds, fronts."""

from .errors import (
    ConfigError,
    DegenerateAdjustmentError,
    DivergentIntegralError,
    DomainTooSmallError,
    FrontlabError,
    InitialDataError,
    InsufficientDataError,
    NoCrossingError,
    NoFiniteSpeedError,
    NonconvergenceError,
    NonNormalizableError,
    RejectedStepError,
    UndecidableTailError,
    UnsupportedTailError,
)
from .numerics import (
    LatticeConvolution,
    UniformGrid,
    bracketed_root,
    fit_slope,
    trapezoid_weights,
)
from .kernels import (
    Kernel,
    TailClass,
    TruncatedKernel,
    c_of_J,
    classify_tail,
    exp_moment,
    make_custom,
    make_gaussian,
    make_laplace,
    make_power,
    make_uniform,
    truncate,
)
from .reactions import (
    AdjustedReaction,
    Reaction,
    ValidationReport,
    adjust_for_truncation,
    make_logistic,
    make_polynomial,
    validate_kpp,
)
from .semiwave import (
    NonExistence,
    SemiWaveParams,
    SemiWaveProfile,
    apply_A,
    choose_M,
    estimate_cstar,
    front_slope,
    half_level_shift,
    linear_determinacy_speed,
    solve_semiwave,
)
from .speed import CurveEntry, SpeedSolution, c0_curve, flux_M, solve_c0
from .fbsim import (
    FieldState,
    FrontTrajectory,
    Outcome,
    OutcomeTag,
    SimConfig,
    classify_outcome,
    measure_speed,
    principal_eigenvalue,
    simulate,
    stability_dt,
    step,
    truncated_speed_sequence,
)
from .cauchy import (
    CauchyConfig,
    CauchyRun,
    CauchyState,
    LevelSetTrack,
    MuLimitConfig,
    MuLimitReport,
    cauchy_simulate,
    cauchy_step,
    compare_mu_limit,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"
