"""Densities of free positive multiplicative Brownian motion and
log-unimodality checkers."""

from .analytic import (
    HalfPlaneGrid,
    brownian_sigma_transform,
    psi,
    psi_prime,
)
from .criteria import (
    CounterexampleSpec,
    CriterionReport,
    GapCertificate,
    LevelSolutions,
    build_counterexample,
    count_level_solutions,
    gap_certificate,
    level_function,
    mult_convolve,
    reciprocal_interval_check,
    scaled_convolution_density,
    sweep_level_counts,
    time_threshold,
)
from .flow import (
    DensityCurve,
    FlowContext,
    SupportSet,
    blowup_region,
    density,
    density_curve,
    radial_map,
    radial_map_inverse,
    solve_angle,
)
from .measures import (
    Atomic,
    GridDensity,
    Measure,
    Named,
    atomic,
    beta_measure,
    boolean_stable,
    density_at,
    dirac,
    f_blowup,
    gamma_measure,
    half_normal,
    is_mult_symmetric,
    lambda_measure,
    log_normal,
    marchenko_pastur,
    marchenko_pastur_inverse,
    pushforward_log,
    sup_cdf_distance,
    to_grid,
    uniform_interval,
)
from .unimodality import (
    ModeReport,
    PickCheckReport,
    StrongCheckReport,
    count_modes,
    is_log_unimodal,
    lambda_strong_check,
    pick_inequality_check,
)

__version__ = "0.1.0"
