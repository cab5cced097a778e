"""Spread complexity and survival probability of quenched quantum states."""

from .errors import (
    AssemblyError,
    DomainError,
    EnsembleMemberError,
    FitError,
    FloatRangeError,
    LapackError,
    NotPowerLawError,
    NumericalError,
    PositivityError,
    PrecisionError,
    WindowError,
)
from .models import (
    GaussianAutocorr,
    InterpolationAutocorr,
    SemicircleAutocorr,
    TruncatedQuadraticAutocorr,
    eval_autocorr,
    eval_b2,
    eval_frm_sp,
    model_from_dict,
    moments_of_model,
)
from .moment_lanczos import (
    LanczosCoefficients,
    lanczos_to_moments,
    moments_to_lanczos,
)
from .hamiltonians import (
    SectorHamiltonian,
    SpinChainSpec,
    StateVector,
    build_spin_sector,
    domain_wall_index,
    domain_wall_state,
    sample_goe,
    sector_basis,
)
from .matrix_lanczos import (
    householder_hessenberg,
    lanczos_tridiagonalize,
    spectral_norm_estimate,
)
from .evolution import (
    LongTimeAverages,
    Spectrum,
    SpreadComplexitySeries,
    eigendecompose,
    evolve_amplitudes,
    long_time_average,
    spread_series,
    time_grid,
)
from .analysis import (
    EnsembleSeries,
    FitResult,
    RegimeStats,
    coefficient_stats,
    detect_peak_plateau,
    ensemble_average,
    fit_bn_linear,
    fit_bn_power,
    fit_decay_exponent,
    fit_goe_profile,
)

__version__ = "0.1.0"
