"""Cognitive-resource dilution, data valuation, and wealth-distribution toolkit.

Closed-form stationary densities for drift-diffusions with Poisson resets,
logistic retention dynamics, entropy-based data values, belief-dependent
consumption adjustment, an output-tax economy, and a financial-frictions
wealth model with closed-form market clearing.  Every analytic density is
cross-validated against independent finite-difference and Monte Carlo
oracles; the CLI reproduces the figure-backing data series as CSV.
"""

from .cognition import (
    CognitionParams,
    RetentionParams,
    dilution_fraction,
    dilution_threshold,
    gbm_coefficients,
    retention_limit,
    retention_ode_rhs,
    retention_trajectory,
    stationary_cognition_density,
    steady_state_resource,
)
from .config import ScenarioConfig, default_config, parse_config
from .consumption import (
    CawfCurves,
    CawfParams,
    EffectiveConsumption,
    ShrinkageParams,
    bayes_adjustment,
    cawf,
    cawf_bayes_limit,
    cawf_montecarlo,
    cawf_nonbayes_limit,
    implied_shrinkage,
    net_utility,
    nonbayes_adjustment,
    shrinkage_crossover,
    shrinkage_regression_check,
)
from .data_value import (
    DirectionVector,
    InfoEnsemble,
    SourceDist,
    aggregate_data_value,
    data_value_index,
    differential_entropy,
    direction_value_matrix,
    gaussian_entropy,
    information_value,
    value_weight,
)
from .densities import PiecewiseExpDensity
from .errors import (
    CogeconError,
    ConfigError,
    DegenerateDiffusionError,
    DegenerateModelError,
    SingularSystemError,
    TailUnderflowError,
    ValidationError,
)
from .figures import FIGURE_IDS, SeriesTable, reproduce
from .kfe import Grid1D, solve_stationary_kfe_fd
from .rng import RngSpec
from .sde import OuProcessSpec, simulate_gbm_reset, simulate_ou_reflected
from .tax_model import (
    TaxEconomy,
    check_mass_consistency,
    consumptions,
    expected_utility_investor,
    hazard_ratio_check,
    implied_investor_mass,
    proposition1_check,
    truncated_exp_mean,
)
from .validate import ks_distance, run_density_validation, benchmark_combos
from .wealth import (
    DensityStats,
    EconomyParams,
    EquilibriumPrices,
    FirmPolicy,
    InactiveFirmError,
    PolicyCoefficients,
    WealthLaw,
    density_stats,
    drift_diffusion,
    equilibrium_economy,
    equilibrium_prices,
    firm_policy,
    labor_residual_at,
    policy_functions,
    productivity_cutoff,
    profit_rate,
    stationary_wealth_density,
)

__version__ = "0.1.0"
