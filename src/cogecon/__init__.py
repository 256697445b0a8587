"""Cognitive-resource dilution, data valuation, and wealth-distribution toolkit.

Closed-form stationary densities for drift-diffusions with Poisson resets,
logistic retention dynamics, entropy-based data values, belief-dependent
consumption adjustment, an output-tax economy, and a financial-frictions
wealth model with closed-form market clearing.  Every analytic density is
cross-validated against independent finite-difference and Monte Carlo
oracles; the CLI reproduces the figure-backing data series as CSV.
"""

# The wealth pipeline a sweep of economies runs, which loads without numpy;
# every other name is imported from the module that defines it.
from .wealth import EconomyParams, density_stats, drift_diffusion, stationary_wealth_density

__version__ = "0.1.0"
