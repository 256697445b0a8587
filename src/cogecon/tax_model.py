"""Tax-and-ability block: who consumes what, and which tax rate investors prefer.

Abilities are lognormal; agents above a cutoff become investors, the rest
work for the government sector financed by a flat output tax.  Aggregate and
idiosyncratic shocks are lognormal with unit mean.  Forward claims between
periods cancel out of every valuation here by construction, so they never
appear.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

from .errors import DegenerateModelError
from .records import record


def normal_sf(x: float) -> float:
    """Standard normal survival function 1 - Phi(x), without cancellation."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def normal_hazard(x: float) -> float:
    """Hazard rate phi(x) / (1 - Phi(x)) of the standard normal.

    Beyond x ~ 37.5, where the survival value leaves the normal floats, it is
    x over the Mills-ratio series x R(x) ~ sum_m (-1)^m (2m-1)!! / x^(2m)
    (Abramowitz & Stegun 1964, eq. 7.1.23), cut where its terms fall below 1e-16.
    """
    sf = normal_sf(x)
    if sf >= sys.float_info.min:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / sf
    term = series = 1.0
    for m in range(1, 8):
        term *= -(2 * m - 1) / (x * x)
        series += term
    return x / series


@record
class TaxEconomy:
    """Parameters of the two-sector consumption block.

    m is the investor mass; K_cut the ability cutoff defining investors;
    (mu_bar, sigma_mu) the ability distribution in logs; sigma_agg and
    sigma_idio the lognormal shock scales (shock means are pinned at
    -sigma^2/2 so levels average to one); theta_c the risky output share;
    gamma_b the CRRA curvature.
    """

    tau: float
    g_scale: float
    m: float
    mu_bar: float
    sigma_mu: float
    k_cut: float
    sigma_agg: float
    sigma_idio: float
    theta_c: float
    gamma_b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {self.tau}")
        if self.g_scale <= 0.0:
            raise ValueError(f"g_scale must be positive, got {self.g_scale}")
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"m must lie in (0, 1), got {self.m}")
        if self.sigma_mu <= 0.0:
            raise ValueError(f"sigma_mu must be positive, got {self.sigma_mu}")
        if self.sigma_agg < 0.0 or self.sigma_idio < 0.0:
            raise ValueError("shock scales must be nonnegative")
        if not 0.0 <= self.theta_c <= 1.0:
            raise ValueError(f"theta_c must lie in [0, 1], got {self.theta_c}")
        if self.gamma_b <= 0.0:
            raise ValueError(f"gamma_b must be positive, got {self.gamma_b}")


def truncated_exp_mean(mu_bar: float, sigma_mu: float, k_cut: float) -> float:
    """E[exp(mu) | mu >= K] for mu ~ N(mu_bar, sigma_mu^2).

    Evaluated through survival functions so the two tails cancel correctly:
    exp(mu_bar + sigma^2/2) * SF((K - mu_bar - sigma^2)/sigma) / SF((K - mu_bar)/sigma).
    """
    den = implied_investor_mass(mu_bar, sigma_mu, k_cut)
    num = normal_sf((k_cut - mu_bar) / sigma_mu - sigma_mu)
    if den == 0.0:
        raise DegenerateModelError(
            f"cutoff {k_cut} leaves no ability mass above it at double precision")
    return math.exp(mu_bar + 0.5 * sigma_mu**2) * num / den


def implied_investor_mass(mu_bar: float, sigma_mu: float, k_cut: float) -> float:
    """Mass of abilities above the cutoff, 1 - Phi((K - mu_bar)/sigma)."""
    if sigma_mu <= 0.0:
        raise ValueError(f"sigma_mu must be positive, got {sigma_mu}")
    return normal_sf((k_cut - mu_bar) / sigma_mu)


def check_mass_consistency(e: TaxEconomy) -> float:
    """Warn when the configured investor mass disagrees with the cutoff.

    m and K_cut are accepted independently; this recomputes the mass implied
    by the cutoff and returns it, warning on a mismatch beyond 1e-6.
    """
    implied = implied_investor_mass(e.mu_bar, e.sigma_mu, e.k_cut)
    if abs(implied - e.m) > 1e-6:
        warnings.warn(
            f"investor mass m = {e.m} differs from the cutoff-implied mass {implied:.6g}",
            RuntimeWarning, stacklevel=2)
    return implied


def hazard_ratio_check(mu_k: float, sigma_mu: float) -> tuple[float, float]:
    """Hazards of N(0, sigma^2) and N(sigma^2, sigma^2) at mu_k = k_cut - mu_bar.

    Each reads the standardised cutoff (mu_k - mean) / sigma of the centred
    ability law.  Returns (h_zero_mean, h_shifted_mean); the normal hazard is
    strictly increasing, so the zero-mean hazard is strictly larger at every mu_k.
    """
    if sigma_mu <= 0.0:
        raise ValueError(f"sigma_mu must be positive, got {sigma_mu}")
    h_zero = normal_hazard(mu_k / sigma_mu) / sigma_mu
    h_shift = normal_hazard((mu_k - sigma_mu**2) / sigma_mu) / sigma_mu
    return h_zero, h_shift


def consumptions(e: TaxEconomy, eps_agg: float, eps_idio: float,
                 mu_b: float) -> tuple[float, float]:
    """(government-worker, investor) consumption at given shock realizations.

    The government worker consumes the per-capita tax take on investor
    output; an investor of log ability mu_b consumes the untaxed share of own
    output, split between the risky and safe technology.
    """
    ability_mean = truncated_exp_mean(e.mu_bar, e.sigma_mu, e.k_cut)
    c_gov = (e.tau * e.g_scale * math.exp(eps_agg)
             * e.m * ability_mean / (1.0 - e.m))
    c_inv = ((1.0 - e.tau) * e.g_scale * math.exp(mu_b) * math.exp(eps_agg)
             * (e.theta_c * math.exp(eps_idio) + (1.0 - e.theta_c)))
    return c_gov, c_inv


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 64 Gauss-Hermite nodes and weights, solved on first use.

    The arrays are shared by every caller, so they are made read-only.
    """
    import numpy as np

    nodes, weights = np.polynomial.hermite.hermgauss(64)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _hermite_expectation(fn, sigma: float) -> float:
    """E[fn(eps)] for eps ~ N(-sigma^2/2, sigma^2) by Gauss-Hermite quadrature."""
    import numpy as np

    if sigma == 0.0:
        return float(fn(0.0))
    nodes, weights = _hermite_rule()
    eps = -0.5 * sigma**2 + math.sqrt(2.0) * sigma * nodes
    return float(np.sum(weights * fn(eps)) / math.sqrt(math.pi))


def expected_utility_investor(e: TaxEconomy, tau: float, mu_b: float = 0.0) -> float:
    """Expected CRRA utility of an investor at tax rate tau.

    Both shocks are integrated out: the aggregate lognormal factor has the
    closed-form moment E[exp((1-gamma) eps)] = exp(-gamma (1-gamma) sigma^2/2),
    and the technology bracket is integrated by Gauss-Hermite quadrature.
    Utility is (c^(1-gamma) - 1)/(1-gamma), which ranks outcomes as
    c^(1-gamma)/(1-gamma) does but tends to log c as gamma -> 1, so near
    gamma = 1 the level does not grow like 1/(1-gamma) and round away the
    gap between two tax rates.  gamma_b = 1 uses the log branch.
    """
    import numpy as np

    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")
    gamma = e.gamma_b
    base = (1.0 - tau) * e.g_scale * math.exp(mu_b)
    if gamma == 1.0:
        agg_term = -0.5 * e.sigma_agg**2
        bracket = _hermite_expectation(
            lambda x: np.log(e.theta_c * np.exp(x) + (1.0 - e.theta_c)), e.sigma_idio)
        return math.log(base) + agg_term + bracket
    one_minus = 1.0 - gamma
    log_agg_moment = -0.5 * gamma * one_minus * e.sigma_agg**2
    # log E[b^(1-gamma)] as log1p(E[b^(1-gamma) - 1]), without the cancellation
    log_bracket_moment = math.log1p(_hermite_expectation(
        lambda x: np.expm1(one_minus * np.log(e.theta_c * np.exp(x) + (1.0 - e.theta_c))),
        e.sigma_idio))
    return math.expm1(one_minus * math.log(base) + log_agg_moment + log_bracket_moment) / one_minus


def check_tax_rates(tau_low: float, tau_high: float) -> None:
    """The two rates Proposition 1 compares must come in order."""
    if not tau_low < tau_high:
        raise ValueError("tau_low must be below tau_high")


def proposition1_check(e: TaxEconomy, tau_low: float, tau_high: float,
                       mu_b: float = 0.0) -> tuple[float, float, bool]:
    """Utilities at the two tax rates and whether the lower rate wins."""
    check_tax_rates(tau_low, tau_high)
    u_low = expected_utility_investor(e, tau_low, mu_b)
    u_high = expected_utility_investor(e, tau_high, mu_b)
    return u_low, u_high, u_low > u_high
