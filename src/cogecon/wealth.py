"""Wealth distribution with leverage-constrained firms and Poisson redistribution.

Households run firms subject to a leverage cap lam on capital, choose a risky
portfolio share and consumption under CRRA preferences, and are hit by
redistribution events at rate beta that reset log wealth to the mean.  Log
wealth then follows arithmetic Brownian motion between resets and its
stationary law is two-sided exponential.  An attention friction f_sigma in
(0, 1] scales the effective curvature in the consumption rule; f_sigma = 1
recovers the frictionless policy exactly.

With a square-root production exponent (alpha = 1/2) the general-equilibrium
prices solve a quadratic and are available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .densities import PiecewiseExpDensity
from .errors import ConfigError, DegenerateModelError
from .records import record

EQUILIBRIUM_ALPHA = 0.5


class InactiveFirmError(ConfigError):
    """Productivity below the activity cutoff: the firm problem has no interior solution."""


@record
class EconomyParams:
    """Primitives of the wealth block.

    rho: time preference; gamma: CRRA curvature; alpha: capital exponent;
    delta: depreciation; beta: redistribution rate; w: wage; r: risk-free
    rate; theta: risky asset drift; sigma: risky asset volatility; lam:
    leverage cap (capital per unit wealth); z: firm productivity; f_sigma:
    attention friction scaling effective curvature in the consumption rule.
    """

    rho: float = 0.05
    gamma: float = 2.0
    alpha: float = 0.3
    delta: float = 0.6
    beta: float = 0.3
    w: float = 1.0
    r: float = 0.01
    theta: float = 0.05
    sigma: float = 0.05
    lam: float = 5.0
    z: float = 5.0
    f_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.w <= 0.0:
            raise ValueError(f"w must be positive, got {self.w}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.lam < 1.0:
            raise ValueError(f"lam must be at least 1, got {self.lam}")
        if self.z <= 0.0:
            raise ValueError(f"z must be positive, got {self.z}")
        if not 0.0 < self.f_sigma <= 1.0:
            raise ValueError(f"f_sigma must lie in (0, 1], got {self.f_sigma}")

    def labor_per_capital(self) -> float:
        """Optimal labor per unit of effective capital, ((1 - alpha) / w)^(1/alpha)."""
        return ((1.0 - self.alpha) / self.w) ** (1.0 / self.alpha)


def productivity_cutoff(r: float, delta: float, alpha: float, w: float) -> float:
    """Lowest productivity at which operating a firm breaks even.

    z_min = (r + delta) / (alpha ((1 - alpha) / w)^((1 - alpha)/alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if w <= 0.0:
        raise ValueError(f"w must be positive, got {w}")
    if r + delta <= 0.0:
        raise ValueError("r + delta must be positive for a meaningful cutoff")
    return (r + delta) / (alpha * ((1.0 - alpha) / w) ** ((1.0 - alpha) / alpha))


@record
class FirmPolicy:
    capital: float
    labor: float
    profit: float
    output: float


def profit_rate(p: EconomyParams) -> float:
    """Excess profit per unit of capital, alpha z ((1-alpha)/w)^((1-alpha)/alpha) - r - delta."""
    return (p.alpha * p.z * ((1.0 - p.alpha) / p.w) ** ((1.0 - p.alpha) / p.alpha)
            - p.r - p.delta)


def firm_policy(p: EconomyParams, a: float) -> FirmPolicy:
    """Leverage-capped firm choices for a household with wealth a.

    Capital binds at the cap lam * a; labor follows from the first-order
    condition.  Raises InactiveFirmError when productivity is below the
    break-even cutoff (profit would be negative at any scale).
    """
    if a <= 0.0:
        raise ValueError(f"wealth must be positive, got {a}")
    z_min = productivity_cutoff(p.r, p.delta, p.alpha, p.w)
    if p.z < z_min:
        raise InactiveFirmError(
            f"productivity z = {p.z} is below the activity cutoff {z_min:.6g}")
    capital = p.lam * a
    labor = p.labor_per_capital() * p.z * capital
    profit = profit_rate(p) * capital
    output = (p.z * capital) ** p.alpha * labor ** (1.0 - p.alpha)
    return FirmPolicy(capital=capital, labor=labor, profit=profit, output=output)


@record
class PolicyCoefficients:
    """Both optimal controls are linear in wealth: kappa(a) = kappa_coeff * a, etc."""

    kappa_coeff: float
    c_coeff: float


def _policy_terms(p: EconomyParams) -> tuple[float, float, float, float, float]:
    """(theta - r, gamma sigma^2, q, Pi_lev, c_coeff) of the policies, each computed once."""
    excess = p.theta - p.r
    gamma_var = p.gamma * p.sigma**2
    q = excess**2 / gamma_var
    pi_lev = profit_rate(p) * p.lam
    bracket = (p.rho - (1.0 - p.gamma) * (pi_lev + p.r)
               - 0.5 * (1.0 - p.gamma) * q)
    return excess, gamma_var, q, pi_lev, bracket / (p.gamma * p.f_sigma)


def policy_functions(p: EconomyParams) -> PolicyCoefficients:
    """Risky-share and consumption coefficients of the linear optimal policies.

    The consumption bracket rho - (1 - gamma)(Pi + r) - (1 - gamma)/2 * q,
    with q = (theta - r)^2 / (gamma sigma^2) and Pi the leveraged profit
    rate, is divided by gamma * f_sigma; the attention friction acts only
    there.
    """
    excess, gamma_var, _, _, c_coeff = _policy_terms(p)
    return PolicyCoefficients(kappa_coeff=excess / gamma_var, c_coeff=c_coeff)


@record
class WealthLaw:
    """Log-wealth drift and volatility between redistribution events."""

    mu: float
    sigma_x: float
    reset_rate: float

    def __post_init__(self) -> None:
        if self.reset_rate <= 0.0:
            raise ValueError(f"reset_rate must be positive, got {self.reset_rate}")


def drift_diffusion(p: EconomyParams) -> WealthLaw:
    """Coefficients of d(log a) = mu dt + sigma_x dW implied by the optimal policies.

    sigma_x = (theta - r) / (gamma sigma) carries the sign of the excess
    return; only its square enters the stationary density.
    """
    excess, _, q, pi_lev, c_coeff = _policy_terms(p)
    sigma_x = excess / (p.gamma * p.sigma)
    mu = pi_lev + p.r + q - c_coeff - 0.5 * sigma_x**2
    return WealthLaw(mu=mu, sigma_x=sigma_x, reset_rate=p.beta)


def stationary_wealth_density(law: WealthLaw) -> PiecewiseExpDensity:
    """Two-sided exponential stationary law of log wealth around the reset point."""
    return PiecewiseExpDensity.from_reset_law(
        drift=law.mu, vol=law.sigma_x, reset_rate=law.reset_rate)


@record
class DensityStats:
    """Summary statistics of a stationary log-wealth density.

    wealth_mean is E[exp(x)]; it exists only when the right tail exponent
    exceeds one, and wealth_mean_exists records that flag explicitly rather
    than hiding it behind a None.
    """

    mean_x: float
    var_x: float
    tail_exponent_left: float
    tail_exponent_right: float
    wealth_mean: float | None
    wealth_mean_exists: bool


def density_stats(d: PiecewiseExpDensity) -> DensityStats:
    wealth_mean, mean_x = d.exp_moment(), d.mean()
    return DensityStats(
        mean_x=mean_x,
        var_x=d.second_moment() - mean_x**2,
        tail_exponent_left=d.rate_left,
        tail_exponent_right=d.rate_right,
        wealth_mean=wealth_mean,
        wealth_mean_exists=wealth_mean is not None,
    )


@record
class EquilibriumPrices:
    """Market-clearing prices under the square-root technology.

    valid records whether the clearing quadratic admits a positive root; when
    it does not, w_star is None and the other fields still report the pieces
    so callers can explain the failure.
    """

    r_star: float
    w_star: float | None
    valid: bool
    clearing_constant: float


def _clearing_constant(p: EconomyParams, r_star: float) -> float:
    q_star = (p.theta - r_star) ** 2 / (p.gamma * p.sigma**2)
    return (2.0 * (r_star - p.lam * r_star - p.lam * p.delta - p.rho)
            + (1.0 + p.gamma) * q_star - 2.0 * p.beta * p.gamma)


def equilibrium_prices(p: EconomyParams) -> EquilibriumPrices:
    """Closed-form (r*, w*) clearing the capital and labor markets.

    Requires alpha = 1/2 exactly; other exponents have no closed-form
    clearing condition here and mixing them in silently would corrupt the
    comparison, so any other alpha is a configuration error.
    """
    if p.alpha != EQUILIBRIUM_ALPHA:
        raise ConfigError(
            f"equilibrium prices need alpha = {EQUILIBRIUM_ALPHA}, got alpha = {p.alpha}")
    r_star = p.theta - p.gamma * p.sigma**2 * (1.0 - p.lam)
    c_const = _clearing_constant(p, r_star)
    if c_const >= 0.0:
        return EquilibriumPrices(r_star=r_star, w_star=None, valid=False,
                                 clearing_constant=c_const)
    zl = p.z * p.lam
    sqrt_arg = zl * zl - 8.0 * p.beta * zl * p.gamma * c_const
    # The positive root (-zl + sqrt(sqrt_arg)) / (4 beta zl gamma), rationalized:
    # as written it cancels to 0 when 8 beta gamma |c| is far below zl.
    sqrt_t = -2.0 * c_const / (zl + math.sqrt(sqrt_arg))
    # t = ((1-alpha)/w)^(1/alpha) and alpha = 1/2, so w = (1-alpha)/sqrt(t).
    w_star = (1.0 - p.alpha) / sqrt_t
    return EquilibriumPrices(r_star=r_star, w_star=w_star, valid=True,
                             clearing_constant=c_const)


def equilibrium_economy(p: EconomyParams) -> EconomyParams:
    """The same economy with prices replaced by their equilibrium values."""
    prices = equilibrium_prices(p)
    if not prices.valid:
        raise DegenerateModelError(
            "clearing constant is nonnegative: no valid equilibrium wage exists "
            f"(constant = {prices.clearing_constant:.6g})")
    return replace(p, w=prices.w_star, r=prices.r_star)


def labor_residual_at(p: EconomyParams, density: PiecewiseExpDensity | None = None) -> float:
    """Labor-clearing residual ((1-alpha)/w)^(1/alpha) z lam E[exp(x)] - 1
    at whatever prices p carries, with the level-wealth mean taken from the
    stationary density those prices imply.  A caller that has already built
    that density passes it as density."""
    d = stationary_wealth_density(drift_diffusion(p)) if density is None else density
    wealth_mean = d.exp_moment()
    if wealth_mean is None:
        raise DegenerateModelError(
            "stationary density has no level-wealth mean; labor market cannot clear")
    return p.labor_per_capital() * p.z * p.lam * wealth_mean - 1.0

