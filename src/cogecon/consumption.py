"""Consumption adjustment under data-informed beliefs.

Covers the log-odds belief adjustment, the shrinkage rule that maps a
Bayesian adjustment to a non-Bayesian one, the consumption adjustment weight
function (CAWF) that blends the two regimes by crowd size, and the effective
consumption it induces in CRRA utility.
"""

from __future__ import annotations

import math

from .errors import DegenerateModelError
from .records import record
from .rng import RngSpec
from .sde import OuProcessSpec, simulate_ou_reflected


def bayes_adjustment(p1: float) -> float:
    """Log odds ln(p1 / (1 - p1)) of an upward belief p1 in [0.5, 1)."""
    if not 0.5 <= p1 < 1.0:
        raise ValueError(f"p1 must lie in [0.5, 1), got {p1}")
    return math.log(p1 / (1.0 - p1))


@record
class ShrinkageParams:
    """Non-Bayesian adjustment S -> mu_b * S^beta_b (linear in logs)."""

    beta_b: float
    mu_b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_b <= 1.0:
            raise ValueError(f"beta_b must lie in (0, 1], got {self.beta_b}")
        if self.mu_b <= 0.0:
            raise ValueError(f"mu_b must be positive, got {self.mu_b}")


def nonbayes_adjustment(s: float, p: ShrinkageParams) -> float:
    """Shrunken adjustment mu_b * s^beta_b for a Bayesian adjustment s >= 0 (0 at p1 = 0.5)."""
    if s < 0.0:
        raise ValueError(f"adjustment must be nonnegative, got {s}")
    return p.mu_b * s**p.beta_b

def shrinkage_crossover(p: ShrinkageParams) -> float | None:
    """ln S at which the shrunken adjustment crosses the identity line.

    None when beta_b = 1 (the two lines are parallel in logs).
    """
    if p.beta_b == 1.0:
        return None
    return math.log(p.mu_b) / (1.0 - p.beta_b)


def implied_shrinkage(sigma_s: float, sigma_n: float, mu_s: float) -> ShrinkageParams:
    """Shrinkage parameters induced by the lognormal belief-updating model.

    True log adjustment ln S ~ N(mu_s, sigma_s^2); the observed estimate is
    unbiased in levels with log noise sigma_n.  Precision weighting gives
    beta_b = sigma_s^2 / (sigma_s^2 + sigma_n^2), and taking means of the
    lognormal belief gives
    ln mu_b = (1 - beta_b)(mu_s + sigma_s^2 / 2) + beta_b^2 sigma_n^2 / 2.
    """
    if sigma_s <= 0.0 or sigma_n <= 0.0:
        raise ValueError("sigma_s and sigma_n must be positive")
    beta = sigma_s**2 / (sigma_s**2 + sigma_n**2)
    ln_mu = (1.0 - beta) * (mu_s + 0.5 * sigma_s**2) + 0.5 * beta**2 * sigma_n**2
    return ShrinkageParams(beta_b=beta, mu_b=math.exp(ln_mu))


# Most Euler path-steps the Monte Carlo curves may take; the defaults take 6e6.
MAX_EULER_WORK = 1e9


@record
class CawfParams:
    """Consumption adjustment weight function and its data-value environment.

    The weight w = 1 / (1 + n / omega) interpolates between the Bayesian
    branch (small crowds) and the non-Bayesian branch (large crowds); d_bar is
    the neutral data value and scale the gross adjustment multiplier.  The
    data-value index follows a mean-reverting process reflected into [0, 1].
    The defaults are the [consumption] keys; ScenarioConfig.cawf_params builds it.
    """

    scale: float
    omega: float
    d_bar: float
    ou: OuProcessSpec
    n_paths: int

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.omega <= 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.n_paths <= 1:
            raise ValueError(f"n_paths must exceed 1, got {self.n_paths}")
        # a float, so work that overflows to inf is refused too
        work = self.n_paths * self.ou.horizon / self.ou.step_size()
        if work > MAX_EULER_WORK:
            raise ValueError(f"n_paths * horizon / step size is {work:.3g} Euler path-steps, "
                             f"above the budget of {MAX_EULER_WORK:.0e}")


def cawf_bayes_limit(d_value: float, p: CawfParams) -> float:
    """Small-crowd limit: scale * exp(D - d_bar) - 1."""
    return p.scale * math.exp(d_value - p.d_bar) - 1.0


def cawf_nonbayes_limit(d_value: float, p: CawfParams) -> float:
    """Large-crowd limit: 1 - scale * exp(d_bar - D)."""
    return 1.0 - p.scale * math.exp(p.d_bar - d_value)


def cawf(d_value, n, p: CawfParams):
    """Consumption adjustment weight at data value D and crowd size n.

    n may be any nonnegative float including inf; n = 0 reproduces the
    Bayesian limit exactly and n = inf the non-Bayesian one.
    """
    import numpy as np

    d_value = np.asarray(d_value, dtype=float)
    n_arr = np.asarray(n, dtype=float)
    if not np.all(n_arr >= 0.0):
        raise ValueError("crowd size n must be nonnegative")
    w = 1.0 / (1.0 + n_arr / p.omega)
    up = p.scale * np.exp(d_value - p.d_bar) - 1.0
    down = 1.0 - p.scale * np.exp(p.d_bar - d_value)
    out = up * w + down * (1.0 - w)
    return out if out.ndim else float(out)


N_GRID = (1.0, 300.0, 50)   # the Monte Carlo curves' crowd sizes: np.geomspace's (start, stop, num)


@record
class CawfCurves:
    """Monte Carlo averages of the CAWF over stationary data-value draws."""

    n_grid: np.ndarray
    average: np.ndarray
    high_value: np.ndarray
    low_value: np.ndarray
    n_high: int
    n_low: int


def cawf_montecarlo(p: CawfParams, rng: RngSpec) -> CawfCurves:
    """Average CAWF curves over stationary draws of the data-value process.

    Draws p.n_paths terminal values of the reflected mean-reverting process,
    splits them at d_bar into high-value and low-value environments, and
    averages the CAWF over each group on the crowd sizes np.geomspace(*N_GRID).
    """
    import numpy as np

    n_grid = np.geomspace(*N_GRID)
    draws = simulate_ou_reflected(p.ou, rng, p.n_paths,
                                  record_times=[p.ou.horizon])[:, -1]
    high = draws[draws > p.d_bar]
    low = draws[draws <= p.d_bar]
    if high.size == 0 or low.size == 0:
        raise DegenerateModelError(
            f"stationary draws failed to populate both sides of d_bar = {p.d_bar:g} "
            f"({high.size} above, {low.size} at or below)")

    def group_mean(values: np.ndarray) -> np.ndarray:
        return np.array([float(np.mean(cawf(values, n, p))) for n in n_grid])

    return CawfCurves(
        n_grid=n_grid,
        average=group_mean(draws),
        high_value=group_mean(high),
        low_value=group_mean(low),
        n_high=int(high.size),
        n_low=int(low.size),
    )


def effective_consumption(d_value: float, p: CawfParams) -> float:
    """One unit of total consumption adjusted by the CAWF at D and n = omega,
    1 + CAWF, which must be positive there."""
    c_delta = float(cawf(d_value, p.omega, p))
    if c_delta <= -1.0:
        raise ValueError(f"scale = {p.scale} and d_bar = {p.d_bar} put the CAWF at "
                         f"D = {d_value:g}, n = omega at {c_delta}, at or below -1")
    return 1.0 + c_delta
