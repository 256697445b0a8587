"""Dual-route validation of the closed-form wealth densities.

Every analytic stationary density is checked two independent ways: a
finite-difference solve of the stationary forward equation on a tail-resolving
grid, and a Kolmogorov-Smirnov distance against exact Monte Carlo samples of
the reset diffusion.  The two routes share no code with the closed form
beyond the drift/diffusion coefficients, so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .densities import PiecewiseExpDensity
from .errors import ValidationError
from .figures import ASSET_HIGH, ASSET_LOW, F_SIGMA_TIERS, LAMBDA_TIERS
from .kfe import Grid1D, solve_stationary_kfe_fd
from .rng import RngSpec
from .sde import GbmResetSpec, simulate_gbm_reset
from .wealth import EconomyParams, WealthLaw, drift_diffusion, stationary_wealth_density

# ln(1e8): the FD domain extends until each exponential tail has decayed by
# eight orders of magnitude, so truncation error sits far below the tolerance.
TAIL_DECADES_LOG = 18.420680743952367


@dataclass(frozen=True)
class ComboReport:
    label: str
    law: WealthLaw
    fd_error: float
    fd_tol: float
    ks_distance: float
    ks_tol: float

    @property
    def passed(self) -> bool:
        return self.fd_error < self.fd_tol and self.ks_distance < self.ks_tol


def benchmark_combos() -> list[tuple[str, EconomyParams]]:
    """The twelve benchmark parameter combinations used throughout.

    Six fixed-friction economies (f = 1) and six with the friction level
    paired to leverage, each at the low and high asset settings.
    """
    combos = []
    for theta, sigma in (ASSET_LOW, ASSET_HIGH):
        for lam in LAMBDA_TIERS:
            label = f"type1_lam{lam:g}_theta{theta:g}_sigma{sigma:g}"
            combos.append((label, EconomyParams(theta=theta, sigma=sigma, lam=lam)))
    for theta, sigma in (ASSET_LOW, ASSET_HIGH):
        for lam, f_sigma in zip(LAMBDA_TIERS, F_SIGMA_TIERS):
            label = f"type2_lam{lam:g}_f{f_sigma:g}_theta{theta:g}_sigma{sigma:g}"
            combos.append((label, EconomyParams(theta=theta, sigma=sigma,
                                                lam=lam, f_sigma=f_sigma)))
    return combos


def ks_distance(samples: np.ndarray, density: PiecewiseExpDensity) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and the model cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    cdf = density.cdf(x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo)))


def fd_grid_for(law: WealthLaw, n_points: int) -> Grid1D:
    """Tail-adaptive grid: wide enough that both exponential tails vanish."""
    analytic = stationary_wealth_density(law)
    left_width = TAIL_DECADES_LOG / analytic.rate_left
    right_width = TAIL_DECADES_LOG / analytic.rate_right
    return Grid1D.around_point(0.0, left_width, right_width, n_points)


def fd_density_error(law: WealthLaw, n_points: int = 4001) -> float:
    """Max abs deviation between the closed form and an FD solve of the
    stationary forward equation."""
    analytic = stationary_wealth_density(law)
    grid = fd_grid_for(law, n_points)
    numeric = solve_stationary_kfe_fd(law.mu, abs(law.sigma_x), law.reset_rate, grid)
    return float(np.max(np.abs(numeric - analytic.pdf(grid.nodes()))))


def mc_ks_for(law: WealthLaw, rng: RngSpec, n_samples: int = 1_000_000) -> float:
    """KS distance between exact reset-diffusion samples and the closed form."""
    spec = GbmResetSpec(drift=law.mu, volatility=abs(law.sigma_x),
                        reset_rate=law.reset_rate)
    samples = simulate_gbm_reset(spec, rng, n_samples)
    return ks_distance(samples, stationary_wealth_density(law))


def run_density_validation(law: WealthLaw, rng: RngSpec, label: str = "",
                           n_points: int = 4001, n_samples: int = 1_000_000,
                           fd_tol: float = 1e-3, ks_tol: float = 0.02) -> ComboReport:
    return ComboReport(label=label, law=law,
                       fd_error=fd_density_error(law, n_points),
                       fd_tol=fd_tol,
                       ks_distance=mc_ks_for(law, rng, n_samples),
                       ks_tol=ks_tol)


def benchmark_reports(master_seed: int = 42, n_points: int = 4001,
                      n_samples: int = 1_000_000) -> Iterator[ComboReport]:
    """Run both oracles over the twelve benchmark combinations, one at a time.

    Monte Carlo streams are keyed by the combination index (stream 100 + idx),
    so each report is reproducible on its own.
    """
    for idx, (label, params) in enumerate(benchmark_combos()):
        yield run_density_validation(drift_diffusion(params),
                                     RngSpec(master_seed, stream_id=100 + idx),
                                     label=label, n_points=n_points,
                                     n_samples=n_samples)


def validate_all(master_seed: int = 42, n_points: int = 4001,
                 n_samples: int = 1_000_000) -> list[ComboReport]:
    """All twelve benchmark reports; raises ValidationError listing every
    failed combination."""
    reports = list(benchmark_reports(master_seed, n_points, n_samples))
    failed = [r for r in reports if not r.passed]
    if failed:
        detail = "; ".join(
            f"{r.label}: fd={r.fd_error:.3e} (tol {r.fd_tol:g}), "
            f"ks={r.ks_distance:.3e} (tol {r.ks_tol:g})" for r in failed)
        raise ValidationError(f"density validation failed for {detail}")
    return reports
