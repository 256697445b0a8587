"""Dual-route validation of the closed-form wealth densities.

Every analytic stationary density is checked two independent ways: a
finite-difference solve of the stationary forward equation on a tail-resolving
grid, and a Kolmogorov-Smirnov distance against exact Monte Carlo samples of
the reset diffusion.  The two routes share no code with the closed form
beyond the drift/diffusion coefficients, so agreement is evidence rather
than tautology.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .densities import PiecewiseExpDensity
from .errors import ValidationError
from .figures import ASSET_HIGH, ASSET_LOW, F_SIGMA_TIERS, LAMBDA_TIERS
from .kfe import Grid1D, solve_stationary_kfe_fd
from .rng import RngSpec
from .sde import simulate_gbm_reset
from .wealth import EconomyParams, WealthLaw, drift_diffusion, stationary_wealth_density

# ln(1e8): the FD domain extends until each exponential tail has decayed by
# eight orders of magnitude, so truncation error sits far below the tolerance.
TAIL_DECADES_LOG = 18.420680743952367

# Oracle tolerances.  The FD error at the default grid stays below 6e-5 on the
# benchmark laws; by DKW an exact sampler's KS distance exceeds 0.02 with
# probability at most 2 exp(-2 n 0.02^2), 2.3e-7 already at n = 20000.
FD_TOL = 1e-3
KS_TOL = 0.02

# Sorted samples per step of the KS sweep: its cdf and gap arrays stay this
# size however many samples there are.
_KS_CHUNK = 1 << 16


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
    """Kolmogorov-Smirnov distance between an empirical sample and the model cdf.

    A float64 array is sorted in place, so the caller gets its samples back
    sorted; other input is converted to a fresh array first.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    x.sort()
    # The empirical cdf steps from k/n to (k+1)/n at x[k].  Both gaps are
    # taken chunk by chunk, so the work arrays stay chunk-sized; a maximum is
    # exact, so the result is the whole-array one bit for bit.
    dist = 0.0
    for start in range(0, n, _KS_CHUNK):
        cdf = density.cdf(x[start:start + _KS_CHUNK])
        ecdf = np.arange(start, start + cdf.size + 1) / n
        dist = max(dist, np.max(ecdf[1:] - cdf), np.max(cdf - ecdf[:-1]))
    return float(dist)


def fd_grid_for(law: WealthLaw, n_points: int) -> Grid1D:
    """Tail-adaptive grid: wide enough that both exponential tails vanish."""
    analytic = stationary_wealth_density(law)
    left_width = TAIL_DECADES_LOG / analytic.rate_left
    right_width = TAIL_DECADES_LOG / analytic.rate_right
    return Grid1D.around_point(0.0, left_width, right_width, n_points)


def fd_density_error(law: WealthLaw, n_points: int) -> float:
    """Max abs deviation between the closed form and an FD solve of the
    stationary forward equation."""
    analytic = stationary_wealth_density(law)
    grid = fd_grid_for(law, n_points)
    numeric = solve_stationary_kfe_fd(law.mu, abs(law.sigma_x), law.reset_rate, grid)
    return float(np.max(np.abs(numeric - analytic.pdf(grid.nodes()))))


def mc_ks_for(law: WealthLaw, rng: RngSpec, n_samples: int) -> float:
    """KS distance between exact reset-diffusion samples and the closed form.

    The samples are this function's own, so KS sorts them in place.
    """
    samples = simulate_gbm_reset(law.mu, abs(law.sigma_x), law.reset_rate, rng, n_samples)
    return ks_distance(samples, stationary_wealth_density(law))


def run_density_validation(law: WealthLaw, rng: RngSpec, label: str, n_points: int,
                           n_samples: int) -> ComboReport:
    return ComboReport(label=label, law=law,
                       fd_error=fd_density_error(law, n_points), fd_tol=FD_TOL,
                       ks_distance=mc_ks_for(law, rng, n_samples), ks_tol=KS_TOL)


def validation_jobs(master_seed: int,
                    configured: WealthLaw | None = None) -> list[tuple[str, WealthLaw, RngSpec]]:
    """(label, law, rng) jobs: the configured law, when given, on Monte Carlo
    stream 99, then benchmark law idx on stream 100 + idx, so each report is
    reproducible on its own."""
    jobs = [] if configured is None else [
        ("configured", configured, RngSpec(master_seed, stream_id=99))]
    return jobs + [(label, drift_diffusion(params), RngSpec(master_seed, stream_id=100 + idx))
                   for idx, (label, params) in enumerate(benchmark_combos())]


def run_validations(jobs: Sequence[tuple[str, WealthLaw, RngSpec]], n_points: int,
                    n_samples: int) -> Iterator[ComboReport]:
    """Validate each (label, law, rng) job; yield the reports in job order.

    The jobs run on a pool of up to one thread per CPU this process may use.
    numpy releases the interpreter lock in its draws, sorts and large ufuncs,
    so laws really overlap, and each job's own rng stream keeps its report
    independent of the scheduling.  When the caller stops early, or a job
    raises, the jobs not yet started are cancelled.
    """
    # Imported here: start-up of every other command skips its ~10 ms.
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity mask
        cpus = os.cpu_count() or 1
    pool = ThreadPoolExecutor(max_workers=max(1, min(cpus, len(jobs))))
    try:
        futures = [pool.submit(run_density_validation, law, rng, label=label,
                               n_points=n_points, n_samples=n_samples)
                   for label, law, rng in jobs]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def check_reports(reports: Sequence[ComboReport]) -> None:
    """Raise ValidationError naming every failed law with its errors and tolerances."""
    failed = [r for r in reports if not r.passed]
    if failed:
        detail = "; ".join(
            f"{r.label}: fd={r.fd_error:.3e} (tol {r.fd_tol:g}), "
            f"ks={r.ks_distance:.3e} (tol {r.ks_tol:g})" for r in failed)
        raise ValidationError(f"density validation failed for {detail}")


def validate_all(master_seed: int, n_points: int, n_samples: int) -> list[ComboReport]:
    """All twelve benchmark reports; raises ValidationError listing every
    failed combination."""
    reports = list(run_validations(validation_jobs(master_seed), n_points, n_samples))
    check_reports(reports)
    return reports
