"""Dual-route validation of the closed-form stationary densities.

The stationary density of every ResetLaw is checked two independent ways: a
finite-difference solve of the stationary forward equation on a tail-resolving
grid, and a Kolmogorov-Smirnov distance against exact Monte Carlo samples of
the reset diffusion.  Both oracles take the law's (mu, sigma_x, reset_rate),
and the FD grid's ends are placed from its density's two tail rates.  Those
choose only which law is checked and where the forward equation is solved;
the FD values and the samples come from the equation and the sampler alone,
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence

from .densities import PiecewiseExpDensity, ResetLaw
from .errors import ValidationError
from .figures import TYPE_TWO_FIGURES, wealth_economies
from .kfe import Grid1D, solve_stationary_kfe_fd
from .records import record
from .rng import RngSpec
from .sde import CHUNK, simulate_gbm_reset
from .wealth import EconomyParams, drift_diffusion

# ln(1e8): the FD domain extends until each exponential tail has decayed by
# eight orders of magnitude, so truncation error sits far below the tolerance.
TAIL_DECADES_LOG = 18.420680743952367

# Oracle tolerances.  The FD error at the default grid stays below 6e-5 on the
# benchmark laws; by DKW an exact sampler's KS distance exceeds 0.02 with
# probability at most 2 exp(-2 n 0.02^2), 2.3e-7 already at n = 20000.
FD_TOL = 1e-3
KS_TOL = 0.02

# ks_distance's block of sorted samples, and the slack on its block bounds,
# which covers the cdf's last-ulp departures from monotonicity.
_KS_BLOCK = 64
_KS_SLACK = 1e-12


@record
class ComboReport:
    label: str
    law: ResetLaw
    fd_error: float
    fd_tol: float
    ks_distance: float
    ks_tol: float

    @property
    def passed(self) -> bool:
        return self.fd_error < self.fd_tol and self.ks_distance < self.ks_tol


def benchmark_combos() -> list[tuple[str, EconomyParams]]:
    """The twelve benchmark parameter combinations used throughout.

    The columns of wealth figures 7-10: six fixed-friction economies (f = 1)
    and six with the friction level paired to leverage, each at the low and
    high asset settings.
    """
    return [((f"type2_lam{p.lam:g}_f{p.f_sigma:g}" if fid in TYPE_TWO_FIGURES
              else f"type1_lam{p.lam:g}") + f"_theta{p.theta:g}_sigma{p.sigma:g}", p)
            for fid in (7, 8, 9, 10) for _, p in wealth_economies(fid, EconomyParams())]


def ks_distance(samples: np.ndarray, density: PiecewiseExpDensity) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and the model cdf.

    A float64 array is sorted in place, so the caller gets its samples back
    sorted; other input is converted to a fresh array first.

    The distance is the largest of the gaps (k+1)/n - F(x_k) and F(x_k) - k/n
    over the sorted sample, but F is evaluated only where a gap can still
    reach that maximum.  F is monotone, so on a block [i, j) of sorted
    samples the first gap is at most j/n - F(x_i) and the second at most
    F(x_j) - i/n, with F taken at every _KS_BLOCK-th sample and the last.
    The exact gaps at those marks give a lower bound on the maximum, and a
    block whose bound stays below it by more than _KS_SLACK cannot hold the
    maximum.  The remaining blocks are evaluated gap by gap, so the result
    is the maximum over every gap, bit for bit.
    """
    import numpy as np

    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    x.sort()
    starts = np.arange(0, n, _KS_BLOCK)
    marks = np.append(starts, n - 1)
    cdf = density.cdf(x[marks])
    dist = max(np.max((marks + 1) / n - cdf), np.max(cdf - marks / n))
    ends = np.minimum(starts + _KS_BLOCK, n)
    bound = np.maximum(ends / n - cdf[:-1], cdf[1:] - starts / n)
    kept = starts[bound > dist - _KS_SLACK]
    # The kept blocks are gathered CHUNK samples at a time, so the work
    # arrays stay that size even when every block is kept.
    offsets = np.arange(_KS_BLOCK)
    per_batch = CHUNK // _KS_BLOCK
    for first in range(0, kept.size, per_batch):
        k = (kept[first:first + per_batch, None] + offsets).ravel()
        k = k[k < n]
        cdf = density.cdf(x[k])
        dist = max(dist, np.max((k + 1) / n - cdf), np.max(cdf - k / n))
    return float(dist)


def fd_grid_for(law: ResetLaw, n_points: int) -> Grid1D:
    """Tail-adaptive grid: wide enough that both exponential tails vanish."""
    analytic = law.density()
    left_width = TAIL_DECADES_LOG / analytic.rate_left
    right_width = TAIL_DECADES_LOG / analytic.rate_right
    return Grid1D.around_zero(left_width, right_width, n_points)


def fd_density_error(law: ResetLaw, n_points: int) -> float:
    """Max abs deviation between the closed form and an FD solve of the
    stationary forward equation."""
    import numpy as np

    analytic = law.density()
    grid = fd_grid_for(law, n_points)
    numeric = solve_stationary_kfe_fd(law.mu, abs(law.sigma_x), law.reset_rate, grid)
    return float(np.max(np.abs(numeric - analytic.pdf(grid.nodes()))))


def run_density_validation(law: ResetLaw, rng: RngSpec, label: str, n_points: int,
                           n_samples: int) -> ComboReport:
    fd_error = fd_density_error(law, n_points)
    # The samples are this job's own, so KS sorts them in place.
    samples = simulate_gbm_reset(law.mu, abs(law.sigma_x), law.reset_rate, rng, n_samples)
    return ComboReport(label=label, law=law, fd_error=fd_error, fd_tol=FD_TOL,
                       ks_distance=ks_distance(samples, law.density()), ks_tol=KS_TOL)


def validation_jobs(master_seed: int,
                    configured: ResetLaw | None = None) -> list[tuple[str, ResetLaw, RngSpec]]:
    """(label, law, rng) jobs: the configured law, when given, on Monte Carlo
    stream 99, then benchmark law idx on stream 100 + idx, so each report is
    reproducible on its own."""
    jobs = [] if configured is None else [
        ("configured", configured, RngSpec(master_seed, stream_id=99))]
    return jobs + [(label, drift_diffusion(params), RngSpec(master_seed, stream_id=100 + idx))
                   for idx, (label, params) in enumerate(benchmark_combos())]


def run_validations(jobs: Sequence[tuple[str, ResetLaw, RngSpec]], n_points: int,
                    n_samples: int) -> Iterator[ComboReport]:
    """Validate each (label, law, rng) job; yield the reports in job order.

    The jobs run on a pool of up to one thread per CPU this process may use.
    numpy releases the interpreter lock in its draws, sorts and large ufuncs,
    so laws really overlap, and each job's own rng stream keeps its report
    independent of the scheduling.  When the caller stops early, or a job
    raises, Executor.map cancels the jobs not yet started.
    """
    # Imported here: start-up of every other command skips its ~10 ms.
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity mask
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=max(1, min(cpus, len(jobs)))) as pool:
        yield from pool.map(lambda job: run_density_validation(
            job[1], job[2], label=job[0], n_points=n_points, n_samples=n_samples), jobs)


def check_reports(reports: Sequence[ComboReport]) -> None:
    """Raise ValidationError naming every failed law with its errors and tolerances."""
    failed = [r for r in reports if not r.passed]
    if failed:
        detail = "; ".join(
            f"{r.label}: fd={r.fd_error:.3e} (tol {r.fd_tol:g}), "
            f"ks={r.ks_distance:.3e} (tol {r.ks_tol:g})" for r in failed)
        raise ValidationError(f"density validation failed for {detail}")
