"""Reference forms that only the tests call.

Each one restates a piece of the model independently of the closed form it
checks: the retention ODE's right-hand side for a numerical integrator, the
CRRA utility of an effective consumption, a draw-by-draw simulation of the
shrinkage model, the Hermitian matrix of a directed source value, the
equilibrium wage as a bracketed root of the labor-market residual, and the
KS distance over a whole sorted sample, with a sample on which pruning its
blocks is easy to get wrong, the reflected OU's stationary law, the
truncated Gibbs law its sampler's states are tested against, the CAWF's mean
under that law, and the FD solve with its whole system assembled as arrays.
"""

import math
from dataclasses import replace

import numpy as np

from cogecon.cognition import RetentionParams
from cogecon.consumption import N_GRID, CawfParams, implied_shrinkage
from cogecon.errors import DegenerateModelError
from cogecon.records import record
from cogecon.rng import RngSpec
from cogecon.sde import OuProcessSpec
from cogecon.wealth import EconomyParams, labor_residual_at

_UNIT_NORM_TOL = 1e-9


def retention_ode_rhs(p: RetentionParams, r: float) -> float:
    """Right-hand side of the retention ODE, for independent integration checks."""
    return -p.dilution_rate * r + p.recovery_rate * r * (1.0 - r)


def net_utility(c: float, gamma: float) -> float:
    """CRRA utility of the adjustment-scaled consumption c; gamma = 1 is log."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if gamma == 1.0:
        return math.log(c)
    return c ** (1.0 - gamma) / (1.0 - gamma)


def shrinkage_regression_check(sigma_s: float, sigma_n: float, mu_s: float,
                               rng: RngSpec, n_draws: int) -> tuple[float, float]:
    """Monte Carlo consistency check of the shrinkage reduced form.

    Simulates the generative model draw by draw: a true adjustment S, a noisy
    unbiased estimate, and the agent's combined belief (the mean of its
    lognormal posterior over adjustments).  Returns the OLS (slope, intercept)
    of ln(belief) on ln(S); they should recover beta_b and ln(mu_b).
    """
    if n_draws < 10:
        raise ValueError(f"need at least 10 draws, got {n_draws}")
    p = implied_shrinkage(sigma_s, sigma_n, mu_s)
    beta = p.beta_b
    gen = rng.generator()
    ln_s = mu_s + sigma_s * gen.standard_normal(n_draws)
    ln_est = ln_s - 0.5 * sigma_n**2 + sigma_n * gen.standard_normal(n_draws)
    # Combined belief: precision-weighted log estimate (bias-corrected) and
    # log prior mean, plus the variance half-term of the residual noise.
    ln_belief = (beta * (ln_est + 0.5 * sigma_n**2)
                 + (1.0 - beta) * (mu_s + 0.5 * sigma_s**2)
                 + 0.5 * beta**2 * sigma_n**2)
    slope, intercept = np.polyfit(ln_s, ln_belief, deg=1)
    return float(slope), float(intercept)


@record
class DirectionVector:
    """Unit vector (a, b, c) giving the directional composition of a source."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        norm = math.sqrt(self.a**2 + self.b**2 + self.c**2)
        if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=_UNIT_NORM_TOL):
            raise ValueError(f"direction vector must have unit norm, got |v| = {norm}")


def direction_value_matrix(d: DirectionVector, magnitude: float) -> np.ndarray:
    """Hermitian 2x2 encoding of a directed source value.

    A = magnitude * [[c, a - ib], [a + ib, -c]]; its eigenvalues are exactly
    +magnitude and -magnitude for any unit direction.
    """
    if magnitude < 0.0:
        raise ValueError(f"magnitude must be nonnegative, got {magnitude}")
    a, b, c = d.a, d.b, d.c
    return magnitude * np.array([[c, a - 1j * b],
                                 [a + 1j * b, -c]], dtype=complex)


# Square-root-technology economies with a wage and a finite level-wealth mean
# at it, on which equilibrium_wage_roots checks the closed-form wage.  At z = 20
# five of them clear just above the wage below which that mean diverges.
EQUILIBRIUM_GRID = tuple(EconomyParams(alpha=0.5, lam=lam, gamma=gamma, z=z)
                         for lam in (1.5, 5.0, 25.0) for gamma in (1.5, 2.0, 4.0)
                         for z in (2.0, 5.0, 20.0))


def equilibrium_wage_roots(p: EconomyParams) -> list[float]:
    """Every wage at which labor_residual_at vanishes at p's rate, by bisection,
    in increasing order.

    Where the level-wealth mean diverges, labor demand does too, so the
    residual is +inf there.  A scan of w over [1e-4, 1e4] in steps of 0.1
    decade brackets each sign change; a geometric bisection then halves each
    bracket in log w until its midpoint is one of its ends.  Below the
    leverage-neutral friction f_sigma = (gamma - 1) / gamma there can be two.
    """
    def residual(w: float) -> float:
        try:
            return labor_residual_at(replace(p, w=w))
        except DegenerateModelError:
            return math.inf

    scan = [(w, residual(w)) for w in (10.0 ** (k / 10) for k in range(-40, 41))]
    roots = []
    for (lo, f_lo), (hi, f_hi) in zip(scan, scan[1:]):
        if (f_lo < 0.0) == (f_hi < 0.0):
            continue
        mid = math.sqrt(lo * hi)
        while lo < mid < hi:
            if (residual(mid) < 0.0) == (f_lo < 0.0):
                lo = mid
            else:
                hi = mid
            mid = math.sqrt(lo * hi)
        roots.append(mid)
    return roots


def whole_array_ks(samples, density) -> float:
    """KS over the whole sorted array at once, gaps in one pass."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = density.cdf(x)
    ecdf = np.arange(n + 1, dtype=float)
    ecdf /= n
    return float(max(np.max(ecdf[1:] - cdf), np.max(cdf - ecdf[:-1])))


# The reflected-OU sampler's oracle: in 1-D, reflection keeps the Gibbs
# density, so the states at the horizon follow N(mean, volatility^2 / (2
# reversion)) truncated to [0, 1] (the start's pull has decayed by e^-10).
# Their KS distance from that law must stay below the DKW bound at
# alpha = 1e-6 (Massart 1990): 0.0190 at these 20 000 paths.
OU_ORACLE_SPEC = OuProcessSpec(mean=0.3, reversion=1.0, volatility=0.5, horizon=10.0, dt=0.01)
OU_ORACLE_PATHS = 20_000
OU_ORACLE_BOUND = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * OU_ORACLE_PATHS))


class TruncatedNormal:
    """N(mean, variance) truncated to [lower, upper], with the cdf that whole_array_ks reads."""

    def __init__(self, mean: float, variance: float, lower: float, upper: float):
        self.mean, self.sd, self.lower, self.upper = mean, math.sqrt(variance), lower, upper

    def cdf(self, x):
        from scipy.special import ndtr

        lo, hi = ndtr((self.lower - self.mean) / self.sd), ndtr((self.upper - self.mean) / self.sd)
        return (ndtr((np.asarray(x) - self.mean) / self.sd) - lo) / (hi - lo)

    def mgf(self, t: float) -> float:
        """E[e^(t X)]: the untruncated MGF times the ratio of the bounds' mass
        under the tilted law N(mean + t variance, variance) to their mass here."""
        from scipy.special import ndtr

        a, b = (self.lower - self.mean) / self.sd, (self.upper - self.mean) / self.sd
        shift = self.sd * t
        return float(math.exp(self.mean * t + 0.5 * shift**2)
                     * (ndtr(b - shift) - ndtr(a - shift)) / (ndtr(b) - ndtr(a)))


def ou_gibbs_law(spec: OuProcessSpec) -> TruncatedNormal:
    """The reflected OU's stationary law: N(mean, volatility^2 / (2 reversion)) on [0, 1]."""
    return TruncatedNormal(spec.mean, spec.volatility**2 / (2.0 * spec.reversion), 0.0, 1.0)


def cawf_stationary(p: CawfParams, lo: float, hi: float) -> np.ndarray:
    """Mean CAWF on the crowd sizes np.geomspace(*N_GRID) with D drawn from
    the data-value process's stationary law truncated to [lo, hi].

    The CAWF is w (scale e^(D - d_bar) - 1) + (1 - w)(1 - scale e^(d_bar - D))
    with w = 1 / (1 + n / omega), affine in e^D and e^-D, so its mean needs
    only the truncated law's MGF at t = 1 and t = -1.
    """
    law = TruncatedNormal(p.ou.mean, p.ou.volatility**2 / (2.0 * p.ou.reversion), lo, hi)
    up = p.scale * math.exp(-p.d_bar) * law.mgf(1.0) - 1.0
    down = 1.0 - p.scale * math.exp(p.d_bar) * law.mgf(-1.0)
    w = 1.0 / (1.0 + np.geomspace(*N_GRID) / p.omega)
    return w * up + (1.0 - w) * down


def block_end_ks_sample(density, block: int) -> np.ndarray:
    """2 block samples whose largest KS gap is at the last sample of the first block.

    With n = 2 block, the first block is one value tied block times at
    F = 0.1/n, the next sample sits at F = 1.6/n and every later one 1/n
    further up the model cdf.  So the largest gap, block/n - F(x_0) at
    k = block - 1, is half a step of 1/n above the gap at the next block's
    first sample: a pruning bound for the first block that is one sample
    short drops it.
    """
    n = 2 * block
    p = np.array([0.1] * block + [1.6] + [k - block + 2.6 for k in range(block + 1, n)]) / n
    # the model cdf's inverse on each side of the reset point
    left_mass = density.norm_K / density.rate_left
    return np.where(p < left_mass, np.log(p / left_mass) / density.rate_left,
                    -np.log((1.0 - p) * density.rate_right / density.norm_K) / density.rate_right)


def _fitting_factor(z: float) -> float:
    """B(z) = z / (e^z - 1), the fitting factor of the Scharfetter-Gummel flux."""
    if abs(z) < 1e-10:
        return 1.0 - 0.5 * z
    # Above z ~ 709.8 expm1 overflows to inf, and z / inf = 0.0 is the limit.
    with np.errstate(over="ignore"):
        return z / np.expm1(z)


def _full_system_sweep(lower: np.ndarray, main: np.ndarray, upper: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Thomas sweep for the system with sub-, main and super-diagonals given."""
    sub, diag, d = lower.tolist(), main.tolist(), rhs.tolist()
    sup = upper.tolist() + [0.0]
    n = len(diag)
    ratio = [0.0] * n  # eliminated super-diagonal, sup[i] / pivot_i
    x = [0.0] * n
    ratio[0] = sup[0] / diag[0]
    x[0] = d[0] / diag[0]
    for i in range(1, n):
        pivot = diag[i] - sub[i - 1] * ratio[i - 1]
        ratio[i] = sup[i] / pivot
        x[i] = (d[i] - sub[i - 1] * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return np.array(x)


def array_assembled_kfe_fd(drift: float, sigma: float, reset_rate: float, grid) -> np.ndarray:
    """The FD solve as it stood with the whole system assembled as arrays.

    Three np.full diagonals with their Dirichlet rows patched in and a
    right-hand side holding the one source entry, swept over every row.
    kfe.solve_stationary_kfe_fd passes only the three interior coefficients
    and the source, and must return the same bits.
    """
    n = grid.n_points
    h = grid.h
    diff = 0.5 * float(sigma) ** 2
    nu = float(drift) * h / diff
    b_minus = _fitting_factor(-nu)
    b_plus = _fitting_factor(nu)
    coeff = diff / h**2

    lower = np.full(n - 1, -coeff * b_minus)
    upper = np.full(n - 1, -coeff * b_plus)
    main = np.full(n, coeff * (b_minus + b_plus) + reset_rate)

    # Dirichlet zero boundaries.
    main[0] = 1.0
    main[-1] = 1.0
    upper[0] = 0.0
    lower[-1] = 0.0

    rhs = np.zeros(n)
    source_idx = int(round(-grid.x_min / h))
    source_idx = min(max(source_idx, 1), n - 2)
    rhs[source_idx] = reset_rate / h

    density = _full_system_sweep(lower, main, upper, rhs)
    return density / np.trapezoid(density, dx=h)
