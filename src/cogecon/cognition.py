"""Cognitive-resource dynamics under attention dilution.

Two layers: a deterministic retention share following a logistic law (dilution
pulls the share down, recovery pulls it back up), and a geometric growth
process for the resource level whose log, refreshed at Poisson events, is a
ResetLaw with a two-sided exponential stationary density.
"""

from __future__ import annotations

from .densities import ResetLaw
from .records import record

# Below this gap between recovery and dilution the logistic solution switches
# to its balanced-limit branch (removable singularity).
_GAP_TOL = 1e-12


@record
class RetentionParams:
    """dr/dt = -dilution_rate * r + recovery_rate * r (1 - r), r(0) = r0."""

    r0: float
    dilution_rate: float
    recovery_rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.r0 <= 1.0:
            raise ValueError(f"r0 must lie in (0, 1], got {self.r0}")
        if self.dilution_rate < 0.0 or self.recovery_rate < 0.0:
            raise ValueError("rates must be nonnegative")

    def gap(self) -> float:
        return self.recovery_rate - self.dilution_rate


def retention_trajectory(p: RetentionParams, times) -> np.ndarray:
    """Closed-form retention share at the given times.

    Written in the form r0 / (exp(-g t)(1 - r0 v / g) + r0 v / g) with
    g = recovery - dilution, which is overflow-safe on both signs of g; the
    balanced case g -> 0 with v > 0 uses the limit r0 / (1 + r0 v t).  At
    v = 0 the share decays as r0 exp(-dilution t), and stays r0 when both
    rates are 0.
    """
    import numpy as np

    t = np.asarray(times, dtype=float)
    if not np.all(t >= 0.0):
        raise ValueError("times must be nonnegative")
    g = p.gap()
    v = p.recovery_rate
    if p.dilution_rate == v == 0.0:
        out = np.full(t.shape, p.r0)
    elif v > 0.0 and abs(g) < _GAP_TOL * max(1.0, v):
        out = p.r0 / (1.0 + p.r0 * v * t)
    else:
        ratio = p.r0 * v / g
        with np.errstate(over="ignore"):
            denom = np.exp(-g * t) * (1.0 - ratio) + ratio
        out = p.r0 / denom
    return out if out.ndim else float(out)


def retention_limit(p: RetentionParams) -> float:
    """Long-run retention share: r0 when both rates are 0, 0 when dilution
    wins, 1 - dilution/recovery otherwise."""
    if p.dilution_rate == p.recovery_rate == 0.0:
        return p.r0
    if p.dilution_rate >= p.recovery_rate:
        return 0.0
    return 1.0 - p.dilution_rate / p.recovery_rate


@record
class CognitionParams:
    """Population of n agents competing for attention.

    mu_c is the recovery rate of cognitive resources, eta_c the per-contact
    dilution intensity, sigma_c the interaction strength, gamma_c in (0,1) the
    crowding discount (contacts interfere sublinearly), psi_c the volatility
    scale, beta_c the Poisson refresh rate, theta_c the gross growth multiple.
    """

    mu_c: float
    eta_c: float
    sigma_c: float
    gamma_c: float
    psi_c: float
    beta_c: float
    theta_c: float
    n: int

    def __post_init__(self) -> None:
        for name in ("mu_c", "eta_c", "sigma_c", "psi_c", "beta_c"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.gamma_c < 1.0:
            raise ValueError(f"gamma_c must lie in (0, 1), got {self.gamma_c}")
        if self.theta_c <= 0.0:
            raise ValueError(f"theta_c must be positive, got {self.theta_c}")
        if int(self.n) < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")

    def crowding_load(self) -> float:
        """Total dilution pressure eta_c sigma_c (n-1)^(1-gamma_c)."""
        return self.eta_c * self.sigma_c * float(self.n - 1) ** (1.0 - self.gamma_c)


def steady_state_resource(p: CognitionParams) -> float:
    """Steady-state resource level mu R0 / (mu + crowding load), from R0 = 1."""
    return p.mu_c / (p.mu_c + p.crowding_load())


def dilution_fraction(p: CognitionParams) -> float:
    """Share of the initial resource lost at the steady state, in [0, 1)."""
    load = p.crowding_load()
    return load / (p.mu_c + load)


def dilution_threshold(p: CognitionParams) -> float:
    """Population size n* at which exactly half the resource is diluted away."""
    return 1.0 + (p.mu_c / (p.eta_c * p.sigma_c)) ** (1.0 / (1.0 - p.gamma_c))


def gbm_coefficients(p: CognitionParams) -> tuple[float, float, float]:
    """(growth drift, volatility, log drift) of the resource level process.

    The level follows dR = Phi R dt + Omega R dW, so the log state drifts at
    Sigma = Phi - Omega^2 / 2.
    """
    load = p.crowding_load()
    phi = p.mu_c * (p.theta_c - 1.0) - load
    omega = p.psi_c * (p.theta_c - p.mu_c * p.theta_c / (p.mu_c + load))
    sigma = phi - 0.5 * omega * omega
    return phi, omega, sigma


def cognition_law(p: CognitionParams) -> ResetLaw:
    """Law of the log resource between Poisson refreshes at rate beta_c.

    At n = 1 the volatility channel shuts off, and the law's density()
    raises DegenerateModelError.
    """
    _, omega, sigma = gbm_coefficients(p)
    return ResetLaw(sigma, omega, p.beta_c)
