"""Firm policy, wealth dynamics coefficients, and closed-form equilibrium."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cogecon.errors import ConfigError, DegenerateModelError
from cogecon.validate import benchmark_combos
from cogecon.wealth import (
    EconomyParams,
    InactiveFirmError,
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

EQ = EconomyParams(alpha=0.5)


def test_productivity_cutoff_hand_value():
    # (r + delta) / (alpha ((1-alpha)/w)^((1-alpha)/alpha)) at the defaults
    hand = 0.61 / (0.3 * 0.7 ** (7.0 / 3.0))
    got = productivity_cutoff(0.01, 0.6, 0.3, 1.0)
    assert got == pytest.approx(hand, rel=1e-14)
    assert got == pytest.approx(4.673545626330612, rel=1e-12)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        productivity_cutoff(0.01, 0.6, 1.0, 1.0)
    with pytest.raises(ValueError):
        productivity_cutoff(0.01, 0.6, 0.3, 0.0)
    with pytest.raises(ValueError):
        productivity_cutoff(-0.7, 0.6, 0.3, 1.0)


def test_firm_policy_accounting_identity():
    # profit must equal output minus wage bill minus capital cost
    p = EconomyParams()
    for a in (0.5, 1.0, 7.3):
        f = firm_policy(p, a)
        residual = f.output - p.w * f.labor - (p.r + p.delta) * f.capital
        assert f.profit == pytest.approx(residual, abs=1e-12)
        assert f.capital == pytest.approx(p.lam * a, rel=1e-15)


def test_firm_policy_reference_values():
    f = firm_policy(EconomyParams(), 1.0)
    assert f.capital == 5.0
    assert f.profit == pytest.approx(0.21304720640405728, rel=1e-12)
    assert profit_rate(EconomyParams()) == pytest.approx(0.042609441280811455, rel=1e-12)


def test_inactive_firm_below_cutoff():
    p = EconomyParams(z=4.0)  # cutoff is about 4.6735 at the default prices
    with pytest.raises(InactiveFirmError, match="cutoff"):
        firm_policy(p, 1.0)
    with pytest.raises(ValueError, match="wealth"):
        firm_policy(EconomyParams(), 0.0)


def test_policy_coefficients_reference_values():
    pol = policy_functions(EconomyParams())
    assert pol.kappa_coeff == pytest.approx(8.0, rel=1e-14)
    assert pol.c_coeff == pytest.approx(0.21652360320202862, rel=1e-12)


def test_friction_scales_consumption_only():
    base = policy_functions(EconomyParams())
    damped = policy_functions(EconomyParams(f_sigma=0.5))
    assert damped.kappa_coeff == base.kappa_coeff
    assert damped.c_coeff == pytest.approx(2.0 * base.c_coeff, rel=1e-14)


def test_drift_diffusion_reference_values():
    law = drift_diffusion(EconomyParams())
    assert law.mu == pytest.approx(0.24652360320202862, rel=1e-12)
    assert law.sigma_x == pytest.approx(0.4, rel=1e-13)
    assert law.reset_rate == 0.3


def _written_out_policy(p):
    """kappa, c and (mu, sigma_x, reset_rate) by the formulas as written, in their order."""
    q = (p.theta - p.r) ** 2 / (p.gamma * p.sigma**2)
    pi_lev = profit_rate(p) * p.lam
    bracket = (p.rho - (1.0 - p.gamma) * (pi_lev + p.r)
               - 0.5 * (1.0 - p.gamma) * q)
    kappa = (p.theta - p.r) / (p.gamma * p.sigma**2)
    c = bracket / (p.gamma * p.f_sigma)
    sigma_x = (p.theta - p.r) / (p.gamma * p.sigma)
    mu = pi_lev + p.r + q - c - 0.5 * sigma_x**2
    return kappa, c, (mu, sigma_x, p.beta)


# The 12 benchmark economies, then a grid reaching the edges of the valid
# range: f_sigma down to 1e-3, lam up to 100, gamma on both sides of 1.
BIT_ECONOMIES = benchmark_combos() + [
    (f"theta{theta:g}_sigma{sigma:g}_g{gamma!r}_lam{lam:g}_f{f:g}",
     EconomyParams(theta=theta, sigma=sigma, gamma=gamma, lam=lam, f_sigma=f))
    for theta, sigma in ((0.05, 0.05), (0.5, 0.5), (0.005, 0.3))
    for gamma in (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 4.0)
    for lam in (1.0, 5.0, 100.0)
    for f in (1e-3, 0.02, 0.37, 1.0)]


@pytest.mark.parametrize("p", [p for _, p in BIT_ECONOMIES],
                         ids=[label for label, _ in BIT_ECONOMIES])
def test_policy_and_law_equal_written_out_formulas_bit_for_bit(p):
    kappa, c, law = _written_out_policy(p)
    pol = policy_functions(p)
    assert (pol.kappa_coeff, pol.c_coeff) == (kappa, c)
    got = drift_diffusion(p)
    assert (got.mu, got.sigma_x, got.reset_rate) == law
    d = stationary_wealth_density(got)
    s = density_stats(d)
    assert (s.mean_x, s.var_x, s.wealth_mean) == (d.mean(), d.var(), d.exp_moment())


@given(theta=st.floats(0.02, 0.5), sigma=st.floats(0.02, 0.6),
       r=st.floats(0.0, 0.1), gamma=st.floats(0.5, 5.0),
       lam=st.floats(1.0, 40.0), rho=st.floats(0.01, 0.2))
def test_frictionless_drift_identity(theta, sigma, r, gamma, lam, rho):
    # with f_sigma = 1 the drift collapses to (Pi + r - rho)/gamma + q/2
    p = EconomyParams(rho=rho, gamma=gamma, theta=theta, sigma=sigma,
                      r=r, lam=lam, f_sigma=1.0)
    law = drift_diffusion(p)
    pi_lev = profit_rate(p) * lam
    q = (theta - r) ** 2 / (gamma * sigma**2)
    expected = (pi_lev + r - rho) / gamma + 0.5 * q
    assert law.mu == pytest.approx(expected, rel=1e-10, abs=1e-12)


@given(theta=st.floats(0.02, 0.5), sigma=st.floats(0.02, 0.6),
       r=st.floats(0.0, 0.1), lam=st.floats(1.0, 40.0),
       rho=st.floats(0.01, 0.2))
def test_paired_friction_drift_identity(theta, sigma, r, lam, rho):
    # gamma = 2 with f_sigma = 1/2 cancels the profit terms: mu = q/4 - rho
    p = EconomyParams(rho=rho, gamma=2.0, theta=theta, sigma=sigma,
                      r=r, lam=lam, f_sigma=0.5)
    law = drift_diffusion(p)
    q = (theta - r) ** 2 / (2.0 * sigma**2)
    assert law.mu == pytest.approx(0.25 * q - rho, rel=1e-10, abs=1e-12)


def test_density_stats_flags_divergent_wealth_mean():
    heavy = density_stats(stationary_wealth_density(
        drift_diffusion(EconomyParams(lam=50.0))))
    assert heavy.tail_exponent_right < 1.0
    assert not heavy.wealth_mean_exists
    assert heavy.wealth_mean is None
    light = density_stats(stationary_wealth_density(drift_diffusion(equilibrium_economy(EQ))))
    assert light.wealth_mean_exists
    assert light.wealth_mean == pytest.approx(0.7106177648272114, rel=1e-12)


def test_equilibrium_reference_values():
    pr = equilibrium_prices(EQ)
    assert pr.valid
    assert pr.r_star == pytest.approx(0.07, abs=1e-15)
    assert pr.clearing_constant == pytest.approx(-7.62, rel=1e-13)
    assert pr.w_star == pytest.approx(2.1074536839916695, rel=1e-13)
    d = stationary_wealth_density(drift_diffusion(equilibrium_economy(EQ)))
    assert d.rate_left == pytest.approx(1.7024479136224346, rel=1e-12)
    assert d.rate_right == pytest.approx(8.810842246611408, rel=1e-12)


def textbook_sqrt_t(p: EconomyParams) -> float:
    """Reference: the clearing quadratic's positive root, (-b + sqrt(disc)) / 2a."""
    zl = p.z * p.lam
    c = equilibrium_prices(p).clearing_constant
    return (-zl + math.sqrt(zl * zl - 8.0 * p.beta * zl * p.gamma * c)) / (4.0 * p.beta * zl * p.gamma)


@pytest.mark.parametrize("lam", [1.5, 5.0, 25.0])
@pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
def test_equilibrium_wage_matches_textbook_root(lam, gamma):
    p = EconomyParams(alpha=0.5, lam=lam, gamma=gamma)
    pr = equilibrium_prices(p)
    assert pr.valid
    assert pr.w_star == pytest.approx((1.0 - p.alpha) / textbook_sqrt_t(p), rel=1e-12)


def test_equilibrium_wage_finite_where_textbook_root_cancels():
    p = EconomyParams(alpha=0.5, gamma=1e-300)
    assert textbook_sqrt_t(p) == 0.0
    pr = equilibrium_prices(p)
    # 8 beta gamma |c| is ~1e-300 of zl, so sqrt_t = -c / zl to first order
    assert pr.w_star == pytest.approx((1.0 - p.alpha) * p.z * p.lam / -pr.clearing_constant,
                                      rel=1e-12)


def test_equilibrium_requires_square_root_technology():
    with pytest.raises(ConfigError, match="alpha"):
        equilibrium_prices(EconomyParams(alpha=0.3))


def test_labor_market_clears_at_equilibrium():
    assert abs(labor_residual_at(equilibrium_economy(EQ))) < 1e-12


def test_labor_residual_signs_off_equilibrium():
    eq = equilibrium_economy(EQ)
    assert labor_residual_at(replace(eq, w=eq.w * 1.01)) < -1e-3
    assert labor_residual_at(replace(eq, w=eq.w * 0.99)) > 1e-3


def test_invalid_clearing_constant_invalidates_wage():
    bad = EconomyParams(alpha=0.5, theta=0.5, sigma=0.5, lam=50.0)
    pr = equilibrium_prices(bad)
    assert not pr.valid
    assert pr.w_star is None
    assert pr.clearing_constant > 0.0
    with pytest.raises(DegenerateModelError, match="clearing constant"):
        equilibrium_economy(bad)


def test_wealth_law_validation():
    with pytest.raises(ValueError, match="reset_rate"):
        WealthLaw(mu=0.1, sigma_x=0.4, reset_rate=0.0)


@pytest.mark.parametrize("field,value", [
    ("gamma", 0.0), ("alpha", 0.0), ("alpha", 1.0), ("delta", -0.1),
    ("beta", 0.0), ("w", 0.0), ("sigma", 0.0), ("lam", 0.5), ("z", 0.0),
    ("f_sigma", 0.0), ("f_sigma", 1.5),
])
def test_params_reject_bad_fields(field, value):
    with pytest.raises(ValueError):
        EconomyParams(**{field: value})
