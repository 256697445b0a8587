"""Firm policy, wealth dynamics coefficients, and closed-form equilibrium."""

import collections
import hashlib
import itertools
import math
import re
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cogecon.config import default_config
from cogecon.densities import ResetLaw
from cogecon.errors import DegenerateModelError
from cogecon.validate import benchmark_combos
from cogecon.wealth import (
    EconomyParams,
    density_stats,
    drift_diffusion,
    equilibrium_prices,
    firm_policy,
    labor_residual_at,
    policy_functions,
    productivity_cutoff,
    profit_rate,
    stationary_wealth_density,
)
from references import EQUILIBRIUM_GRID, equilibrium_wage_roots

EQ = EconomyParams(alpha=0.5)


def at_equilibrium(p: EconomyParams) -> EconomyParams:
    """The same economy with prices replaced by their equilibrium values."""
    prices = equilibrium_prices(p)
    return replace(p, w=prices.w_star, r=prices.r_star)


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
    with pytest.raises(ValueError, match="cutoff"):
        firm_policy(p, 1.0)
    with pytest.raises(ValueError, match="wealth"):
        firm_policy(EconomyParams(), 0.0)


def test_policy_coefficients_reference_values():
    kappa_coeff, c_coeff = policy_functions(EconomyParams())
    assert kappa_coeff == pytest.approx(8.0, rel=1e-14)
    assert c_coeff == pytest.approx(0.21652360320202862, rel=1e-12)


def test_friction_scales_consumption_only():
    base_kappa, base_c = policy_functions(EconomyParams())
    damped_kappa, damped_c = policy_functions(EconomyParams(f_sigma=0.5))
    assert damped_kappa == base_kappa
    assert damped_c == pytest.approx(2.0 * base_c, rel=1e-14)


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


def _written_out_density(mu, sigma_x, reset_rate):
    """(rate_left, rate_right, norm_K) of the two-sided exponential law, as written."""
    v2 = sigma_x * sigma_x
    s = math.sqrt(mu * mu + 2.0 * reset_rate * v2)
    rate_left, rate_right = (s + mu) / v2, (s - mu) / v2
    return rate_left, rate_right, 1.0 / (1.0 / rate_left + 1.0 / rate_right)


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
    assert policy_functions(p) == (kappa, c)
    got = drift_diffusion(p)
    assert (got.mu, got.sigma_x, got.reset_rate) == law
    d = stationary_wealth_density(got)
    rate_left, rate_right, norm_k = _written_out_density(*law)
    assert (d.rate_left, d.rate_right, d.norm_K) == (rate_left, rate_right, norm_k)
    s = density_stats(d)
    assert (s.mean_x, s.var_x, s.wealth_mean) == (
        d.mean(), d.second_moment() - d.mean() ** 2, d.exp_moment())
    assert (s.tail_exponent_left, s.tail_exponent_right) == (rate_left, rate_right)
    assert s.wealth_mean_exists is (rate_right > 1.0)


BENCHMARK_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
# sha256 of the benchmark's sweep rows, one line per grid seed.
SWEEP_GOLDEN = Path(__file__).parent / "golden" / "sweep_rows.sha256"


def _benchmark_child() -> types.ModuleType:
    """perfbench/child.py as a module, compiled from its text so nothing is written there."""
    module = types.ModuleType("perfbench_child")
    source = BENCHMARK_CHILD.read_text(encoding="utf-8")
    exec(compile(source, str(BENCHMARK_CHILD), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_rows_match_golden_digest(seed):
    child = _benchmark_child()
    rows, _ = child.sweep_pass(child.sweep_cells(seed))
    golden = dict(line.split()[::-1] for line in SWEEP_GOLDEN.read_text().splitlines())
    digest = hashlib.sha256(np.array(rows, dtype=float).tobytes()).hexdigest()
    assert digest == golden[f"seed{seed}"]


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the smaller tail rate cancels at a large |mu|")
@example(lam=100.0, f_sigma=1e-7)
@given(lam=st.floats(1.0, 100.0), f_sigma=st.floats(1e-7, 1.0))
def test_tail_rates_solve_their_characteristic_equations(lam, f_sigma):
    # e^{r x} solves (v^2/2) p'' - mu p' - beta p = 0 on either side of the
    # reset point: the left rate solves (v^2/2) r^2 - mu r - beta = 0 and the
    # right rate (v^2/2) r^2 + mu r - beta = 0, each to a relative 1e-12 of
    # the equation's largest term.  At lam = 100, f_sigma = 1e-7 the left
    # residual is 0.43 of it.
    law = drift_diffusion(EconomyParams(lam=lam, f_sigma=f_sigma))
    d = law.density()
    for rate, sign in ((d.rate_left, -1.0), (d.rate_right, 1.0)):
        terms = (0.5 * law.sigma_x**2 * rate**2, sign * law.mu * rate, -law.reset_rate)
        assert abs(math.fsum(terms)) <= 1e-12 * max(map(abs, terms))


# The exact identities behind the wealth claims: the stationary law depends on
# the friction f and the leverage cap lambda only through the drift mu.
def _q_and_sigma_x(p: EconomyParams) -> tuple[float, float]:
    """q = (theta - r)^2 / (gamma sigma^2) and sigma_x = (theta - r) / (gamma sigma)."""
    return (p.theta - p.r) ** 2 / (p.gamma * p.sigma**2), (p.theta - p.r) / (p.gamma * p.sigma)


@pytest.mark.parametrize("p", [p for _, p in benchmark_combos()])
def test_log_wealth_moments_are_mu_over_beta_and_its_variance(p):
    law = drift_diffusion(p)
    stats = density_stats(stationary_wealth_density(law))
    mu, beta = law.mu, law.reset_rate
    assert stats.mean_x == pytest.approx(mu / beta, rel=2e-15, abs=0.0)
    assert stats.var_x == pytest.approx(law.sigma_x**2 / beta + mu**2 / beta**2,
                                        rel=2e-15, abs=0.0)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_friction_f0_makes_the_drift_leverage_neutral(gamma):
    # at f0 = (gamma - 1)/gamma the profit terms cancel from mu, so lambda,
    # z, w, delta and alpha drop out: mu = q/2 - sigma_x^2/2 - rho/(gamma - 1)
    f0 = (gamma - 1.0) / gamma
    mus = [drift_diffusion(EconomyParams(gamma=gamma, f_sigma=f0, lam=lam, z=z, w=w, delta=delta,
                                         alpha=alpha)).mu
           for lam, z, w, delta, alpha in itertools.product(
               (1.0, 5.0, 50.0), (5.0, 8.0), (0.5, 1.0), (0.1, 0.6), (0.3, 0.5))]
    base = EconomyParams(gamma=gamma)
    q, sigma_x = _q_and_sigma_x(base)
    closed_form = 0.5 * q - 0.5 * sigma_x**2 - base.rho / (gamma - 1.0)
    assert max(mus) - min(mus) <= 5e-14
    assert max(abs(mu - closed_form) for mu in mus) <= 5e-14
    if gamma == 2.0:
        assert closed_form == pytest.approx(0.03, abs=1e-16)


@pytest.mark.parametrize("lam", [5.0, 25.0, 50.0])
def test_friction_f_star_zeroes_the_drift_at_the_minimum_variance(lam):
    # mu = Pi_lev + r + q - sigma_x^2/2 - B/(gamma f), so mu(f*) = 0 at
    # f* = B/(gamma (Pi_lev + r + q - sigma_x^2/2)), where Var = sigma_x^2/beta
    p = EconomyParams(lam=lam)
    q, sigma_x = _q_and_sigma_x(p)
    bracket = policy_functions(p)[1] * p.gamma * p.f_sigma
    f_star = bracket / (p.gamma * (profit_rate(p) * p.lam + p.r + q - 0.5 * sigma_x**2))
    assert 0.0 < f_star < (p.gamma - 1.0) / p.gamma
    law = drift_diffusion(replace(p, f_sigma=f_star))
    assert abs(law.mu) < 1e-16
    var_x = density_stats(stationary_wealth_density(law)).var_x
    assert var_x == pytest.approx(sigma_x**2 / p.beta, rel=1e-15)
    assert var_x == pytest.approx(0.16 / 0.3, rel=1e-15)


def test_density_stats_flags_divergent_wealth_mean():
    heavy = density_stats(stationary_wealth_density(
        drift_diffusion(EconomyParams(lam=50.0))))
    assert heavy.tail_exponent_right < 1.0
    assert not heavy.wealth_mean_exists
    assert heavy.wealth_mean is None
    light = density_stats(stationary_wealth_density(drift_diffusion(at_equilibrium(EQ))))
    assert light.wealth_mean_exists
    assert light.wealth_mean == pytest.approx(0.7106177648272114, rel=1e-12)


def test_equilibrium_reference_values():
    pr = equilibrium_prices(EQ)
    assert pr.w_star is not None
    assert pr.r_star == pytest.approx(0.07, abs=1e-15)
    assert pr.clearing_constant == pytest.approx(-7.62, rel=1e-13)
    assert pr.w_star == pytest.approx(2.1074536839916695, rel=1e-13)
    d = stationary_wealth_density(drift_diffusion(at_equilibrium(EQ)))
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
    assert pr.w_star == pytest.approx((1.0 - p.alpha) / textbook_sqrt_t(p), rel=1e-12)


def test_equilibrium_wage_finite_where_textbook_root_cancels():
    p = EconomyParams(alpha=0.5, gamma=1e-300)
    assert textbook_sqrt_t(p) == 0.0
    pr = equilibrium_prices(p)
    # 8 beta gamma |c| is ~1e-300 of zl, so sqrt_t = -c / zl to first order
    assert pr.w_star == pytest.approx((1.0 - p.alpha) * p.z * p.lam / -pr.clearing_constant,
                                      rel=1e-12)


@pytest.mark.parametrize("p", EQUILIBRIUM_GRID,
                         ids=lambda p: f"lam{p.lam:g}_gamma{p.gamma:g}_z{p.z:g}")
def test_equilibrium_wage_is_the_bracketed_root_of_labor_clearing(p):
    prices = equilibrium_prices(p)
    [root] = equilibrium_wage_roots(replace(p, r=prices.r_star))
    assert root == pytest.approx(prices.w_star, rel=1e-12)


def named_wages(refusal: DegenerateModelError) -> list[float]:
    """The two wages that equilibrium_prices' two-root refusal names, in order."""
    return [float(w) for w in re.search(r"w = (\S+) and (\S+),", str(refusal)).groups()]


def test_labor_clearing_has_two_roots_below_the_leverage_neutral_friction():
    # At f_sigma = 0.3 < (gamma - 1) / gamma the clearing condition in w has
    # two roots; equilibrium_prices refuses to choose and names both.
    p = replace(default_config().equilibrium_params(), f_sigma=0.3, r=0.07)
    # r* does not depend on f_sigma
    assert equilibrium_prices(replace(p, f_sigma=1.0)).r_star == pytest.approx(0.07, rel=1e-12)
    roots = equilibrium_wage_roots(p)
    assert roots == [pytest.approx(0.6148, abs=1e-4), pytest.approx(1.6788, abs=1e-4)]
    assert 0.501 < roots[0] < 0.631 and 1.585 < roots[1] < 1.995
    for w in roots:
        assert abs(labor_residual_at(replace(p, w=w))) < 1e-12
    with pytest.raises(DegenerateModelError, match="^labor clears at two wages") as refusal:
        equilibrium_prices(p)
    assert named_wages(refusal.value) == pytest.approx(roots, rel=1e-9)


@pytest.mark.parametrize("f_sigma", [0.9, 0.75, 0.6])
def test_equilibrium_wage_clears_labor_above_the_leverage_neutral_friction(f_sigma):
    # Above f0 = (gamma - 1) / gamma = 0.5 labor clearing has one root in w;
    # the printed wage must be it.
    p = replace(default_config().equilibrium_params(), lam=2.0, f_sigma=f_sigma)
    assert f_sigma > (p.gamma - 1.0) / p.gamma
    prices = equilibrium_prices(p)
    [root] = equilibrium_wage_roots(replace(p, r=prices.r_star))
    assert prices.w_star == pytest.approx(root, rel=1e-9)


# ROADMAP item 20's grid at the [equilibrium] defaults: 432 economies, 270 of
# them at or below the leverage-neutral friction (gamma - 1) / gamma.
FRICTION_GRID = tuple(
    replace(default_config().equilibrium_params(), f_sigma=f, lam=lam, z=z, gamma=gamma, beta=beta)
    for f in (1.0, 0.9, 0.75, 0.6, 0.5, 0.4, 0.3, 0.1) for lam in (2.0, 5.0, 25.0)
    for z in (2.0, 5.0, 10.0) for gamma in (2.0, 3.0, 5.0) for beta in (0.1, 0.3))


def test_equilibrium_wages_are_every_bracketed_root_at_every_friction():
    # No wage, the one wage, or a refusal naming both wages, as the bracketed
    # roots of labor clearing have it.  A single root agrees to a relative
    # 1e-9.  A pair agrees to 1e-5, which is the reference's conditioning,
    # not the closed form's: near its small root (worst w ~ 0.014 at
    # f_sigma = 0.1, 9.4e-7 off) labor_residual_at cancels, so its sign is
    # noise over a band of w that bisection cannot resolve.
    counts = collections.Counter()
    mismatched = []
    for p in FRICTION_GRID:
        try:
            prices = equilibrium_prices(p)
        except DegenerateModelError as exc:
            wages, rel = named_wages(exc), 1e-5
        else:
            wages, rel = [] if prices.w_star is None else [prices.w_star], 1e-9
        # r* does not depend on f_sigma
        r_star = equilibrium_prices(replace(p, f_sigma=1.0)).r_star
        roots = equilibrium_wage_roots(replace(p, r=r_star))
        counts[len(roots)] += 1
        if wages != pytest.approx(roots, rel=rel):
            mismatched.append((p, wages, roots))
    assert mismatched == []
    assert counts == {0: 77, 1: 180, 2: 175}


def test_firms_active_flag_compares_z_with_the_cutoff_at_equilibrium_prices():
    prices = equilibrium_prices(EQ)
    assert prices.firms_active is False
    assert profit_rate(at_equilibrium(EQ)) < 0.0
    high_z = replace(EQ, z=20.0)
    prices = equilibrium_prices(high_z)
    assert high_z.z > productivity_cutoff(prices.r_star, high_z.delta, high_z.alpha, prices.w_star)
    assert prices.firms_active is True
    # r* + delta <= 0 has no positive cutoff: every z breaks even
    assert equilibrium_prices(replace(EQ, theta=-1.0, delta=0.0, lam=1.0)).firms_active is True
    no_wage = equilibrium_prices(replace(EQ, theta=0.5, sigma=0.5, lam=50.0))
    assert no_wage.w_star is None and no_wage.firms_active is None


def test_equilibrium_grid_has_few_economies_with_active_firms():
    # A coarse grid of 2592 economies at alpha = 1/2: most have no wage or a
    # wage at which firms are inactive (profit_rate < 0), so the equilibrium
    # density of those is built on negative leverage profits.
    grid = itertools.product((1.5, 5.0, 25.0, 50.0), (0.05, 0.3, 1.0), (0.05, 0.3, 0.6),
                             (0.02, 0.05), (1.5, 2.0, 4.0), (1.0, 5.0, 20.0),
                             (0.05, 0.5), (0.05, 0.5))
    counts = collections.Counter(
        equilibrium_prices(replace(EQ, lam=lam, beta=beta, delta=delta, rho=rho, gamma=gamma,
                                   z=z, theta=theta, sigma=sigma)).firms_active
        for lam, beta, delta, rho, gamma, z, theta, sigma in grid)
    assert counts == {None: 936, False: 1335, True: 321}


def equilibrium_dw_dlam(p: EconomyParams) -> float:
    """dw*/dlam by the implicit function theorem on the clearing quadratic
    G(s, lam) = 2 beta gamma z lam s^2 + z lam s + C(lam) = 0, with s = sqrt(t)
    = (1 - alpha) / w*, r* = theta + gamma sigma^2 (lam - 1) and
    C = 2 (r* - lam r* - lam delta - rho) + (1 + gamma) gamma sigma^2 (lam - 1)^2
    - 2 beta gamma."""
    prices = equilibrium_prices(p)
    s = (1.0 - p.alpha) / prices.w_star
    gamma_var = p.gamma * p.sigma**2
    dc_dlam = (2.0 * (gamma_var * (1.0 - p.lam) - prices.r_star - p.delta)
               + 2.0 * (1.0 + p.gamma) * gamma_var * (p.lam - 1.0))
    dg_dlam = 2.0 * p.beta * p.gamma * p.z * s * s + p.z * s + dc_dlam
    dg_ds = 4.0 * p.beta * p.gamma * p.z * p.lam * s + p.z * p.lam
    return (1.0 - p.alpha) / (s * s) * dg_dlam / dg_ds


@pytest.mark.parametrize("gamma, last_active", [(2.0, 2.70), (3.0, 2.65)])
def test_leverage_claims_at_the_equilibrium_prices(gamma, last_active):
    # At the code's own (r*, w*) on lam = 1.05, 1.10, ..., 3.0, firms stay
    # active only up to last_active, and over that range E[log a] falls at
    # every step of lam: at fixed prices it rises.
    p = replace(default_config().equilibrium_params(), gamma=gamma)
    economies = [replace(p, lam=k / 20) for k in range(21, 61)]
    active = [q for q in economies if equilibrium_prices(q).firms_active]
    assert [q.lam for q in active] == [q.lam for q in economies if q.lam <= last_active]
    assert all(equilibrium_prices(q).firms_active is False for q in economies[len(active):])
    mean_log_a = [density_stats(stationary_wealth_density(drift_diffusion(at_equilibrium(q))))
                  .mean_x for q in active]
    assert all(b < a for a, b in zip(mean_log_a, mean_log_a[1:]))

    h = 1e-6
    for q in economies:
        up, down = (equilibrium_prices(replace(q, lam=q.lam + d)) for d in (h, -h))
        assert (up.r_star - down.r_star) / (2 * h) == pytest.approx(gamma * q.sigma**2,
                                                                    rel=1e-6)
        assert (up.w_star - down.w_star) / (2 * h) == pytest.approx(equilibrium_dw_dlam(q),
                                                                    rel=1e-6)


def test_equilibrium_requires_square_root_technology():
    with pytest.raises(ValueError, match="alpha"):
        equilibrium_prices(EconomyParams(alpha=0.3))


def test_labor_market_clears_at_equilibrium():
    assert abs(labor_residual_at(at_equilibrium(EQ))) < 1e-12


def test_labor_residual_signs_off_equilibrium():
    eq = at_equilibrium(EQ)
    assert labor_residual_at(replace(eq, w=eq.w * 1.01)) < -1e-3
    assert labor_residual_at(replace(eq, w=eq.w * 0.99)) > 1e-3


def test_invalid_clearing_constant_invalidates_wage():
    bad = EconomyParams(alpha=0.5, theta=0.5, sigma=0.5, lam=50.0)
    pr = equilibrium_prices(bad)
    assert pr.w_star is None
    assert pr.clearing_constant > 0.0


def test_wealth_law_validation():
    with pytest.raises(ValueError, match="reset_rate"):
        ResetLaw(mu=0.1, sigma_x=0.4, reset_rate=0.0)


@pytest.mark.parametrize("field,value", [
    ("gamma", 0.0), ("alpha", 0.0), ("alpha", 1.0), ("delta", -0.1),
    ("beta", 0.0), ("w", 0.0), ("sigma", 0.0), ("lam", 0.5), ("z", 0.0),
    ("f_sigma", 0.0), ("f_sigma", 1.5),
])
def test_params_reject_bad_fields(field, value):
    with pytest.raises(ValueError):
        EconomyParams(**{field: value})
