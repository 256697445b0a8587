"""Truncated ability means, hazard ordering, and the tax preference check."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfcx, ndtr

from cogecon.errors import DegenerateModelError
from cogecon.tax_model import (
    TaxEconomy,
    check_mass_consistency,
    consumptions,
    expected_utility_investor,
    hazard_ratio_check,
    implied_investor_mass,
    normal_hazard,
    normal_sf,
    proposition1_check,
    truncated_exp_mean,
)


def _economy(**overrides) -> TaxEconomy:
    base = dict(tau=0.3, g_scale=1.0, m=0.5, mu_bar=0.0, sigma_mu=1.0,
                k_cut=0.0, sigma_agg=0.2, sigma_idio=0.2, theta_c=0.5,
                gamma_b=2.0)
    base.update(overrides)
    return TaxEconomy(**base)


def test_truncated_mean_hand_value():
    # E[e^mu | mu >= 0], mu ~ N(0,1): e^{1/2} Phi(1) / Phi(0) = 2 e^{1/2} Phi(1)
    hand = 2.0 * math.exp(0.5) * ndtr(1.0)
    assert truncated_exp_mean(0.0, 1.0, 0.0) == pytest.approx(hand, rel=1e-14)
    assert truncated_exp_mean(0.0, 1.0, 0.0) == pytest.approx(2.774285958, abs=1e-9)


def test_truncated_mean_recovers_lognormal_mean_without_cutoff():
    assert truncated_exp_mean(0.2, 0.7, -40.0) == pytest.approx(
        math.exp(0.2 + 0.5 * 0.7**2), rel=1e-12)


def test_truncated_mean_against_monte_carlo():
    rng = np.random.default_rng(7)
    mu = rng.normal(0.3, 0.8, size=500_000)
    kept = np.exp(mu[mu >= 0.5])
    se = kept.std() / math.sqrt(kept.size)
    assert truncated_exp_mean(0.3, 0.8, 0.5) == pytest.approx(
        kept.mean(), abs=3.0 * se)


@given(mu_bar=st.floats(-1.0, 1.0), sigma=st.floats(0.2, 1.5),
       k=st.floats(-2.0, 2.0))
def test_truncated_mean_exceeds_unconditional(mu_bar, sigma, k):
    # conditioning on the upper tail can only raise the mean
    full = math.exp(mu_bar + 0.5 * sigma**2)
    assert truncated_exp_mean(mu_bar, sigma, k) >= full - 1e-12


def test_truncated_mean_underflow_raises():
    with pytest.raises(DegenerateModelError, match="leaves no ability mass above it"):
        truncated_exp_mean(0.0, 1.0, 40.0)


def test_implied_mass_half_at_median_cutoff():
    assert implied_investor_mass(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert implied_investor_mass(0.3, 2.0, 0.3) == pytest.approx(0.5, abs=1e-15)


def test_mass_consistency_warns_on_mismatch():
    ok = _economy()  # m = 0.5 matches k_cut = mu_bar
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_mass_consistency(ok) == pytest.approx(0.5)
    bad = _economy(m=0.3)
    with pytest.warns(RuntimeWarning, match="investor mass"):
        implied = check_mass_consistency(bad)
    assert implied == pytest.approx(0.5)


@given(mu_k=st.floats(-3.0, 3.0), sigma=st.floats(0.2, 2.0))
def test_zero_mean_hazard_dominates(mu_k, sigma):
    h_zero, h_shift = hazard_ratio_check(mu_k, sigma)
    assert h_zero > h_shift


def test_survival_matches_ndtr():
    # up to where the tail stays a normal float: ndtr flushes subnormals to 0
    xs = np.linspace(-37.0, 37.0, 1481)
    np.testing.assert_allclose([normal_sf(x) for x in xs], ndtr(-xs), rtol=1e-12, atol=0)


def test_hazard_matches_scaled_erfc_out_to_1e9():
    # phi(x) / SF(x) = sqrt(2/pi) / erfcx(x / sqrt(2)), with no tail to underflow
    xs = np.concatenate([np.linspace(-25.0, 40.0, 1301), np.geomspace(40.0, 1e9, 400)])
    exact = math.sqrt(2.0 / math.pi) / erfcx(xs / math.sqrt(2.0))
    np.testing.assert_allclose([normal_hazard(x) for x in xs], exact, rtol=1e-12, atol=0)


def test_hazard_increases_across_the_series_switch():
    # the series takes over where the survival value leaves the normal floats
    assert normal_sf(37.0) >= sys.float_info.min > normal_sf(38.0)
    h = np.array([normal_hazard(x) for x in np.linspace(37.0, 38.0, 100_001)])
    assert np.all(np.diff(h) > 0.0)


def test_consumptions_at_zero_shocks():
    e = _economy()
    c_gov, c_inv = consumptions(e, 0.0, 0.0, mu_b=0.0)
    # tau * m/(1-m) * E[e^mu | mu >= K] with m = 1/2 collapses to tau * mean
    assert c_gov == pytest.approx(0.3 * truncated_exp_mean(0.0, 1.0, 0.0), rel=1e-14)
    assert c_inv == pytest.approx(0.7, rel=1e-14)


def test_consumptions_scale_with_shocks():
    e = _economy(theta_c=0.0)  # safe technology only: idio shock drops out
    c_gov0, c_inv0 = consumptions(e, 0.0, 0.0, mu_b=0.2)
    c_gov1, c_inv1 = consumptions(e, 0.5, 3.0, mu_b=0.2)
    assert c_gov1 / c_gov0 == pytest.approx(math.exp(0.5), rel=1e-12)
    assert c_inv1 / c_inv0 == pytest.approx(math.exp(0.5), rel=1e-12)


def test_utility_closed_form_without_shocks():
    e = _economy(sigma_agg=0.0, sigma_idio=0.0)
    base = 0.7
    assert expected_utility_investor(e, 0.3) == pytest.approx(
        (base ** (1.0 - 2.0) - 1.0) / (1.0 - 2.0), rel=1e-14)
    e1 = replace(e, gamma_b=1.0)
    assert expected_utility_investor(e1, 0.3) == pytest.approx(
        math.log(base), rel=1e-14)


def test_utility_matches_monte_carlo():
    e = _economy()
    rng = np.random.default_rng(11)
    n = 400_000
    eps_a = rng.normal(-0.5 * e.sigma_agg**2, e.sigma_agg, size=n)
    eps_i = rng.normal(-0.5 * e.sigma_idio**2, e.sigma_idio, size=n)
    c = 0.7 * np.exp(eps_a) * (0.5 * np.exp(eps_i) + 0.5)
    u = (c ** (1.0 - 2.0) - 1.0) / (1.0 - 2.0)
    se = u.std() / math.sqrt(n)
    assert expected_utility_investor(e, 0.3) == pytest.approx(u.mean(), abs=4.0 * se)


def test_log_branch_matches_monte_carlo():
    e = _economy(gamma_b=1.0)
    rng = np.random.default_rng(13)
    n = 400_000
    eps_a = rng.normal(-0.5 * e.sigma_agg**2, e.sigma_agg, size=n)
    eps_i = rng.normal(-0.5 * e.sigma_idio**2, e.sigma_idio, size=n)
    u = np.log(0.7 * np.exp(eps_a) * (0.5 * np.exp(eps_i) + 0.5))
    se = u.std() / math.sqrt(n)
    assert expected_utility_investor(e, 0.3) == pytest.approx(u.mean(), abs=4.0 * se)


@given(tau_low=st.floats(0.0, 0.6), gap=st.floats(0.01, 0.35),
       gamma=st.floats(0.3, 4.0), theta=st.floats(0.0, 1.0),
       mu_b=st.floats(-1.0, 1.0))
def test_lower_tax_always_preferred(tau_low, gap, gamma, theta, mu_b):
    e = _economy(gamma_b=gamma, theta_c=theta)
    u_low, u_high, prefers = proposition1_check(e, tau_low, tau_low + gap, mu_b)
    assert prefers
    assert u_low > u_high


@pytest.mark.parametrize("gamma", [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)])
def test_lower_tax_preferred_next_to_log_utility(gamma):
    # the utility level must stay near the log branch's, not near 1/(1-gamma)
    u_log = proposition1_check(_economy(gamma_b=1.0), 0.0, 0.25)
    u_low, u_high, prefers = proposition1_check(_economy(gamma_b=gamma), 0.0, 0.25)
    assert prefers and u_low > u_high
    assert (u_low, u_high) == pytest.approx(u_log[:2], rel=1e-12)


def test_proposition_reference_values():
    u_low, u_high, prefers = proposition1_check(_economy(), 0.2, 0.4)
    assert u_low == pytest.approx(-0.3138956149371972, rel=1e-12)
    assert u_high == pytest.approx(-0.7518608199162631, rel=1e-12)
    assert prefers


def test_proposition_rejects_misordered_rates():
    with pytest.raises(ValueError, match="tau_low"):
        proposition1_check(_economy(), 0.4, 0.2)


@pytest.mark.parametrize("field,value", [
    ("tau", 1.0), ("tau", -0.1), ("g_scale", 0.0), ("m", 0.0), ("m", 1.0),
    ("sigma_mu", 0.0), ("sigma_agg", -0.1), ("theta_c", 1.5), ("gamma_b", 0.0),
])
def test_economy_rejects_bad_fields(field, value):
    with pytest.raises(ValueError):
        _economy(**{field: value})


def test_utility_rejects_bad_tau():
    with pytest.raises(ValueError, match="tau"):
        expected_utility_investor(_economy(), 1.0)
