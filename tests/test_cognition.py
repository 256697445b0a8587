"""Retention ODE closed form, crowding dilution, and the cognition density."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

from cogecon.cognition import (
    _GAP_TOL,
    CognitionParams,
    RetentionParams,
    cognition_law,
    dilution_fraction,
    dilution_threshold,
    gbm_coefficients,
    retention_limit,
    retention_trajectory,
    steady_state_resource,
)
from references import retention_ode_rhs

starts = st.floats(min_value=0.01, max_value=1.0)
rates = st.floats(min_value=0.0, max_value=6.0)


def integrate_ode(p: RetentionParams, times: np.ndarray) -> np.ndarray:
    sol = solve_ivp(lambda _, r: retention_ode_rhs(p, r[0]), (0.0, times[-1]),
                    [p.r0], t_eval=times, rtol=1e-11, atol=1e-13, method="RK45")
    assert sol.success
    return sol.y[0]


def test_closed_form_matches_ode_fixed_cases():
    times = np.linspace(0.0, 10.0, 101)
    for r0, dil, rec in ((0.99, 3.0, 2.0), (0.5, 5.0, 6.0), (0.1, 4.0, 4.0),
                         (0.7, 0.0, 2.0), (0.3, 2.0, 0.0)):
        p = RetentionParams(r0=r0, dilution_rate=dil, recovery_rate=rec)
        closed = retention_trajectory(p, times)
        assert np.max(np.abs(closed - integrate_ode(p, times))) < 1e-8


@given(r0=starts, dil=rates, rec=rates)
def test_trajectory_stays_in_unit_interval(r0, dil, rec):
    p = RetentionParams(r0=r0, dilution_rate=dil, recovery_rate=rec)
    r = retention_trajectory(p, np.linspace(0.0, 50.0, 201))
    assert np.all(r > 0.0)
    assert np.all(r <= 1.0 + 1e-12)


@given(r0=starts, rate=st.floats(min_value=0.1, max_value=6.0))
def test_balanced_branch_is_the_limit(r0, rate):
    # dilution == recovery must agree with a vanishingly small gap
    times = np.linspace(0.0, 20.0, 41)
    balanced = retention_trajectory(
        RetentionParams(r0=r0, dilution_rate=rate, recovery_rate=rate), times)
    nudged = retention_trajectory(
        RetentionParams(r0=r0, dilution_rate=rate, recovery_rate=rate + 1e-9), times)
    assert np.max(np.abs(balanced - nudged)) < 1e-6


def test_retention_at_infinite_time_is_positive_zero():
    p = RetentionParams(r0=0.5, dilution_rate=3.0, recovery_rate=2.0)
    with np.errstate(all="raise"):
        r = retention_trajectory(p, [1e3, np.inf])
    assert np.array_equal(r, [0.0, 0.0]) and not np.any(np.signbit(r))


def test_unbalanced_retention_is_a_positively_signed_number_at_extreme_values():
    # off the balanced branch the denominator is finite or +inf, so
    # r0 / denom is never NaN or -0.0
    values = (0.0, 1e-300, 1e-12, 0.5, 3.0, 1e12, 1e300)
    times = np.array([0.0, 1e-300, 1e-6, 1.0, 1e3, 1e12, 1e300, np.inf])
    checked = 0
    for r0, dil, rec in itertools.product((1e-300, 1e-12, 0.5, 1.0), values, values):
        p = RetentionParams(r0, dil, rec)
        if abs(p.gap()) < _GAP_TOL * max(1.0, rec):
            continue
        r = retention_trajectory(p, times)
        assert np.all(r >= 0.0) and not np.any(np.signbit(r))
        checked += 1
    assert checked == 4 * 40


def test_retention_refuses_a_negative_or_nan_time():
    p = RetentionParams(r0=0.5, dilution_rate=3.0, recovery_rate=2.0)
    for times in (-1.0, np.nan, [1.0, np.nan]):
        with pytest.raises(ValueError, match="times must be nonnegative"):
            retention_trajectory(p, times)


def test_limit_values():
    assert retention_limit(RetentionParams(0.5, 3.0, 2.0)) == 0.0
    assert retention_limit(RetentionParams(0.5, 2.0, 2.0)) == 0.0
    p = RetentionParams(0.5, 1.0, 4.0)
    assert retention_limit(p) == pytest.approx(0.75, abs=1e-15)
    far = retention_trajectory(p, np.array([400.0]))
    assert far[0] == pytest.approx(0.75, abs=1e-10)


def test_single_agent_has_no_crowding():
    p = CognitionParams(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                        psi_c=0.4, beta_c=0.8, theta_c=2.0, n=1)
    assert p.crowding_load() == 0.0
    assert steady_state_resource(p) == pytest.approx(1.0, abs=1e-15)
    assert dilution_fraction(p) == 0.0


def test_steady_state_decreasing_in_crowd_size():
    base = dict(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                psi_c=0.4, beta_c=0.8, theta_c=2.0)
    levels = [steady_state_resource(CognitionParams(n=n, **base))
              for n in (1, 5, 10, 20, 40)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_dilution_is_half_at_threshold():
    base = dict(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                psi_c=0.4, beta_c=0.8, theta_c=2.0)
    n_star = dilution_threshold(CognitionParams(n=10, **base))
    assert dilution_fraction(CognitionParams(n=n_star, **base)) == pytest.approx(
        0.5, abs=1e-12)


def test_reference_setting_coefficients():
    p = CognitionParams(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                        psi_c=0.4, beta_c=0.8, theta_c=2.0, n=10)
    phi, omega, sigma = gbm_coefficients(p)
    assert phi == pytest.approx(0.50512, abs=5e-6)
    assert omega == pytest.approx(0.34219, abs=5e-6)
    # The commonly quoted 0.44657 carries rounded intermediates (0.50512 -
    # 0.34219^2/2 = 0.446573); full precision gives 0.4465769.
    assert sigma == pytest.approx(0.44657, abs=1e-5)
    assert sigma == pytest.approx(phi - 0.5 * omega**2, rel=1e-14)


def test_density_mean_decreasing_in_n_both_regimes():
    for eta in (1.0, 2.1):  # recovery-dominant and dilution-dominant
        means = []
        for n in (10, 15, 20, 25):
            p = CognitionParams(mu_c=2.0, eta_c=eta, sigma_c=0.4, gamma_c=0.4,
                                psi_c=0.4, beta_c=0.8, theta_c=2.0, n=n)
            means.append(cognition_law(p).density().mean())
        assert all(a > b for a, b in zip(means, means[1:]))


def test_density_uses_refresh_rate_as_reset():
    p = CognitionParams(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                        psi_c=0.4, beta_c=0.8, theta_c=2.0, n=10)
    d = cognition_law(p).density()
    _, omega, sigma = gbm_coefficients(p)
    s = np.sqrt(sigma**2 + 2.0 * p.beta_c * omega**2)
    assert d.rate_right == pytest.approx((s - sigma) / omega**2, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        RetentionParams(r0=0.0, dilution_rate=1.0, recovery_rate=1.0)
    with pytest.raises(ValueError):
        RetentionParams(r0=0.5, dilution_rate=-1.0, recovery_rate=1.0)
    with pytest.raises(ValueError):
        CognitionParams(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=1.0,
                        psi_c=0.4, beta_c=0.8, theta_c=2.0, n=10)
    with pytest.raises(ValueError):
        CognitionParams(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                        psi_c=0.4, beta_c=0.8, theta_c=2.0, n=0)
