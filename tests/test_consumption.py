"""Belief adjustment, shrinkage estimation, and the adjustment weight function."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cogecon.config import default_config
from cogecon.consumption import (
    N_GRID,
    CawfParams,
    ShrinkageParams,
    bayes_adjustment,
    cawf,
    cawf_bayes_limit,
    cawf_montecarlo,
    cawf_nonbayes_limit,
    effective_consumption,
    implied_shrinkage,
    nonbayes_adjustment,
    shrinkage_crossover,
)
from cogecon.rng import RngSpec
from references import net_utility, shrinkage_regression_check


def test_bayes_adjustment_log_odds():
    assert bayes_adjustment(0.75) == pytest.approx(math.log(3.0), rel=1e-15)
    assert bayes_adjustment(0.5) == 0.0
    with pytest.raises(ValueError):
        bayes_adjustment(0.4)
    with pytest.raises(ValueError):
        bayes_adjustment(1.0)


def test_nonbayes_power_law():
    p = ShrinkageParams(beta_b=0.8, mu_b=0.9)
    s = math.log(3.0)
    assert nonbayes_adjustment(s, p) == pytest.approx(0.9 * s**0.8, rel=1e-15)


@pytest.mark.parametrize("beta_b", [0.3, 1.0])
def test_nonbayes_adjustment_of_zero_is_zero(beta_b):
    # p1 = 0.5 gives S = 0, and mu_b * 0^beta_b = 0 for beta_b in (0, 1]
    p = ShrinkageParams(beta_b=beta_b, mu_b=0.9)
    assert nonbayes_adjustment(bayes_adjustment(0.5), p) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        nonbayes_adjustment(-1e-12, p)


def test_crossover_point():
    p = ShrinkageParams(beta_b=0.8, mu_b=0.9)
    ln_star = shrinkage_crossover(p)
    assert ln_star == pytest.approx(math.log(0.9) / 0.2, rel=1e-12)
    s_star = math.exp(ln_star)
    # the two adjustment rules agree exactly there
    assert nonbayes_adjustment(s_star, p) == pytest.approx(s_star, rel=1e-12)
    assert shrinkage_crossover(ShrinkageParams(beta_b=1.0, mu_b=0.9)) is None


def test_implied_shrinkage_signal_to_noise():
    p = implied_shrinkage(sigma_s=1.0, sigma_n=0.5, mu_s=0.0)
    assert p.beta_b == pytest.approx(1.0 / 1.25, rel=1e-14)
    equal = implied_shrinkage(sigma_s=0.7, sigma_n=0.7, mu_s=0.1)
    assert equal.beta_b == pytest.approx(0.5, rel=1e-14)


def test_regression_recovers_shrinkage():
    slope, intercept = shrinkage_regression_check(
        sigma_s=1.0, sigma_n=0.5, mu_s=0.0, rng=RngSpec(3), n_draws=50_000)
    implied = implied_shrinkage(1.0, 0.5, 0.0)
    assert slope == pytest.approx(implied.beta_b, abs=0.03)
    assert intercept == pytest.approx(math.log(implied.mu_b), abs=0.03)


def _params(**kw) -> CawfParams:
    return dataclasses.replace(default_config().cawf_params(), **kw)


def test_cawf_limits_match_displayed_formulas():
    p = _params()
    for d in np.linspace(0.0, 1.0, 21):
        lo = p.scale * math.exp(d - p.d_bar) - 1.0
        hi = 1.0 - p.scale * math.exp(p.d_bar - d)
        assert cawf_bayes_limit(d, p) == pytest.approx(lo, abs=1e-14)
        assert cawf_nonbayes_limit(d, p) == pytest.approx(hi, abs=1e-14)
        assert cawf(d, 0.0, p) == pytest.approx(lo, abs=1e-14)
        assert cawf(d, np.inf, p) == pytest.approx(hi, abs=1e-14)


def test_cawf_midpoint_at_omega():
    p = _params()
    for d in (0.2, 0.5, 0.9):
        mid = 0.5 * (cawf_bayes_limit(d, p) + cawf_nonbayes_limit(d, p))
        assert cawf(d, p.omega, p) == pytest.approx(mid, rel=1e-12)


@given(d=st.floats(min_value=0.0, max_value=1.0),
       n=st.floats(min_value=0.0, max_value=1e6))
def test_cawf_between_its_limits(d, n):
    p = _params()
    lo = cawf_bayes_limit(d, p)
    hi = cawf_nonbayes_limit(d, p)
    value = cawf(d, n, p)
    assert min(lo, hi) - 1e-12 <= value <= max(lo, hi) + 1e-12


def test_cawf_monotone_in_crowd_size():
    # direction in n is governed by sign(1 - scale*cosh(d - d_bar)); with
    # scale > 1 that is negative for every d, so both rows decay
    p = _params()
    n_grid = np.array([0.0, 1.0, 10.0, 100.0, 1000.0, 1e6])
    for d in (0.9, 0.1):
        vals = cawf(d, n_grid, p)
        assert np.all(np.diff(vals) < 0.0)


def test_cawf_can_rise_with_crowding_when_scale_small():
    p = _params(scale=0.8, omega=100.0, d_bar=0.5)
    vals = cawf(0.5, np.array([0.0, 10.0, 100.0, 1000.0]), p)
    assert np.all(np.diff(vals) > 0.0)


def test_default_grid_shape():
    grid = np.geomspace(*N_GRID)
    assert grid.size == 50
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(300.0)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])


def test_montecarlo_curves():
    curves = cawf_montecarlo(_params(), RngSpec(21))
    assert curves.n_high + curves.n_low == _params().n_paths
    assert curves.average[0] > 0.0
    assert curves.average[-1] < 0.0
    # conditioning splits the average
    assert np.all(curves.high_value >= curves.average - 1e-12)
    assert np.all(curves.low_value <= curves.average + 1e-12)


def test_montecarlo_deterministic():
    a = cawf_montecarlo(_params(), RngSpec(5))
    b = cawf_montecarlo(_params(), RngSpec(5))
    assert np.array_equal(a.average, b.average)


def test_effective_consumption_and_utility():
    p = _params()
    c = effective_consumption(0.75, p)
    assert c == 1.0 + cawf(0.75, p.omega, p)
    assert net_utility(c, gamma=1.0) == pytest.approx(math.log(c), rel=1e-14)
    assert net_utility(c, gamma=2.0) == pytest.approx(c ** (-1.0) / (-1.0), rel=1e-14)
    # scale 5 with d_bar 1 puts the CAWF at D = 0.75, n = omega below -1
    with pytest.raises(ValueError, match="at or below -1"):
        effective_consumption(0.75, _params(scale=5.0, d_bar=1.0))


def test_cawf_param_validation():
    with pytest.raises(ValueError):
        _params(scale=0.0)
    with pytest.raises(ValueError):
        _params(omega=-1.0)
    with pytest.raises(ValueError):
        cawf(0.5, -1.0, _params())
