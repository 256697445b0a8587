"""End-to-end acceptance gates, one test per numbered criterion.

Each test prints a single ``PASS criterion N: ...`` or ``FAIL criterion N:
...`` line (run with ``pytest -s`` to see them as they happen).  Tolerances
and runtime budgets are part of the contract and are asserted, not logged.
"""

import hashlib
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from cogecon.cognition import (
    CognitionParams,
    RetentionParams,
    dilution_fraction,
    dilution_threshold,
    retention_ode_rhs,
    retention_trajectory,
    stationary_cognition_density,
)
from cogecon.config import default_config
from cogecon.consumption import (
    cawf,
    cawf_bayes_limit,
    cawf_montecarlo,
    cawf_nonbayes_limit,
    implied_shrinkage,
    shrinkage_regression_check,
)
from cogecon.data_value import DirectionVector, data_value_index, direction_value_matrix, gaussian_entropy
from cogecon.rng import RngSpec
from cogecon.tax_model import TaxEconomy, hazard_ratio_check, proposition1_check, truncated_exp_mean
from cogecon.validate import check_reports, run_validations, validation_jobs
from cogecon.wealth import (
    EconomyParams,
    density_stats,
    drift_diffusion,
    equilibrium_economy,
    equilibrium_prices,
    labor_residual_at,
    productivity_cutoff,
    stationary_wealth_density,
)

LAMBDA_TIERS = (5.0, 25.0, 50.0)
F_TIERS = (0.2, 0.5, 0.8)
ASSET_SETTINGS = ((0.05, 0.05), (0.5, 0.5))
# sha256sum manifest of `cogecon reproduce` at the default config (seed 42).
GOLDEN_MANIFEST = Path(__file__).parent / "golden" / "reproduce_seed42.sha256"


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def best_call_seconds(fn, repeats: int = 200) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def stats_for(theta, sigma, lam, f_sigma):
    p = EconomyParams(theta=theta, sigma=sigma, lam=lam, f_sigma=f_sigma)
    return density_stats(stationary_wealth_density(drift_diffusion(p)))


def test_criterion_1_productivity_cutoff():
    with criterion(1, "productivity cutoff equals 4.674 within 1e-3, under 1 ms"):
        assert abs(productivity_cutoff(0.01, 0.6, 0.3, 1.0) - 4.674) < 1e-3
        assert best_call_seconds(
            lambda: productivity_cutoff(0.01, 0.6, 0.3, 1.0)) < 1e-3


def test_criterion_2_equilibrium_rate():
    p = EconomyParams(alpha=0.5, theta=0.05, gamma=2.0, sigma=0.05, lam=5.0)
    with criterion(2, "equilibrium rate r* equals 0.07 within 1e-12, under 1 ms"):
        assert abs(equilibrium_prices(p).r_star - 0.07) < 1e-12
        assert best_call_seconds(lambda: equilibrium_prices(p)) < 1e-3


def test_criterion_3_dual_oracle_densities():
    with criterion(3, "all 12 benchmark densities pass FD < 1e-3 and KS < 0.02 "
                      "within 2 minutes"):
        t0 = time.perf_counter()
        reports = list(run_validations(validation_jobs(42), 4001, 1_000_000))
        check_reports(reports)
        elapsed = time.perf_counter() - t0
        assert len(reports) == 12
        assert all(r.passed for r in reports)
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_4_leverage_sweep_orderings():
    with criterion(4, "leverage sweeps: fixed-friction mean up / right rate down; "
                      "paired sweep mean up with U-shaped variance"):
        t0 = time.perf_counter()
        for theta, sigma in ASSET_SETTINGS:
            fixed = [stats_for(theta, sigma, lam, 1.0) for lam in LAMBDA_TIERS]
            means = [s.mean_x for s in fixed]
            rates = [s.tail_exponent_right for s in fixed]
            assert means[0] < means[1] < means[2]
            assert rates[0] > rates[1] > rates[2]
            paired = [stats_for(theta, sigma, lam, f)
                      for lam, f in zip(LAMBDA_TIERS, F_TIERS)]
            p_means = [s.mean_x for s in paired]
            p_vars = [s.var_x for s in paired]
            assert p_means[0] < p_means[1] < p_means[2]
            assert p_vars[1] < p_vars[0] and p_vars[1] < p_vars[2]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_5_robustness_orderings():
    with criterion(5, "right tail rate falls when theta rises and when sigma "
                      "falls, every leverage tier, both regimes"):
        t0 = time.perf_counter()
        for lam, f_paired in zip(LAMBDA_TIERS, F_TIERS):
            for f in (1.0, f_paired):
                rr = lambda th, sg: stats_for(th, sg, lam, f).tail_exponent_right
                assert rr(0.3, 0.3) < rr(0.1, 0.3)  # theta up, sigma fixed
                assert rr(0.1, 0.1) < rr(0.1, 0.3)  # sigma down, theta fixed
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_cawf_limits_and_decay():
    p = default_config().cawf_params()  # scale 1.15, omega 100, 1000 paths
    with criterion(6, "CAWF limits exact to 1e-14; average curve positive, "
                      "then negative, halving near one-tenth of the grid top"):
        t0 = time.perf_counter()
        for d in np.linspace(0.0, 1.0, 21):
            assert cawf(d, 0.0, p) == pytest.approx(
                cawf_bayes_limit(d, p), abs=1e-14)
            assert cawf(d, math.inf, p) == pytest.approx(
                cawf_nonbayes_limit(d, p), abs=1e-14)
        curves = cawf_montecarlo(p, RngSpec(42, stream_id=6))
        avg = curves.average
        assert avg[0] > 0.0
        assert avg[-1] < 0.0
        half_n = float(curves.n_grid[np.argmax(avg <= 0.5 * avg[0])])
        target = 0.1 * float(curves.n_grid[-1])
        assert target / 2.0 <= half_n <= target * 2.0
        assert time.perf_counter() - t0 < 5.0


def test_criterion_7_cognition_closed_form_and_density():
    with criterion(7, "retention closed form matches the ODE to 1e-8 on 100 "
                      "draws; half dilution at n*; density mean falls with n "
                      "in both regimes"):
        t0 = time.perf_counter()
        gen = np.random.default_rng(1234)
        times = np.linspace(0.0, 10.0, 21)
        worst = 0.0
        for _ in range(100):
            p = RetentionParams(r0=float(gen.uniform(0.05, 0.99)),
                                dilution_rate=float(gen.uniform(0.2, 8.0)),
                                recovery_rate=float(gen.uniform(0.2, 8.0)))
            closed = retention_trajectory(p, times)
            sol = solve_ivp(lambda t, y: retention_ode_rhs(p, y[0]),
                            (0.0, 10.0), [p.r0], t_eval=times,
                            rtol=1e-11, atol=1e-13)
            worst = max(worst, float(np.max(np.abs(closed - sol.y[0]))))
        assert worst < 1e-8, f"worst ODE gap {worst:.3e}"

        base = dict(mu_c=2.0, eta_c=1.0, sigma_c=0.4, gamma_c=0.4,
                    psi_c=0.4, beta_c=0.8, theta_c=2.0)
        n_star = dilution_threshold(CognitionParams(n=10, **base))
        assert dilution_fraction(CognitionParams(n=n_star, **base)) == \
            pytest.approx(0.5, abs=1e-12)

        for eta in (1.0, 2.1):  # recovery-dominant and dilution-dominant
            cfg = dict(base, eta_c=eta)
            means = [stationary_cognition_density(
                CognitionParams(n=n, **cfg)).mean() for n in (10, 15, 20, 25)]
            assert means[0] > means[1] > means[2] > means[3]
        assert time.perf_counter() - t0 < 10.0


def test_criterion_8_data_value_identities():
    with criterion(8, "Gaussian entropy 1.418939 vs quadrature; direction "
                      "eigenvalues exactly +/-1; zero sum squashes to 1/2"):
        t0 = time.perf_counter()
        h = gaussian_entropy(1.0)
        assert h == pytest.approx(1.418939, abs=1e-5)
        pdf = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        quad_h, _ = quad(lambda x: -pdf(x) * math.log(pdf(x)), -12.0, 12.0)
        assert h == pytest.approx(quad_h, abs=1e-9)

        gen = np.random.default_rng(2024)
        for _ in range(1000):
            v = gen.standard_normal(3)
            v /= np.linalg.norm(v)
            mat = direction_value_matrix(DirectionVector(*v), 1.0)
            eig = np.linalg.eigvalsh(mat)
            assert abs(eig[0] + 1.0) < 1e-12 and abs(eig[1] - 1.0) < 1e-12

        assert data_value_index([0.0]) == 0.5
        assert data_value_index([0.7, -0.7]) == 0.5
        assert time.perf_counter() - t0 < 1.0


def test_criterion_9_shrinkage_regression():
    # the middle setting has sigma_s = sigma_n, which forces slope 1/2
    settings = ((1.0, 0.5), (0.5, 0.5), (0.8, 1.2))
    with criterion(9, "log-log regression recovers beta_b and ln mu_b within "
                      "0.02 at 1e5 draws for three noise settings"):
        t0 = time.perf_counter()
        for i, (sigma_s, sigma_n) in enumerate(settings):
            p = implied_shrinkage(sigma_s, sigma_n, 0.0)
            slope, intercept = shrinkage_regression_check(
                sigma_s, sigma_n, 0.0, RngSpec(42, stream_id=20 + i), 100_000)
            assert abs(slope - p.beta_b) < 0.02
            assert abs(intercept - math.log(p.mu_b)) < 0.02
            if sigma_s == sigma_n:
                assert p.beta_b == 0.5
                assert abs(slope - 0.5) < 0.02
        assert time.perf_counter() - t0 < 5.0


def test_criterion_10_tax_model_properties():
    with criterion(10, "lower tax preferred on 100 draws; truncated means "
                       "within rtol 1e-10 of adaptive quadrature; hazard ordering "
                       "holds on the full sweep"):
        t0 = time.perf_counter()
        gen = np.random.default_rng(5)
        for _ in range(100):
            e = TaxEconomy(tau=0.3, g_scale=float(gen.uniform(0.2, 3.0)),
                           m=float(gen.uniform(0.1, 0.9)),
                           mu_bar=float(gen.uniform(-0.5, 0.5)),
                           sigma_mu=float(gen.uniform(0.3, 1.5)),
                           k_cut=float(gen.uniform(-0.5, 0.5)),
                           sigma_agg=float(gen.uniform(0.0, 0.4)),
                           sigma_idio=float(gen.uniform(0.0, 0.4)),
                           theta_c=float(gen.uniform(0.0, 1.0)),
                           gamma_b=float(gen.uniform(0.3, 4.0)))
            tau_low = float(gen.uniform(0.0, 0.5))
            tau_high = tau_low + float(gen.uniform(0.02, 0.3))
            mu_b = float(gen.uniform(-0.5, 0.5))
            assert proposition1_check(e, tau_low, tau_high, mu_b)[2]

        # Oracle: adaptive quadrature of E[e^mu; mu >= k] and P(mu >= k),
        # each to rtol 1e-11, so their ratio is good to well inside 1e-10.
        oracle = np.random.default_rng(11)
        for _ in range(20):
            mu_bar = float(oracle.uniform(-0.5, 0.5))
            sigma = float(oracle.uniform(0.3, 1.2))
            k = float(oracle.uniform(mu_bar - sigma, mu_bar + 1.5 * sigma))
            norm = sigma * math.sqrt(2.0 * math.pi)

            def log_density(x):
                return -0.5 * ((x - mu_bar) / sigma) ** 2

            num, num_err = quad(lambda x: math.exp(x + log_density(x)) / norm, k, math.inf,
                                epsabs=0.0, epsrel=1e-11, limit=200)
            mass, mass_err = quad(lambda x: math.exp(log_density(x)) / norm, k, math.inf,
                                  epsabs=0.0, epsrel=1e-11, limit=200)
            assert num_err <= 1e-11 * num and mass_err <= 1e-11 * mass
            expected = num / mass
            assert abs(truncated_exp_mean(mu_bar, sigma, k) - expected) <= 1e-10 * expected

        for sigma in (0.25, 0.5, 1.0, 2.0, 4.0):
            for mu_k in np.linspace(-5.0, 5.0, 101):
                h_zero, h_shift = hazard_ratio_check(float(mu_k), sigma)
                assert h_zero > h_shift
        assert time.perf_counter() - t0 < 30.0


def test_criterion_11_labor_market_self_consistency():
    p = EconomyParams(alpha=0.5)
    with criterion(11, "labor residual below 1e-8 at the equilibrium prices; "
                       "wage perturbations flip its sign consistently"):
        t0 = time.perf_counter()
        eq = equilibrium_economy(p)
        assert abs(labor_residual_at(eq)) < 1e-8
        from dataclasses import replace
        assert labor_residual_at(replace(eq, w=eq.w * 1.01)) < 0.0
        assert labor_residual_at(replace(eq, w=eq.w * 0.99)) > 0.0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_12_reproduce_determinism(tmp_path):
    with criterion(12, "reproduce emits byte-identical CSVs across runs and "
                       "thread counts for all 14 figures"):
        def run(tag: str, threads: str) -> dict:
            out = tmp_path / tag
            env = dict(os.environ)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
                env[key] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "cogecon.cli", "reproduce",
                 "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            assert len(files) == 14
            return files

        first = run("a", "1")
        golden = dict(line.split()[::-1] for line in GOLDEN_MANIFEST.read_text().splitlines())
        changed = sorted(name for name, raw in first.items()
                         if hashlib.sha256(raw).hexdigest() != golden.get(name))
        assert not changed, f"CSVs differ from {GOLDEN_MANIFEST.name}: {', '.join(changed)}"
        second = run("b", "1")
        threaded = run("c", "4")
        assert first == second
        assert first == threaded
