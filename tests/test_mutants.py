"""Mutation matrix: which oracle gate rejects each wrong closed form.

Each row patches one mistake into the program and runs validate's twelve
benchmark laws at a reduced size, 2001 FD points and 20 000 samples (KS_TOL
is still a DKW bound at that n).  The row records on how many of the laws
each gate fails, and on how many of two samples the KS distance differs
from the whole-array KS in any bit.  A gate that loses its power, or a
mutant that a gate starts to miss, changes a count and fails the test.  A
mutant that every gate lets through stays in the table with zero kills, as
a known gap.  No source file is edited: a mutant replaces an attribute,
and one inside a function is compiled from that function's edited source.

The equilibrium rows patch the closed-form prices instead, and count the
square-root-technology economies whose wage is not the bracketed root of
the labor-market residual.  The CAWF rows name the checks of the weight's
limits and shape that fail.  The reflected-OU rows replace the sampler's
fold, or put a wrong stationary law in place of the truncated Gibbs law,
and must each take the KS distance of the oracle's states past its DKW bound.
"""

import functools
import inspect
import math
import textwrap
from dataclasses import replace

import pytest

import cogecon.consumption as consumption_mod
import cogecon.sde as sde_mod
import cogecon.validate as validate_mod
import cogecon.wealth as wealth_mod
from cogecon.config import default_config
from cogecon.densities import PiecewiseExpDensity, ResetLaw
from cogecon.rng import RngSpec
from cogecon.sde import simulate_gbm_reset
from references import (EQUILIBRIUM_GRID, OU_ORACLE_BOUND, OU_ORACLE_PATHS, OU_ORACLE_SPEC,
                        block_end_ks_sample, equilibrium_wage_root, ou_gibbs_law,
                        whole_array_ks)

SEED = 42
N_POINTS, N_SAMPLES = 2001, 20_000

true_density = ResetLaw.density
true_drift_diffusion = validate_mod.drift_diffusion


def _swapped_rates(law):
    d = true_density(law)
    return PiecewiseExpDensity(d.rate_right, d.rate_left)


def _ito_term_dropped(p):
    law = true_drift_diffusion(p)
    return ResetLaw(law.mu + 0.5 * law.sigma_x**2, law.sigma_x, law.reset_rate)


def _edited(function, old: str, new: str):
    """function compiled from its source with old replaced by new, in its own module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = {}
    exec("from __future__ import annotations\n" + source.replace(old, new),
         function.__globals__, namespace)
    return namespace[function.__name__]


# name, patched owner, attribute, replacement, laws failed by FD, by KS,
# samples on which KS is not the whole-array KS.
MUTANTS = [
    ("none", ResetLaw, "density", true_density, 0, 0, 0),
    ("mu x 1.05", ResetLaw, "density", lambda law: PiecewiseExpDensity.from_reset_law(
        1.05 * law.mu, law.sigma_x, law.reset_rate), 12, 4, 0),
    ("beta x 1.1", ResetLaw, "density", lambda law: PiecewiseExpDensity.from_reset_law(
        law.mu, law.sigma_x, 1.1 * law.reset_rate), 12, 10, 0),
    ("sigma^2/2 for sigma^2", ResetLaw, "density", lambda law: PiecewiseExpDensity.from_reset_law(
        law.mu, law.sigma_x / math.sqrt(2.0), law.reset_rate), 12, 8, 0),
    ("rates swapped", ResetLaw, "density", _swapped_rates, 12, 12, 0),
    # Both oracles take the law drift_diffusion returns, so a wrong drift
    # that the closed form then follows is invisible to them.
    ("Ito term dropped", validate_mod, "drift_diffusion", _ito_term_dropped, 0, 0, 0),
    # Each block's bound on its (k+1)/n - F gaps ends one sample short.  It
    # moves KS by at most 1/n, and only where the largest gap is a pruned
    # block's last one: on random samples the result stays exact.
    ("KS block bound one short", validate_mod, "ks_distance", _edited(
        validate_mod.ks_distance, "starts + _KS_BLOCK, n)", "starts + _KS_BLOCK - 1, n)"),
     0, 0, 1),
    # Broken prunings of ks_distance.  A bound that is too low drops a block
    # that holds the largest gap; only the first-gap bound at the block's
    # first sample loses a whole block's 1/n steps, which the block-end
    # sample resolves.  The slack and the second-gap bound at the block's
    # first sample stay exact on both samples, a known gap.  The last sample
    # is one of the marks, whose gaps are exact before any block is kept, so
    # dropping it from the batches changes nothing: an equivalent mutant.
    ("KS slack + 1e-4", validate_mod, "ks_distance", _edited(
        validate_mod.ks_distance, "dist - _KS_SLACK]", "dist + 1e-4]"), 0, 0, 0),
    ("KS first-gap bound from starts / n", validate_mod, "ks_distance", _edited(
        validate_mod.ks_distance, "ends / n - cdf[:-1]", "starts / n - cdf[:-1]"), 0, 0, 1),
    ("KS second-gap bound from cdf[:-1]", validate_mod, "ks_distance", _edited(
        validate_mod.ks_distance, "cdf[1:] - starts / n", "cdf[:-1] - starts / n"), 0, 0, 0),
    ("KS last sample dropped from the batches", validate_mod, "ks_distance", _edited(
        validate_mod.ks_distance, "k = k[k < n]", "k = k[k < n - 1]"), 0, 0, 0),
    # The right branch written as 1 - right_mass * exp(-rate_right x), equal to
    # it in exact arithmetic.  On these samples it moves only last bits (a KS
    # distance by at most one ulp), which no gate resolves: a known gap.
    ("cdf right branch as 1 - right_mass * exp", PiecewiseExpDensity, "cdf", _edited(
        PiecewiseExpDensity.cdf, "left_mass + right_mass * (1.0 - e)", "1.0 - right_mass * e"),
     0, 0, 0),
]


def _inexact_ks_samples() -> int:
    """Of a random sample and the block-end one, how many ks_distance gets wrong in any bit."""
    law = true_drift_diffusion(default_config().wealth_params())
    density = ResetLaw.density(law)
    random = simulate_gbm_reset(law.mu, law.sigma_x, law.reset_rate, RngSpec(SEED), N_SAMPLES)
    samples = (random, block_end_ks_sample(density, validate_mod._KS_BLOCK))
    return sum(validate_mod.ks_distance(x.copy(), density) != whole_array_ks(x, density)
               for x in samples)


@pytest.mark.parametrize("owner,attr,mutant,fd_kills,ks_kills,exact_kills",
                         [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS])
def test_mutation_matrix_row(monkeypatch, owner, attr, mutant, fd_kills, ks_kills, exact_kills):
    monkeypatch.setattr(owner, attr, mutant)
    reports = list(validate_mod.run_validations(validate_mod.validation_jobs(SEED),
                                                N_POINTS, N_SAMPLES))
    assert len(reports) == 12
    assert (sum(r.fd_error >= r.fd_tol for r in reports),
            sum(r.ks_distance >= r.ks_tol for r in reports),
            _inexact_ks_samples()) == (fd_kills, ks_kills, exact_kills)


true_equilibrium_prices = wealth_mod.equilibrium_prices


def _other_root(p):
    """The clearing quadratic's other root for sqrt(t): (-zl - sqrt(disc)) / (4 beta zl gamma)."""
    prices = true_equilibrium_prices(p)
    zl = p.z * p.lam
    disc = zl * zl - 8.0 * p.beta * zl * p.gamma * prices.clearing_constant
    sqrt_t = (-zl - math.sqrt(disc)) / (4.0 * p.beta * zl * p.gamma)
    return replace(prices, w_star=(1.0 - p.alpha) / sqrt_t)


# name, replacement of equilibrium_prices, economies of EQUILIBRIUM_GRID whose
# wage the bracketed root of labor clearing rejects at a relative 1e-12.
EQUILIBRIUM_MUTANTS = [
    ("none", true_equilibrium_prices, 0),
    ("other root of the quadratic", _other_root, len(EQUILIBRIUM_GRID)),
]


@pytest.mark.parametrize("mutant,kills", [row[1:] for row in EQUILIBRIUM_MUTANTS],
                         ids=[row[0] for row in EQUILIBRIUM_MUTANTS])
def test_equilibrium_mutation_row(monkeypatch, mutant, kills):
    monkeypatch.setattr(wealth_mod, "equilibrium_prices", mutant)
    rejected = 0
    for p in EQUILIBRIUM_GRID:
        prices = wealth_mod.equilibrium_prices(p)
        root = equilibrium_wage_root(replace(p, r=prices.r_star))
        rejected += not math.isclose(prices.w_star, root, rel_tol=1e-12)
    assert rejected == kills


true_cawf = consumption_mod.cawf


def _cawf_limits_swapped(d_value, n, p):
    """The CAWF with the weight 1/(1 + n/omega) on the large-crowd limit instead."""
    return (consumption_mod.cawf_bayes_limit(d_value, p)
            + consumption_mod.cawf_nonbayes_limit(d_value, p) - true_cawf(d_value, n, p))


def _failed_cawf_checks(cawf) -> list[str]:
    """The CAWF checks that fail at the default [consumption] keys (scale > 1), on 21 D."""
    p = default_config().cawf_params()
    crowds = (0.0, 1.0, 10.0, 100.0, 1000.0, 1e6)
    failed = set()
    for d in (i / 20 for i in range(21)):
        lo = consumption_mod.cawf_bayes_limit(d, p)
        hi = consumption_mod.cawf_nonbayes_limit(d, p)
        values = [cawf(d, n, p) for n in crowds]
        checks = {
            "Bayes limit at n = 0": abs(cawf(d, 0.0, p) - lo) <= 1e-14,
            "non-Bayes limit as n -> inf": abs(cawf(d, math.inf, p) - hi) <= 1e-14,
            "midpoint at n = omega": math.isclose(cawf(d, p.omega, p), 0.5 * (lo + hi),
                                                  rel_tol=1e-12, abs_tol=1e-14),
            "between the limits": all(min(lo, hi) - 1e-12 <= v <= max(lo, hi) + 1e-12
                                      for v in values),
            "falls in n": all(b < a for a, b in zip(values, values[1:])),
        }
        failed.update(name for name, ok in checks.items() if not ok)
    return sorted(failed)


# name, replacement of cawf, the checks that reject it.  Swapped limits keep
# the midpoint and the range; the limits and the direction in n catch them.
CAWF_MUTANTS = [
    ("none", true_cawf, []),
    ("Bayes and non-Bayes limits swapped", _cawf_limits_swapped,
     ["Bayes limit at n = 0", "falls in n", "non-Bayes limit as n -> inf"]),
]


@pytest.mark.parametrize("mutant,kills", [row[1:] for row in CAWF_MUTANTS],
                         ids=[row[0] for row in CAWF_MUTANTS])
def test_cawf_mutation_row(monkeypatch, mutant, kills):
    monkeypatch.setattr(consumption_mod, "cawf", mutant)
    assert _failed_cawf_checks(consumption_mod.cawf) == kills


@functools.cache
def _ou_oracle_states(sampler):
    """The reflected-OU oracle's states at the horizon, drawn by sampler; the
    unmutated sampler passes this oracle in test_stochastic_core.py."""
    spec = OU_ORACLE_SPEC
    return sampler(spec, RngSpec(1, stream_id=300), OU_ORACLE_PATHS, [spec.horizon])[:, 0]


# name, sampler, the spec whose Gibbs law the states are compared with.
# Clipping piles mass on the bounds; each wrong law is one a sampler could
# settle into.  Halving the reversion gives the variance volatility^2/reversion.
OU_MUTANTS = [
    ("fold replaced by np.clip", _edited(
        sde_mod.simulate_ou_reflected, "np.abs(x, out=tmp)",
        "np.clip(x, 0.0, 1.0, out=x)\n            np.abs(x, out=tmp)"), OU_ORACLE_SPEC),
    ("variance volatility^2/reversion", sde_mod.simulate_ou_reflected,
     replace(OU_ORACLE_SPEC, reversion=OU_ORACLE_SPEC.reversion / 2.0)),
    ("mean + 0.05", sde_mod.simulate_ou_reflected,
     replace(OU_ORACLE_SPEC, mean=OU_ORACLE_SPEC.mean + 0.05)),
]


@pytest.mark.parametrize("sampler,law_spec", [row[1:] for row in OU_MUTANTS],
                         ids=[row[0] for row in OU_MUTANTS])
def test_ou_oracle_mutation_row(sampler, law_spec):
    assert whole_array_ks(_ou_oracle_states(sampler), ou_gibbs_law(law_spec)) > OU_ORACLE_BOUND
