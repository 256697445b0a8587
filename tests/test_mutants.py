"""Mutation matrix: which oracle gate rejects each wrong closed form.

Each row patches one mistake into the program and runs validate's twelve
benchmark laws at a reduced size, 2001 FD points and 20 000 samples (KS_TOL
is still a DKW bound at that n).  The row records on how many of the laws
each gate fails.  A gate that loses its power, or a mutant that a gate
starts to miss, changes a count and fails the test.  A mutant that every
gate lets through stays in the table with zero kills, as a known gap.

The equilibrium rows patch the closed-form prices instead, and count the
square-root-technology economies whose wage is not the bracketed root of
the labor-market residual.
"""

import math
from dataclasses import replace

import pytest

import cogecon.validate as validate_mod
import cogecon.wealth as wealth_mod
from cogecon.densities import PiecewiseExpDensity, ResetLaw
from references import EQUILIBRIUM_GRID, equilibrium_wage_root

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


# name, patched owner, attribute, replacement, laws failed by FD, by KS.
MUTANTS = [
    ("none", ResetLaw, "density", true_density, 0, 0),
    ("mu x 1.05", ResetLaw, "density", lambda law: PiecewiseExpDensity.from_reset_law(
        1.05 * law.mu, law.sigma_x, law.reset_rate), 12, 4),
    ("beta x 1.1", ResetLaw, "density", lambda law: PiecewiseExpDensity.from_reset_law(
        law.mu, law.sigma_x, 1.1 * law.reset_rate), 12, 10),
    ("sigma^2/2 for sigma^2", ResetLaw, "density", lambda law: PiecewiseExpDensity.from_reset_law(
        law.mu, law.sigma_x / math.sqrt(2.0), law.reset_rate), 12, 8),
    ("rates swapped", ResetLaw, "density", _swapped_rates, 12, 12),
    # Both oracles take the law drift_diffusion returns, so a wrong drift
    # that the closed form then follows is invisible to them.
    ("Ito term dropped", validate_mod, "drift_diffusion", _ito_term_dropped, 0, 0),
]


@pytest.mark.parametrize("owner,attr,mutant,fd_kills,ks_kills",
                         [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS])
def test_mutation_matrix_row(monkeypatch, owner, attr, mutant, fd_kills, ks_kills):
    monkeypatch.setattr(owner, attr, mutant)
    reports = list(validate_mod.run_validations(validate_mod.validation_jobs(SEED),
                                                N_POINTS, N_SAMPLES))
    assert len(reports) == 12
    assert (sum(r.fd_error >= r.fd_tol for r in reports),
            sum(r.ks_distance >= r.ks_tol for r in reports)) == (fd_kills, ks_kills)


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
