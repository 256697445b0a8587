"""Mutation matrix: which oracle gate rejects each wrong closed form.

Each row patches one mistake into the program and runs validate's twelve
benchmark laws at a reduced size, 2001 FD points and 20 000 samples (KS_TOL
is still a DKW bound at that n).  The row records on how many of the laws
each gate fails.  A gate that loses its power, or a mutant that a gate
starts to miss, changes a count and fails the test.  A mutant that every
gate lets through stays in the table with zero kills, as a known gap.
"""

import math

import pytest

import cogecon.validate as validate_mod
from cogecon.densities import PiecewiseExpDensity, ResetLaw

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
