"""Command-line front end.

One subcommand per model block (cognition, datavalue, consumption, tax,
wealth, equilibrium) plus two cross-cutting verbs: reproduce, which writes
the CSV series behind the reference figures, and validate, which runs the
dual-oracle density checks.

Exit codes: 0 success, 1 usage or configuration error, 2 validation failure,
3 numeric degeneracy.
"""

from __future__ import annotations

import functools
import inspect
import sys
import warnings
from dataclasses import replace

import click
import numpy as np

from .cognition import (
    dilution_fraction,
    dilution_threshold,
    gbm_coefficients,
    retention_limit,
    retention_trajectory,
    stationary_cognition_density,
    steady_state_resource,
)
from .config import apply_overrides, config_error, explain_lines, parse_config
from .consumption import (
    bayes_adjustment,
    cawf,
    cawf_bayes_limit,
    cawf_nonbayes_limit,
    effective_consumption,
    implied_shrinkage,
    nonbayes_adjustment,
    shrinkage_crossover,
)
from .data_value import (
    aggregate_data_value,
    data_value_index,
    differential_entropy,
    value_weight,
)
from .errors import ConfigError, DegenerateModelError, ValidationError
from .figures import FIGURE_IDS
from .figures import reproduce as build_series
from .tax_model import (
    check_mass_consistency,
    check_tax_rates,
    consumptions,
    hazard_ratio_check,
    proposition1_check,
    truncated_exp_mean,
)
from .validate import check_reports, run_validations, validation_jobs
from .wealth import (
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


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _render(rows) -> None:
    """Print each row as it is yielded: a "[section]" header, or a (label, text) line."""
    for row in rows:
        click.echo(row if isinstance(row, str) else f"  {row[0]:<34} {row[1]}")


@click.group()
def cli() -> None:
    """Resource-dilution, data-valuation, and wealth-distribution toolkit."""


_SCENARIO_OPTIONS = (
    click.option("--config", "config_path", default=None, metavar="PATH",
                 help="scenario file; [section] headers, key = value lines"),
    click.option("--seed", type=click.IntRange(min=0), default=None,
                 metavar="U64", help="master seed override"),
    click.option("--out", "out_dir", default=None, metavar="DIR",
                 help="output directory override"),
    click.option("--explain", is_flag=True,
                 help="print every resolved key with value, origin, meaning"),
)

# The report verbs' row generators, by verb name, in registration order.
_REPORTS = {}


def _evaluate_reports(cfg) -> None:
    """Drain every report verb's rows once, printing nothing: the load check.

    A value that a report's rows reject exits 1 under every verb, labelled
    with that verb's name: a validator's own message, or an overflow or a
    division by zero named with the last row the report yielded before it.
    A degenerate model is in range; the verb that uses it exits 3.
    """
    for name, rows in _REPORTS.items():
        row = None
        try:
            for row in rows(cfg):
                pass
        except DegenerateModelError:
            continue
        except (ValueError, ArithmeticError) as exc:
            label = row if row is None or isinstance(row, str) else row[0]
            raise config_error(name, exc, label) from exc


def scenario_command(*extra_options):
    """Register a verb with the four scenario flags plus its own options.

    The verb receives the loaded ScenarioConfig, after --explain has printed
    it, followed by its own options as keyword arguments.  A report verb
    yields its rows, printed as they come.  With a scenario file, every
    report's rows are drained at load, under every verb: that is where the
    values the reports consume are checked.
    """
    def register(verb):
        report = inspect.isgeneratorfunction(verb)
        if report:
            _REPORTS[verb.__name__] = verb

        @functools.wraps(verb)
        def run(config_path, seed, out_dir, explain, **extra) -> None:
            # a silent load: each verb prints, once, the warnings of what it computes
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = parse_config(config_path)
                if config_path is not None:
                    _evaluate_reports(cfg)
            cfg = apply_overrides(cfg, seed, out_dir)
            if explain:
                for line in explain_lines(cfg):
                    click.echo(line)
                click.echo("")
            result = verb(cfg, **extra)
            if report:
                _render(result)

        for option in extra_options + _SCENARIO_OPTIONS:
            run = option(run)
        return cli.command()(run)
    return register


@scenario_command()
def cognition(cfg):
    """Retention dynamics and the stationary cognition density."""
    rp = cfg.retention_params()
    yield "[retention]"
    yield "gap (recovery - dilution)", _fmt(rp.gap())
    yield "limit as t -> inf", _fmt(retention_limit(rp))
    times = np.array([1.0, 5.0, 10.0])
    for t, r in zip(times, retention_trajectory(rp, times)):
        yield f"r(t = {t:g})", _fmt(r)
    p = cfg.cognition_params()
    yield "[cognition]"
    yield "crowding load", _fmt(p.crowding_load())
    yield "steady-state resource", _fmt(steady_state_resource(p))
    yield "dilution fraction", _fmt(dilution_fraction(p))
    yield "half-dilution crowd size n*", _fmt(dilution_threshold(p))
    phi, omega, sigma = gbm_coefficients(p)
    yield "resource drift phi", _fmt(phi)
    yield "resource volatility omega", _fmt(omega)
    yield "effective log drift", _fmt(sigma)
    stats = density_stats(stationary_cognition_density(p))
    yield "[stationary log density]"
    yield "mean", _fmt(stats.mean_x)
    yield "variance", _fmt(stats.var_x)
    yield "left tail rate", _fmt(stats.tail_exponent_left)
    yield "right tail rate", _fmt(stats.tail_exponent_right)


@scenario_command(click.option(
    "--ensemble", "ensemble_path", default=None, metavar="PATH",
    help="source-ensemble file; a three-source demo is used when omitted"))
def datavalue(cfg, ensemble_path=None):
    """Entropy-based source values and the aggregate data-value index."""
    ensemble = cfg.data_ensemble(ensemble_path)
    yield "[sources]"
    values = ensemble.source_values()
    for idx, (s, v) in enumerate(zip(ensemble.sources, values), start=1):
        yield f"{idx}: {s.kind}", (f"entropy {_fmt(differential_entropy(s))}  value {_fmt(v)}  "
                                   f"weight {_fmt(value_weight(v))}")
    yield "[aggregate]"
    yield "entropy cap", _fmt(ensemble.sigma_max)
    yield "coupling J", _fmt(ensemble.j_coupling)
    d = aggregate_data_value(ensemble, values)
    yield "ensemble data value", _fmt(d)
    yield "squashed index", _fmt(data_value_index([d]))


@scenario_command()
def consumption(cfg):
    """Belief adjustments and the consumption adjustment weight."""
    sp = cfg.shrinkage_params()
    p1 = cfg.get("consumption", "p1")
    s = bayes_adjustment(p1)
    yield "[belief adjustment]"
    yield "upward belief p1", _fmt(p1)
    yield "exact log-odds adjustment S", _fmt(s)
    yield "shrunken adjustment", _fmt(nonbayes_adjustment(s, sp))
    crossover = shrinkage_crossover(sp)
    if crossover is None:
        yield "crossover", "none (slope one)"
    else:
        yield "crossover ln S", _fmt(crossover)
        # The two lines meet at S = 1 only when mu_b = 1; any level shift
        # moves the intersection, so it is reported rather than assumed.
        yield "crossover S", _fmt(np.exp(crossover))
    sh = cfg.values["shrinkage"]
    implied = implied_shrinkage(sh["sigma_s"], sh["sigma_n"], sh["mu_s"])
    yield "implied beta from noise model", _fmt(implied.beta_b)
    yield "implied mu from noise model", _fmt(implied.mu_b)
    cp = cfg.cawf_params()
    yield "[adjustment weight]"
    for d in (0.25, 0.5, 0.75):
        row = (f"n->0 {_fmt(cawf_bayes_limit(d, cp)):>14}  "
               f"n=omega {_fmt(cawf(d, cp.omega, cp)):>14}  "
               f"n->inf {_fmt(cawf_nonbayes_limit(d, cp)):>14}")
        yield f"D = {d:g}", row
    eff = effective_consumption(0.75, cp)
    yield "effective consumption at D=0.75, n=omega", _fmt(eff.utility_consumption())


@scenario_command()
def tax(cfg):
    """Output-tax economy: masses, consumptions, and tax-rate preference."""
    e = cfg.tax_economy()
    # checked before the first row, which a degenerate cutoff ends
    tau_low, tau_high = cfg.get("tax", "tau_low"), cfg.get("tax", "tau_high")
    check_tax_rates(tau_low, tau_high)
    yield "[population]"
    yield "truncated level-ability mean", _fmt(truncated_exp_mean(e.mu_bar, e.sigma_mu, e.k_cut))
    yield "implied investor mass", _fmt(check_mass_consistency(e))
    yield "configured investor mass m", _fmt(e.m)
    h_zero, h_shift = hazard_ratio_check(e.k_cut - e.mu_bar, e.sigma_mu)
    yield "hazard at cutoff (zero mean)", _fmt(h_zero)
    yield "hazard at cutoff (shifted mean)", _fmt(h_shift)
    yield "[consumption at zero shocks]"
    c_gov, c_inv = consumptions(e, 0.0, 0.0, mu_b=0.0)
    yield "government worker", _fmt(c_gov)
    yield "investor", _fmt(c_inv)
    yield "[tax preference]"
    u_low, u_high, prefers_low = proposition1_check(e, tau_low, tau_high)
    yield f"expected utility at tau = {tau_low:g}", _fmt(u_low)
    yield f"expected utility at tau = {tau_high:g}", _fmt(u_high)
    yield "investor prefers the lower rate", str(prefers_low).lower()


def _wealth_stats_rows(header: str, density):
    stats = density_stats(density)
    yield header
    yield "mean log wealth", _fmt(stats.mean_x)
    yield "log wealth variance", _fmt(stats.var_x)
    yield "left tail rate", _fmt(stats.tail_exponent_left)
    yield "right tail rate", _fmt(stats.tail_exponent_right)
    yield "mean level wealth", (_fmt(stats.wealth_mean) if stats.wealth_mean_exists
                                else "divergent (right tail rate <= 1)")


@scenario_command()
def wealth(cfg):
    """Firm activity, optimal policies, and the stationary wealth density."""
    p = cfg.wealth_params()
    z_min = productivity_cutoff(p.r, p.delta, p.alpha, p.w)
    yield "[technology]"
    yield "productivity cutoff z_min", _fmt(z_min)
    yield "configured productivity z", _fmt(p.z)
    if p.z >= z_min:
        policy = firm_policy(p, a=1.0)
        yield "capital per unit wealth", _fmt(policy.capital)
        yield "labor per unit wealth", _fmt(policy.labor)
        yield "profit per unit wealth", _fmt(policy.profit)
    else:
        yield "firm activity", "inactive (z below cutoff)"
    coeffs = policy_functions(p)
    yield "[policies]"
    yield "risky share coefficient", _fmt(coeffs.kappa_coeff)
    yield "consumption coefficient", _fmt(coeffs.c_coeff)
    law = drift_diffusion(p)
    yield "[log-wealth law]"
    yield "drift mu", _fmt(law.mu)
    yield "volatility sigma_x", _fmt(law.sigma_x)
    yield "reset rate", _fmt(law.reset_rate)
    yield from _wealth_stats_rows("[stationary density]", stationary_wealth_density(law))


@scenario_command()
def equilibrium(cfg):
    """Closed-form market-clearing prices and the equilibrium density."""
    p = cfg.equilibrium_params()
    prices = equilibrium_prices(p)
    yield "[prices]"
    yield "equilibrium rate r*", _fmt(prices.r_star)
    yield "clearing constant", _fmt(prices.clearing_constant)
    if prices.w_star is None:
        yield "equilibrium wage w*", "none"
        raise DegenerateModelError(
            "clearing constant is nonnegative "
            f"({_fmt(prices.clearing_constant)}); no equilibrium wage exists")
    yield "equilibrium wage w*", _fmt(prices.w_star)
    eq = replace(p, w=prices.w_star, r=prices.r_star)
    density = stationary_wealth_density(drift_diffusion(eq))
    yield from _wealth_stats_rows("[equilibrium density]", density)
    yield "[consistency]"
    yield "labor-market residual", _fmt(labor_residual_at(eq, density))
    yield "firm profit rate at w*", _fmt(profit_rate(eq))


@scenario_command(click.option("--figure", "figure_spec", default="all",
                               type=click.Choice(["all", *map(str, FIGURE_IDS)]),
                               help="one figure's id, or all"))
def reproduce(cfg, figure_spec) -> None:
    """Write the CSV data series behind the reference figures."""
    for fid in FIGURE_IDS if figure_spec == "all" else (int(figure_spec),):
        # a swept column can leave floating-point range where every report is in it
        try:
            series = build_series(fid, cfg)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"figure {fid}: {exc}") from exc
        try:
            path = series.write(cfg.out_dir)
        except OSError as exc:
            raise ConfigError(f"figure {fid}: cannot write {series.name}.csv "
                              f"under {cfg.out_dir}: {exc.strerror or exc}") from exc
        click.echo(f"wrote {path}")


@scenario_command()
def validate(cfg) -> None:
    """Cross-validate closed-form densities against the FD and MC oracles."""

    def echo_report(rep) -> None:
        verdict = "PASS" if rep.passed else "FAIL"
        click.echo(f"  {rep.label:<40} fd {rep.fd_error:.3e} (tol {rep.fd_tol:g})  "
                   f"ks {rep.ks_distance:.3e} (tol {rep.ks_tol:g})  {verdict}")

    click.echo("[configured law]")
    law = drift_diffusion(cfg.wealth_params())
    results = run_validations(validation_jobs(cfg.seed, configured=law),
                              cfg.get("validate", "n_points"), cfg.get("validate", "n_samples"))
    try:
        reports = [next(results)]
    except DegenerateModelError as exc:
        click.echo(f"  configured{'':<30} DEGENERATE  sigma_x = {law.sigma_x:g}")
        raise DegenerateModelError(
            f"configured wealth law is degenerate: {exc}") from exc
    echo_report(reports[0])
    click.echo("[benchmark combinations]")
    for rep in results:
        echo_report(rep)
        reports.append(rep)
    check_reports(reports)
    click.echo(f"all {len(reports)} density checks passed")


def main(argv=None) -> None:
    # a warning is one stderr line and leaves the exit code alone
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
        try:
            cli.main(args=argv, standalone_mode=False)
        except click.exceptions.Exit as exc:
            sys.exit(exc.exit_code)
        except click.UsageError as exc:
            exc.show()
            sys.exit(1)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(1)
        except ValidationError as exc:
            click.echo(f"validation failure: {exc}", err=True)
            sys.exit(2)
        except DegenerateModelError as exc:
            click.echo(f"degenerate model: {exc}", err=True)
            sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
