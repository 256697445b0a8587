"""Command-line front end.

One subcommand per model block (cognition, datavalue, consumption, tax,
wealth, equilibrium) plus two cross-cutting verbs: reproduce, which writes
the CSV series behind the reference figures, and validate, which runs the
dual-oracle density checks.

Exit codes: 0 success, 1 usage or configuration error, 2 validation failure,
3 numeric degeneracy.
"""

from __future__ import annotations

import sys

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
from .config import (
    ScenarioConfig,
    apply_overrides,
    entropy_cap_from_variance,
    explain_lines,
    parse_config,
)
from .consumption import (
    EffectiveConsumption,
    bayes_adjustment,
    cawf,
    cawf_bayes_limit,
    cawf_nonbayes_limit,
    implied_shrinkage,
    nonbayes_adjustment,
    shrinkage_crossover,
)
from .data_value import (
    InfoEnsemble,
    SourceDist,
    aggregate_data_value,
    data_value_index,
    differential_entropy,
    information_value,
    value_weight,
)
from .errors import ConfigError, DegenerateModelError, ValidationError
from .figures import FIGURE_IDS
from .figures import reproduce as build_series
from .tax_model import (
    check_mass_consistency,
    consumptions,
    hazard_ratio_check,
    proposition1_check,
    truncated_exp_mean,
)
from .validate import check_reports, run_validations, validation_jobs
from .wealth import (
    density_stats,
    drift_diffusion,
    equilibrium_density,
    equilibrium_economy,
    equilibrium_prices,
    firm_policy,
    labor_market_residual,
    policy_functions,
    productivity_cutoff,
    profit_rate,
    stationary_wealth_density,
)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _kv(label: str, value) -> None:
    click.echo(f"  {label:<34} {value}")


def scenario_options(fn):
    fn = click.option("--config", "config_path", default=None, metavar="PATH",
                      help="scenario file; [section] headers, key = value lines")(fn)
    fn = click.option("--seed", type=click.IntRange(min=0), default=None,
                      metavar="U64", help="master seed override")(fn)
    fn = click.option("--out", "out_dir", default=None, metavar="DIR",
                      help="output directory override")(fn)
    fn = click.option("--explain", is_flag=True,
                      help="print every resolved key with value, origin, meaning")(fn)
    return fn


def _load(config_path, seed, out_dir, explain) -> ScenarioConfig:
    cfg = apply_overrides(parse_config(config_path), seed, out_dir)
    if explain:
        for line in explain_lines(cfg):
            click.echo(line)
        click.echo("")
    return cfg


@click.group()
def cli() -> None:
    """Resource-dilution, data-valuation, and wealth-distribution toolkit."""


@cli.command()
@scenario_options
def cognition(config_path, seed, out_dir, explain) -> None:
    """Retention dynamics and the stationary cognition density."""
    cfg = _load(config_path, seed, out_dir, explain)
    rp = cfg.retention_params()
    click.echo("[retention]")
    _kv("gap (recovery - dilution)", _fmt(rp.gap()))
    _kv("limit as t -> inf", _fmt(retention_limit(rp)))
    times = np.array([1.0, 5.0, 10.0])
    for t, r in zip(times, retention_trajectory(rp, times)):
        _kv(f"r(t = {t:g})", _fmt(r))
    p = cfg.cognition_params()
    click.echo("[cognition]")
    _kv("crowding load", _fmt(p.crowding_load()))
    _kv("steady-state resource", _fmt(steady_state_resource(p)))
    _kv("dilution fraction", _fmt(dilution_fraction(p)))
    _kv("half-dilution crowd size n*", _fmt(dilution_threshold(p)))
    phi, omega, sigma = gbm_coefficients(p)
    _kv("resource drift phi", _fmt(phi))
    _kv("resource volatility omega", _fmt(omega))
    _kv("effective log drift", _fmt(sigma))
    stats = density_stats(stationary_cognition_density(p))
    click.echo("[stationary log density]")
    _kv("mean", _fmt(stats.mean_x))
    _kv("variance", _fmt(stats.var_x))
    _kv("left tail rate", _fmt(stats.tail_exponent_left))
    _kv("right tail rate", _fmt(stats.tail_exponent_right))


def _parse_ensemble_file(path: str, default_j: float, sigma_max: float) -> InfoEnsemble:
    """Read a source-ensemble description.

    Grammar: optional `j = X` / `ref_variance = X` header lines, then a
    [sources] block with `uniform WIDTH` or `gaussian VARIANCE` lines, then an
    optional [interactions] block with `i j synergy antagonism` rows using
    1-based source indices.
    """
    j_coupling = default_j
    sources: list[SourceDist] = []
    synergy: dict = {}
    antagonism: dict = {}
    block = None
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ConfigError(f"cannot read ensemble file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if stripped not in ("[sources]", "[interactions]"):
                raise ConfigError(f"line {lineno}: unknown ensemble block {stripped}")
            block = stripped
            continue
        # float(), int() and the source factories raise ValueError on bad input,
        # entropy_cap_from_variance raises ConfigError; both get the line number here.
        try:
            if block is None:
                key, _, raw = stripped.partition("=")
                key, raw = key.strip(), raw.strip()
                if key == "j":
                    j_coupling = float(raw)
                elif key == "ref_variance":
                    sigma_max = entropy_cap_from_variance(float(raw))
                else:
                    raise ConfigError(f"unknown ensemble header key {key!r}")
                continue
            parts = stripped.split()
            if block == "[sources]":
                if len(parts) != 2 or parts[0] not in ("uniform", "gaussian"):
                    raise ConfigError(f"expected 'uniform WIDTH' or "
                                      f"'gaussian VARIANCE', got {line.strip()!r}")
                factory = SourceDist.uniform if parts[0] == "uniform" else SourceDist.gaussian
                sources.append(factory(float(parts[1])))
            else:
                if len(parts) != 4:
                    raise ConfigError(f"expected 'i j synergy antagonism', "
                                      f"got {line.strip()!r}")
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                synergy[(i, j)] = float(parts[2])
                antagonism[(i, j)] = float(parts[3])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if not sources:
        raise ConfigError(f"ensemble file {path} defines no sources")
    try:
        return InfoEnsemble(sources=tuple(sources), sigma_max=sigma_max,
                            j_coupling=j_coupling, synergy=synergy,
                            antagonism=antagonism)
    except ValueError as exc:
        raise ConfigError(f"ensemble file {path}: {exc}")


def _demo_ensemble(j_coupling: float, sigma_max: float) -> InfoEnsemble:
    sources = (SourceDist.uniform(1.0), SourceDist.uniform(2.0), SourceDist.gaussian(0.25))
    return InfoEnsemble(sources=sources, sigma_max=sigma_max, j_coupling=j_coupling,
                        synergy={(0, 1): 0.6}, antagonism={(1, 2): 0.3})


@cli.command()
@scenario_options
@click.option("--ensemble", "ensemble_path", default=None, metavar="PATH",
              help="source-ensemble file; a three-source demo is used when omitted")
def datavalue(config_path, seed, out_dir, explain, ensemble_path) -> None:
    """Entropy-based source values and the aggregate data-value index."""
    cfg = _load(config_path, seed, out_dir, explain)
    sigma_max = entropy_cap_from_variance(cfg.get("datavalue", "ref_variance"))
    j_coupling = cfg.get("datavalue", "j_coupling")
    if ensemble_path is None:
        ensemble = _demo_ensemble(j_coupling, sigma_max)
    else:
        ensemble = _parse_ensemble_file(ensemble_path, j_coupling, sigma_max)
    click.echo("[sources]")
    for idx, s in enumerate(ensemble.sources, start=1):
        h = differential_entropy(s)
        v = information_value(h, ensemble.sigma_max)
        _kv(f"{idx}: {s.kind}", f"entropy {_fmt(h)}  value {_fmt(v)}  "
                                f"weight {_fmt(value_weight(v))}")
    click.echo("[aggregate]")
    _kv("entropy cap", _fmt(ensemble.sigma_max))
    _kv("coupling J", _fmt(ensemble.j_coupling))
    d = aggregate_data_value(ensemble)
    _kv("ensemble data value", _fmt(d))
    _kv("squashed index", _fmt(data_value_index([d])))


@cli.command()
@scenario_options
def consumption(config_path, seed, out_dir, explain) -> None:
    """Belief adjustments and the consumption adjustment weight."""
    cfg = _load(config_path, seed, out_dir, explain)
    sp = cfg.shrinkage_params()
    p1 = cfg.get("consumption", "p1")
    s = bayes_adjustment(p1)
    click.echo("[belief adjustment]")
    _kv("upward belief p1", _fmt(p1))
    _kv("exact log-odds adjustment S", _fmt(s))
    _kv("shrunken adjustment", _fmt(nonbayes_adjustment(s, sp)))
    crossover = shrinkage_crossover(sp)
    if crossover is None:
        _kv("crossover", "none (slope one)")
    else:
        _kv("crossover ln S", _fmt(crossover))
        # The two lines meet at S = 1 only when mu_b = 1; any level shift
        # moves the intersection, so it is reported rather than assumed.
        _kv("crossover S", _fmt(np.exp(crossover)))
    sh = cfg.values["shrinkage"]
    implied = implied_shrinkage(sh["sigma_s"], sh["sigma_n"], sh["mu_s"])
    _kv("implied beta from noise model", _fmt(implied.beta_b))
    _kv("implied mu from noise model", _fmt(implied.mu_b))
    cp = cfg.cawf_params()
    click.echo("[adjustment weight]")
    for d in (0.25, 0.5, 0.75):
        row = (f"n->0 {_fmt(cawf_bayes_limit(d, cp)):>14}  "
               f"n=omega {_fmt(cawf(d, cp.omega, cp)):>14}  "
               f"n->inf {_fmt(cawf_nonbayes_limit(d, cp)):>14}")
        _kv(f"D = {d:g}", row)
    delta = cawf(0.75, cp.omega, cp)
    eff = EffectiveConsumption(c_total=1.0, c_delta=float(delta))
    _kv("effective consumption at D=0.75, n=omega", _fmt(eff.utility_consumption()))


@cli.command()
@scenario_options
def tax(config_path, seed, out_dir, explain) -> None:
    """Output-tax economy: masses, consumptions, and tax-rate preference."""
    cfg = _load(config_path, seed, out_dir, explain)
    e = cfg.tax_economy()
    click.echo("[population]")
    _kv("truncated level-ability mean", _fmt(truncated_exp_mean(e.mu_bar, e.sigma_mu, e.k_cut)))
    _kv("implied investor mass", _fmt(check_mass_consistency(e)))
    _kv("configured investor mass m", _fmt(e.m))
    h_zero, h_shift = hazard_ratio_check(e.k_cut, e.sigma_mu)
    _kv("hazard at cutoff (zero mean)", _fmt(h_zero))
    _kv("hazard at cutoff (shifted mean)", _fmt(h_shift))
    click.echo("[consumption at zero shocks]")
    c_gov, c_inv = consumptions(e, 0.0, 0.0, mu_b=0.0)
    _kv("government worker", _fmt(c_gov))
    _kv("investor", _fmt(c_inv))
    click.echo("[tax preference]")
    tau_low, tau_high = cfg.get("tax", "tau_low"), cfg.get("tax", "tau_high")
    u_low, u_high, prefers_low = proposition1_check(e, tau_low, tau_high)
    _kv(f"expected utility at tau = {tau_low:g}", _fmt(u_low))
    _kv(f"expected utility at tau = {tau_high:g}", _fmt(u_high))
    _kv("investor prefers the lower rate", str(prefers_low).lower())


def _echo_wealth_stats(header: str, density) -> None:
    stats = density_stats(density)
    click.echo(header)
    _kv("mean log wealth", _fmt(stats.mean_x))
    _kv("log wealth variance", _fmt(stats.var_x))
    _kv("left tail rate", _fmt(stats.tail_exponent_left))
    _kv("right tail rate", _fmt(stats.tail_exponent_right))
    if stats.wealth_mean_exists:
        _kv("mean level wealth", _fmt(stats.wealth_mean))
    else:
        _kv("mean level wealth", "divergent (right tail rate <= 1)")


@cli.command()
@scenario_options
def wealth(config_path, seed, out_dir, explain) -> None:
    """Firm activity, optimal policies, and the stationary wealth density."""
    cfg = _load(config_path, seed, out_dir, explain)
    p = cfg.wealth_params()
    z_min = productivity_cutoff(p.r, p.delta, p.alpha, p.w)
    click.echo("[technology]")
    _kv("productivity cutoff z_min", _fmt(z_min))
    _kv("configured productivity z", _fmt(p.z))
    if p.z >= z_min:
        policy = firm_policy(p, a=1.0)
        _kv("capital per unit wealth", _fmt(policy.capital))
        _kv("labor per unit wealth", _fmt(policy.labor))
        _kv("profit per unit wealth", _fmt(policy.profit))
    else:
        _kv("firm activity", "inactive (z below cutoff)")
    coeffs = policy_functions(p)
    click.echo("[policies]")
    _kv("risky share coefficient", _fmt(coeffs.kappa_coeff))
    _kv("consumption coefficient", _fmt(coeffs.c_coeff))
    law = drift_diffusion(p)
    click.echo("[log-wealth law]")
    _kv("drift mu", _fmt(law.mu))
    _kv("volatility sigma_x", _fmt(law.sigma_x))
    _kv("reset rate", _fmt(law.reset_rate))
    _echo_wealth_stats("[stationary density]", stationary_wealth_density(law))


@cli.command()
@scenario_options
def equilibrium(config_path, seed, out_dir, explain) -> None:
    """Closed-form market-clearing prices and the equilibrium density."""
    cfg = _load(config_path, seed, out_dir, explain)
    p = cfg.equilibrium_params()
    prices = equilibrium_prices(p)
    click.echo("[prices]")
    _kv("equilibrium rate r*", _fmt(prices.r_star))
    _kv("clearing constant", _fmt(prices.clearing_constant))
    if not prices.valid:
        _kv("equilibrium wage w*", "none")
        raise DegenerateModelError(
            "clearing constant is nonnegative "
            f"({_fmt(prices.clearing_constant)}); no equilibrium wage exists")
    _kv("equilibrium wage w*", _fmt(prices.w_star))
    eq = equilibrium_economy(p)
    _echo_wealth_stats("[equilibrium density]", equilibrium_density(p))
    click.echo("[consistency]")
    _kv("labor-market residual", _fmt(labor_market_residual(p)))
    _kv("firm profit rate at w*", _fmt(profit_rate(eq)))


@cli.command()
@scenario_options
@click.option("--figure", "figure_spec", default="all", metavar="N|all",
              help="figure id in 1..14, or all")
def reproduce(config_path, seed, out_dir, explain, figure_spec) -> None:
    """Write the CSV data series behind the reference figures."""
    cfg = _load(config_path, seed, out_dir, explain)
    if figure_spec == "all":
        ids = FIGURE_IDS
    else:
        try:
            fid = int(figure_spec)
        except ValueError:
            raise click.BadParameter(f"--figure expects an integer or 'all', got {figure_spec!r}")
        if fid not in FIGURE_IDS:
            raise click.BadParameter(f"--figure must lie in 1..14, got {fid}")
        ids = (fid,)
    for fid in ids:
        path = build_series(fid, cfg).write(cfg.out_dir)
        click.echo(f"wrote {path}")


@cli.command()
@scenario_options
def validate(config_path, seed, out_dir, explain) -> None:
    """Cross-validate closed-form densities against the FD and MC oracles."""
    cfg = _load(config_path, seed, out_dir, explain)

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
