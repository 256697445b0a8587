"""Command-line front end.

One subcommand per model block (cognition, datavalue, consumption, tax,
wealth, equilibrium) plus two cross-cutting verbs: reproduce, which writes
the CSV series behind the reference figures, and validate, which runs the
dual-oracle density checks.

Exit codes: 0 success, 1 usage or configuration error, 2 validation failure,
3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys
import warnings
from contextlib import suppress
from dataclasses import replace

# numpy is imported inside the functions that use it, here and in every module
# this one loads, so that start-up, parsing and the array-free verbs skip it.
from .cognition import (
    cognition_law,
    dilution_fraction,
    dilution_threshold,
    gbm_coefficients,
    retention_limit,
    retention_trajectory,
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
)


def _fmt(x: float) -> str:
    """A number as a report prints it; inf and nan are refused."""
    if not math.isfinite(x):
        raise FloatingPointError(f"value {x} is not finite")
    return f"{x:.10g}"


def _line(row) -> str:
    """A row's printed line: a text row as it is, or a (label, value) row."""
    if isinstance(row, str):
        return row
    label, value = row
    if isinstance(value, bool):
        value = str(value).lower()
    elif not isinstance(value, str):
        value = _fmt(value)
    return f"  {label:<34} {value}"


def _lines(name: str, rows):
    """Each row's printed line, as it is yielded.  A value the rows reject
    becomes the one-line config error of verb name, naming the last row printed."""
    label = None
    try:
        for row in rows:
            yield _line(row)
            label = row if isinstance(row, str) else row[0]
    except (ValueError, ArithmeticError) as exc:
        raise config_error(name, exc, label) from exc


def _seed(text: str) -> int:
    """--seed: an integer >= 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def _option(*flags, **settings):
    """One option of a verb: add_argument's arguments."""
    return flags, settings


_SCENARIO_OPTIONS = (
    _option("--config", dest="config_path", metavar="PATH",
            help="scenario file; [section] headers, key = value lines"),
    _option("--seed", type=_seed, metavar="U64", help="master seed override"),
    _option("--out", dest="out_dir", metavar="DIR", help="output directory override"),
    _option("--explain", action="store_true",
            help="print every resolved key with value, origin, meaning"),
)

# Every verb's (docstring, options, runner), by verb name, in registration order.
_VERBS = {}


def scenario_command(*extra_options):
    """Register a verb with the four scenario flags plus its own options.

    The verb receives the loaded ScenarioConfig, after --explain has printed
    it, then its own options as keyword arguments, and yields rows that
    _lines prints as they come.  With a scenario file, every verb in _REPORTS
    is drained at load, unprinted: that is where the values the reports
    consume are checked, numbers that are not finite among them.  A
    degenerate model is in range there; the verb that uses it exits 3.
    """
    def register(verb):
        def run(config_path, seed, out_dir, explain, **extra) -> None:
            # a silent load: each verb prints, once, the warnings of what it computes
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = parse_config(config_path)
                for report in _REPORTS if config_path is not None else ():
                    with suppress(DegenerateModelError):
                        for _ in _lines(report.__name__, report(cfg)):
                            pass
            cfg = apply_overrides(cfg, seed, out_dir)
            if explain:
                print(*explain_lines(cfg), "", sep="\n")
            for line in _lines(verb.__name__, verb(cfg, **extra)):
                print(line)

        _VERBS[verb.__name__] = verb.__doc__, extra_options + _SCENARIO_OPTIONS, run
        return verb
    return register


@scenario_command()
def cognition(cfg):
    """Retention dynamics and the stationary cognition density."""
    rp = cfg.retention_params()
    yield "[retention]"
    yield "gap (recovery - dilution)", rp.gap()
    yield "limit as t -> inf", retention_limit(rp)
    times = (1.0, 5.0, 10.0)
    for t, r in zip(times, retention_trajectory(rp, times)):
        yield f"r(t = {t:g})", r
    p = cfg.cognition_params()
    yield "[cognition]"
    yield "crowding load", p.crowding_load()
    yield "steady-state resource", steady_state_resource(p)
    yield "dilution fraction", dilution_fraction(p)
    yield "half-dilution crowd size n*", dilution_threshold(p)
    phi, omega, sigma = gbm_coefficients(p)
    yield "resource drift phi", phi
    yield "resource volatility omega", omega
    yield "effective log drift", sigma
    stats = density_stats(cognition_law(p).density())
    yield "[stationary log density]"
    yield "mean", stats.mean_x
    yield "variance", stats.var_x
    yield "left tail rate", stats.tail_exponent_left
    yield "right tail rate", stats.tail_exponent_right


@scenario_command(_option(
    "--ensemble", dest="ensemble_path", metavar="PATH",
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
    yield "entropy cap", ensemble.sigma_max
    yield "coupling J", ensemble.j_coupling
    d = aggregate_data_value(ensemble, values)
    yield "ensemble data value", d
    yield "squashed index", data_value_index([d])


@scenario_command()
def consumption(cfg):
    """Belief adjustments and the consumption adjustment weight."""
    import numpy as np

    sp = cfg.shrinkage_params()
    p1 = cfg.get("consumption", "p1")
    s = bayes_adjustment(p1)
    yield "[belief adjustment]"
    yield "upward belief p1", p1
    yield "exact log-odds adjustment S", s
    yield "shrunken adjustment", nonbayes_adjustment(s, sp)
    crossover = shrinkage_crossover(sp)
    if crossover is None:
        yield "crossover", "none (slope one)"
    else:
        yield "crossover ln S", crossover
        # The two lines meet at S = 1 only when mu_b = 1; any level shift
        # moves the intersection, so it is reported rather than assumed.
        yield "crossover S", np.exp(crossover)
    sh = cfg.values["shrinkage"]
    implied = implied_shrinkage(sh["sigma_s"], sh["sigma_n"], sh["mu_s"])
    yield "implied beta from noise model", implied.beta_b
    yield "implied mu from noise model", implied.mu_b
    cp = cfg.cawf_params()
    yield "[adjustment weight]"
    for d in (0.25, 0.5, 0.75):
        row = (f"n->0 {_fmt(cawf_bayes_limit(d, cp)):>14}  "
               f"n=omega {_fmt(cawf(d, cp.omega, cp)):>14}  "
               f"n->inf {_fmt(cawf_nonbayes_limit(d, cp)):>14}")
        yield f"D = {d:g}", row
    yield "effective consumption at D=0.75, n=omega", effective_consumption(0.75, cp)


@scenario_command()
def tax(cfg):
    """Output-tax economy: masses, consumptions, and tax-rate preference."""
    e = cfg.tax_economy()
    # checked before the first row, which a degenerate cutoff ends
    tau_low, tau_high = cfg.get("tax", "tau_low"), cfg.get("tax", "tau_high")
    check_tax_rates(tau_low, tau_high)
    yield "[population]"
    yield "truncated level-ability mean", truncated_exp_mean(e.mu_bar, e.sigma_mu, e.k_cut)
    yield "implied investor mass", check_mass_consistency(e)
    yield "configured investor mass m", e.m
    h_zero, h_shift = hazard_ratio_check(e.k_cut - e.mu_bar, e.sigma_mu)
    yield "hazard at cutoff (zero mean)", h_zero
    yield "hazard at cutoff (shifted mean)", h_shift
    yield "[consumption at zero shocks]"
    c_gov, c_inv = consumptions(e, 0.0, 0.0, mu_b=0.0)
    yield "government worker", c_gov
    yield "investor", c_inv
    yield "[tax preference]"
    u_low, u_high, prefers_low = proposition1_check(e, tau_low, tau_high)
    yield f"expected utility at tau = {tau_low:g}", u_low
    yield f"expected utility at tau = {tau_high:g}", u_high
    yield "investor prefers the lower rate", bool(prefers_low)


def _wealth_stats_rows(header: str, density):
    stats = density_stats(density)
    yield header
    yield "mean log wealth", stats.mean_x
    yield "log wealth variance", stats.var_x
    yield "left tail rate", stats.tail_exponent_left
    yield "right tail rate", stats.tail_exponent_right
    yield "mean level wealth", (stats.wealth_mean if stats.wealth_mean_exists
                                else "divergent (right tail rate <= 1)")


@scenario_command()
def wealth(cfg):
    """Firm activity, optimal policies, and the stationary wealth density."""
    p = cfg.wealth_params()
    z_min = productivity_cutoff(p.r, p.delta, p.alpha, p.w)
    yield "[technology]"
    yield "productivity cutoff z_min", z_min
    yield "configured productivity z", p.z
    if p.z >= z_min:
        policy = firm_policy(p, a=1.0)
        yield "capital per unit wealth", policy.capital
        yield "labor per unit wealth", policy.labor
        yield "profit per unit wealth", policy.profit
    else:
        yield "firm activity", "inactive (z below cutoff)"
    kappa_coeff, c_coeff = policy_functions(p)
    yield "[policies]"
    yield "risky share coefficient", kappa_coeff
    yield "consumption coefficient", c_coeff
    law = drift_diffusion(p)
    yield "[log-wealth law]"
    yield "drift mu", law.mu
    yield "volatility sigma_x", law.sigma_x
    yield "reset rate", law.reset_rate
    yield from _wealth_stats_rows("[stationary density]", law.density())


@scenario_command()
def equilibrium(cfg):
    """Closed-form market-clearing prices and the equilibrium density."""
    p = cfg.equilibrium_params()
    prices = equilibrium_prices(p)
    yield "[prices]"
    yield "equilibrium rate r*", prices.r_star
    yield "clearing constant", prices.clearing_constant
    if prices.w_star is None:
        yield "equilibrium wage w*", "none"
        raise DegenerateModelError(
            "clearing constant is nonnegative "
            f"({_fmt(prices.clearing_constant)}); no equilibrium wage exists")
    yield "equilibrium wage w*", prices.w_star
    eq = replace(p, w=prices.w_star, r=prices.r_star)
    density = drift_diffusion(eq).density()
    yield from _wealth_stats_rows("[equilibrium density]", density)
    yield "[consistency]"
    yield "labor-market residual", labor_residual_at(eq, density)
    yield "firm profit rate at w*", profit_rate(eq)
    yield "firms active at w*", prices.firms_active


# The report verbs, whose rows the load check drains.
_REPORTS = (cognition, datavalue, consumption, tax, wealth, equilibrium)


@scenario_command(_option("--figure", dest="figure_spec", default="all",
                          choices=["all", *map(str, FIGURE_IDS)], help="one figure's id, or all"))
def reproduce(cfg, figure_spec):
    """Write the CSV data series behind the reference figures."""
    # Every figure needs numpy: loaded here, its import is not timed as figure 1's build.
    importlib.import_module("numpy")
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
        yield f"wrote {path}"


@scenario_command()
def validate(cfg):
    """Cross-validate closed-form densities against the FD and MC oracles."""

    def report_line(rep) -> str:
        verdict = "PASS" if rep.passed else "FAIL"
        return (f"  {rep.label:<40} fd {rep.fd_error:.3e} (tol {rep.fd_tol:g})  "
                f"ks {rep.ks_distance:.3e} (tol {rep.ks_tol:g})  {verdict}")

    yield "[configured law]"
    law = drift_diffusion(cfg.wealth_params())
    results = run_validations(validation_jobs(cfg.seed, configured=law),
                              cfg.get("validate", "n_points"), cfg.get("validate", "n_samples"))
    try:
        reports = [next(results)]
    except DegenerateModelError as exc:
        yield f"  configured{'':<30} DEGENERATE  sigma_x = {law.sigma_x:g}"
        raise DegenerateModelError(
            f"configured wealth law is degenerate: {exc}") from exc
    yield report_line(reports[0])
    yield "[benchmark combinations]"
    for rep in results:
        yield report_line(rep)
        reports.append(rep)
    check_reports(reports)
    yield f"all {len(reports)} density checks passed"


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line and exit 1, not argparse's usage block and exit 2."""

    def error(self, message):
        print(f"usage error: {self.prog}: {message}", file=sys.stderr)
        sys.exit(1)


def _parser() -> _Parser:
    parser = _Parser(prog="cogecon", allow_abbrev=False,
                     description="Resource-dilution, data-valuation, and wealth-distribution toolkit.")
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)
    for name, (doc, options, _) in _VERBS.items():
        verb = verbs.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        for flags, settings in options:
            verb.add_argument(*flags, **settings)
    return parser


def main(argv=None) -> None:
    args = vars(_parser().parse_args(argv))
    run = _VERBS[args.pop("verb")][2]
    # a warning is one stderr line and leaves the exit code alone
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            run(**args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            sys.exit(1)
        except ValidationError as exc:
            print(f"validation failure: {exc}", file=sys.stderr)
            sys.exit(2)
        except DegenerateModelError as exc:
            print(f"degenerate model: {exc}", file=sys.stderr)
            sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
