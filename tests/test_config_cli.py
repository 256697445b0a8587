"""Scenario-file parsing, override plumbing, CLI exit codes and cold start."""

import errno
import inspect
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import cogecon.cli as cli_mod
import cogecon.wealth as wealth_mod
from cogecon.cli import _fmt, main
from cogecon.config import (
    MAX_FD_POINTS,
    MAX_MC_SAMPLES,
    SCHEMA,
    apply_overrides,
    default_config,
    explain_lines,
    parse_config,
)
from cogecon.consumption import MAX_EULER_WORK
from cogecon.errors import ConfigError
from cogecon.figures import FIGURE_IDS
from cogecon.tax_model import hazard_ratio_check
from cogecon.validate import ComboReport, benchmark_combos
from cogecon.wealth import (
    EQUILIBRIUM_ALPHA,
    EconomyParams,
    density_stats,
    drift_diffusion,
    equilibrium_prices,
    profit_rate,
    stationary_wealth_density,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    """Exit code of a CLI invocation (main always raises SystemExit)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code or 0


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- config ----

def test_defaults_without_file():
    cfg = parse_config(None)
    assert cfg.seed == 42
    assert cfg.get("wealth", "gamma") == 2.0
    assert all(origin == "default"
               for section in cfg.origins.values() for origin in section.values())


def test_empty_file_equals_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, "\n# nothing but comments\n"))
    assert cfg.values == default_config().values


def test_file_values_and_origins(tmp_path):
    cfg = parse_config(write_config(tmp_path, """
[wealth]
lam = 25
f_sigma = 0.5

[run]
seed = 9
"""))
    assert cfg.get("wealth", "lam") == 25.0
    assert cfg.origins["wealth"]["lam"] == "file"
    assert cfg.origins["wealth"]["rho"] == "default"
    assert cfg.seed == 9
    assert cfg.wealth_params().lam == 25.0


def test_scenario_file_may_start_with_a_byte_order_mark(tmp_path):
    bom = tmp_path / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf[run]\nseed = 7\n")
    cfg = parse_config(bom)
    assert cfg.seed == 7
    assert cfg.origins["run"]["seed"] == "file"
    assert cfg.values == parse_config(write_config(tmp_path, "[run]\nseed = 7\n")).values


@pytest.mark.parametrize("text,needle", [
    ("[nosuchsection]\n", "unknown section"),
    ("[wealth]\nnope = 1\n", "unknown key"),
    ("[wealth]\ngamma = fast\n", "not a valid float"),
    ("gamma = 2\n", "outside of any"),
    ("[wealth\ngamma = 2\n", "malformed section"),
    ("[wealth]\njust words\n", "expected 'key = value'"),
    ("[run]\nseed = -1\n", r"\[run\] master_seed must fit"),
    (f"[run]\nseed = {2**64}\n", r"\[run\] master_seed must fit"),
    ("[wealth]\nlam = nan\n", r"line 2: value 'nan' for wealth\.lam is not a finite float"),
    ("[cognition]\nbeta_c = inf\n", r"line 2: value 'inf' for cognition\.beta_c is not a finite"),
    ("[equilibrium]\nrho = -inf\n", r"line 2: value '-inf' for equilibrium\.rho is not a finite"),
    ("[wealth]\nlam = 5\nlam = 25\n", r"line 3: key 'lam' set twice in \[wealth\]"),
    ("[wealth]\nlam = 5\n[run]\nseed = 1\n[wealth]\nlam = 25\n",
     r"line 6: key 'lam' set twice in \[wealth\]"),
    ("[wealth]\nagent_type = two\n", r"line 2: unknown key 'agent_type' in \[wealth\]"),
])
def test_parse_errors_carry_line_context(tmp_path, text, needle):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=needle):
        parse_config(path)


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config("/nonexistent/scenario.ini")


def test_overrides_win_and_are_tracked():
    cfg = apply_overrides(parse_config(None), seed=7, out="elsewhere")
    assert cfg.seed == 7
    assert cfg.out_dir == "elsewhere"
    assert cfg.origins["run"]["seed"] == "flag"
    with pytest.raises(ConfigError, match="seed"):
        apply_overrides(parse_config(None), seed=2**64, out=None)


def test_explain_lines_cover_every_key():
    cfg = parse_config(None)
    lines = explain_lines(cfg)
    joined = "\n".join(lines)
    assert "[wealth]" in joined and "gamma = 2.0" in joined
    assert "(default)" in joined
    n_keys = sum(len(keys) for keys in cfg.values.values())
    assert len([ln for ln in lines if "=" in ln]) >= n_keys
    assert "".join(f"{ln}\n" for ln in lines) == (GOLDEN / "explain_default.txt").read_text()


def test_economy_sections_are_the_economy_fields():
    # wealth_params passes [wealth] whole as keywords, so a key that is not a
    # field would leave as a TypeError, not as exit 1.
    names = {f.name for f in fields(EconomyParams)}
    assert set(SCHEMA["wealth"]) == names
    assert set(SCHEMA["equilibrium"]) == names - {"alpha", "w", "r"}


# ------------------------------------------------------------------- cli ----

@pytest.mark.parametrize("cmd", [
    "cognition", "datavalue", "consumption", "tax", "wealth", "equilibrium"])
def test_report_subcommands_succeed(cmd, capsys):
    assert run_cli([cmd]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{cmd}_default.txt").read_text()


def test_equilibrium_solves_its_prices_once(monkeypatch, capsys):
    # The scenario is loaded before the count starts: with a scenario file,
    # the load evaluates the equilibrium report once on its own.
    cfg = parse_config(None)
    monkeypatch.setattr(cli_mod, "parse_config", lambda path: cfg)
    calls = {"equilibrium_prices": 0, "drift_diffusion": 0}

    def counted(name):
        original = getattr(wealth_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        # cli calls both directly; wealth is patched too, so a law built
        # inside labor_residual_at would be counted
        monkeypatch.setattr(cli_mod, name, wrapper)
        monkeypatch.setattr(wealth_mod, name, wrapper)
    assert run_cli(["equilibrium"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "equilibrium_default.txt").read_text()
    assert calls["equilibrium_prices"] == 1
    assert calls["drift_diffusion"] == 1


def test_wealth_defaults_are_the_economy_record():
    cfg = default_config()
    assert cfg.wealth_params() == EconomyParams()
    assert cfg.equilibrium_params() == EconomyParams(alpha=EQUILIBRIUM_ALPHA)


def test_equilibrium_prints_the_firm_profit_rate_at_equilibrium_prices(capsys):
    assert run_cli(["equilibrium"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "firm profit rate at w*" in line)
    p = default_config().equilibrium_params()
    prices = equilibrium_prices(p)
    expected = _fmt(profit_rate(replace(p, w=prices.w_star, r=prices.r_star)))
    assert line.split()[-1] == expected
    # z = 5 lies below the activity cutoff at w*, so the firm would lose money
    assert expected.startswith("-")


def test_consumption_at_even_belief_exits_zero(tmp_path, capsys):
    # p1 = 0.5 is the lower end of [0.5, 1): the adjustment S is exactly 0
    path = write_config(tmp_path, "[consumption]\np1 = 0.5\n")
    assert run_cli(["consumption", "--config", path]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    shrunken = next(line for line in captured.out.splitlines() if "shrunken adjustment" in line)
    assert shrunken.split()[-1] == "0"


@pytest.mark.parametrize("verb", ["consumption", "wealth"])
def test_negative_effective_consumption_exits_one_at_load(tmp_path, capsys, verb):
    # scale 5 with d_bar 1 puts the CAWF at D = 0.75, n = omega below -1, so
    # the consumption verb's effective consumption would be negative.
    path = write_config(tmp_path, "[consumption]\nscale = 5\nd_bar = 1\n")
    assert run_cli([verb, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: [consumption] scale = 5.0 and d_bar = 1.0 put the CAWF "
                          "at D = 0.75, n = omega at -1.263")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_explain_flag_prints_origins(capsys):
    assert run_cli(["wealth", "--explain", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "origin" in out or "flag" in out


def test_bad_config_path_is_usage_error(tmp_path, capsys):
    undecodable = tmp_path / "latin1.ini"
    undecodable.write_bytes(b"[wealth]\n# caf\xe9\n")
    for path in ("/nonexistent.ini", str(tmp_path), str(undecodable)):
        assert run_cli(["wealth", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_invalid_parameter_exits_one(tmp_path):
    path = write_config(tmp_path, "[wealth]\ngamma = -1\n")
    assert run_cli(["wealth", "--config", path]) == 1


def test_non_finite_value_exits_one_without_traceback(tmp_path, capsys):
    path = write_config(tmp_path, "[wealth]\nlam = inf\n")
    assert run_cli(["wealth", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "line 2: value 'inf' for wealth.lam is not a finite float" in err
    assert "Traceback" not in err


# Extremes that load: their exit code per verb (1 for any other case below).
IN_RANGE_EXTREMES = {
    # the wage is finite, only the equilibrium wealth law is degenerate
    ("equilibrium", "gamma = 1e-300"): {"equilibrium": 3, "wealth": 0},
}


@pytest.mark.parametrize("verb", ["wealth", "equilibrium"])
@pytest.mark.parametrize("section,line", [
    ("wealth", "f_sigma = 1e-300"),   # drift**2 overflows in the decay rates
    ("wealth", "gamma = 1e-300"),     # sigma_x**2 overflows
    ("wealth", "z = 1e9"),            # the right decay rate cancels to 0
    ("wealth", "w = 1e308"),          # the productivity cutoff divides by 0
    ("equilibrium", "f_sigma = 1e-300"),
    ("equilibrium", "gamma = 1e-300"),  # in range: see IN_RANGE_EXTREMES
    ("equilibrium", "rho = 1e308"),   # the equilibrium wage underflows to 0
    ("cognition", "eta_c = 1e-300"),  # the dilution threshold overflows
    ("cognition", "psi_c = 1e-300"),  # the squared volatility underflows to 0
    ("cognition", "mu_c = 1e9"),      # the right decay rate cancels to 0
    ("tax", "mu_bar = 1e9"),          # the truncated ability mean overflows
    ("wealth", "beta = 1e300"),       # the density's second moment overflows
    ("consumption", "scale = 1.7e308"),  # the CAWF rows overflow to inf
    ("consumption", "mu_b = 1e200"),
    ("tax", "gamma_b = 1e4"),         # the expected utilities are -inf
    ("equilibrium", "theta = 1e308"),
    ("equilibrium", "rho = -1e308"),
])
def test_finite_extremes_exit_one_without_traceback(tmp_path, capsys, verb, section, line):
    path = write_config(tmp_path, f"[{section}]\n{line}\n")
    expected = IN_RANGE_EXTREMES.get((section, line), {}).get(verb, 1)
    assert run_cli([verb, "--config", path]) == expected
    err = capsys.readouterr().err
    if expected == 1:
        assert err.startswith(f"config error: [{section}] ") and err.count("\n") == 1
    assert "Traceback" not in err


REPORT_VERBS = ("cognition", "datavalue", "consumption", "tax", "wealth", "equilibrium")


@pytest.mark.parametrize("verb", REPORT_VERBS)
def test_report_out_of_range_exits_one_under_every_report_verb(tmp_path, capsys, verb):
    # Every report is evaluated at load, so a value that only the wealth
    # verb's later rows overflow on is refused before any verb prints a row.
    # The error names the last row the wealth report yielded before it.
    for line, row in (("beta = 1e300", "reset rate"), ("w = 1e-100", "configured productivity z")):
        path = write_config(tmp_path, f"[wealth]\n{line}\n")
        assert run_cli([verb, "--config", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: [wealth] Numerical result out of range "
                       f"(values out of floating-point range) after the row '{row}'\n")
        assert "(34," not in err


ALL_VERBS = REPORT_VERBS + ("reproduce", "validate")


@pytest.mark.parametrize("verb", ALL_VERBS)
@pytest.mark.parametrize("text,message", [
    ("[wealth]\ngamma = -1\n", "[wealth] gamma must be positive, got -1.0"),
    ("[tax]\ntau_low = 0.5\ntau_high = 0.3\n", "[tax] tau_low must be below tau_high"),
    ("[shrinkage]\nmu_s = 1e6\n",
     "[consumption] math range error (values out of floating-point range)"),
    ("[wealth]\nr = -0.7\n", "[wealth] r + delta must be positive"),
    ("[datavalue]\nj_coupling = -1\n", "[datavalue] j_coupling must be nonnegative, got -1.0"),
    ("[datavalue]\nref_variance = 1e308\n",
     "[datavalue] ref_variance 1e+308 implies an infinite entropy cap"),
    ("[retention]\nr0 = 2\n", "[cognition] r0 must lie in (0, 1], got 2.0"),
    ("[cognition]\ngamma_c = 2\n", "[cognition] gamma_c must lie in (0, 1), got 2.0"),
    ("[consumption]\nomega = -1\n", "[consumption] omega must be positive, got -1.0"),
    ("[consumption]\nmu_b = -1\n", "[consumption] mu_b must be positive, got -1.0"),
    ("[consumption]\np1 = 0.3\n", "[consumption] p1 must lie in [0.5, 1), got 0.3"),
    ("[shrinkage]\nsigma_s = -1\n", "[consumption] sigma_s and sigma_n must be positive"),
    ("[equilibrium]\ngamma = -1\n", "[equilibrium] gamma must be positive, got -1.0"),
])
def test_values_a_report_rejects_exit_one_at_load_under_every_verb(tmp_path, capsys, verb,
                                                                   text, message):
    # parse_config loads each file: the value is refused by the validator of
    # a function that a report's rows call, when the load drains every report.
    path = write_config(tmp_path, text)
    parse_config(path)
    assert run_cli([verb, "--config", path, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_reversed_tax_rates_exit_one_before_a_degenerate_row(tmp_path, capsys, verb):
    # The tax report's first row, the truncated ability mean, is degenerate at
    # this cutoff; the rates are checked before it, so every verb refuses them.
    path = write_config(tmp_path, "[tax]\nk_cut = 1e5\ntau_low = 0.5\ntau_high = 0.3\n"
                                  "[validate]\nn_points = 2001\nn_samples = 20000\n")
    argv = [verb, "--config", path, "--out", str(tmp_path / "out")]
    if verb == "reproduce":
        argv += ["--figure", "1"]  # no figure reads [tax]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "config error: [tax] tau_low must be below tau_high\n"


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_degenerate_tax_row_fails_only_the_tax_verb(tmp_path, capsys, verb):
    # With its rates in order, the same cutoff is in range: only the tax
    # verb, which reports the degenerate mean, fails, with exit 3.
    path = write_config(tmp_path, "[tax]\nk_cut = 1e5\n"
                                  "[validate]\nn_points = 2001\nn_samples = 20000\n")
    argv = [verb, "--config", path, "--out", str(tmp_path / "out")]
    if verb == "reproduce":
        argv += ["--figure", "1"]  # no figure reads [tax]
    assert run_cli(argv) == (3 if verb == "tax" else 0)
    err = capsys.readouterr().err
    assert err == ("degenerate model: cutoff 100000.0 leaves no ability mass above it at "
                   "double precision\n" if verb == "tax" else "")


def test_warning_of_the_load_check_prints_once(tmp_path, capsys):
    # The tax validators and the tax report both evaluate the overflowing
    # utility, whose -inf the report refuses: the silent load prints no
    # warning, only the one error line.
    path = write_config(tmp_path, "[tax]\ngamma_b = 1e100\n")
    assert run_cli(["tax", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and not err[0].startswith("warning:")


@pytest.mark.parametrize("line", ["horizon = 1e300", "reversion = 1e300"])
def test_unbounded_euler_work_exits_one_at_load(tmp_path, line):
    # Each file asks figure 6's sampler for ~1e305 Euler path-steps.  It runs
    # in a child with a timeout, so a file that loads fails the test instead
    # of hanging the suite.
    path = write_config(tmp_path, f"[consumption]\n{line}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cogecon.cli", "reproduce", "--figure", "6",
         "--config", path, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: [consumption] ")
    assert proc.stderr.count("\n") == 1 and "above the budget" in proc.stderr


def test_default_euler_work_loads_far_below_the_budget(tmp_path):
    p = default_config().cawf_params()
    assert p.n_paths * p.ou.horizon / p.ou.step_size() == pytest.approx(6e6)
    assert 100 * 6e6 < MAX_EULER_WORK
    path = write_config(tmp_path, "[consumption]\nhorizon = 60\nreversion = 0.1\nn_paths = 1000\n")
    assert parse_config(path).values == default_config().values


def tax_hazard_lines(tmp_path, capsys, text):
    """The two hazard values `cogecon tax` prints for a [tax] section."""
    assert run_cli(["tax", "--config", write_config(tmp_path, text)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return tuple(float(next(line for line in lines if label in line).split()[-1])
                 for label in ("(zero mean)", "(shifted mean)"))


def test_far_cutoff_hazards_keep_their_order():
    # x = 5e4 standard deviations out: the true hazards are 5000000.002 and
    # 4999999.002, and the zero-mean one must stay above the shifted one.
    # The tax verb refuses such a cutoff (no ability mass above it), so the
    # hazards are read from the function it calls.
    h_zero, h_shift = hazard_ratio_check(500.0, 0.01)
    assert h_zero > h_shift
    assert (h_zero, h_shift) == pytest.approx((5000000.002, 4999999.002), rel=1e-12)


def test_tax_hazards_read_the_cutoff_from_the_ability_mean(tmp_path, capsys):
    # A cutoff at the ability law's median is 0 standard deviations out,
    # whatever the mean: the lines equal those of k_cut = mu_bar = 0.
    at_500 = tax_hazard_lines(tmp_path, capsys, "[tax]\nk_cut = 500\nmu_bar = 500\nsigma_mu = 0.01\n")
    at_0 = tax_hazard_lines(tmp_path, capsys, "[tax]\nk_cut = 0\nmu_bar = 0\nsigma_mu = 0.01\n")
    assert at_500 == at_0
    assert at_500 == pytest.approx((79.78845608, 79.15292829), rel=1e-9)
    assert at_500[0] > at_500[1]


def test_runtime_warnings_print_as_one_line(tmp_path, capsys):
    path = write_config(tmp_path, "[tax]\nm = 0.3\n")
    assert run_cli(["tax", "--config", path]) == 0
    assert capsys.readouterr().err == (
        "warning: investor mass m = 0.3 differs from the cutoff-implied mass 0.5\n")
    wide = tmp_path / "wide.txt"
    wide.write_text("[sources]\nuniform 10\n")  # entropy log 10 above the cap 1.42
    assert run_cli(["datavalue", "--ensemble", str(wide)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("warning: entropy 2.30") and
                         line.endswith("clamping to the cap") for line in lines)


def test_datavalue_scores_each_source_once(tmp_path, capsys):
    # The source rows and the aggregate share one scoring pass, so a source
    # above the cap warns once; the report is what it was with two passes.
    wide = tmp_path / "wide.txt"
    wide.write_text("[sources]\nuniform 10\ngaussian 0.25\n")
    assert run_cli(["datavalue", "--ensemble", str(wide)]) == 0
    out, err = capsys.readouterr()
    assert err == ("warning: entropy 2.302585092994046 exceeds the cap 1.4189385332046727; "
                   "clamping to the cap\n")
    assert out == (
        "[sources]\n"
        "  1: uniform                         entropy 2.302585093  value -1  weight 0\n"
        "  2: gaussian                        entropy 0.7257913526  value -0.02300605088  "
        "weight 0.4884969746\n"
        "[aggregate]\n"
        "  entropy cap                        1.418938533\n"
        "  coupling J                         1\n"
        "  ensemble data value                0.2442484873\n"
        "  squashed index                     0.5607603551\n")


def test_tiny_equilibrium_gamma_loads_and_has_a_wage(tmp_path, capsys):
    # The clearing root no longer cancels to 0 at gamma = 1e-300, so the file
    # is in range: the wage is finite, and only the equilibrium wealth law,
    # whose diffusion vanishes, is degenerate.
    path = write_config(tmp_path, "[equilibrium]\ngamma = 1e-300\n")
    assert run_cli(["equilibrium", "--config", path]) == 3
    captured = capsys.readouterr()
    wage = float(captured.out.split("equilibrium wage w*")[1].split()[0])
    assert wage == pytest.approx(1.923076923, rel=1e-9)
    assert captured.err.startswith("degenerate model: zero diffusion")
    assert run_cli(["wealth", "--config", path]) == 0


def test_no_equilibrium_wage_exits_three_only_under_equilibrium(tmp_path, capsys):
    # a degenerate law is in range at load: only the verb that needs it fails
    path = write_config(tmp_path, "[equilibrium]\nsigma = 1.0\n")
    assert run_cli(["equilibrium", "--config", path]) == 3
    assert "no equilibrium wage" in capsys.readouterr().err
    assert run_cli(["wealth", "--config", path]) == 0


def test_wrong_equilibrium_exponent_exits_one(tmp_path, capsys):
    # [equilibrium] has no alpha key: the closed-form clearing fixes it at 1/2
    for value in ("0.3", "0.5"):
        path = write_config(tmp_path, f"[equilibrium]\nalpha = {value}\n")
        assert run_cli(["equilibrium", "--config", path]) == 1
        assert "unknown key 'alpha' in [equilibrium]" in capsys.readouterr().err


def test_degenerate_diffusion_exits_three(tmp_path, capsys):
    # theta = r removes the diffusion term from the stationary problem
    path = write_config(tmp_path, "[wealth]\ntheta = 0.01\nr = 0.01\n")
    assert run_cli(["wealth", "--config", path]) == 3
    assert "degenerate" in capsys.readouterr().err
    # in range at load, so a verb that does not use the wealth law still runs
    assert run_cli(["equilibrium", "--config", path]) == 0


def test_validation_failure_exits_two(monkeypatch, capsys):
    import cogecon.validate as validate_mod

    def fake_validation(law, rng, label, n_points, n_samples):
        return ComboReport(label=label, law=law, fd_error=0.5, fd_tol=1e-3,
                           ks_distance=0.5, ks_tol=0.02)

    # the validation pool looks the oracle up in cogecon.validate
    monkeypatch.setattr(validate_mod, "run_density_validation", fake_validation)
    monkeypatch.setattr(validate_mod, "benchmark_combos", lambda: [])
    assert run_cli(["validate"]) == 2
    assert "validation failure" in capsys.readouterr().err


def test_validation_failure_names_every_failed_law_on_one_line(monkeypatch, capsys):
    import cogecon.validate as validate_mod

    def fake_validation(law, rng, label, n_points, n_samples):
        fd_error = 0.5 if label == "configured" else 0.0
        ks_distance = 0.5 if label == benchmark_combos()[1][0] else 0.0
        return ComboReport(label, law, fd_error, validate_mod.FD_TOL,
                           ks_distance, validate_mod.KS_TOL)

    monkeypatch.setattr(validate_mod, "run_density_validation", fake_validation)
    assert run_cli(["validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("FAIL") == 2 and captured.out.count("PASS") == 11
    assert "density checks passed" not in captured.out
    label = benchmark_combos()[1][0]
    assert captured.err == (
        "validation failure: density validation failed for "
        "configured: fd=5.000e-01 (tol 0.001), ks=0.000e+00 (tol 0.02); "
        f"{label}: fd=0.000e+00 (tol 0.001), ks=5.000e-01 (tol 0.02)\n")


@pytest.mark.parametrize("key,low,high", [("n_points", 3, MAX_FD_POINTS),
                                          ("n_samples", 100, MAX_MC_SAMPLES)])
def test_validate_sizes_above_their_bound_exit_one_at_load(tmp_path, capsys, key, low, high):
    # Refused at load, so no verb runs at these sizes; wealth never reads them.
    assert high >= 100 * default_config().get("validate", key)
    parse_config(write_config(tmp_path, f"[validate]\n{key} = {high}\n"))
    for n in (high + 1, 10000000000000):
        path = write_config(tmp_path, f"[validate]\n{key} = {n}\n")
        assert run_cli(["wealth", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"config error: [validate] {key} must lie in [{low}, {high}], got {n}\n")


def test_quick_validate_stdout_matches_golden(tmp_path, capsys):
    # The line format perfbench's check_validate parses, pinned byte for byte.
    path = write_config(tmp_path, "[validate]\nn_points = 2001\nn_samples = 20000\n")
    assert run_cli(["validate", "--seed", "42", "--config", path]) == 0
    expected = (GOLDEN / "validate_quick_seed42.txt").read_text()
    assert capsys.readouterr().out == expected


def test_degenerate_configured_law_exits_three_under_validate(tmp_path, capsys):
    # the configured law is job 0 of the validation pool: its degenerate
    # diffusion ends the run before any benchmark law is reported
    path = write_config(tmp_path, "[wealth]\ntheta = 0.01\nr = 0.01\n"
                                  "[validate]\nn_points = 401\nn_samples = 1000\n")
    assert run_cli(["validate", "--config", path]) == 3
    captured = capsys.readouterr()
    assert "DEGENERATE" in captured.out
    assert "[benchmark combinations]" not in captured.out
    assert captured.err.startswith("degenerate model: configured wealth law is degenerate")
    assert "Traceback" not in captured.err


def test_reproduce_single_figure(tmp_path, capsys):
    out = tmp_path / "series"
    assert run_cli(["reproduce", "--figure", "3", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["figure03.csv"]
    raw = (out / "figure03.csv").read_bytes()
    assert raw.startswith(b"# figure: 3\r\n")
    assert b"\r\n" in raw
    header = raw.split(b"\r\n")[3]
    assert header == b"x,n10,n25"


def test_reproduce_all_figures(tmp_path):
    out = tmp_path / "series"
    assert run_cli(["reproduce", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"figure{i:02d}.csv" for i in range(1, 15)]


def test_reproduce_prints_one_wrote_line_per_figure_in_order(tmp_path, capsys):
    out = tmp_path / "series"
    assert run_cli(["reproduce", "--figure", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'figure04.csv'}\n"
    assert run_cli(["reproduce", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out / f'figure{fid:02d}.csv'}" for fid in FIGURE_IDS]


def test_reproduce_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        assert run_cli(["reproduce", "--figure", "6", "--out", str(target)]) == 0
    assert (a / "figure06.csv").read_bytes() == (b / "figure06.csv").read_bytes()


def test_reproduce_seed_flag_reaches_output(tmp_path):
    out = tmp_path / "series"
    assert run_cli(["reproduce", "--figure", "6", "--seed", "7",
                    "--out", str(out)]) == 0
    raw = (out / "figure06.csv").read_bytes()
    assert b"# seed: 7" in raw


def test_reproduce_rejects_bad_figure_numbers(tmp_path, capsys):
    out = tmp_path / "series"
    for spec in ("99", "zero", "0", "15", "06", "6.0"):
        assert run_cli(["reproduce", "--figure", spec, "--out", str(out)]) == 1, spec
        assert not out.exists(), spec
        err = capsys.readouterr().err
        assert err.startswith("usage error: cogecon reproduce: argument --figure: "
                              f"invalid choice: '{spec}' (choose from 'all', '1', ")
        assert err.count("\n") == 1
    assert run_cli(["reproduce", "--figure", "14", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["figure14.csv"]


@pytest.mark.parametrize("out_name, errno_code", [
    ("file", errno.EEXIST), ("file/series", errno.ENOTDIR), ("series", errno.EISDIR)])
def test_unwritable_out_exits_one(tmp_path, capsys, out_name, errno_code):
    # --out is a file, lies under a file, or holds a directory named figure03.csv
    (tmp_path / "file").write_text("")
    (tmp_path / "series" / "figure03.csv").mkdir(parents=True)
    out = tmp_path / out_name
    fid = 3 if out_name == "series" else 1
    assert run_cli(["reproduce", "--out", str(out)]) == 1
    reason = os.strerror(errno_code)
    assert capsys.readouterr().err == (f"config error: figure {fid}: cannot write "
                                       f"figure{fid:02d}.csv under {out}: {reason}\n")
    if out_name == "series":
        # the figures written before the failure stay
        assert sorted(p.name for p in out.iterdir()) == ["figure01.csv", "figure02.csv",
                                                         "figure03.csv"]


def test_degenerate_data_value_draws_exit_three(tmp_path, capsys):
    # zero volatility pins every draw at d_bar, leaving the high side empty
    path = write_config(tmp_path, "[consumption]\nvolatility = 0\n")
    assert run_cli(["reproduce", "--figure", "6", "--config", path,
                    "--out", str(tmp_path / "series")]) == 3
    err = capsys.readouterr().err
    assert "degenerate model" in err and "d_bar" in err
    assert "Traceback" not in err


def test_divergent_equilibrium_wealth_mean_exits_three(tmp_path, capsys):
    # A tiny friction puts labor clearing at two wages, and a clearing wage
    # has a finite level mean: the verb exits 3 printing neither wage.
    path = write_config(tmp_path, "[equilibrium]\nf_sigma = 0.001\n")
    assert run_cli(["equilibrium", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("degenerate model: labor clears at two wages, "
                                   "w = 0.0006013869633 and 1.959027894, ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("gamma", ["1e-20", "1e20", "1e100", "1e-100"])
def test_figure_out_of_range_exits_one(tmp_path, capsys, gamma):
    # Every report is in range, but a swept column of figure 9 is not: the
    # decay rates cancel to 0, or a division by zero.
    path = write_config(tmp_path, f"[wealth]\ngamma = {gamma}\n")
    assert run_cli(["wealth", "--config", path]) == 0
    capsys.readouterr()
    assert run_cli(["reproduce", "--figure", "9", "--config", path,
                    "--out", str(tmp_path / "series")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: figure 9: ") and err.count("\n") == 1


def test_figures_written_before_an_out_of_range_figure_stay(tmp_path, capsys):
    path = write_config(tmp_path, "[wealth]\ngamma = 1e-100\n")
    out = tmp_path / "series"
    assert run_cli(["reproduce", "--config", path, "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [f"figure{i:02d}.csv" for i in range(1, 9)]
    assert capsys.readouterr().err == "config error: figure 9: float division by zero\n"


def test_non_finite_figure_is_refused_and_earlier_figures_stay(tmp_path, capsys):
    # Every report accepts scale = 1e308, but figure 6's curves overflow.
    path = write_config(tmp_path, "[consumption]\nscale = 1e308\n")
    out = tmp_path / "series"
    assert run_cli(["reproduce", "--config", path, "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [f"figure{i:02d}.csv" for i in range(1, 6)]
    err = capsys.readouterr().err
    assert err.startswith("config error: figure 6: ") and err.count("\n") == 1


@pytest.mark.parametrize("figure", ["5", "6"])
@pytest.mark.parametrize("scale", ["1e300", "1e306", "1e308"])
def test_reproduce_writes_only_finite_tables(tmp_path, capsys, figure, scale):
    path = write_config(tmp_path, f"[consumption]\nscale = {scale}\n")
    out = tmp_path / "series"
    code = run_cli(["reproduce", "--figure", figure, "--config", path, "--out", str(out)])
    assert code in (0, 1)
    if code == 1:
        assert capsys.readouterr().err.count("\n") == 1
    for table in out.glob("*.csv"):
        rows = [line for line in table.read_text().splitlines() if not line.startswith("#")][1:]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["wealth", "--no-such-flag"]) == 1
    assert capsys.readouterr().err == "usage error: cogecon: unrecognized arguments: --no-such-flag\n"


@pytest.mark.parametrize("argv, message", [
    ([], "cogecon: the following arguments are required: VERB"),
    (["wealthy"], "cogecon: argument VERB: invalid choice: 'wealthy'"),
    (["wealth", "--se", "7"], "cogecon: unrecognized arguments: --se 7"),
    (["wealth", "--seed"], "cogecon wealth: argument --seed: expected one argument"),
    (["wealth", "--seed", "-1"], "cogecon wealth: argument --seed: expected an integer >= 0"),
    (["wealth", "--seed", "7.0"], "cogecon wealth: argument --seed: expected an integer >= 0"),
    (["wealth", "--seed", "18446744073709551616"],
     "cogecon wealth: argument --seed: expected an integer below 2**64"),
])
def test_usage_errors_are_one_stderr_line(capsys, argv, message):
    # no verb, an unknown verb, an abbreviated option and a bad seed
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["wealth", "--help"], ["reproduce", "-h"]])
def test_help_exits_zero_on_stdout(capsys, argv):
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cogecon") and captured.err == ""


# -------------------------------------------------------------- ensembles ---

def test_datavalue_reads_ensemble_file(tmp_path, capsys):
    path = tmp_path / "sources.txt"
    path.write_text("""
j = 0.5
[sources]
uniform 1.0
gaussian 0.25

[interactions]
1 2 0.4 0.1
""")
    assert run_cli(["datavalue", "--ensemble", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "datavalue_ensemble.txt").read_text()


def test_ensemble_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # the ensemble above, saved with a UTF-8 byte-order mark before `j = 0.5`
    path = tmp_path / "sources.txt"
    path.write_bytes(b"\xef\xbb\xbfj = 0.5\n[sources]\nuniform 1.0\ngaussian 0.25\n"
                     b"\n[interactions]\n1 2 0.4 0.1\n")
    assert run_cli(["datavalue", "--ensemble", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "datavalue_ensemble.txt").read_text()


@pytest.mark.parametrize("body,needle", [
    ("[sources]\ntriangular 1.0\n", "uniform"),
    ("[sources]\nuniform\n", "uniform"),
    ("[sources]\nuniform 1.0\n[interactions]\n1 2 0.4\n", "synergy"),
    ("mystery = 3\n[sources]\nuniform 1.0\n", "unknown ensemble header"),
    ("\n", "no sources"),
    ("j = abc\n[sources]\nuniform 1.0\n", "line 1: value 'abc' for j is not a valid float"),
    ("[sources]\nuniform 1.0\n[interactions]\n1 x 0.1 0.1\n",
     "line 4: value 'x' for source index is not a valid int"),
    ("j = 0.5\nref_variance = -1\n[sources]\nuniform 1.0\n",
     "line 2: ref_variance must be positive"),
    ("j = nan\n[sources]\nuniform 1.0\n", "line 1: value 'nan' for j is not a finite float"),
    ("[sources]\nuniform nan\n", "line 2: value 'nan' for uniform source is not a finite"),
    ("[sources]\nuniform 1.0\nuniform 2.0\n[interactions]\n1 2 nan 0\n",
     "line 5: value 'nan' for synergy is not a finite float"),
    ("[sources]\ngaussian inf\n", "line 2: value 'inf' for gaussian source is not a finite"),
    ("ref_variance = inf\n[sources]\nuniform 1.0\n",
     "line 1: value 'inf' for ref_variance is not a finite float"),
    ("[sources]\nuniform 1.0 # caf\xe9\n", "cannot read ensemble file"),
    ("[sources]\nuniform 1.0\nuniform 2.0\n[interactions]\n0 1 0.1 0.1\n",
     "line 5: source index 0 is below 1"),
    ("[sources]\nuniform 1.0\nuniform 2.0\n[interactions]\n2 1 0.1 0.1\n",
     "line 5: pair 2 1 must have its first index below its second"),
    ("[sources]\nuniform 1.0\nuniform 2.0\n[interactions]\n1 2 0.1 0.1\n1 2 0.2 0\n",
     "line 6: pair 1 2 appears twice"),
    ("[sources]\nuniform 1.0\nuniform 2.0\n[interactions]\n1 3 0.1 0.1\n",
     "line 5: source index 3 is above the 2 sources listed before it"),
    ("j = 0.5\nj = 5\n[sources]\nuniform 1.0\n", "line 2: ensemble header 'j' set twice"),
    ("ref_variance = 1\nj = 0.5\nref_variance = 2\n[sources]\nuniform 1.0\n",
     "line 3: ensemble header 'ref_variance' set twice"),
    ("j = 0.5\nref_variance = 1e308\n[sources]\nuniform 1.0\n",
     "line 2: ref_variance 1e+308 implies an infinite entropy cap"),
    ("[sources]\ngaussian 1e308\n", "[datavalue] sigma_t must be finite and nonnegative, got inf"),
])
def test_bad_ensemble_files_exit_one(tmp_path, capsys, body, needle):
    path = tmp_path / "sources.txt"
    # latin-1 writes the ASCII bodies unchanged and \xe9 as a byte that is not UTF-8
    path.write_bytes(body.encode("latin-1"))
    assert run_cli(["datavalue", "--ensemble", str(path)]) == 1
    err = capsys.readouterr().err
    assert needle in err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ------------------------------------------------------------------ fuzz ---

# The keys of the sections the report verbs read: all but [run] and [validate].
FUZZ_KEYS = [(section, key) for section, keys in SCHEMA.items()
             if section not in ("run", "validate") for key in keys]
FUZZ_EXTREMES = st.sampled_from(["0", "-0", "-1", "1e308", "-1e308", "1e300", "1e200", "1e-20",
                                 "1e-100", "1e-300", "1e9", "0.999999", "2", "one", "two"])
FUZZ_MALFORMED = st.sampled_from(["nan", "inf", "-inf", "1e400", "", "fast", "0x10", "1_0"])
FUZZ_JUNK = st.sampled_from(["[wealth", "[nosuchsection]", "just words", "= 1", "[run]",
                             "nope = 1", "# comment only"])


@st.composite
def fuzz_line(draw) -> str:
    """One key under its section header.  Its value is near the key's default,
    an extreme of the finite range, non-finite or malformed text, or any float
    or int."""
    section, key = draw(st.sampled_from(FUZZ_KEYS))
    default = SCHEMA[section][key].default
    near = st.sampled_from([0.5, 1.01, 2.0, 10.0]).map(lambda m: str(type(default)(default * m)))
    value = draw(st.one_of(near, near, FUZZ_EXTREMES, FUZZ_MALFORMED, st.floats().map(repr),
                           st.integers(min_value=-2**70, max_value=2**70).map(str)))
    return f"[{section}]\n{key} = {value}"


# A scenario file of a few lines in any order, so sections reopen and keys
# repeat; now and then a junk line.
FUZZ_FILES = st.lists(st.one_of(fuzz_line(), fuzz_line(), fuzz_line(), FUZZ_JUNK),
                      max_size=4).map(lambda lines: "\n".join(lines) + "\n")


# 800 files take about 5 s in-process on a 2-core x86-64 VM.
@settings(max_examples=800, deadline=None)
@given(text=FUZZ_FILES, verb=st.sampled_from(REPORT_VERBS))
def test_fuzzed_scenario_files_leave_through_an_exit_code(tmp_path_factory, text, verb):
    path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([verb, "--config", str(path)])
    code = exc.value.code or 0
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert len([ln for ln in err.getvalue().splitlines()
                    if not ln.startswith("warning: ")]) == 1


# Ensemble files drawn from parse_ensemble's grammar: header lines, known or
# not and maybe repeated, a [sources] block and an [interactions] block whose
# pairs may be out of range, reversed or repeated.  Values are ordinary, at an
# extreme of the float range, non-finite or malformed.
ENSEMBLE_ORDINARY = st.sampled_from(["1", "0.5", "2.5", "0.1", "3"])
ENSEMBLE_EXTREMES = st.sampled_from(["0", "-0", "-1", "1e308", "1e-320", "nan", "1e400",
                                     "fast", ""])
ENSEMBLE_VALUES = st.one_of(ENSEMBLE_ORDINARY, ENSEMBLE_ORDINARY, ENSEMBLE_ORDINARY,
                            ENSEMBLE_EXTREMES)
ENSEMBLE_HEADERS = st.builds("{} = {}".format,
                             st.sampled_from(["j", "ref_variance", "j", "ref_variance", "k"]),
                             ENSEMBLE_VALUES)
ENSEMBLE_SOURCES = st.builds("{} {}".format,
                             st.sampled_from(["uniform", "gaussian"] * 4 + ["cauchy"]),
                             ENSEMBLE_VALUES)
ENSEMBLE_INDICES = st.one_of(st.integers(1, 3), st.integers(1, 3), st.integers(-1, 5))
ENSEMBLE_PAIRS = st.builds("{} {} {} {}".format, ENSEMBLE_INDICES, ENSEMBLE_INDICES,
                           ENSEMBLE_VALUES, ENSEMBLE_VALUES)


@st.composite
def ensemble_file(draw) -> str:
    lines = draw(st.lists(ENSEMBLE_HEADERS, max_size=2))
    lines += ["[sources]"] + draw(st.lists(ENSEMBLE_SOURCES, max_size=3))
    if draw(st.booleans()):
        lines += ["[interactions]"] + draw(st.lists(ENSEMBLE_PAIRS, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["[sources]", "[interactions]", "[nosuchsection]",
                                           "j = 1", "uniform 1", "1 2 0.1 0.1"])))
    return "\n".join(lines) + "\n"


# 300 files take about 2 s in-process on a 2-core x86-64 VM.
@settings(max_examples=300, deadline=None)
@given(text=ensemble_file())
def test_fuzzed_ensemble_files_leave_through_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed_ensemble.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["datavalue", "--ensemble", str(path)])
    code = exc.value.code or 0
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert len([ln for ln in err.getvalue().splitlines()
                    if not ln.startswith("warning: ")]) == 1


# ------------------------------------------------------------- cold start ---

# `import cogecon` loads the wealth pipeline a sweep of economies runs, and
# nothing else: every other name is imported from its own module.
PACKAGE_PROBE = """
import sys
from cogecon import EconomyParams, density_stats, drift_diffusion, stationary_wealth_density
print(sorted(m for m in sys.modules if m.startswith("cogecon")))
"""


def test_package_import_loads_only_the_wealth_pipeline():
    proc = subprocess.run([sys.executable, "-c", PACKAGE_PROBE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(["cogecon", "cogecon.densities", "cogecon.errors",
                               "cogecon.records", "cogecon.wealth"]) + "\n"


# The four names run on `math` alone.  numpy loads on the first pdf or cdf,
# called on scalars before the probe imports numpy itself; every value matches
# the one of this process, which imported numpy first.
NO_NUMPY_ECONOMIES = ({}, {"gamma": 5.0, "lam": 20.0}, {"sigma": 0.2, "f_sigma": 0.3})
NO_NUMPY_POINTS = (-3.0, -0.25, 0.0, 0.5, 4.0)


def _wealth_chain_values():
    values, densities = [], []
    for kw in NO_NUMPY_ECONOMIES:
        law = drift_diffusion(EconomyParams(**kw))
        d = stationary_wealth_density(law)
        s = density_stats(d)
        values += [law.mu, law.sigma_x, law.reset_rate, d.norm_K, s.mean_x, s.var_x,
                   s.tail_exponent_left, s.tail_exponent_right]
        densities.append(d)
    return [v.hex() for v in values], densities


def _density_values(densities):
    curves = [f for d in densities for f in (d.pdf, d.cdf)]
    values = [f(x) for f in curves for x in NO_NUMPY_POINTS]
    import numpy as np

    values += [v for f in curves for v in f(np.array(NO_NUMPY_POINTS))]
    return [float(v).hex() for v in values]


# The probe runs the two helpers above from their source: importing this
# module would load numpy through cogecon.cli.
NO_NUMPY_PROBE = "\n".join([
    "import sys",
    "from cogecon import EconomyParams, density_stats, drift_diffusion, "
    "stationary_wealth_density",
    f"NO_NUMPY_ECONOMIES, NO_NUMPY_POINTS = {NO_NUMPY_ECONOMIES!r}, {NO_NUMPY_POINTS!r}",
    inspect.getsource(_wealth_chain_values),
    inspect.getsource(_density_values),
    "values, densities = _wealth_chain_values()",
    'assert "numpy" not in sys.modules',
    "print(values)",
    "print(_density_values(densities))",
])


def test_wealth_chain_runs_without_numpy():
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    values, densities = _wealth_chain_values()
    assert proc.stdout.splitlines() == [str(values), str(_density_values(densities))]


# The CLI's import, its set-up and the verbs that build no array run without
# numpy; the first array verb loads it.  Each run's exit code and stdout.
COLD_START_PROBE = """
import contextlib, io, json, sys
from cogecon.cli import main
assert "numpy" not in sys.modules, "import"
from cogecon.config import apply_overrides, parse_config
apply_overrides(parse_config(None), 7, sys.argv[1])
assert "numpy" not in sys.modules, "set-up"

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(list(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue()

runs = [run("wealth"), run("equilibrium"), run("wealth", "--explain"), run("--help"),
        run("reproduce", "--figure", "15")]
assert "numpy" not in sys.modules, "verbs"
runs.append(run("reproduce", "--figure", "4", "--out", sys.argv[1]))
assert "numpy" in sys.modules, "reproduce"
assert "click" not in sys.modules, "argument parser"
print(json.dumps(runs))
"""


def test_cli_starts_and_runs_the_scalar_verbs_without_numpy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", COLD_START_PROBE, str(tmp_path / "cold")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    wealth, equilibrium, explained, usage, bad_figure, figure = json.loads(proc.stdout)
    golden = {name: (GOLDEN / f"{name}_default.txt").read_text()
              for name in ("wealth", "equilibrium", "explain")}
    assert wealth == [0, golden["wealth"]]
    assert equilibrium == [0, golden["equilibrium"]]
    assert explained == [0, golden["explain"] + "\n" + golden["wealth"]]
    assert usage[0] == 0 and usage[1].startswith("usage: cogecon ")
    assert bad_figure == [1, ""]
    assert figure[0] == 0
    assert run_cli(["reproduce", "--figure", "4", "--out", str(tmp_path / "warm")]) == 0
    assert ((tmp_path / "cold" / "figure04.csv").read_bytes()
            == (tmp_path / "warm" / "figure04.csv").read_bytes())


# Runs every verb in a fresh interpreter in which `import scipy` fails, so
# the runtime provably needs numpy alone; the scenario file sets
# [tax] keys, so the tax check at load runs too.  The import alone loads no
# thread pool either: each user imports it when called.
NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
from cogecon.cli import main
print(sorted(m for m in sys.modules if m.startswith("concurrent.futures")))
out, scenario = sys.argv[1:]
for verb in ("cognition", "datavalue", "consumption", "tax", "wealth",
             "equilibrium", "reproduce", "validate"):
    try:
        main([verb, "--config", scenario, "--out", out])
    except SystemExit as exc:
        assert not exc.code, (verb, exc.code)
"""


def test_every_verb_runs_without_scipy(tmp_path):
    out = tmp_path / "out"
    scenario = write_config(tmp_path, "[tax]\ntau = 0.25\nsigma_mu = 0.5\n"
                                      "[validate]\nn_points = 2001\nn_samples = 20000\n")
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(out), scenario],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(list(out.iterdir())) == 14
    assert proc.stdout.splitlines()[0] == "[]"
