"""Scenario-file parsing, override plumbing, CLI exit codes and cold start."""

import subprocess
import sys
from pathlib import Path

import pytest

from cogecon.cli import _fmt, main
from cogecon.config import (
    apply_overrides,
    default_config,
    explain_lines,
    parse_config,
)
from cogecon.errors import ConfigError
from cogecon.validate import ComboReport, benchmark_combos
from cogecon.wealth import equilibrium_economy, profit_rate

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


def test_negative_gamma_rejected_with_key_name(tmp_path):
    path = write_config(tmp_path, "[wealth]\ngamma = -1\n")
    with pytest.raises(ConfigError, match="gamma must be positive"):
        parse_config(path)


def test_paired_type_requires_explicit_friction(tmp_path):
    path = write_config(tmp_path, "[wealth]\nagent_type = two\n")
    with pytest.raises(ConfigError, match="f_sigma"):
        parse_config(path)
    ok = parse_config(write_config(
        tmp_path, "[wealth]\nagent_type = two\nf_sigma = 0.5\n", name="ok.ini"))
    assert ok.explicit_agent_type == "two"
    assert parse_config(None).explicit_agent_type is None


@pytest.mark.parametrize("text,needle", [
    ("[nosuchsection]\n", "unknown section"),
    ("[wealth]\nnope = 1\n", "unknown key"),
    ("[wealth]\ngamma = fast\n", "not a valid float"),
    ("gamma = 2\n", "outside of any"),
    ("[wealth\ngamma = 2\n", "malformed section"),
    ("[wealth]\njust words\n", "expected 'key = value'"),
    ("[tax]\ntau_low = 0.5\ntau_high = 0.3\n", r"\[tax\] tau_low must be below tau_high"),
    ("[shrinkage]\nmu_s = 1e6\n", r"\[shrinkage\] math range error"),
    ("[run]\nseed = -1\n", r"\[run\] master_seed must fit"),
    (f"[run]\nseed = {2**64}\n", r"\[run\] master_seed must fit"),
    ("[wealth]\nr = -0.7\n", r"\[wealth\] r \+ delta must be positive"),
    ("[wealth]\nlam = nan\n", r"line 2: value 'nan' for wealth\.lam is not a finite float"),
    ("[cognition]\nbeta_c = inf\n", r"line 2: value 'inf' for cognition\.beta_c is not a finite"),
    ("[equilibrium]\nrho = -inf\n", r"line 2: value '-inf' for equilibrium\.rho is not a finite"),
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


# ------------------------------------------------------------------- cli ----

@pytest.mark.parametrize("cmd", [
    "cognition", "datavalue", "consumption", "tax", "wealth", "equilibrium"])
def test_report_subcommands_succeed(cmd, capsys):
    assert run_cli([cmd]) == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_equilibrium_prints_the_firm_profit_rate_at_equilibrium_prices(capsys):
    assert run_cli(["equilibrium"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "firm profit rate at w*" in line)
    expected = _fmt(profit_rate(equilibrium_economy(default_config().equilibrium_params())))
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


def test_explain_flag_prints_origins(capsys):
    assert run_cli(["wealth", "--explain", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "origin" in out or "flag" in out


def test_bad_config_path_is_usage_error():
    assert run_cli(["wealth", "--config", "/nonexistent.ini"]) == 1


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
])
def test_finite_extremes_exit_one_without_traceback(tmp_path, capsys, verb, section, line):
    path = write_config(tmp_path, f"[{section}]\n{line}\n")
    expected = IN_RANGE_EXTREMES.get((section, line), {}).get(verb, 1)
    assert run_cli([verb, "--config", path]) == expected
    err = capsys.readouterr().err
    if expected == 1:
        assert err.startswith(f"config error: [{section}] ") and err.count("\n") == 1
    assert "Traceback" not in err



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
    path = write_config(tmp_path, "[equilibrium]\nalpha = 0.3\n")
    assert run_cli(["equilibrium", "--config", path]) == 1
    assert "alpha" in capsys.readouterr().err


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


def test_reproduce_rejects_bad_figure_numbers(capsys):
    assert run_cli(["reproduce", "--figure", "99"]) == 1
    assert run_cli(["reproduce", "--figure", "zero"]) == 1


def test_degenerate_data_value_draws_exit_three(tmp_path, capsys):
    # zero volatility pins every draw at d_bar, leaving the high side empty
    path = write_config(tmp_path, "[consumption]\nvolatility = 0\n")
    assert run_cli(["reproduce", "--figure", "6", "--config", path,
                    "--out", str(tmp_path / "series")]) == 3
    err = capsys.readouterr().err
    assert "degenerate model" in err and "d_bar" in err
    assert "Traceback" not in err


def test_divergent_equilibrium_wealth_mean_exits_three(tmp_path, capsys):
    # a tiny friction leaves the right tail rate below one: no level mean
    path = write_config(tmp_path, "[equilibrium]\nf_sigma = 0.001\n")
    assert run_cli(["equilibrium", "--config", path]) == 3
    captured = capsys.readouterr()
    assert "divergent" in captured.out
    assert "degenerate model" in captured.err
    assert "Traceback" not in captured.err


def test_reproduce_rejects_mismatched_agent_type(tmp_path, capsys):
    path = write_config(tmp_path, "[wealth]\nagent_type = one\n")
    assert run_cli(["reproduce", "--figure", "9", "--config", path]) == 1
    assert "agent_type" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert run_cli(["wealth", "--no-such-flag"]) == 1


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
    out = capsys.readouterr().out
    assert "uniform" in out and "gaussian" in out


@pytest.mark.parametrize("body,needle", [
    ("[sources]\ntriangular 1.0\n", "uniform"),
    ("[sources]\nuniform\n", "uniform"),
    ("[sources]\nuniform 1.0\n[interactions]\n1 2 0.4\n", "synergy"),
    ("mystery = 3\n[sources]\nuniform 1.0\n", "unknown ensemble header"),
    ("\n", "no sources"),
    ("j = abc\n[sources]\nuniform 1.0\n", "line 1: could not convert"),
    ("[sources]\nuniform 1.0\n[interactions]\n1 x 0.1 0.1\n", "line 4: invalid literal"),
    ("j = 0.5\nref_variance = -1\n[sources]\nuniform 1.0\n",
     "line 2: ref_variance must be positive"),
])
def test_bad_ensemble_files_exit_one(tmp_path, capsys, body, needle):
    path = tmp_path / "sources.txt"
    path.write_text(body)
    assert run_cli(["datavalue", "--ensemble", str(path)]) == 1
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err


# ------------------------------------------------------------- cold start ---

# Runs in a fresh interpreter so that sys.modules shows only what these two
# commands load.  No --config: a scenario file's [tax] check needs scipy.
NO_SCIPY_PROBE = """
import sys
from cogecon.cli import main
from cogecon.validate import run_validations, validation_jobs
try:
    main(["reproduce", "--figure", "all", "--out", sys.argv[1]])
except SystemExit as exc:
    assert not exc.code, exc.code
for _ in run_validations(validation_jobs(7), 401, 10_000):
    pass
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_reproduce_and_validate_load_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) == 14
    assert proc.stdout.splitlines()[-1] == "[]"
