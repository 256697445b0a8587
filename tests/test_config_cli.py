"""Scenario-file parsing, override plumbing, and CLI exit codes."""

import pytest

from cogecon.cli import main
from cogecon.config import (
    apply_overrides,
    default_config,
    explain_lines,
    parse_config,
)
from cogecon.errors import ConfigError
from cogecon.validate import ComboReport


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


def test_explain_flag_prints_origins(capsys):
    assert run_cli(["wealth", "--explain", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "origin" in out or "flag" in out


def test_bad_config_path_is_usage_error():
    assert run_cli(["wealth", "--config", "/nonexistent.ini"]) == 1


def test_invalid_parameter_exits_one(tmp_path):
    path = write_config(tmp_path, "[wealth]\ngamma = -1\n")
    assert run_cli(["wealth", "--config", path]) == 1


def test_wrong_equilibrium_exponent_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, "[equilibrium]\nalpha = 0.3\n")
    assert run_cli(["equilibrium", "--config", path]) == 1
    assert "alpha" in capsys.readouterr().err


def test_degenerate_diffusion_exits_three(tmp_path, capsys):
    # theta = r removes the diffusion term from the stationary problem
    path = write_config(tmp_path, "[wealth]\ntheta = 0.01\nr = 0.01\n")
    assert run_cli(["wealth", "--config", path]) == 3
    assert "degenerate" in capsys.readouterr().err


def test_validation_failure_exits_two(monkeypatch, capsys):
    import cogecon.cli as cli_mod
    import cogecon.validate as validate_mod

    def fake_validation(law, rng, label, n_points, n_samples):
        return ComboReport(label=label, law=law, fd_error=0.5, fd_tol=1e-3,
                           ks_distance=0.5, ks_tol=0.02)

    monkeypatch.setattr(cli_mod, "run_density_validation", fake_validation)
    monkeypatch.setattr(validate_mod, "benchmark_combos", lambda: [])
    assert run_cli(["validate"]) == 2
    assert "validation failure" in capsys.readouterr().err


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
])
def test_bad_ensemble_files_exit_one(tmp_path, capsys, body, needle):
    path = tmp_path / "sources.txt"
    path.write_text(body)
    assert run_cli(["datavalue", "--ensemble", str(path)]) == 1
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
