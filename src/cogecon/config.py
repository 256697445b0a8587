"""Scenario configuration: INI-style files over a fixed key schema.

The format is deliberately small: [section] headers, key = value pairs, #
comments (whole-line or trailing), blank lines.  Unknown sections or keys are
rejected with the offending line number, as are unparseable values.  An empty
or absent file resolves to the documented defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .consumption import CawfParams, ShrinkageParams, bayes_adjustment, implied_shrinkage
from .cognition import CognitionParams, RetentionParams
from .errors import ConfigError
from .sde import OuProcessSpec
from .tax_model import TaxEconomy, proposition1_check
from .wealth import EconomyParams


@dataclass(frozen=True)
class _Key:
    default: object
    kind: type
    help: str


# Every configurable key, its default, and what it means.  The defaults are
# the baseline calibration used throughout: the wealth block at the low
# leverage tier with the low-drift, low-volatility asset pair, and the
# cognition, belief, and adjustment blocks at their standard settings.
SCHEMA: dict[str, dict[str, _Key]] = {
    "run": {
        "seed": _Key(42, int, "master seed for every stochastic routine"),
        "out": _Key("out", str, "directory for CSV output"),
    },
    "cognition": {
        "mu_c": _Key(2.0, float, "cognitive recovery rate"),
        "eta_c": _Key(1.0, float, "per-contact dilution intensity"),
        "sigma_c": _Key(0.4, float, "interaction strength"),
        "gamma_c": _Key(0.4, float, "crowding discount exponent, in (0,1)"),
        "psi_c": _Key(0.4, float, "volatility scale of the resource process"),
        "beta_c": _Key(0.8, float, "Poisson refresh rate of the resource process"),
        "theta_c": _Key(2.0, float, "gross growth multiple per recovery event"),
        "n": _Key(10, int, "number of competing agents"),
    },
    "retention": {
        "r0": _Key(0.99, float, "initial retention share, in (0,1]"),
        "dilution_rate": _Key(3.0, float, "retention dilution rate"),
        "recovery_rate": _Key(2.0, float, "retention recovery rate"),
    },
    "datavalue": {
        "j_coupling": _Key(1.0, float, "interaction coupling of the demo ensemble"),
        "ref_variance": _Key(1.0, float, "variance of the reference gaussian setting the entropy cap"),
    },
    "consumption": {
        "scale": _Key(1.15, float, "gross adjustment multiplier of the weight function"),
        "omega": _Key(100.0, float, "crowd size at which the two belief regimes weigh equally"),
        "d_bar": _Key(0.5, float, "neutral data value"),
        "reversion": _Key(0.1, float, "mean-reversion rate of the data-value process"),
        "volatility": _Key(0.8, float, "volatility of the data-value process"),
        "horizon": _Key(60.0, float, "simulation horizon used to reach the stationary regime"),
        "n_paths": _Key(1000, int, "Monte Carlo paths for the average adjustment curves"),
        "beta_b": _Key(0.8, float, "shrinkage exponent of the non-Bayesian adjustment"),
        "mu_b": _Key(0.9, float, "level multiplier of the non-Bayesian adjustment"),
        "p1": _Key(0.75, float, "upward belief used in the adjustment report, in [0.5,1)"),
    },
    "shrinkage": {
        "sigma_s": _Key(1.0, float, "log dispersion of the true adjustment"),
        "sigma_n": _Key(0.5, float, "log noise of the observed estimate"),
        "mu_s": _Key(0.0, float, "log-mean of the true adjustment"),
    },
    "tax": {
        "tau": _Key(0.3, float, "output tax rate"),
        "tau_low": _Key(0.2, float, "lower tax rate compared in the preference check"),
        "tau_high": _Key(0.4, float, "higher tax rate compared in the preference check"),
        "g_scale": _Key(1.0, float, "output scale"),
        "m": _Key(0.5, float, "investor mass, in (0,1)"),
        "mu_bar": _Key(0.0, float, "mean log ability"),
        "sigma_mu": _Key(1.0, float, "dispersion of log ability"),
        "k_cut": _Key(0.0, float, "ability cutoff defining investors"),
        "sigma_agg": _Key(0.2, float, "aggregate shock scale"),
        "sigma_idio": _Key(0.2, float, "idiosyncratic shock scale"),
        "theta_c": _Key(0.5, float, "risky technology share, in [0,1]"),
        "gamma_b": _Key(2.0, float, "CRRA curvature of investors"),
    },
    "wealth": {
        "rho": _Key(0.05, float, "time preference rate"),
        "gamma": _Key(2.0, float, "CRRA curvature"),
        "alpha": _Key(0.3, float, "capital exponent of the technology"),
        "delta": _Key(0.6, float, "depreciation rate"),
        "beta": _Key(0.3, float, "redistribution (reset) rate"),
        "w": _Key(1.0, float, "wage"),
        "r": _Key(0.01, float, "risk-free rate"),
        "theta": _Key(0.05, float, "risky asset drift (low setting)"),
        "sigma": _Key(0.05, float, "risky asset volatility (low setting)"),
        "lam": _Key(5.0, float, "leverage cap, low tier"),
        "z": _Key(5.0, float, "firm productivity"),
        "f_sigma": _Key(1.0, float, "attention friction; 1 restores the frictionless policy"),
        "agent_type": _Key("one", str,
                           "leverage regime: one = fixed friction, two = friction paired to leverage"),
    },
    "equilibrium": {
        "rho": _Key(0.05, float, "time preference rate"),
        "gamma": _Key(2.0, float, "CRRA curvature"),
        "alpha": _Key(0.5, float, "capital exponent; closed-form clearing needs 1/2"),
        "delta": _Key(0.6, float, "depreciation rate"),
        "beta": _Key(0.3, float, "redistribution (reset) rate"),
        "theta": _Key(0.05, float, "risky asset drift"),
        "sigma": _Key(0.05, float, "risky asset volatility"),
        "lam": _Key(5.0, float, "leverage cap"),
        "z": _Key(5.0, float, "firm productivity"),
        "f_sigma": _Key(1.0, float, "attention friction"),
    },
    "validate": {
        "n_points": _Key(4001, int, "finite-difference grid points per density check"),
        "n_samples": _Key(1000000, int, "Monte Carlo samples per density check"),
    },
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved configuration: every schema key with a value and its origin."""

    values: dict
    origins: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    # -- typed views ---------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    @property
    def out_dir(self) -> str:
        return self.values["run"]["out"]

    def cognition_params(self, **overrides) -> CognitionParams:
        kw = dict(self.values["cognition"])
        kw.update(overrides)
        return CognitionParams(**kw)

    def retention_params(self) -> RetentionParams:
        return RetentionParams(**self.values["retention"])

    def cawf_params(self) -> CawfParams:
        c = self.values["consumption"]
        ou = OuProcessSpec(mean=c["d_bar"], reversion=c["reversion"],
                           volatility=c["volatility"], lower_bound=0.0,
                           upper_bound=1.0, horizon=c["horizon"])
        return CawfParams(scale=c["scale"], omega=c["omega"], d_bar=c["d_bar"],
                          ou=ou, n_paths=c["n_paths"])

    def shrinkage_params(self) -> ShrinkageParams:
        c = self.values["consumption"]
        return ShrinkageParams(beta_b=c["beta_b"], mu_b=c["mu_b"])

    def tax_economy(self) -> TaxEconomy:
        t = self.values["tax"]
        fields = {k: v for k, v in t.items() if k not in ("tau_low", "tau_high")}
        return TaxEconomy(**fields)

    @property
    def explicit_agent_type(self) -> str | None:
        """The wealth agent type when set in a file or flag, else None."""
        if self.origins["wealth"]["agent_type"] == "default":
            return None
        return self.values["wealth"]["agent_type"]

    def wealth_params(self, **overrides) -> EconomyParams:
        kw = dict(self.values["wealth"])
        kw.pop("agent_type")
        kw.update(overrides)
        return EconomyParams(**kw)

    def equilibrium_params(self) -> EconomyParams:
        kw = dict(self.values["equilibrium"])
        # The wage is an equilibrium outcome; any positive placeholder works.
        return EconomyParams(w=1.0, **kw)


def default_config() -> ScenarioConfig:
    values = {s: {k: spec.default for k, spec in keys.items()} for s, keys in SCHEMA.items()}
    origins = {s: {k: "default" for k in keys} for s, keys in SCHEMA.items()}
    return ScenarioConfig(values=values, origins=origins)


def _parse_value(raw: str, spec: _Key, lineno: int, section: str, key: str):
    if spec.kind is str:
        return raw
    try:
        if spec.kind is int:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: value {raw!r} for {section}.{key} is not a valid {spec.kind.__name__}")


def parse_config(path: str | Path | None) -> ScenarioConfig:
    """Load a scenario file; missing path or None gives pure defaults."""
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")

    section = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line.strip()!r}")
            name = stripped[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        cfg.values[section][key] = _parse_value(raw, SCHEMA[section][key], lineno, section, key)
        cfg.origins[section][key] = "file"
    revalidate(cfg)
    return cfg


def revalidate(cfg: ScenarioConfig) -> None:
    """Re-run every module-level invariant over the resolved values.

    Constructing the typed views, and calling the functions that consume the
    remaining keys, triggers their own validators, so each bad value is
    rejected by the one check that guards it.  Overflow counts as out of range.
    """
    agent_type = cfg.values["wealth"]["agent_type"]
    if agent_type not in ("one", "two"):
        raise ConfigError(f"wealth.agent_type must be 'one' or 'two', got {agent_type!r}")
    if agent_type == "two" and cfg.origins["wealth"]["f_sigma"] == "default":
        raise ConfigError("wealth.agent_type = two requires an explicit f_sigma; "
                          "the type pairs the friction weight to the leverage tier")
    tax = cfg.values["tax"]
    checks = (
        ("cognition", cfg.cognition_params),
        ("retention", cfg.retention_params),
        ("consumption", cfg.cawf_params),
        ("consumption", cfg.shrinkage_params),
        ("consumption", lambda: bayes_adjustment(cfg.get("consumption", "p1"))),
        ("shrinkage", lambda: implied_shrinkage(**cfg.values["shrinkage"])),
        ("tax", lambda: proposition1_check(cfg.tax_economy(), tax["tau_low"], tax["tau_high"])),
        ("wealth", cfg.wealth_params),
        ("equilibrium", cfg.equilibrium_params),
    )
    for section, view in checks:
        try:
            view()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    if cfg.values["datavalue"]["j_coupling"] < 0.0:
        raise ConfigError(f"[datavalue] j_coupling must be nonnegative, "
                          f"got {cfg.values['datavalue']['j_coupling']}")
    entropy_cap_from_variance(cfg.values["datavalue"]["ref_variance"])
    val = cfg.values["validate"]
    if val["n_points"] < 3:
        raise ConfigError(f"[validate] n_points must be at least 3, got {val['n_points']}")
    if val["n_samples"] < 100:
        raise ConfigError(f"[validate] n_samples must be at least 100, got {val['n_samples']}")


def apply_overrides(cfg: ScenarioConfig, seed: int | None, out: str | None) -> ScenarioConfig:
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must fit in an unsigned 64-bit int, got {seed}")
        cfg.values["run"]["seed"] = seed
        cfg.origins["run"]["seed"] = "flag"
    if out is not None:
        cfg.values["run"]["out"] = out
        cfg.origins["run"]["out"] = "flag"
    return cfg


def explain_lines(cfg: ScenarioConfig) -> list[str]:
    """One line per key: resolved value, origin, and meaning."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, spec in keys.items():
            value = cfg.values[section][key]
            origin = cfg.origins[section][key]
            lines.append(f"  {key} = {value}  ({origin}) {spec.help}")
    return lines


def entropy_cap_from_variance(ref_variance: float) -> float:
    """Entropy cap implied by a reference gaussian variance."""
    if ref_variance <= 0.0:
        raise ConfigError(f"ref_variance must be positive, got {ref_variance}")
    cap = 0.5 * math.log(2.0 * math.pi * math.e * ref_variance)
    if cap <= 0.0:
        raise ConfigError(
            f"ref_variance {ref_variance} implies a nonpositive entropy cap {cap:.6g}")
    return cap
