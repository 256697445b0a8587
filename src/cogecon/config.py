"""Scenario and ensemble files: one line grammar under two schemas.

Both kinds are UTF-8 text of [section] headers, # comments (whole-line or
trailing) and blank lines.  A scenario file sets key = value pairs over a
fixed key schema; an ensemble file lists information sources and their
interactions (see parse_ensemble).  Unknown sections or keys are rejected
with the offending line number, as are unparseable or non-finite values and
a scenario key set twice.  No scenario file, or an empty one, resolves to the
documented defaults.

parse_config checks a scenario's values against the two rules that no
report verb evaluates; every other value is checked by the validator of the
function that consumes it, which the CLI reaches by draining every report
verb's rows at load.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection
from dataclasses import fields
from pathlib import Path

from .consumption import CawfParams, ShrinkageParams
from .cognition import CognitionParams, RetentionParams
from .data_value import InfoEnsemble, SourceDist, gaussian_entropy
from .errors import ConfigError
from .records import record
from .rng import RngSpec
from .sde import OuProcessSpec
from .tax_model import TaxEconomy
from .wealth import EQUILIBRIUM_ALPHA, EconomyParams


@record
class _Key:
    default: object
    help: str


# What each EconomyParams field means.  The [wealth] and [equilibrium] keys
# are these fields, each with the record's own default.
_ECONOMY_HELP = {
    "rho": "time preference rate",
    "gamma": "CRRA curvature",
    "alpha": "capital exponent of the technology",
    "delta": "depreciation rate",
    "beta": "redistribution (reset) rate",
    "w": "wage",
    "r": "risk-free rate",
    "theta": "risky asset drift",
    "sigma": "risky asset volatility",
    "lam": "leverage cap (capital per unit wealth)",
    "z": "firm productivity",
    "f_sigma": "attention friction; 1 restores the frictionless policy",
}


def _economy_keys(*omitted: str) -> dict[str, _Key]:
    return {f.name: _Key(f.default, _ECONOMY_HELP[f.name])
            for f in fields(EconomyParams) if f.name not in omitted}


# Every configurable key: its default (a file's value is parsed as its type) and what it means.
SCHEMA: dict[str, dict[str, _Key]] = {
    "run": {
        "seed": _Key(42, "master seed for every stochastic routine"),
        "out": _Key("out", "directory for CSV output"),
    },
    "cognition": {
        "mu_c": _Key(2.0, "cognitive recovery rate"),
        "eta_c": _Key(1.0, "per-contact dilution intensity"),
        "sigma_c": _Key(0.4, "interaction strength"),
        "gamma_c": _Key(0.4, "crowding discount exponent, in (0,1)"),
        "psi_c": _Key(0.4, "volatility scale of the resource process"),
        "beta_c": _Key(0.8, "Poisson refresh rate of the resource process"),
        "theta_c": _Key(2.0, "gross growth multiple per recovery event"),
        "n": _Key(10, "number of competing agents"),
    },
    "retention": {
        "r0": _Key(0.99, "initial retention share, in (0,1]"),
        "dilution_rate": _Key(3.0, "retention dilution rate"),
        "recovery_rate": _Key(2.0, "retention recovery rate"),
    },
    "datavalue": {
        "j_coupling": _Key(1.0, "interaction coupling of the demo ensemble"),
        "ref_variance": _Key(1.0, "variance of the reference gaussian setting the entropy cap"),
    },
    "consumption": {
        "scale": _Key(1.15, "gross adjustment multiplier of the weight function"),
        "omega": _Key(100.0, "crowd size at which the two belief regimes weigh equally"),
        "d_bar": _Key(0.5, "neutral data value"),
        "reversion": _Key(0.1, "mean-reversion rate of the data-value process"),
        "volatility": _Key(0.8, "volatility of the data-value process"),
        "horizon": _Key(60.0, "simulation horizon used to reach the stationary regime"),
        "n_paths": _Key(1000, "Monte Carlo paths for the average adjustment curves"),
        "beta_b": _Key(0.8, "shrinkage exponent of the non-Bayesian adjustment"),
        "mu_b": _Key(0.9, "level multiplier of the non-Bayesian adjustment"),
        "p1": _Key(0.75, "upward belief used in the adjustment report, in [0.5,1)"),
    },
    "shrinkage": {
        "sigma_s": _Key(1.0, "log dispersion of the true adjustment"),
        "sigma_n": _Key(0.5, "log noise of the observed estimate"),
        "mu_s": _Key(0.0, "log-mean of the true adjustment"),
    },
    "tax": {
        "tau": _Key(0.3, "output tax rate"),
        "tau_low": _Key(0.2, "lower tax rate compared in the preference check"),
        "tau_high": _Key(0.4, "higher tax rate compared in the preference check"),
        "g_scale": _Key(1.0, "output scale"),
        "m": _Key(0.5, "investor mass, in (0,1)"),
        "mu_bar": _Key(0.0, "mean log ability"),
        "sigma_mu": _Key(1.0, "dispersion of log ability"),
        "k_cut": _Key(0.0, "ability cutoff defining investors"),
        "sigma_agg": _Key(0.2, "aggregate shock scale"),
        "sigma_idio": _Key(0.2, "idiosyncratic shock scale"),
        "theta_c": _Key(0.5, "risky technology share, in [0,1]"),
        "gamma_b": _Key(2.0, "CRRA curvature of investors"),
    },
    "wealth": _economy_keys(),
    # The wage and the rate are equilibrium outcomes, and the closed-form
    # clearing fixes alpha at EQUILIBRIUM_ALPHA.
    "equilibrium": _economy_keys("alpha", "w", "r"),
    "validate": {
        "n_points": _Key(4001, "finite-difference grid points per density check"),
        "n_samples": _Key(1000000, "Monte Carlo samples per density check"),
    },
}


@record
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

    def cognition_params(self) -> CognitionParams:
        return CognitionParams(**self.values["cognition"])

    def retention_params(self) -> RetentionParams:
        return RetentionParams(**self.values["retention"])

    def cawf_params(self) -> CawfParams:
        c = self.values["consumption"]
        ou = OuProcessSpec(mean=c["d_bar"], reversion=c["reversion"],
                           volatility=c["volatility"], horizon=c["horizon"])
        return CawfParams(scale=c["scale"], omega=c["omega"], d_bar=c["d_bar"],
                          ou=ou, n_paths=c["n_paths"])

    def data_ensemble(self, path: str | Path | None = None) -> InfoEnsemble:
        """The ensemble `cogecon datavalue` scores: the file at path, else a three-source demo."""
        d = self.values["datavalue"]
        sigma_max = entropy_cap_from_variance(d["ref_variance"])
        if path is not None:
            return parse_ensemble(path, d["j_coupling"], sigma_max)
        sources = (SourceDist.uniform(1.0), SourceDist.uniform(2.0), SourceDist.gaussian(0.25))
        return InfoEnsemble(sources=sources, sigma_max=sigma_max, j_coupling=d["j_coupling"],
                            synergy={(0, 1): 0.6}, antagonism={(1, 2): 0.3})

    def shrinkage_params(self) -> ShrinkageParams:
        c = self.values["consumption"]
        return ShrinkageParams(beta_b=c["beta_b"], mu_b=c["mu_b"])

    def tax_economy(self) -> TaxEconomy:
        t = self.values["tax"]
        kw = {k: v for k, v in t.items() if k not in ("tau_low", "tau_high")}
        return TaxEconomy(**kw)

    def wealth_params(self) -> EconomyParams:
        return EconomyParams(**self.values["wealth"])

    def equilibrium_params(self) -> EconomyParams:
        # w and r keep the record's placeholders: the prices replace them.
        return EconomyParams(alpha=EQUILIBRIUM_ALPHA, **self.values["equilibrium"])


def default_config() -> ScenarioConfig:
    values = {s: {k: spec.default for k, spec in keys.items()} for s, keys in SCHEMA.items()}
    origins = {s: {k: "default" for k in keys} for s, keys in SCHEMA.items()}
    return ScenarioConfig(values=values, origins=origins)


def _scan_lines(path: str | Path, what: str, sections: Collection[str],
                handle: Callable[[str | None, str], None]) -> None:
    """The line grammar both file kinds share.

    Reads the file as UTF-8, with or without a leading byte-order mark, drops
    # comments and blank lines, checks each [name] header against `sections`,
    and calls handle(section, line) on every other line, with section None
    before the first header.  A ValueError or ConfigError raised on a line
    leaves as one ConfigError naming that line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigError(f"{what} file {path} does not exist") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            if not stripped.startswith("["):
                handle(section, stripped)
                continue
            if not stripped.endswith("]"):
                raise ConfigError(f"malformed section header {stripped!r}")
            section = stripped[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"unknown section [{section}]")
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None


def _key_value(line: str) -> tuple[str, str]:
    key, eq, raw = line.partition("=")
    if not eq:
        raise ConfigError(f"expected 'key = value', got {line!r}")
    return key.strip(), raw.strip()


def _parse_value(raw: str, kind: type, name: str):
    """One value of either file kind: a string, an int, or a finite float."""
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"value {raw!r} for {name} is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"value {raw!r} for {name} is not a finite float")
    return value


def parse_config(path: str | Path | None) -> ScenarioConfig:
    """Load a scenario file; None gives pure defaults.

    Beyond the grammar, only the two rules that no report verb evaluates
    are checked here: the seed and the [validate] sizes.
    The values the report verbs consume, the Euler budget among them, are
    checked by those verbs' own validators: the CLI drains every report at load.
    """
    cfg = default_config()
    if path is None:
        return cfg

    def handle(section: str | None, line: str) -> None:
        key, raw = _key_value(line)
        if section is None:
            raise ConfigError("key outside of any [section]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        if cfg.origins[section][key] == "file":
            raise ConfigError(f"key {key!r} set twice in [{section}]")
        cfg.values[section][key] = _parse_value(raw, type(SCHEMA[section][key].default),
                                                 f"{section}.{key}")
        cfg.origins[section][key] = "file"

    _scan_lines(path, "config", SCHEMA, handle)
    _check("run", lambda: RngSpec(cfg.seed))
    for key, low, high in (("n_points", 3, MAX_FD_POINTS), ("n_samples", 100, MAX_MC_SAMPLES)):
        n = cfg.values["validate"][key]
        if not low <= n <= high:
            raise ConfigError(f"[validate] {key} must lie in [{low}, {high}], got {n}")
    return cfg


def config_error(section: str, exc: ValueError | ArithmeticError,
                 row: str | None = None) -> ConfigError:
    """A callee's rejection of the values of [section], as one ConfigError.

    A ValueError keeps the callee's message.  An ArithmeticError is marked as
    out of floating-point range, with the strerror of the (errno, strerror)
    pair that float ** raises, and names row, the last row a report yielded
    before it, when one is given.
    """
    if isinstance(exc, ValueError):
        return ConfigError(f"[{section}] {exc}")
    reason = exc.args[1] if len(exc.args) == 2 else exc
    after = "" if row is None else f" after the row {row!r}"
    return ConfigError(f"[{section}] {reason} (values out of floating-point range){after}")


def _check(section: str, view) -> None:
    """Run one callee's own validator; its rejection becomes a ConfigError."""
    try:
        view()
    except (ValueError, ArithmeticError) as exc:
        raise config_error(section, exc) from exc


# Largest [validate] sizes, 250 and 100 times the defaults: the FD oracle's
# Thomas sweep holds O(n) Python lists, about 230 bytes per point, and the MC
# oracle 8 bytes per sample for each law in flight (up to one per CPU).
MAX_FD_POINTS = 1_000_000
MAX_MC_SAMPLES = 100_000_000


def apply_overrides(cfg: ScenarioConfig, seed: int | None, out: str | None) -> ScenarioConfig:
    if seed is not None:
        _check("run", lambda: RngSpec(seed))
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
        raise ValueError(f"ref_variance must be positive, got {ref_variance}")
    cap = gaussian_entropy(ref_variance)
    if cap <= 0.0:
        raise ValueError(f"ref_variance {ref_variance} implies a nonpositive entropy cap {cap:.6g}")
    if not math.isfinite(cap):
        raise ValueError(f"ref_variance {ref_variance} implies an infinite entropy cap")
    return cap


# Source kind in an ensemble file -> its constructor.
_SOURCE_KINDS = {"uniform": SourceDist.uniform, "gaussian": SourceDist.gaussian}


def parse_ensemble(path: str | Path, j_coupling: float, sigma_max: float) -> InfoEnsemble:
    """Read a source-ensemble file over the scenario's coupling and entropy cap.

    Grammar: optional `j = X` / `ref_variance = X` header lines, each at most
    once, which replace the coupling and the cap, then a [sources] block with
    `uniform WIDTH` or `gaussian VARIANCE` lines, then an optional
    [interactions] block with `i j synergy antagonism` rows using 1-based
    indices of the sources above them, i < j, each pair at most once.
    """
    sources: list[SourceDist] = []
    synergy: dict = {}
    antagonism: dict = {}
    headers: set[str] = set()

    def handle(section: str | None, line: str) -> None:
        nonlocal j_coupling, sigma_max
        if section is None:
            key, raw = _key_value(line)
            if key in headers:
                raise ConfigError(f"ensemble header {key!r} set twice")
            headers.add(key)
            if key == "j":
                j_coupling = _parse_value(raw, float, key)
            elif key == "ref_variance":
                sigma_max = entropy_cap_from_variance(_parse_value(raw, float, key))
            else:
                raise ConfigError(f"unknown ensemble header key {key!r}")
            return
        parts = line.split()
        if section == "sources":
            if len(parts) != 2 or parts[0] not in _SOURCE_KINDS:
                raise ConfigError(f"expected 'uniform WIDTH' or 'gaussian VARIANCE', got {line!r}")
            kind, raw = parts
            sources.append(_SOURCE_KINDS[kind](_parse_value(raw, float, f"{kind} source")))
        else:
            if len(parts) != 4:
                raise ConfigError(f"expected 'i j synergy antagonism', got {line!r}")
            i, j = (_parse_value(raw, int, "source index") for raw in parts[:2])
            if i < 1:
                raise ConfigError(f"source index {i} is below 1")
            if i >= j:
                raise ConfigError(f"pair {i} {j} must have its first index below its second")
            if j > len(sources):
                raise ConfigError(f"source index {j} is above the {len(sources)} sources "
                                  "listed before it")
            if (i - 1, j - 1) in synergy:
                raise ConfigError(f"pair {i} {j} appears twice")
            synergy[(i - 1, j - 1)] = _parse_value(parts[2], float, "synergy")
            antagonism[(i - 1, j - 1)] = _parse_value(parts[3], float, "antagonism")

    _scan_lines(path, "ensemble", ("sources", "interactions"), handle)
    if not sources:
        raise ConfigError(f"ensemble file {path} defines no sources")
    try:
        return InfoEnsemble(sources=tuple(sources), sigma_max=sigma_max,
                            j_coupling=j_coupling, synergy=synergy, antagonism=antagonism)
    except ValueError as exc:
        raise ConfigError(f"ensemble file {path}: {exc}") from None
