"""Reproducible data series behind the package's reference figures.

Each builder returns a SeriesTable: a column-labeled numeric table plus a
metadata header (figure id, parameter echo, seed).  CSV output is stable
byte for byte across runs: fixed column order, fixed 17-significant-digit
formatting, CRLF line endings, and counter-based seeding keyed on the figure
id, so nothing depends on scheduling or thread count.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .cognition import (CognitionParams, RetentionParams, retention_trajectory,
                        stationary_cognition_density)
from .config import ScenarioConfig
from .consumption import cawf, cawf_montecarlo
from .errors import ConfigError
from .records import record
from .rng import RngSpec
from .wealth import drift_diffusion, stationary_wealth_density

# Sweep constants shared by the wealth figures: leverage tiers with the
# attention-friction levels paired to them, the low and high asset settings,
# and the intermediate robustness grids.
LAMBDA_TIERS = (5.0, 25.0, 50.0)
LAMBDA_LABELS = ("lambda_L", "lambda_M", "lambda_H")
F_SIGMA_TIERS = (0.2, 0.5, 0.8)
ASSET_LOW = (0.05, 0.05)    # (theta, sigma)
ASSET_HIGH = (0.5, 0.5)
ROBUST_THETA = (0.1, 0.3)   # swept at sigma = ASSET_LOW[1]
ROBUST_SIGMA = (0.3, 0.1)   # swept at theta = ASSET_LOW[0]
WEALTH_X_GRID = np.linspace(-10.0, 10.0, 2001)
COGNITION_X_GRID = np.linspace(-6.0, 6.0, 1201)

# Retention sweeps: (dilution, recovery) legs crossed with starting shares.
RETENTION_LEGS = ((3.0, 2.0), (5.0, 6.0), (4.0, 4.0))
RETENTION_STARTS = (0.99, 0.5, 0.1)

# Regime pin for the strong-dilution cognition panel.
STRONG_DILUTION_ETA = 2.1

# Wealth panels with the friction paired to the leverage tier; the other
# wealth panels hold it fixed.
TYPE_TWO_FIGURES = frozenset({9, 10, 13, 14})


@record
class SeriesTable:
    name: str
    columns: tuple[str, ...]
    data: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("data shape must be (rows, len(columns))")

    def to_csv_bytes(self) -> bytes:
        lines = [f"# {key}: {value}" for key, value in self.meta.items()]
        lines.append(",".join(self.columns))
        # One % fills the whole body, row by row, from the row-major values.
        row_format = ",".join(["%.17g"] * len(self.columns)) + "\r\n"
        body = "".join([row_format] * self.data.shape[0]) % tuple(self.data.ravel().tolist())
        return ("\r\n".join(lines) + "\r\n" + body).encode("ascii")

    def write(self, out_dir: str | Path) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{self.name}.csv"
        target.write_bytes(self.to_csv_bytes())
        return target


def _params_echo(pairs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs.items())


def _figure_retention(cfg: ScenarioConfig) -> SeriesTable:
    """Nine retention trajectories: three rate legs crossed with three starts."""
    t = np.linspace(0.0, 10.0, 201)
    columns = ["t"]
    series = [t]
    for dil, rec in RETENTION_LEGS:
        for r0 in RETENTION_STARTS:
            p = RetentionParams(r0=r0, dilution_rate=dil, recovery_rate=rec)
            columns.append(f"dil{dil:g}_rec{rec:g}_r0_{r0:g}")
            series.append(retention_trajectory(p, t))
    meta = {"figure": 1, "seed": "unused",
            "params": _params_echo({"legs": RETENTION_LEGS, "starts": RETENTION_STARTS})}
    return SeriesTable("figure01", tuple(columns), np.column_stack(series), meta)


def _density_table(figure_id: int, x: np.ndarray, densities: dict, params: dict) -> SeriesTable:
    """Stationary densities on the grid x, one column per label of densities."""
    meta = {"figure": figure_id, "seed": "unused", "params": _params_echo(params)}
    return SeriesTable(f"figure{figure_id:02d}", ("x", *densities),
                       np.column_stack([x, *(d.pdf(x) for d in densities.values())]), meta)


def _cognition_density_table(figure_id: int, p: CognitionParams, crowd: tuple) -> SeriesTable:
    """Stationary log-resource densities of p at each crowd size n."""
    densities = {f"n{n}": stationary_cognition_density(replace(p, n=n)) for n in crowd}
    return _density_table(figure_id, COGNITION_X_GRID, densities, {**asdict(p), "n": list(crowd)})


def _figure_shrinkage_lines(cfg: ScenarioConfig) -> SeriesTable:
    """Log-log adjustment lines: the identity and the shrunken rule."""
    p = cfg.shrinkage_params()
    ln_s = np.linspace(-2.0, 2.0, 401)
    ln_hat = p.beta_b * ln_s + np.log(p.mu_b)
    meta = {"figure": 4, "seed": "unused", "params": _params_echo(asdict(p))}
    return SeriesTable("figure04", ("ln_s", "ln_bayes", "ln_nonbayes"),
                       np.column_stack([ln_s, ln_s, ln_hat]), meta)


def _figure_cawf_slices(cfg: ScenarioConfig) -> SeriesTable:
    """Adjustment weight against data value, one column per crowd size."""
    p = cfg.cawf_params()
    d = np.linspace(0.0, 1.0, 201)
    crowd_sizes = (0.0, 10.0, 100.0, 1000.0, np.inf)
    columns = ["d_value"]
    series = [d]
    for n in crowd_sizes:
        label = "n_inf" if np.isinf(n) else f"n{n:g}"
        columns.append(label)
        series.append(cawf(d, n, p))
    meta = {"figure": 5, "seed": "unused",
            "params": _params_echo({"scale": p.scale, "omega": p.omega,
                                    "d_bar": p.d_bar, "crowd_sizes": crowd_sizes})}
    return SeriesTable("figure05", tuple(columns), np.column_stack(series), meta)


def _figure_cawf_montecarlo(cfg: ScenarioConfig) -> SeriesTable:
    """Average adjustment curves over stationary data-value draws."""
    p = cfg.cawf_params()
    rng = RngSpec(cfg.seed, stream_id=6)
    curves = cawf_montecarlo(p, rng)
    meta = {"figure": 6, "seed": cfg.seed,
            "params": _params_echo({
                "scale": p.scale, "omega": p.omega, "d_bar": p.d_bar,
                "reversion": p.ou.reversion, "volatility": p.ou.volatility,
                "horizon": p.ou.horizon, "n_paths": p.n_paths,
                "n_high": curves.n_high, "n_low": curves.n_low})}
    return SeriesTable("figure06", ("n", "average", "high_value", "low_value"),
                       np.column_stack([curves.n_grid, curves.average,
                                        curves.high_value, curves.low_value]), meta)


# Wealth figure id -> (label prefix, (theta, sigma)) of each asset setting it
# crosses with the three leverage tiers: one setting for figures 7-10, two
# points of a robustness axis for 11-14.
_THETA_AXIS = tuple((f"theta_{tag}_", (theta, ASSET_LOW[1]))
                    for tag, theta in zip("ab", ROBUST_THETA))
_SIGMA_AXIS = tuple((f"sigma_{tag}_", (ASSET_LOW[0], sigma))
                    for tag, sigma in zip("ab", ROBUST_SIGMA))
_WEALTH_ASSETS = {
    7: (("", ASSET_LOW),), 8: (("", ASSET_HIGH),), 9: (("", ASSET_LOW),), 10: (("", ASSET_HIGH),),
    11: _THETA_AXIS, 12: _SIGMA_AXIS, 13: _THETA_AXIS, 14: _SIGMA_AXIS,
}
# The EconomyParams fields of a wealth_sweeps economy, in its order.
_SWEPT_FIELDS = ("theta", "sigma", "lam", "f_sigma")


def wealth_sweeps(figure_id: int) -> list[tuple[str, tuple[float, float, float, float]]]:
    """The columns of wealth figure 7-14: (label, (theta, sigma, lam, f_sigma)) each."""
    f_values = F_SIGMA_TIERS if figure_id in TYPE_TWO_FIGURES else (1.0, 1.0, 1.0)
    return [(prefix + lam_label, (theta, sigma, lam, f_sigma))
            for prefix, (theta, sigma) in _WEALTH_ASSETS[figure_id]
            for lam_label, lam, f_sigma in zip(LAMBDA_LABELS, LAMBDA_TIERS, f_values)]


def _wealth_density_table(cfg: ScenarioConfig, figure_id: int) -> SeriesTable:
    """Stationary log-wealth densities, one column per economy of wealth_sweeps."""
    base = cfg.wealth_params()
    sweeps = wealth_sweeps(figure_id)
    densities = {label: stationary_wealth_density(drift_diffusion(
                     replace(base, **dict(zip(_SWEPT_FIELDS, economy)))))
                 for label, economy in sweeps}
    params = {k: v for k, v in asdict(base).items() if k not in _SWEPT_FIELDS}
    params["sweeps"] = [f"{lbl}:theta={t:g},sigma={s:g},lam={l:g},f={f:g}"
                        for lbl, (t, s, l, f) in sweeps]
    return _density_table(figure_id, WEALTH_X_GRID, densities, params)


# Figure id -> builder of its series.
_BUILDERS = {
    1: _figure_retention,
    2: lambda cfg: _cognition_density_table(2, cfg.cognition_params(), (10, 15, 20, 25)),
    3: lambda cfg: _cognition_density_table(
        3, replace(cfg.cognition_params(), eta_c=STRONG_DILUTION_ETA), (10, 25)),
    4: _figure_shrinkage_lines,
    5: _figure_cawf_slices,
    6: _figure_cawf_montecarlo,
    **{fid: functools.partial(_wealth_density_table, figure_id=fid) for fid in _WEALTH_ASSETS},
}
FIGURE_IDS = tuple(_BUILDERS)


def reproduce(figure_id: int, cfg: ScenarioConfig) -> SeriesTable:
    """Build the data series behind one reference figure, an id of FIGURE_IDS."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {figure_id}")
    explicit = cfg.explicit_agent_type
    if explicit == "one" and figure_id in TYPE_TWO_FIGURES:
        raise ConfigError(f"figure {figure_id} shows the paired-friction regime; "
                          "config pins agent_type = one")
    if explicit == "two" and figure_id in _WEALTH_ASSETS.keys() - TYPE_TWO_FIGURES:
        raise ConfigError(f"figure {figure_id} shows the fixed-friction regime; "
                          "config pins agent_type = two")
    return _BUILDERS[figure_id](cfg)
