"""Reproducible data series behind the package's reference figures.

Each builder returns a SeriesTable: a column-labeled numeric table plus a
metadata header (figure id, parameter echo, seed).  CSV output is stable
byte for byte across runs: fixed column order, fixed 17-significant-digit
formatting, CRLF line endings, and counter-based seeding keyed on the figure
id, so nothing depends on scheduling or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cognition import RetentionParams, retention_trajectory, stationary_cognition_density
from .config import ScenarioConfig
from .consumption import cawf, cawf_montecarlo, default_n_grid
from .errors import ConfigError
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

FIGURE_IDS = tuple(range(1, 15))

# Wealth panels split by leverage regime: fixed friction vs friction paired
# to the leverage tier.
TYPE_ONE_FIGURES = frozenset({7, 8, 11, 12})
TYPE_TWO_FIGURES = frozenset({9, 10, 13, 14})


@dataclass(frozen=True)
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
        for row in self.data:
            lines.append(",".join(f"{v:.17g}" for v in row))
        return ("\r\n".join(lines) + "\r\n").encode("ascii")

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


def _cognition_density_table(cfg: ScenarioConfig, figure_id: int, n_values,
                             eta_override: float | None) -> SeriesTable:
    x = COGNITION_X_GRID
    columns = ["x"]
    series = [x]
    overrides = {} if eta_override is None else {"eta_c": eta_override}
    for n in n_values:
        p = cfg.cognition_params(n=n, **overrides)
        d = stationary_cognition_density(p)
        columns.append(f"n{n}")
        series.append(d.pdf(x))
    p0 = cfg.cognition_params(**overrides)
    meta = {"figure": figure_id, "seed": "unused",
            "params": _params_echo({
                "mu_c": p0.mu_c, "eta_c": p0.eta_c, "sigma_c": p0.sigma_c,
                "gamma_c": p0.gamma_c, "psi_c": p0.psi_c, "beta_c": p0.beta_c,
                "theta_c": p0.theta_c, "n": list(n_values)})}
    return SeriesTable(f"figure{figure_id:02d}", tuple(columns), np.column_stack(series), meta)


def _figure_shrinkage_lines(cfg: ScenarioConfig) -> SeriesTable:
    """Log-log adjustment lines: the identity and the shrunken rule."""
    p = cfg.shrinkage_params()
    ln_s = np.linspace(-2.0, 2.0, 401)
    ln_hat = p.beta_b * ln_s + np.log(p.mu_b)
    meta = {"figure": 4, "seed": "unused",
            "params": _params_echo({"beta_b": p.beta_b, "mu_b": p.mu_b})}
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
    curves = cawf_montecarlo(p, rng, default_n_grid())
    meta = {"figure": 6, "seed": cfg.seed,
            "params": _params_echo({
                "scale": p.scale, "omega": p.omega, "d_bar": p.d_bar,
                "reversion": p.ou.reversion, "volatility": p.ou.volatility,
                "horizon": p.ou.horizon, "n_paths": p.n_paths,
                "n_high": curves.n_high, "n_low": curves.n_low})}
    return SeriesTable("figure06", ("n", "average", "high_value", "low_value"),
                       np.column_stack([curves.n_grid, curves.average,
                                        curves.high_value, curves.low_value]), meta)


def _wealth_density_table(cfg: ScenarioConfig, figure_id: int, sweeps,
                          column_labels) -> SeriesTable:
    """Stationary log-wealth densities for a list of (theta, sigma, lam, f_sigma) sweeps."""
    x = WEALTH_X_GRID
    columns = ["x"]
    series = [x]
    for label, (theta, sigma, lam, f_sigma) in zip(column_labels, sweeps):
        p = cfg.wealth_params(theta=theta, sigma=sigma, lam=lam, f_sigma=f_sigma)
        density = stationary_wealth_density(drift_diffusion(p))
        columns.append(label)
        series.append(density.pdf(x))
    base = cfg.wealth_params()
    meta = {"figure": figure_id, "seed": "unused",
            "params": _params_echo({
                "rho": base.rho, "gamma": base.gamma, "alpha": base.alpha,
                "delta": base.delta, "beta": base.beta, "w": base.w,
                "r": base.r, "z": base.z,
                "sweeps": [f"{lbl}:theta={t:g},sigma={s:g},lam={l:g},f={f:g}"
                           for lbl, (t, s, l, f) in zip(column_labels, sweeps)]})}
    return SeriesTable(f"figure{figure_id:02d}", tuple(columns), np.column_stack(series), meta)


def _lambda_sweeps(asset: tuple[float, float], paired_f: bool):
    theta, sigma = asset
    f_values = F_SIGMA_TIERS if paired_f else (1.0, 1.0, 1.0)
    return ([(theta, sigma, lam, f) for lam, f in zip(LAMBDA_TIERS, f_values)],
            LAMBDA_LABELS)


def _robustness_sweeps(axis: str, values, paired_f: bool):
    sweeps, labels = [], []
    for tag, value in zip(("a", "b"), values):
        for lam_label, lam, f in zip(LAMBDA_LABELS, LAMBDA_TIERS,
                                     F_SIGMA_TIERS if paired_f else (1.0, 1.0, 1.0)):
            if axis == "theta":
                sweeps.append((value, ASSET_LOW[1], lam, f))
            else:
                sweeps.append((ASSET_LOW[0], value, lam, f))
            labels.append(f"{axis}_{tag}_{lam_label}")
    return sweeps, labels


# Figure id -> builder of its series.
_BUILDERS = {
    1: _figure_retention,
    2: lambda cfg: _cognition_density_table(cfg, 2, (10, 15, 20, 25), eta_override=None),
    3: lambda cfg: _cognition_density_table(cfg, 3, (10, 25), eta_override=STRONG_DILUTION_ETA),
    4: _figure_shrinkage_lines,
    5: _figure_cawf_slices,
    6: _figure_cawf_montecarlo,
    7: lambda cfg: _wealth_density_table(cfg, 7, *_lambda_sweeps(ASSET_LOW, False)),
    8: lambda cfg: _wealth_density_table(cfg, 8, *_lambda_sweeps(ASSET_HIGH, False)),
    9: lambda cfg: _wealth_density_table(cfg, 9, *_lambda_sweeps(ASSET_LOW, True)),
    10: lambda cfg: _wealth_density_table(cfg, 10, *_lambda_sweeps(ASSET_HIGH, True)),
    11: lambda cfg: _wealth_density_table(cfg, 11, *_robustness_sweeps("theta", ROBUST_THETA, False)),
    12: lambda cfg: _wealth_density_table(cfg, 12, *_robustness_sweeps("sigma", ROBUST_SIGMA, False)),
    13: lambda cfg: _wealth_density_table(cfg, 13, *_robustness_sweeps("theta", ROBUST_THETA, True)),
    14: lambda cfg: _wealth_density_table(cfg, 14, *_robustness_sweeps("sigma", ROBUST_SIGMA, True)),
}


def reproduce(figure_id: int, cfg: ScenarioConfig) -> SeriesTable:
    """Build the data series behind one reference figure (1 through 14)."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"figure_id must be in 1..14, got {figure_id}")
    explicit = cfg.explicit_agent_type
    if explicit == "one" and figure_id in TYPE_TWO_FIGURES:
        raise ConfigError(f"figure {figure_id} shows the paired-friction regime; "
                          "config pins agent_type = one")
    if explicit == "two" and figure_id in TYPE_ONE_FIGURES:
        raise ConfigError(f"figure {figure_id} shows the fixed-friction regime; "
                          "config pins agent_type = two")
    return _BUILDERS[figure_id](cfg)
