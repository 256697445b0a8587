"""Reproducible data series behind the package's reference figures.

Each builder computes only its columns (label -> 1-D array, in CSV order) and
the parameters its header echoes.  `reproduce` frames them as a SeriesTable:
the table name, a metadata header (figure id, seed, parameter echo) and the
column-labeled numeric table.  CSV output is stable byte for byte across
runs: fixed column order, fixed 17-significant-digit formatting, CRLF line
endings, and counter-based seeding keyed on the figure id, so nothing depends
on scheduling or thread count.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, replace
from pathlib import Path

from .cognition import CognitionParams, RetentionParams, cognition_law, retention_trajectory
from .config import ScenarioConfig
from .consumption import cawf, cawf_montecarlo
from .records import record
from .rng import RngSpec
from .wealth import EconomyParams, drift_diffusion

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
WEALTH_X_GRID = (-10.0, 10.0, 2001)   # np.linspace's (start, stop, num)
COGNITION_X_GRID = (-6.0, 6.0, 1201)

# Retention sweeps: (dilution, recovery) legs crossed with starting shares.
RETENTION_LEGS = ((3.0, 2.0), (5.0, 6.0), (4.0, 4.0))
RETENTION_STARTS = (0.99, 0.5, 0.1)

# Crowd sizes n of the cognition panels, and the regime pin and crowd sizes
# of the strong-dilution one.
COGNITION_CROWD = (10, 15, 20, 25)
STRONG_DILUTION_ETA = 2.1
STRONG_DILUTION_CROWD = (10, 25)

# Wealth panels with the friction paired to the leverage tier; the other
# wealth panels hold it fixed.
TYPE_TWO_FIGURES = frozenset({9, 10, 13, 14})

# The one random figure: its id is its RNG stream id, and only its header has a seed.
SEEDED_FIGURE = 6


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


def _figure_retention(cfg: ScenarioConfig) -> tuple[dict, dict]:
    """Nine retention trajectories: three rate legs crossed with three starts."""
    import numpy as np

    t = np.linspace(0.0, 10.0, 201)
    trajectories = {f"dil{dil:g}_rec{rec:g}_r0_{r0:g}": retention_trajectory(
        RetentionParams(r0=r0, dilution_rate=dil, recovery_rate=rec), t)
        for dil, rec in RETENTION_LEGS for r0 in RETENTION_STARTS}
    return {"t": t, **trajectories}, {"legs": RETENTION_LEGS, "starts": RETENTION_STARTS}


def _density_columns(grid: tuple, laws: dict) -> dict:
    """x = np.linspace(*grid), then the stationary density of each law of laws on it."""
    import numpy as np

    x = np.linspace(*grid)
    return {"x": x, **{label: law.density().pdf(x) for label, law in laws.items()}}


def _cognition_densities(p: CognitionParams, crowd: tuple) -> tuple[dict, dict]:
    """Stationary log-resource densities of p at each crowd size n."""
    laws = {f"n{n}": cognition_law(replace(p, n=n)) for n in crowd}
    return _density_columns(COGNITION_X_GRID, laws), {**asdict(p), "n": list(crowd)}


def _figure_shrinkage_lines(cfg: ScenarioConfig) -> tuple[dict, dict]:
    """Log-log adjustment lines: the identity and the shrunken rule."""
    import numpy as np

    p = cfg.shrinkage_params()
    ln_s = np.linspace(-2.0, 2.0, 401)
    return ({"ln_s": ln_s, "ln_bayes": ln_s, "ln_nonbayes": p.beta_b * ln_s + np.log(p.mu_b)},
            asdict(p))


def _figure_cawf_slices(cfg: ScenarioConfig) -> tuple[dict, dict]:
    """Adjustment weight against data value, one column per crowd size."""
    import numpy as np

    p = cfg.cawf_params()
    d = np.linspace(0.0, 1.0, 201)
    crowd_sizes = (0.0, 10.0, 100.0, 1000.0, np.inf)
    slices = {"n_inf" if np.isinf(n) else f"n{n:g}": cawf(d, n, p) for n in crowd_sizes}
    return ({"d_value": d, **slices},
            {"scale": p.scale, "omega": p.omega, "d_bar": p.d_bar, "crowd_sizes": crowd_sizes})


def _figure_cawf_montecarlo(cfg: ScenarioConfig) -> tuple[dict, dict]:
    """Average adjustment curves over stationary data-value draws."""
    p = cfg.cawf_params()
    curves = cawf_montecarlo(p, RngSpec(cfg.seed, stream_id=SEEDED_FIGURE))
    return ({"n": curves.n_grid, "average": curves.average,
             "high_value": curves.high_value, "low_value": curves.low_value},
            {"scale": p.scale, "omega": p.omega, "d_bar": p.d_bar,
             "reversion": p.ou.reversion, "volatility": p.ou.volatility,
             "horizon": p.ou.horizon, "n_paths": p.n_paths,
             "n_high": curves.n_high, "n_low": curves.n_low})


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


def wealth_economies(figure_id: int, base: EconomyParams) -> list[tuple[str, EconomyParams]]:
    """Columns of wealth figure 7-14: (label, base at the column's theta, sigma, lam, f_sigma)."""
    f_values = F_SIGMA_TIERS if figure_id in TYPE_TWO_FIGURES else (1.0, 1.0, 1.0)
    return [(prefix + lam_label, replace(base, theta=theta, sigma=sigma, lam=lam, f_sigma=f_sigma))
            for prefix, (theta, sigma) in _WEALTH_ASSETS[figure_id]
            for lam_label, lam, f_sigma in zip(LAMBDA_LABELS, LAMBDA_TIERS, f_values)]


def _wealth_densities(cfg: ScenarioConfig, figure_id: int) -> tuple[dict, dict]:
    """Stationary log-wealth densities, one column per economy of wealth_economies."""
    base = cfg.wealth_params()
    economies = wealth_economies(figure_id, base)
    params = {k: v for k, v in asdict(base).items()
              if k not in ("theta", "sigma", "lam", "f_sigma")}
    params["sweeps"] = [f"{label}:theta={p.theta:g},sigma={p.sigma:g},lam={p.lam:g},"
                        f"f={p.f_sigma:g}" for label, p in economies]
    laws = {label: drift_diffusion(p) for label, p in economies}
    return _density_columns(WEALTH_X_GRID, laws), params


# Figure id -> builder of its (columns, params); see the module docstring.
_BUILDERS = {
    1: _figure_retention,
    2: lambda cfg: _cognition_densities(cfg.cognition_params(), COGNITION_CROWD),
    3: lambda cfg: _cognition_densities(
        replace(cfg.cognition_params(), eta_c=STRONG_DILUTION_ETA), STRONG_DILUTION_CROWD),
    4: _figure_shrinkage_lines,
    5: _figure_cawf_slices,
    SEEDED_FIGURE: _figure_cawf_montecarlo,
    **{fid: functools.partial(_wealth_densities, figure_id=fid) for fid in _WEALTH_ASSETS},
}
FIGURE_IDS = tuple(_BUILDERS)


def reproduce(figure_id: int, cfg: ScenarioConfig) -> SeriesTable:
    """The data series behind one reference figure, an id of FIGURE_IDS, with its header."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"figure_id must be one of {FIGURE_IDS}, got {figure_id}")
    import numpy as np

    # An overflow shows as a non-finite cell, which is refused below, not written.
    with np.errstate(over="ignore", invalid="ignore"):
        columns, params = _BUILDERS[figure_id](cfg)
    data = np.column_stack(tuple(columns.values()))
    if not np.isfinite(data).all():
        bad = [label for label, column in columns.items() if not np.isfinite(column).all()]
        raise ValueError(f"non-finite values in column {', '.join(bad)}")
    meta = {"figure": figure_id, "seed": cfg.seed if figure_id == SEEDED_FIGURE else "unused",
            "params": " ".join(f"{k}={v}" for k, v in params.items())}
    return SeriesTable(f"figure{figure_id:02d}", tuple(columns), data, meta)
