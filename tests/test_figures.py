"""Structure and determinism of the CSV series builders."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogecon.cli import main
from cogecon.config import parse_config
from cogecon.consumption import cawf
from cogecon.errors import ConfigError
from cogecon.figures import FIGURE_IDS, SEEDED_FIGURE, SeriesTable, reproduce
from cogecon.rng import RngSpec
from cogecon.sde import simulate_ou_reflected
from references import cawf_stationary, ou_gibbs_law


VALUES_GOLDEN = Path(__file__).parent / "golden" / "reproduce_seed42_values.json"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(None)


@pytest.mark.parametrize("fid", sorted(FIGURE_IDS))
def test_every_series_is_rectangular(fid, cfg):
    t = reproduce(fid, cfg)
    arr = np.asarray(t.data, dtype=float)
    assert t.name == f"figure{fid:02d}"
    assert arr.ndim == 2 and arr.shape[0] > 1
    assert arr.shape[1] == len(t.columns)
    assert np.all(np.isfinite(arr))
    assert dict(t.meta)["figure"] == fid
    # only figure 6 draws random numbers; perfbench counts the CSV bytes of the others
    assert t.meta["seed"] == (cfg.seed if fid == 6 else "unused")


def test_retention_series_starts_at_initial_levels(cfg):
    t = reproduce(1, cfg)
    arr = np.asarray(t.data, dtype=float)
    assert arr[0, 0] == 0.0
    for idx, col in enumerate(t.columns[1:], start=1):
        r0 = float(col.rsplit("_", 1)[1])
        assert arr[0, idx] == pytest.approx(r0, rel=1e-12)
    # retention stays inside (0, 1]
    assert np.all(arr[:, 1:] > 0.0) and np.all(arr[:, 1:] <= 1.0)


def test_density_series_are_nonnegative_with_bounded_mass(cfg):
    # plotting windows truncate tails (heavily so for the strong-dilution
    # panel, which keeps ~71% of its mass in frame), so only an upper bound
    # on the integral is meaningful here; exact mass checks live with the
    # density oracles
    for fid in (2, 3, 7, 8, 9, 10):
        t = reproduce(fid, cfg)
        arr = np.asarray(t.data, dtype=float)
        x = arr[:, 0]
        for j in range(1, arr.shape[1]):
            assert np.all(arr[:, j] >= 0.0)
            mass = np.trapezoid(arr[:, j], x)
            assert 0.5 < mass < 1.001, (fid, t.columns[j], mass)


def test_shrinkage_lines_cross_where_advertised(cfg):
    t = reproduce(4, cfg)
    arr = np.asarray(t.data, dtype=float)
    ln_s, bayes, shrunk = arr[:, 0], arr[:, 1], arr[:, 2]
    assert np.allclose(bayes, ln_s)
    gap = bayes - shrunk
    sign_changes = np.sum(np.diff(np.sign(gap)) != 0.0)
    assert sign_changes == 1


def test_cawf_slices_follow_limit_ordering(cfg):
    t = reproduce(5, cfg)
    arr = np.asarray(t.data, dtype=float)
    # scale > 1 puts the n -> 0 slice above the n -> infinity slice everywhere
    assert np.all(arr[:, 1] > arr[:, -1])


def test_montecarlo_series_records_seed_and_is_stable(cfg):
    first = reproduce(6, cfg).to_csv_bytes()
    second = reproduce(6, cfg).to_csv_bytes()
    assert first == second
    assert b"# seed: 42" in first


@pytest.mark.parametrize("seed", [42, 1, 7])
def test_montecarlo_curves_match_the_stationary_law(seed):
    # Each curve is a sample mean of the CAWF over its group's draws; at every
    # crowd size it must lie within 4 standard errors, from those same draws,
    # of the CAWF's mean under the truncated stationary law of its group.
    cfg = parse_config(None)
    cfg.values["run"]["seed"] = seed
    table = reproduce(6, cfg)
    p = cfg.cawf_params()
    draws = simulate_ou_reflected(p.ou, RngSpec(seed, stream_id=SEEDED_FIGURE), p.n_paths,
                                  record_times=[p.ou.horizon])[:, -1]
    n_grid = table.data[:, table.columns.index("n")]
    groups = {"average": (draws, 0.0, 1.0),
              "high_value": (draws[draws > p.d_bar], p.d_bar, 1.0),
              "low_value": (draws[draws <= p.d_bar], 0.0, p.d_bar)}
    for column, (group, lo, hi) in groups.items():
        values = np.array([cawf(group, n, p) for n in n_grid])
        se = values.std(axis=1, ddof=1) / math.sqrt(group.size)
        curve = table.data[:, table.columns.index(column)]
        assert np.array_equal(curve, values.mean(axis=1)), column  # the figure's own draws
        assert np.all(np.abs(curve - cawf_stationary(p, lo, hi)) <= 4.0 * se), column
    # the split at d_bar: a binomial count around the law's mass above it
    p_high = 1.0 - float(ou_gibbs_law(p.ou).cdf(p.d_bar))
    n_high = int(re.search(r"n_high=(\d+)", table.meta["params"]).group(1))
    assert abs(n_high - p.n_paths * p_high) <= 4.0 * math.sqrt(p.n_paths * p_high * (1.0 - p_high))


def test_csv_bytes_roundtrip_at_full_precision(cfg, tmp_path):
    t = reproduce(2, cfg)
    raw = t.to_csv_bytes()
    assert raw.endswith(b"\r\n")
    lines = raw.decode("ascii").split("\r\n")
    meta = [ln for ln in lines if ln.startswith("#")]
    header = lines[len(meta)]
    assert header.split(",") == list(t.columns)
    # every numeric cell reparses to the exact float that produced it
    body = [ln for ln in lines[len(meta) + 1:] if ln]
    arr = np.asarray(t.data, dtype=float)
    parsed = np.array([[float(cell) for cell in ln.split(",")] for ln in body])
    assert parsed.shape == arr.shape
    assert np.all(parsed == arr)
    target = t.write(tmp_path)
    assert target.read_bytes() == raw


def per_element_csv_bytes(t: SeriesTable) -> bytes:
    """Reference formatter: one f-string per numpy scalar."""
    lines = [f"# {key}: {value}" for key, value in t.meta.items()]
    lines.append(",".join(t.columns))
    for row in t.data:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


EDGE_VALUES = (-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e-17, 123456789.0,
               -7.0, 3.0, 2.0**53, 2.0**53 + 2.0, 1e22)


@pytest.mark.parametrize("data", [
    np.array(EDGE_VALUES[:15]).reshape(5, 3),
    np.array(EDGE_VALUES).reshape(1, -1),
    np.array(EDGE_VALUES).reshape(-1, 1),
    np.array([[-3, 0, 7], [2**53 + 1, -(2**62), 1]], dtype=np.int64),
], ids=["edges", "one-row", "one-column", "int64"])
def test_csv_bytes_equal_per_element_formatter(data):
    t = SeriesTable("t", tuple(f"c{j}" for j in range(data.shape[1])), data,
                    {"figure": 0, "seed": "unused"})
    assert t.to_csv_bytes() == per_element_csv_bytes(t)


def csv_values(path: Path) -> dict:
    """The parsed cells of one reproduce CSV, summarised: the row count, then per
    column math.fsum, min, max and the first, middle and last cells."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return {"rows": len(rows), "columns": {
        label: {"fsum": math.fsum(cells), "min": min(cells), "max": max(cells),
                "first": cells[0], "middle": cells[len(cells) // 2], "last": cells[-1]}
        for label, cells in zip(lines[0].split(","), zip(*rows))}}


def test_reproduce_values_match_golden(tmp_path):
    # Unlike the sha256 manifest, this golden tells roundoff drift in the last
    # digits (within 1e-12 relative) from a change in behaviour; zeros are exact.
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--seed", "42", "--out", str(tmp_path)])
    assert not exc.value.code
    golden = json.loads(VALUES_GOLDEN.read_text())
    fresh = {path.stem: csv_values(path) for path in sorted(tmp_path.glob("*.csv"))}
    assert fresh.keys() == golden.keys()
    for name, table in golden.items():
        assert fresh[name]["rows"] == table["rows"], name
        assert list(fresh[name]["columns"]) == list(table["columns"]), name
        for label, stats in table["columns"].items():
            for stat, want in stats.items():
                got = fresh[name]["columns"][label][stat]
                assert (got == want if want == 0.0 else math.isclose(got, want, rel_tol=1e-12)), \
                    (name, label, stat, got, want)


def test_reproduce_rejects_unknown_figure(cfg):
    with pytest.raises(ValueError, match="figure"):
        reproduce(0, cfg)
    with pytest.raises(ValueError, match="figure"):
        reproduce(15, cfg)


def test_reproduce_rejects_regime_conflicts(cfg):
    two = parse_config(None)
    two.values["wealth"]["agent_type"] = "two"
    two.values["wealth"]["f_sigma"] = 0.5
    two.origins["wealth"]["agent_type"] = "file"
    two.origins["wealth"]["f_sigma"] = "file"
    with pytest.raises(ConfigError, match="fixed-friction"):
        reproduce(7, two)
    # the paired-regime figures are exactly the ones it still builds
    assert reproduce(9, two).name == "figure09"


def test_series_table_rejects_ragged_data():
    with pytest.raises(ValueError, match="shape"):
        SeriesTable(name="x", columns=("a", "b"),
                    data=np.zeros((3, 1)), meta={"figure": 1})


SWEEP_ROW = re.compile(r"lam=(\S+)\s+f=(\S+)\s+theta=(\S+)\s+sigma=(\S+)")
META_SWEEP = re.compile(r"theta=([^,]+),sigma=([^,]+),lam=([^,]+),f=([^'\]]+)")


def test_sweep_script_rows_are_density_figure_economies(cfg):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "sweep_tail_exponents.py")],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    # (theta, sigma, lam, f) of each printed row and of each figure column
    printed = [tuple(float(v) for v in (m[3], m[4], m[1], m[2]))
               for m in SWEEP_ROW.finditer(proc.stdout)]
    in_figures = {tuple(float(v) for v in m.groups())
                  for fid in range(7, 15)
                  for m in META_SWEEP.finditer(reproduce(fid, cfg).meta["params"])}
    assert len(printed) == len(set(printed)) == 36
    assert set(printed) == in_figures
