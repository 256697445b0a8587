"""Structure and determinism of the CSV series builders."""

import numpy as np
import pytest

from cogecon.config import parse_config
from cogecon.errors import ConfigError
from cogecon.figures import FIGURE_IDS, SeriesTable, reproduce


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
