"""The verdict scripts/bench_pairs.py writes for paired benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ops", "better": "higher"}]


def paired_runs(parent, change):
    """Synthetic run records: pair k ran the parent at parent[k], the change at change[k]."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            runs.append({"workload": "sweep", "side": side, "pair": pair,
                         "result": {"metrics": {"wall_s": {"value": value},
                                                "ops": {"value": -value}},
                                    "failed": 0, "attempted": 1, "correct": True}})
    return runs


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("change, won, met", [
    # nine wins by a wide margin, one loss
    ([0.5] * 9 + [2.0], 9, True),
    # eight wins are not nine in ten
    ([0.5] * 8 + [2.0] * 2, 8, False),
    # eight wins and two ties: a tie counts for neither side
    ([0.5] * 8 + PARENT[8:], 8, False),
    # ten wins, but the medians differ by less than the parent's IQR
    ([v - 0.001 for v in PARENT], 10, False),
])
def test_gain_met_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr(change, won, met):
    summary = bench_pairs.summarize(paired_runs(PARENT, change), METRICS)["sweep"]
    for name, better in (("wall_s", "lower"), ("ops", "higher")):
        entry = summary[name]
        assert entry[f"change_{better}_pairs"] == won
        assert entry["pairs"] == 10
        assert entry["gain_met"] is met
    assert summary["wall_s"]["parent_iqr"] == pytest.approx(0.045)


def test_gain_met_false_when_the_change_is_worse():
    summary = bench_pairs.summarize(paired_runs(PARENT, [v + 1.0 for v in PARENT]), METRICS)
    assert summary["sweep"]["wall_s"]["change_lower_pairs"] == 0
    assert summary["sweep"]["wall_s"]["gain_met"] is False


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    events = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        events.append(checkout.name)
        return {"result": {"metrics": {"wall_s": {"value": 1.0}},
                           "failed": 0, "attempted": 1, "correct": True}}

    def fake_run_tier1(checkout):
        events.append(f"tier1 {checkout.name}")
        return 30.0, 0

    monkeypatch.setattr(bench_pairs, "parent_commit", lambda parent: "c0ffee")
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "run_tier1", fake_run_tier1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(tmp_path / "parent"), str(change),
                                      "--label", "t", "--runs", "sweep:1-2"])
    bench_pairs.main()
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    # even pairs run the parent first, odd pairs the change; then each
    # side's tier-1 suite runs once
    assert events == ["parent", "change", "change", "parent", "tier1 parent", "tier1 change"]
    assert out["parent_commit"] == "c0ffee"
    assert out["tier1_s"] == {"parent": 30.0, "change": 30.0}
    assert out["tier1_exit"] == {"parent": 0, "change": 0}
    assert [(r["pair"], r["side"]) for r in out["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    assert out["summary"]["sweep"]["wall_s"]["pairs"] == 2


def test_a_parent_that_is_not_a_git_work_tree_is_refused_before_any_run(tmp_path):
    # an exported tree (git archive) has no commit to record in the JSON
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    proc = subprocess.run([sys.executable, _SPEC.origin, str(parent), str(change),
                           "--label", "t", "--runs", "sweep:1-2"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "git worktree add" in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))
