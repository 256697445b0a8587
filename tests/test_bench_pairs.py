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


def test_gain_met_needs_ten_pairs():
    # four wide wins out of four pairs pass nine in ten, but are too few pairs
    summary = bench_pairs.summarize(paired_runs(PARENT[:4], [0.5] * 4), METRICS)["sweep"]
    assert summary["wall_s"]["change_lower_pairs"] == 4
    assert summary["wall_s"]["gain_met"] is False


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


def fake_checkout(root: Path, last_line: str) -> Path:
    """A checkout whose perfbench/run.py prints last_line and exits 0."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"print('warming up')\nprint({last_line!r})\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    return root


def run_bench_pairs(tmp_path, monkeypatch, parent_line: str, change_line: str,
                    *runs: str) -> dict:
    """BENCH_t.json of bench_pairs.py run with the arguments runs on two fake
    checkouts whose runs print parent_line and change_line."""
    parent = fake_checkout(tmp_path / "parent", parent_line)
    change = fake_checkout(tmp_path / "change", change_line)
    monkeypatch.setattr(bench_pairs, "parent_commit", lambda parent: "c0ffee")
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: (1.0, 0))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(parent), str(change),
                                      "--label", "t", *runs])
    bench_pairs.main()
    return json.loads((tmp_path / "BENCH_t.json").read_text())


def run_pairs_with_parent_printing(tmp_path, monkeypatch, last_line: str,
                                   error: str | None = None) -> dict:
    """BENCH_t.json of two pairs whose parent prints last_line and whose change
    prints a well-formed result; each parent run is recorded with error, by
    default that of a malformed result line."""
    result = {"metrics": {"wall_s": {"value": 1.0}}, "failed": 0, "attempted": 1, "correct": True}
    out = run_bench_pairs(tmp_path, monkeypatch, last_line, json.dumps(result),
                          "--runs", "sweep:1-2")
    assert [(r["side"], r["result"] is None) for r in out["runs"]] == [
        ("parent", True), ("change", False), ("change", False), ("parent", True)]
    error = f"malformed result line: {last_line}" if error is None else error
    assert all(r["error"] == error for r in out["runs"] if r["side"] == "parent")
    # no pair has both sides, so there is nothing to summarize
    assert out["summary"] == {} and out["tier1_exit"] == {"parent": 0, "change": 0}
    return out


def test_a_malformed_result_is_recorded_as_an_error_and_the_pairs_go_on(tmp_path, monkeypatch):
    run_pairs_with_parent_printing(tmp_path, monkeypatch, "Traceback: not JSON")


@pytest.mark.parametrize("last_line", ["42", '{"error": "x"}',
                                       '{"metrics": {}, "failed": 0, "attempted": 1}'])
def test_json_that_is_not_a_result_object_is_recorded_as_an_error(tmp_path, monkeypatch,
                                                                   last_line):
    # summarize indexes a result's metrics, failed, attempted and correct
    run_pairs_with_parent_printing(tmp_path, monkeypatch, last_line)


def test_a_result_without_an_end_to_end_metric_is_recorded_as_an_error(tmp_path, monkeypatch):
    # the fake BENCHMARK.json names wall_s, which this well-formed result lacks
    last_line = json.dumps({"metrics": {}, "failed": 0, "attempted": 1, "correct": True})
    run_pairs_with_parent_printing(tmp_path, monkeypatch, last_line,
                                   error="result lacks metric wall_s")


@pytest.mark.parametrize("entry", [1.0, {"value": "x"}, {"value": True}, {}])
def test_an_end_to_end_metric_without_a_numeric_value_is_recorded_as_an_error(
        tmp_path, monkeypatch, entry):
    # summarize reads metrics[name]["value"] as a number
    last_line = json.dumps({"metrics": {"wall_s": entry}, "failed": 0, "attempted": 1,
                            "correct": True})
    run_pairs_with_parent_printing(tmp_path, monkeypatch, last_line,
                                   error="metric wall_s has no numeric value")


def test_a_traced_run_is_recorded_with_its_per_layer_metrics(tmp_path, monkeypatch):
    # a traced result carries no end-to-end metric, and summarize reads none of it
    result = {"metrics": {"sde.ou_path_steps": {"value": 6_000_000}}, "failed": 0,
              "attempted": 1, "correct": True}
    out = run_bench_pairs(tmp_path, monkeypatch, json.dumps(result), json.dumps(result),
                          "--trace-runs", "reproduce:1-1")
    assert [(r["side"], r["trace"], r["result"]) for r in out["trace_runs"]] == [
        ("parent", 1, result), ("change", 1, result)]
    assert out["runs"] == [] and out["summary"] == {}



def bounded(better: str) -> list[dict]:
    """wall_s, read as a metric that is better lower or higher, with bound 0.25."""
    return [{"name": "wall_s", "better": better, "bound": 0.25}]


@pytest.mark.parametrize("better, factor, flagged", [
    ("lower", 1.30, True), ("lower", 1.10, False), ("lower", 0.70, False),
    ("higher", 0.70, True), ("higher", 0.90, False), ("higher", 1.30, False)])
def test_worse_beyond_bound_flags_a_median_worse_by_more_than_the_bound(better, factor, flagged):
    summary = bench_pairs.summarize(paired_runs(PARENT, [v * factor for v in PARENT]),
                                    bounded(better))["sweep"]["wall_s"]
    assert summary["worse_beyond_bound"] is flagged
    # the parent's IQR, 0.045, is within 0.25 x its median
    assert summary["unresolved"] is False


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]  # IQR 0.45, median 1.05
    for better in ("lower", "higher"):
        level = bench_pairs.summarize(paired_runs(wide, wide[::-1]), bounded(better))
        assert level["sweep"]["wall_s"]["worse_beyond_bound"] is False
        assert level["sweep"]["wall_s"]["unresolved"] is True
    # unless every run of the change beats every run of the parent
    for better, change, unresolved in [("lower", 0.5, False), ("higher", 2.0, False),
                                       ("lower", 1.0, True), ("higher", 0.5, True)]:
        summary = bench_pairs.summarize(paired_runs(wide, [change] * 10), bounded(better))
        assert summary["sweep"]["wall_s"]["unresolved"] is unresolved


def test_a_metric_without_a_bound_is_never_worse_beyond_it():
    summary = bench_pairs.summarize(paired_runs(PARENT, [v * 3 for v in PARENT]), METRICS)
    assert summary["sweep"]["wall_s"]["worse_beyond_bound"] is False
    assert summary["sweep"]["wall_s"]["unresolved"] is False


def with_failures(runs: list[dict], side: str, failed: int, attempted: int) -> list[dict]:
    """runs with every result of side reporting failed of attempted operations."""
    for r in runs:
        if r["side"] == side:
            r["result"].update(failed=failed, attempted=attempted)
    return runs


@pytest.mark.parametrize("parent_failed, change_failed, met", [
    # every pair won, but half the change's operations failed against none of the parent's
    (0, 5, False),
    # as many failures on both sides leave the gain standing
    (1, 1, True),
])
def test_gain_met_needs_no_larger_failed_share(parent_failed, change_failed, met):
    runs = with_failures(paired_runs(PARENT, [0.5] * 10), "parent", parent_failed, 10)
    runs = with_failures(runs, "change", change_failed, 10)
    summary = bench_pairs.summarize(runs, METRICS)["sweep"]
    assert summary["failed"]["change"] == 10 * change_failed
    assert summary["attempted"] == {"parent": 100, "change": 100}
    assert summary["wall_s"]["change_lower_pairs"] == 10
    assert summary["wall_s"]["gain_met"] is met
    assert summary["ops"]["gain_met"] is met


@pytest.mark.parametrize("flag", ["--runs", "--trace-runs"])
def test_a_workload_given_twice_to_one_flag_is_refused_before_any_run(tmp_path, monkeypatch,
                                                                      capsys, flag):
    # each spec numbers its pairs from 0, so the second would overwrite the first
    parent = fake_checkout(tmp_path / "parent", "{}")
    change = fake_checkout(tmp_path / "change", "{}")
    started = []
    monkeypatch.setattr(bench_pairs, "parent_commit", lambda parent: "c0ffee")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: started.append(args))
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: started.append(checkout))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(parent), str(change), "--label", "t",
                                      flag, "validate:1-3", flag, "sweep:4-6",
                                      flag, "validate:7-9"])
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main()
    assert exit_info.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert f"{flag} gives workload validate more than once" in err
    assert started == []
    assert not list(tmp_path.glob("BENCH_*.json"))
