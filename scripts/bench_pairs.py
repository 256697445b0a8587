"""Paired benchmark runs of two checkouts, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --label pr9 \
        --runs validate:1211-1220 --runs sweep:1221-1226 \
        --trace-runs validate:1231-1231 --change-note "what the change does"

PARENT and CHANGE are two checkouts of this repository.  PARENT must be the
top of a git work tree (a clone, or made by ``git worktree add``), whose
commit the JSON records; CHANGE need not be committed.  For each seed of
each --runs workload, one pair runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` in
both checkouts, one after the other; even pairs run the parent first, odd
pairs the change.  --trace-runs pairs do the same with --trace 1.  The run
length S is BENCHMARK.json's run_seconds in CHANGE.

After the pairs, each side runs the tier-1 suite once with src on the path,
``python -m pytest -q --continue-on-collection-errors -p no:cacheprovider``,
and its wall time and exit code are kept as ``tier1_s`` and ``tier1_exit``.

The JSON file keeps the last line of every run (the benchmark's result), the
seeds, and over the untraced pairs (a traced result has per-layer metrics only),
for each workload and end-to-end metric of BENCHMARK.json, the median and
quartiles of each side, the pairs the change won, the parent's interquartile
distance and ``gain_met``: at least ten pairs ran, the change won at least nine
in ten of them (a tie counts for neither side) and its median beats the
parent's by more than that distance.  It is rewritten after every run, so an
interrupted session keeps the runs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seed_range(spec: str) -> tuple[str, list[int]]:
    """'validate:1211-1220' -> ('validate', [1211, ..., 1220])."""
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST-LAST, got {spec!r}")
    if not workload or hi < lo:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST-LAST, got {spec!r}")
    return workload, list(range(lo, hi + 1))


def machine() -> str:
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"{len(os.sched_getaffinity(0))}-core {platform.machine()} {platform.system()}, "
            f"{mem_gb:.0f} GB RAM, {platform.python_implementation()} "
            f"{platform.python_version()}")


def parent_commit(parent: Path) -> str:
    """HEAD of the git work tree whose top is parent; exits 1 if there is none."""
    proc = subprocess.run(["git", "-C", str(parent), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    top, _, head = proc.stdout.partition("\n")
    if proc.returncode or Path(top).resolve() != parent:
        sys.exit(f"bench_pairs.py: PARENT {parent} is not the top of a git work tree, so its "
                 "commit cannot be recorded; make one with `git worktree add` or `git clone`")
    return head.strip()


# What summarize reads of a run's result object.
RESULT_KEYS = {"metrics", "failed", "attempted", "correct"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last line parsed as a result object, or the error it ended with."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"result": None, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not (isinstance(result, dict) and RESULT_KEYS <= result.keys()):
        return {"result": None, "error": f"malformed result line: {lines[-1][-2000:]}"}
    return {"result": result}


def with_metrics(outcome: dict, names: list[str]) -> dict:
    """run_once's outcome, or an error naming the first metric of names without a numeric value."""
    if outcome["result"] is not None:
        metrics = outcome["result"]["metrics"]
        for name in names:
            if not (isinstance(metrics, dict) and name in metrics):
                return {"result": None, "error": f"result lacks metric {name}"}
            value = metrics[name].get("value") if isinstance(metrics[name], dict) else None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return {"result": None, "error": f"metric {name} has no numeric value"}
    return outcome


def run_tier1(checkout: Path) -> tuple[float, int]:
    """Wall time and exit code of one tier-1 pytest run in checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: each side's quartiles and the pairs the change won."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        done = [p for p in pairs.values() if len(p) == 2]
        if not done:
            continue
        entry = {}
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            values = {side: [p[side]["metrics"][name]["value"] for p in done]
                      for side in ("parent", "change")}
            won = sum((c < p) if better == "lower" else (c > p)
                      for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            parent_iqr = parent["q3"] - parent["q1"]
            gap = change["median"] - parent["median"]
            entry[name] = {"parent": parent, "change": change,
                           f"change_{better}_pairs": won, "pairs": len(done),
                           "median_change_pct": 100.0 * gap / parent["median"],
                           "parent_iqr": parent_iqr,
                           "gain_met": (len(done) >= 10 and 10 * won >= 9 * len(done)
                                        and (-gap if better == "lower" else gap) > parent_iqr)}
        entry["failed"] = {side: sum(p[side]["failed"] for p in done) for side in ("parent", "change")}
        entry["attempted"] = {side: sum(p[side]["attempted"] for p in done)
                              for side in ("parent", "change")}
        entry["all_correct"] = all(p[side]["correct"] for p in done for side in ("parent", "change"))
        summary[workload] = entry
    return summary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    ap.add_argument("--runs", type=seed_range, action="append", default=[],
                    metavar="WORKLOAD:FIRST-LAST", help="untraced pairs, one per seed")
    ap.add_argument("--trace-runs", type=seed_range, action="append", default=[],
                    metavar="WORKLOAD:FIRST-LAST", help="traced pairs, one per seed")
    ap.add_argument("--change-note", default="", help="one line on what the change does")
    args = ap.parse_args()

    parent, change = args.parent.resolve(), args.change.resolve()
    commit = parent_commit(parent)
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = {w: s for w, s in args.runs}
    seeds.update({f"{w}_trace": s for w, s in args.trace_runs})
    out = {"what": "perfbench/run.py, parent commit against this change, "
                   "alternating which side runs first in each pair",
           "parent_commit": commit,
           "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} "
                      "--trace 0|1",
           "run_seconds": seconds, "seeds": seeds, "change": args.change_note,
           "machine": machine(), "summary": {}, "runs": [],
           "trace_runs": []}
    path = Path(f"BENCH_{args.label}.json")

    for trace, key, specs in ((0, "runs", args.runs), (1, "trace_runs", args.trace_runs)):
        for workload, workload_seeds in specs:
            for pair, seed in enumerate(workload_seeds):
                order = (("parent", parent), ("change", change))
                for side, checkout in order if pair % 2 == 0 else order[::-1]:
                    outcome = run_once(checkout, workload, seed, seconds, trace)
                    if not trace:  # a traced result carries per-layer metrics only
                        outcome = with_metrics(outcome, [m["name"] for m in bench["end_to_end"]])
                    record = {"workload": workload, "side": side, "seed": seed, "pair": pair,
                              "seconds": seconds, "trace": trace, **outcome}
                    out[key].append(record)
                    out["summary"] = summarize(out["runs"], bench["end_to_end"])
                    path.write_text(json.dumps(out, indent=1) + "\n")
                    status = "ok" if record["result"] is not None else record["error"]
                    print(f"{workload} seed {seed} {side} trace {trace}: {status}", flush=True)
    out["tier1_s"], out["tier1_exit"] = {}, {}
    for side, checkout in (("parent", parent), ("change", change)):
        out["tier1_s"][side], out["tier1_exit"][side] = run_tier1(checkout)
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"tier-1 {side}: {out['tier1_s'][side]:.1f} s, exit {out['tier1_exit'][side]}",
              flush=True)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
