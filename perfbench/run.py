"""cogecon benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload reproduce|validate|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The workloads drive cogecon from outside, in child interpreters:

  reproduce  `python -m cogecon.cli reproduce --figure all --seed N --out DIR`,
             one command at a time, each checked against properties of the
             figures and byte for byte against the first command of the run.
  validate   `python -m cogecon.cli validate --seed N` at full size, checked
             line by line (13 laws, FD error within tolerance, KS below the
             DKW bound at alpha = 1e-6).
  sweep      one child that times passes of the public wealth API over a
             grid of 8192 economies and checks them by the stationary
             characteristic equation and by quadrature.

Every run repeats its operation until --seconds have passed, finishing the
operation under way.  With --trace 0 it prints the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with --trace 1 each round runs the operation
untraced and then traced, and it prints the per-layer metrics and the
tracing overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracer import clock

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reproduce", "validate", "sweep")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0
# The validate workload runs at the default [validate] n_samples.
VALIDATE_SAMPLES = 1_000_000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A sweep pass (~0.17 s) is short enough to land inside one burst of spare
# host capacity, so its times split into a steady mode and a faster, erratic
# one; the median of a run jumps between them when a run spends about half its
# time in bursts.  The upper quartile stays in the steady mode.  A CLI command
# (1.4-9 s) already averages over the bursts, so those workloads keep the median.
SWEEP_WALL_QUANTILE = 0.75

# Per-layer metric -> span whose self time it reports.
LAYER_TIMES = {
    "config.load_s": "config.load",
    **{f"figures.build_s.fig{i:02d}": f"figures.build.fig{i:02d}" for i in range(1, 15)},
    "figures.csv_format_s": "figures.csv_format",
    "figures.write_s": "figures.write",
    "consumption.cawf_montecarlo_s": "consumption.cawf_montecarlo",
    "sde.ou_reflected_s": "sde.ou_reflected",
    "sde.gbm_reset_s": "sde.gbm_reset",
    "validate.ks_s": "validate.ks",
    "validate.fd_error_s": "validate.fd_error",
    "densities.cdf_s": "densities.cdf",
    "densities.pdf_s": "densities.pdf",
    "densities.from_reset_law_s": "densities.from_reset_law",
    "kfe.solve_s": "kfe.solve",
    "wealth.drift_diffusion_s": "wealth.drift_diffusion",
    "wealth.density_stats_s": "wealth.density_stats",
}
LAYER_COUNTS = ("figures.csv_bytes", "sde.ou_path_steps", "sde.gbm_reset_samples",
                "kfe.grid_points", "validate.laws", "wealth.economies")
IMPORT_METRICS = {"cli.import_s": "s", "cli.modules_loaded": "count",
                  "cli.scipy_modules_loaded": "count"}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, or a set-up failure)."""


@dataclass
class ChildRun:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Bench:
    """One benchmark run: the checkout, the seed, and a private work directory."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
        self.results = HERE / "results"
        # Without PYTHONDONTWRITEBYTECODE the warm-up child writes the byte-code
        # caches that an installed package would have, so no timed child compiles.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env = dict(env, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        **{var: "1" for var in THREAD_VARS})
        self.n_children = 0
        self.problems: list[str] = []

    def child(self, argv: list) -> ChildRun:
        """Run argv to its end; wall time from spawn to exit and its peak RSS."""
        self.n_children += 1
        out_path = self.work / f"child{self.n_children}.out"
        err_path = self.work / f"child{self.n_children}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = clock()
            proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        err_path.unlink()
        return ChildRun(code, wall, usage.ru_maxrss / 1024.0, stdout, stderr)

    def setup_s(self) -> float:
        """Median, over SETUP_REPEATS fresh interpreters, of the time until
        cogecon is imported and the workload's inputs are built."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            run = self.child([sys.executable, HERE / "child.py", "setup", self.workload,
                              self.seed, self.work / "setup-out"])
            if run.code != 0:
                raise BenchError(f"set-up child failed ({run.code}): {run.stderr.strip()}")
            times.append(float(run.stdout.split()[-1]) - start)
        return statistics.median(times)

    def warm_up(self) -> None:
        """One untimed import, so byte-code caches exist before anything is timed."""
        run = self.child([sys.executable, HERE / "child.py", "setup", self.workload,
                          self.seed, self.work / "setup-out"])
        if run.code != 0:
            raise BenchError(f"cannot import cogecon from {self.root / 'src'}: "
                             f"{run.stderr.strip()}")


class FirstOutput:
    """Judges every operation's output: the first one of a run by its
    properties, each later one by equality with the first (same seed, so the
    same bytes are promised)."""

    def __init__(self, check):
        self.check = check
        self.reference = None
        self.reference_problems: list[str] = []

    def judge(self, fingerprint, payload) -> list[str]:
        if self.reference is None:
            self.reference = fingerprint
            self.reference_problems = self.check(payload)
            return self.reference_problems
        if fingerprint != self.reference:
            return ["output differs from the run's first operation with the same seed"]
        return self.reference_problems


def _layer_metrics(layer_runs: list, imports: list, overhead: float) -> dict:
    """Medians over traced operations of every per-layer metric."""
    def median_of(values):
        return statistics.median(values) if values else 0.0

    metrics = {}
    for name, unit in IMPORT_METRICS.items():
        metrics[name] = {"value": median_of([imp[name] for imp in imports]), "unit": unit}
    for name, span in LAYER_TIMES.items():
        metrics[name] = {"value": median_of([r["self_s"].get(span, 0.0) for r in layer_runs]),
                         "unit": "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": median_of([r["counts"].get(name, 0) for r in layer_runs]),
                         "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return metrics


def _write_spans(bench: Bench, ops_spans: list) -> None:
    bench.results.mkdir(parents=True, exist_ok=True)
    path = bench.results / f"trace-{bench.workload}-seed{bench.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": bench.workload, "seed": bench.seed, "ops": ops_spans}, fh)


# -- the CLI workloads ---------------------------------------------------------


def _cli_args(bench: Bench, out_dir: Path) -> list:
    if bench.workload == "reproduce":
        return ["reproduce", "--figure", "all", "--seed", str(bench.seed), "--out", str(out_dir)]
    return ["validate", "--seed", str(bench.seed)]


def _cli_output(bench: Bench, out_dir: Path, stdout: str):
    """(fingerprint, payload) of one CLI operation's output."""
    if bench.workload == "reproduce":
        files = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")} \
            if out_dir.is_dir() else {}
        shutil.rmtree(out_dir, ignore_errors=True)
        return {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}, files
    return stdout, stdout


def run_cli_workload(bench: Bench) -> dict:
    check = checks.check_reproduce if bench.workload == "reproduce" else \
        (lambda stdout: checks.check_validate(stdout, VALIDATE_SAMPLES))
    judge = FirstOutput(check)
    bench.warm_up()
    setup = None if bench.trace else bench.setup_s()
    walls, rss, traced_walls, layer_runs, imports, spans = [], [], [], [], [], []
    attempted = failed = 0
    start = clock()
    while attempted == 0 or clock() - start < bench.seconds:
        for traced in ((False, True) if bench.trace else (False,)):
            out_dir = bench.work / f"op{attempted}"
            if traced:
                result_path = bench.work / f"op{attempted}.json"
                argv = [sys.executable, HERE / "child.py", "trace", result_path,
                        *_cli_args(bench, out_dir)]
            else:
                argv = [sys.executable, "-m", "cogecon.cli", *_cli_args(bench, out_dir)]
            run = bench.child(argv)
            attempted += 1
            fingerprint, payload = _cli_output(bench, out_dir, run.stdout)
            problems = [f"exit code {run.code}: {run.stderr.strip()[-300:]}"] \
                if run.code != 0 else judge.judge(fingerprint, payload)
            if traced:
                traced_walls.append(run.wall_s)
                if result_path.exists():
                    traced_run = json.loads(result_path.read_text(encoding="utf-8"))
                    layer_runs += traced_run["ops"]
                    imports.append(traced_run["import"])
                    spans.append(traced_run["spans"])
                    result_path.unlink()
                else:
                    problems = problems + ["traced child wrote no result"]
            else:
                walls.append(run.wall_s)
                rss.append(run.rss_mb)
            if problems:
                failed += 1
                bench.problems += [f"operation {attempted}: {p}" for p in problems]
    if bench.trace:
        _write_spans(bench, spans)
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        return _result(bench, attempted, failed, _layer_metrics(layer_runs, imports, overhead))
    return _result(bench, attempted, failed, {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    })


# -- the sweep workload --------------------------------------------------------


def run_sweep_workload(bench: Bench) -> dict:
    bench.warm_up()
    setup = None if bench.trace else bench.setup_s()
    result_path = bench.work / "sweep.npz"
    layers_path = bench.work / "layers.json"
    run = bench.child([sys.executable, HERE / "child.py", "sweep", bench.seed, bench.seconds,
                       int(bench.trace), result_path, layers_path])
    if run.code != 0 or not result_path.exists():
        raise BenchError(f"sweep child failed ({run.code}): {run.stderr.strip()[-500:]}")
    with np.load(result_path) as data:
        walls, traced, digests = data["walls"], data["traced"], data["digests"]
        problems = checks.check_sweep(data["rows"], data["mass"], data["subset"],
                                      data["subset_moments"])
    bench.problems += [f"first pass: {p}" for p in problems]
    failed = 0
    for i, digest in enumerate(digests):
        if digest != digests[0]:
            bench.problems.append(f"pass {i + 1}: output differs from the first pass")
            failed += 1
        elif problems:
            failed += 1
    if bench.trace:
        layers = json.loads(layers_path.read_text(encoding="utf-8"))
        _write_spans(bench, [layers["spans"]])
        overhead = float(np.median(walls[traced]) / np.median(walls[~traced]) - 1.0)
        return _result(bench, len(walls), failed,
                       _layer_metrics(layers["ops"], [layers["import"]], overhead))
    return _result(bench, len(walls), failed, {
        "wall_s": {"value": float(np.quantile(walls, SWEEP_WALL_QUANTILE)), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": run.rss_mb, "unit": "MB"},
    })


def _result(bench: Bench, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0 and not bench.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "cogecon" / "__init__.py").is_file():
        print(f"no cogecon sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "sweep":
            result = run_sweep_workload(bench)
        else:
            result = run_cli_workload(bench)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
