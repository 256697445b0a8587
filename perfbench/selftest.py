"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Produces one real output per workload,
shows that its check accepts it, then corrupts it in several ways and shows
that the check rejects every corruption.  The validate output is made at a
reduced sample size ([validate] n_samples = 100000) to keep the test short; the check is the same function at that sample size.  Exits 1 when a
clean output is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from run import FirstOutput

HERE = Path(__file__).resolve().parent
SEED = 7
SMALL_SAMPLES = 100_000


class Tally:
    def __init__(self) -> None:
        self.bad = 0

    def expect(self, label: str, problems: list, should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        self.bad += not ok
        verdict = "rejected" if problems else "accepted"
        first = f"  ({problems[0]})" if problems else ""
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}{first}")


def run_program(argv: list, work: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env=env, cwd=work, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return proc


def edit_column(blob: bytes, column: str, edit) -> bytes:
    """Replace one CSV column by edit(x column, old column), keeping the format."""
    lines = blob.decode("ascii").split("\r\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].split(",")
    j = columns.index(column)
    rows = [line.split(",") for line in lines[header + 1:-1]]
    first = np.array([float(r[0]) for r in rows])
    new = edit(first, np.array([float(r[j]) for r in rows]))
    for r, v in zip(rows, new):
        r[j] = f"{v:.17g}"
    return "\r\n".join(lines[:header + 1] + [",".join(r) for r in rows] + [""]).encode("ascii")


def test_reproduce(t: Tally, work: Path) -> None:
    out = work / "csv"
    run_program(["-m", "cogecon.cli", "reproduce", "--figure", "all", "--seed", SEED,
                 "--out", out], work)
    files = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    t.expect("reproduce: clean output", checks.check_reproduce(files), False)

    def bump_one(x, v):
        v = v.copy()
        v[len(v) // 4] *= 1.001
        return v

    corruptions = {
        "one density value perturbed (figure 7)": ("figure07.csv", "lambda_M", bump_one),
        "density column scaled (figure 9)": ("figure09.csv", "lambda_L", lambda x, v: 1.01 * v),
        "density jumps at 0 (figure 12)":
            ("figure12.csv", "sigma_a_lambda_L", lambda x, v: np.where(x < 0, 1.01 * v, v)),
        "cognition density tail bent (figure 2)":
            ("figure02.csv", "n10", lambda x, v: v * np.exp(1e-3 * x * x)),
        "shrinkage line slope changed (figure 4)":
            ("figure04.csv", "ln_nonbayes", lambda x, v: 0.81 * x + math.log(0.9)),
        "ln_bayes differs from ln_s (figure 4)": ("figure04.csv", "ln_bayes", bump_one),
        "middle CAWF slice perturbed (figure 5)": ("figure05.csv", "n100", lambda x, v: v + 1e-6),
        "Bayesian end column perturbed (figure 5)": ("figure05.csv", "n0", bump_one),
        "average not the group mix (figure 6)": ("figure06.csv", "average", lambda x, v: v + 1e-9),
        "retention start moved (figure 1)":
            ("figure01.csv", "dil3_rec2_r0_0.99", lambda x, v: np.r_[0.98, v[1:]]),
        "retention share above 1 (figure 1)":
            ("figure01.csv", "dil5_rec6_r0_0.5", lambda x, v: np.r_[v[:-1], 1.0 + 1e-9]),
    }
    for label, (name, column, edit) in corruptions.items():
        bad = dict(files, **{name: edit_column(files[name], column, edit)})
        t.expect(f"reproduce: {label}", checks.check_reproduce(bad), True)
    missing = {k: v for k, v in files.items() if k != "figure13.csv"}
    t.expect("reproduce: a figure missing", checks.check_reproduce(missing), True)
    lf = dict(files, **{"figure08.csv": files["figure08.csv"].replace(b"\r\n", b"\n")})
    t.expect("reproduce: LF line endings", checks.check_reproduce(lf), True)

    judge = FirstOutput(checks.check_reproduce)
    t.expect("reproduce: first operation", judge.judge("digest-a", files), False)
    t.expect("reproduce: repeat with other bytes", judge.judge("digest-b", files), True)


def test_validate(t: Tally, work: Path) -> None:
    config = work / "small.ini"
    config.write_text(f"[validate]\nn_samples = {SMALL_SAMPLES}\n")
    stdout = run_program(["-m", "cogecon.cli", "validate", "--seed", SEED,
                          "--config", config], work).stdout
    t.expect("validate: clean output", checks.check_validate(stdout, SMALL_SAMPLES), False)
    bound = checks.dkw_bound(SMALL_SAMPLES)
    law = next(line for line in stdout.splitlines() if "type1_lam25" in line)
    m = checks.LAW_LINE.match(law)
    corruptions = {
        "KS above the DKW bound": law.replace(f"ks {m[4]}", f"ks {1.5 * bound:.3e}"),
        "FD error above its tolerance": law.replace(f"fd {m[2]}", f"fd {2 * float(m[3]):.3e}"),
        "a FAIL verdict": law.replace("PASS", "FAIL"),
        "a law missing": "",
    }
    for label, line in corruptions.items():
        bad = stdout.replace(law + "\n", line + "\n" if line else "")
        t.expect(f"validate: {label}", checks.check_validate(bad, SMALL_SAMPLES), True)
    no_close = stdout.replace("all 13 density checks passed", "")
    t.expect("validate: closing line missing", checks.check_validate(no_close, SMALL_SAMPLES),
             True)


def test_sweep(t: Tally, work: Path) -> None:
    npz = work / "sweep.npz"
    run_program([HERE / "child.py", "sweep", SEED, 0, 0, npz, work / "layers.json"], work)
    with np.load(npz) as data:
        rows, mass = data["rows"], data["mass"]
        subset, moments = data["subset"], data["subset_moments"]
    t.expect("sweep: clean output", checks.check_sweep(rows, mass, subset, moments), False)
    cell = int(np.argmax(np.abs(rows[:, checks.MU])))
    s_cell = int(subset[np.flatnonzero(np.isfinite(moments[:, 2]))[0]])

    def corrupt(col, value, row=cell):
        bad = rows.copy()
        bad[row, col] = value
        return bad

    swapped = rows.copy()
    swapped[cell, [checks.RATE_L, checks.RATE_R]] = rows[cell, [checks.RATE_R, checks.RATE_L]]
    flip = 1.0 - rows[cell, checks.EXISTS]
    cases = {
        "rates swapped": (swapped, mass, moments),
        "a rate off by 1e-6": (corrupt(checks.RATE_L, rows[cell, checks.RATE_L] * (1 + 1e-6)),
                               mass, moments),
        "a density not integrating to 1": (rows, np.r_[mass[:-1], mass[-1] * 1.001], moments),
        "existence flag flipped": (corrupt(checks.EXISTS, flip), mass, moments),
        "mean off": (corrupt(checks.MEAN, rows[s_cell, checks.MEAN]
                             + 1e-6 * math.sqrt(rows[s_cell, checks.VAR]), s_cell),
                     mass, moments),
        "variance off": (corrupt(checks.VAR, rows[s_cell, checks.VAR] * 1.0001, s_cell),
                         mass, moments),
        "E[e^x] off": (corrupt(checks.WEALTH_MEAN, rows[s_cell, checks.WEALTH_MEAN] * 1.0001,
                               s_cell), mass, moments),
    }
    for label, (r, m, mo) in cases.items():
        t.expect(f"sweep: {label}", checks.check_sweep(r, m, subset, mo), True)


def main() -> int:
    if not (Path.cwd() / "src" / "cogecon" / "__init__.py").is_file():
        print("run from the root of a cogecon checkout", file=sys.stderr)
        return 2
    t = Tally()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".work"))
    try:
        test_reproduce(t, work)
        test_validate(t, work)
        test_sweep(t, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{t.bad} check(s) misjudged" if t.bad else "every corruption was rejected")
    return 1 if t.bad else 0


if __name__ == "__main__":
    sys.exit(main())
