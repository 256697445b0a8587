"""Property checks on cogecon's outputs.

Each check returns a list of problems (empty when the output is correct).
They test properties the method must have, never stored copies of earlier
output, and need nothing but numpy, so the self-test can feed them corrupted
outputs.  Tolerances are fixed here, before any measurement, from the
precision of the arithmetic involved.
"""

from __future__ import annotations

import math
import re

import numpy as np

FIGURE_NAMES = tuple(f"figure{i:02d}.csv" for i in range(1, 15))
DENSITY_FIGURES = (2, 3, 7, 8, 9, 10, 11, 12, 13, 14)

# ln p of an exp(rate * x) column evaluated in doubles: |rate * x| <= ~700, so
# the exponent carries at most ~1e-13 absolute error.
LOG_LINEAR_TOL = 1e-9
# Values below this are subnormal-adjacent and lose relative precision in log.
LOG_FLOOR = 1e-290
NORM_REL_TOL = 1e-8
# Closed-form columns recomputed by the benchmark: a few ulps of exp and sums.
CLOSED_FORM_TOL = 1e-12

# validate: the program's 12 benchmark economies plus the configured law.
VALIDATE_LAWS = 13
KS_ALPHA = 1e-6
LAW_LINE = re.compile(r"^\s+(\S+)\s+fd (\S+) \(tol (\S+)\)\s+ks (\S+) \(tol (\S+)\)\s+(\S+)$")

# sweep columns, as child.sweep_pass writes them.
MU, SIGMA_X, BETA, NORM_K, RATE_L, RATE_R, MEAN, VAR, WEALTH_MEAN, EXISTS = range(10)
# The small root of the characteristic equation cancels as eps * mu^2 / (beta sigma_x^2),
# at most ~3e-10 on the sweep grid; 1e-8 leaves room and still fails a wrong root.
CHAR_TOL = 1e-8
QUAD_TOL = 1e-9


# -- reproduce -----------------------------------------------------------------


def parse_csv(blob: bytes):
    """(meta, columns, data) of one figure CSV; raises ValueError when malformed."""
    if not blob.endswith(b"\r\n") or b"\n" in blob.replace(b"\r\n", b""):
        raise ValueError("lines must end in CRLF")
    lines = blob.decode("ascii").split("\r\n")[:-1]
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(": ")
        meta[key] = value
    if not lines:
        raise ValueError("no header row")
    columns = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.ndim != 2 or data.shape[1] != len(columns) or data.shape[0] < 2:
        raise ValueError(f"expected rows of {len(columns)} values")
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite value")
    return meta, columns, data


def parse_params(echo: str) -> dict:
    """The `k=v k=v` parameter echo; values that parse as numbers become floats."""
    out = {}
    for item in re.split(r" (?=\w+=)", echo.strip()):
        key, _, value = item.partition("=")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def check_density_column(x: np.ndarray, p: np.ndarray) -> list[str]:
    """ln p linear on each side of 0, continuous at 0, K = 1/(1/r_L + 1/r_R)."""
    if np.any(p < 0.0):
        return ["negative density"]
    fits = []
    for side, mask in (("left", x < 0.0), ("right", x >= 0.0)):
        sel = mask & (p > LOG_FLOOR)
        if sel.sum() < 3:
            return [f"{side} side has fewer than 3 representable points"]
        lp = np.log(p[sel])
        slope, intercept = np.polyfit(x[sel], lp, 1)
        resid = float(np.max(np.abs(lp - (intercept + slope * x[sel]))))
        if resid > LOG_LINEAR_TOL:
            return [f"log density not linear on the {side} (residual {resid:.3g})"]
        fits.append((slope, intercept))
    (rate_left, icpt_left), (neg_rate_right, icpt_right) = fits
    rate_right = -neg_rate_right
    if not (rate_left > 0.0 and rate_right > 0.0):
        return [f"tails do not decay (slopes {rate_left:.6g}, {-rate_right:.6g})"]
    if abs(icpt_left - icpt_right) > LOG_LINEAR_TOL:
        return [f"discontinuous at 0 (log jump {icpt_left - icpt_right:.3g})"]
    norm = math.exp(icpt_right)
    expected = 1.0 / (1.0 / rate_left + 1.0 / rate_right)
    if abs(norm - expected) > NORM_REL_TOL * expected:
        return [f"normalisation {norm:.17g} != 1/(1/r_L + 1/r_R) = {expected:.17g}"]
    return []


def _check_fig01(meta, columns, data) -> list[str]:
    problems = []
    if columns[0] != "t" or data[0, 0] != 0.0:
        problems.append("first column must be t starting at 0")
    if np.any(data[:, 1:] < 0.0) or np.any(data[:, 1:] > 1.0):
        problems.append("retention share leaves [0, 1]")
    for j, name in enumerate(columns[1:], start=1):
        r0 = float(name.rpartition("r0_")[2])
        if not _close(data[0, j], r0, CLOSED_FORM_TOL):
            problems.append(f"{name} starts at {float(data[0, j])!r}, not r0 = {r0}")
    return problems


def _check_fig04(meta, columns, data) -> list[str]:
    params = parse_params(meta.get("params", ""))
    ln_s, ln_bayes, ln_non = data[:, 0], data[:, 1], data[:, 2]
    problems = []
    if not np.array_equal(ln_bayes, ln_s):
        problems.append("ln_bayes differs from ln_s")
    beta_b, mu_b = params.get("beta_b"), params.get("mu_b")
    if not isinstance(beta_b, float) or not isinstance(mu_b, float):
        return problems + ["params echo lacks beta_b or mu_b"]
    slope, intercept = (float(v) for v in np.polyfit(ln_s, ln_non, 1))
    if not _close(slope, beta_b, CLOSED_FORM_TOL) or not _close(intercept, math.log(mu_b),
                                                                   CLOSED_FORM_TOL):
        problems.append(f"ln_nonbayes has slope {slope!r}, intercept {intercept!r}; "
                        f"expected beta_b = {beta_b}, ln mu_b = {math.log(mu_b)!r}")
    if not _close(ln_non, intercept + slope * ln_s, CLOSED_FORM_TOL):
        problems.append("ln_nonbayes is not a straight line")
    return problems


def _crowd_size(name: str) -> float:
    return math.inf if name == "n_inf" else float(name[1:])


def _check_fig05(meta, columns, data) -> list[str]:
    params = parse_params(meta.get("params", ""))
    scale, omega, d_bar = (params.get(k) for k in ("scale", "omega", "d_bar"))
    if not all(isinstance(v, float) for v in (scale, omega, d_bar)):
        return ["params echo lacks scale, omega or d_bar"]
    d = data[:, 0]
    up = scale * np.exp(d - d_bar) - 1.0
    down = 1.0 - scale * np.exp(d_bar - d)
    problems = []
    for j, name in enumerate(columns[1:], start=1):
        n = _crowd_size(name)
        w = 0.0 if math.isinf(n) else 1.0 / (1.0 + n / omega)
        expected = up * w + down * (1.0 - w)
        if not _close(data[:, j], expected, CLOSED_FORM_TOL):
            problems.append(f"column {name} is not the mix of the limits with weight {w:.6g}")
    if columns[1] != "n0" or columns[-1] != "n_inf":
        problems.append("end columns must be n0 and n_inf")
    return problems


def _check_fig06(meta, columns, data) -> list[str]:
    params = parse_params(meta.get("params", ""))
    n_high, n_low, n_paths = (params.get(k) for k in ("n_high", "n_low", "n_paths"))
    if not all(isinstance(v, float) for v in (n_high, n_low, n_paths)):
        return ["params echo lacks n_high, n_low or n_paths"]
    problems = []
    if n_high + n_low != n_paths or min(n_high, n_low) < 1:
        problems.append(f"n_high + n_low = {n_high + n_low:g} != n_paths = {n_paths:g}")
    if columns != ["n", "average", "high_value", "low_value"]:
        return problems + [f"unexpected columns {columns}"]
    mix = (n_high * data[:, 2] + n_low * data[:, 3]) / (n_high + n_low)
    if not _close(data[:, 1], mix, CLOSED_FORM_TOL):
        problems.append("average is not the n_high/n_low-weighted mix of the two groups")
    return problems


def check_reproduce(files: dict) -> list[str]:
    """files maps each CSV name to its bytes."""
    if sorted(files) != list(FIGURE_NAMES):
        return [f"expected {FIGURE_NAMES[0]}..{FIGURE_NAMES[-1]}, got {sorted(files)}"]
    problems = []
    for fid, name in enumerate(FIGURE_NAMES, start=1):
        try:
            meta, columns, data = parse_csv(files[name])
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if fid in DENSITY_FIGURES:
            found = []
            if columns[0] != "x":
                found.append("first column must be x")
            for j, col in enumerate(columns[1:], start=1):
                found += [f"{col}: {p}" for p in check_density_column(data[:, 0], data[:, j])]
        elif fid == 1:
            found = _check_fig01(meta, columns, data)
        elif fid == 4:
            found = _check_fig04(meta, columns, data)
        elif fid == 5:
            found = _check_fig05(meta, columns, data)
        else:
            found = _check_fig06(meta, columns, data)
        problems += [f"{name}: {p}" for p in found]
    return problems


# -- validate ------------------------------------------------------------------


def dkw_bound(n_samples: int, alpha: float = KS_ALPHA) -> float:
    """KS distance an exact sampler exceeds with probability at most alpha (DKW)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n_samples))


def check_validate(stdout: str, n_samples: int) -> list[str]:
    laws = [m for line in stdout.splitlines() if (m := LAW_LINE.match(line))]
    labels = [m[1] for m in laws]
    problems = []
    if len(laws) != VALIDATE_LAWS or len(set(labels)) != VALIDATE_LAWS \
            or "configured" not in labels:
        problems.append(f"expected {VALIDATE_LAWS} distinct laws including 'configured', "
                        f"got {labels}")
    ks_max = dkw_bound(n_samples)
    for m in laws:
        label, fd, fd_tol, ks, verdict = m[1], float(m[2]), float(m[3]), float(m[4]), m[6]
        if verdict != "PASS":
            problems.append(f"{label}: verdict {verdict}")
        if not fd < fd_tol:
            problems.append(f"{label}: fd error {fd:g} not below its tolerance {fd_tol:g}")
        if not ks < ks_max:
            problems.append(f"{label}: ks {ks:g} not below the DKW bound {ks_max:.4g} "
                            f"(n = {n_samples}, alpha = {KS_ALPHA:g})")
    if f"all {VALIDATE_LAWS} density checks passed" not in stdout:
        problems.append("missing the closing all-passed line")
    return problems


# -- sweep ---------------------------------------------------------------------


def check_sweep(rows: np.ndarray, mass: np.ndarray, subset: np.ndarray,
                subset_moments: np.ndarray) -> list[str]:
    """rows: one line per economy (columns above); mass, subset_moments: the
    benchmark's quadrature of each pdf, and of the moments on the subset."""
    problems = []
    mu, v2, beta = rows[:, MU], rows[:, SIGMA_X] ** 2, rows[:, BETA]
    rl, rr = rows[:, RATE_L], rows[:, RATE_R]
    for side, r, sign in (("left", rl, -1.0), ("right", rr, 1.0)):
        terms = (0.5 * v2 * r * r, sign * mu * r, -beta)
        resid = np.abs(sum(terms)) / sum(np.abs(t) for t in terms)
        bad = np.flatnonzero(~(resid <= CHAR_TOL))
        if bad.size:
            problems.append(f"{bad.size} cells' {side} rate misses (s^2/2)r^2 "
                            f"{'+' if sign > 0 else '-'} mu r - beta = 0 "
                            f"(worst relative residual {np.nanmax(resid):.3g})")
    bad = np.flatnonzero(~(np.abs(mass - 1.0) <= QUAD_TOL))
    if bad.size:
        problems.append(f"{bad.size} densities do not integrate to 1 "
                        f"(worst {float(mass[bad[0]])!r} at cell {bad[0]})")
    exists = rows[:, EXISTS] == 1.0
    if not np.array_equal(exists, rr > 1.0):
        problems.append("wealth_mean_exists differs from rate_right > 1")
    if not np.array_equal(exists, np.isfinite(rows[:, WEALTH_MEAN])):
        problems.append("wealth_mean is not reported exactly where it exists")
    sub = rows[subset]
    second = sub[:, VAR] + sub[:, MEAN] ** 2
    mean_q, var_q, expm_q = subset_moments.T
    if np.any(np.abs(mean_q - sub[:, MEAN]) > QUAD_TOL * np.sqrt(second)):
        problems.append("mean differs from quadrature of the pdf")
    if np.any(np.abs(var_q - sub[:, VAR]) > QUAD_TOL * second):
        problems.append("variance differs from quadrature of the pdf")
    has_q = np.isfinite(expm_q)
    if not np.all(exists[subset][has_q]) or np.any(
            np.abs(expm_q[has_q] - sub[has_q, WEALTH_MEAN])
            > QUAD_TOL * np.abs(expm_q[has_q])):
        problems.append("E[e^x] differs from quadrature of the pdf")
    return problems
