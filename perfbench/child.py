"""Child-process side of the cogecon benchmark.

Run by perfbench/run.py in a fresh interpreter whose PYTHONPATH is the
checkout's ``src``, never imported by the parent.  Three modes:

  child.py setup <workload> <seed> <out_dir>
      import cogecon and build the workload's inputs, then print the
      monotonic clock reading at which both are done (set-up time).
  child.py sweep <seed> <seconds> <trace 0|1> <result.npz> <layers.json>
      time passes of the sweep grid for `seconds`; with trace 1, alternate
      untraced and traced passes.  Writes the first pass's outputs, the
      benchmark's own quadrature of its densities, and every pass's wall
      time and digest.
  child.py trace <result.json> <cogecon cli arguments...>
      run one CLI command in-process with every traced layer wrapped.

The import of cogecon comes first in every mode, before this file imports
anything beyond the interpreter's start-up modules, so the import time and
the module counts are those a fresh `python -m cogecon.cli` pays.
"""

import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _timed_import(module: str) -> dict:
    start = _clock()
    __import__(module)
    import_s = _clock() - start
    names = list(sys.modules)
    return {"cli.import_s": import_s,
            "cli.modules_loaded": len(names),
            "cli.scipy_modules_loaded": sum(1 for n in names
                                            if n == "scipy" or n.startswith("scipy."))}


# -- the sweep grid ------------------------------------------------------------

# The economies behind the abstract's friction and consumption-weight claims:
# the low and high asset settings (theta, sigma) of figures 7-14, four CRRA
# curvatures, a log-spaced leverage axis and a friction axis with one seeded
# draw per stratum.  f_sigma stops at 0.02: below it the closed form's smaller
# rate loses digits to cancellation (see CHANGES.md).
SWEEP_ASSETS = ((0.05, 0.05), (0.5, 0.5))
SWEEP_GAMMAS = (1.5, 2.0, 3.0, 4.0)
SWEEP_N_LAMBDA = 32          # lam = 100 ** (i / 31), i = 0..31, over [1, 100]
SWEEP_N_F = 32               # one uniform draw in each of 32 equal strata of [0.02, 1)
SWEEP_F_MIN = 0.02
SUBSET_SIZE = 64             # cells whose moments are checked by quadrature

# Gauss-Legendre panels over u in [0, 40] (e^-40 ~ 4e-18 truncation), used as
# x = -u / rate_left and x = u / rate_right on the two sides of the reset point.
QUAD_DECAY_LENGTHS = 40.0
QUAD_PANELS = 4
QUAD_NODES = 32
EXP_MOMENT_MIN_RATE = 1.1    # E[e^x] is checked only where rate_right >= 1.1


def sweep_cells(seed: int) -> list:
    import random

    rng = random.Random(seed)
    lams = [100.0 ** (i / (SWEEP_N_LAMBDA - 1)) for i in range(SWEEP_N_LAMBDA)]
    fs = [SWEEP_F_MIN + (1.0 - SWEEP_F_MIN) * (j + rng.random()) / SWEEP_N_F
          for j in range(SWEEP_N_F)]
    return [{"theta": theta, "sigma": sigma, "gamma": gamma, "lam": lam, "f_sigma": f}
            for theta, sigma in SWEEP_ASSETS for gamma in SWEEP_GAMMAS
            for lam in lams for f in fs]


def sweep_pass(cells: list) -> tuple:
    """One pass EconomyParams -> drift_diffusion -> density -> density_stats.

    The functions are looked up on the package at call time, so a pass run
    while the tracer is installed goes through its wrappers.
    """
    import cogecon

    make, law_of = cogecon.EconomyParams, cogecon.drift_diffusion
    density_of, stats_of = cogecon.stationary_wealth_density, cogecon.density_stats
    nan = float("nan")
    rows, densities = [], []
    for kw in cells:
        law = law_of(make(**kw))
        d = density_of(law)
        s = stats_of(d)
        rows.append((law.mu, law.sigma_x, law.reset_rate, d.norm_K,
                     s.tail_exponent_left, s.tail_exponent_right, s.mean_x, s.var_x,
                     s.wealth_mean if s.wealth_mean_exists else nan,
                     float(s.wealth_mean_exists)))
        densities.append(d)
    return rows, densities


def _quadrature_rule():
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    width = QUAD_DECAY_LENGTHS / QUAD_PANELS
    u = np.concatenate([(k + 0.5) * width + 0.5 * width * nodes for k in range(QUAD_PANELS)])
    w = np.tile(0.5 * width * weights, QUAD_PANELS)
    return u, w


def quadrature_checks(densities: list, seed: int) -> dict:
    """The benchmark's own quadrature of the program's pdf.

    Every density's total mass; on a seeded subset of cells also the mean,
    the variance and, where the right tail decays fast enough, E[e^x].
    """
    import random

    import numpy as np

    u, w = _quadrature_rule()
    mass = np.empty(len(densities))
    for i, d in enumerate(densities):
        x = np.concatenate([-u / d.rate_left, u / d.rate_right])
        wx = np.concatenate([w / d.rate_left, w / d.rate_right])
        mass[i] = np.dot(wx, d.pdf(x))
    subset = sorted(random.Random(f"sweep-subset-{seed}").sample(range(len(densities)),
                                                                  SUBSET_SIZE))
    sub = np.full((SUBSET_SIZE, 3), np.nan)
    for row, i in enumerate(subset):
        d = densities[i]
        x = np.concatenate([-u / d.rate_left, u / d.rate_right])
        wx = np.concatenate([w / d.rate_left, w / d.rate_right])
        p = d.pdf(x)
        mean = np.dot(wx, x * p)
        sub[row, 0] = mean
        sub[row, 1] = np.dot(wx, x * x * p) - mean * mean
        if d.rate_right >= EXP_MOMENT_MIN_RATE:
            # e^x p(x) decays like e^-(rate_right - 1) x on the right and like
            # e^-(rate_left + 1) |x| on the left; scale each side to its decay.
            kl, kr = d.rate_left + 1.0, d.rate_right - 1.0
            xe = np.concatenate([-u / kl, u / kr])
            we = np.concatenate([w / kl, w / kr])
            sub[row, 2] = np.dot(we, np.exp(xe) * d.pdf(xe))
    return {"mass": mass, "subset": np.array(subset), "subset_moments": sub}


def run_sweep(seed: int, seconds: float, trace: bool, result_path: str,
              layers_path: str) -> None:
    imported = _timed_import("cogecon")
    import hashlib
    import json

    import numpy as np

    cells = sweep_cells(seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracing(tracer)
    walls, traced_flags, digests, layer_runs = [], [], [], []
    first = None
    round_len = 2 if trace else 1   # a traced round is one untraced and one traced pass
    start = _clock()
    while not walls or len(walls) % round_len or _clock() - start < seconds:
        traced = len(walls) % round_len == 1
        if traced:
            tracer.install()
        t0 = _clock()
        rows, densities = sweep_pass(cells)
        walls.append(_clock() - t0)
        if traced:
            tracer.uninstall()
            self_time, counts = tracer.end_op(keep_spans=len(layer_runs) == 0)
            layer_runs.append({"self_s": self_time, "counts": dict(counts)})
        traced_flags.append(traced)
        out = np.array(rows, dtype=float)
        digests.append(hashlib.sha256(out.tobytes()).hexdigest())
        if first is None:
            first = (out, densities)
    quad = quadrature_checks(first[1], seed)
    np.savez(result_path, rows=first[0], walls=np.array(walls),
             traced=np.array(traced_flags), digests=np.array(digests), **quad)
    if tracer is not None:
        with open(layers_path, "w", encoding="utf-8") as fh:
            json.dump({"import": imported, "ops": layer_runs, "spans": tracer.spans()}, fh)


# -- tracing -------------------------------------------------------------------


def _ou_path_steps(args, kwargs, result):
    """Paths times Euler steps, the step count simulate_ou_reflected takes."""
    import math

    spec = args[0]
    record_times = kwargs["record_times"] if "record_times" in kwargs else args[3]
    steps = math.ceil(max(record_times) / spec.step_size())
    return "sde.ou_path_steps", result.shape[0] * steps


def _seed_free_csv_bytes(args, kwargs, result):
    """CSV bytes of the tables that do not depend on the seed.

    Figure 6's Monte Carlo digits change length with the seed; leaving it out
    keeps the count exactly the same across runs.
    """
    return "figures.csv_bytes", len(result) if args[0].meta.get("seed") == "unused" else 0


def install_tracing(tracer) -> None:
    """Register a span around each layer's public entry points."""
    from cogecon import (config, consumption, densities, figures, kfe, sde,
                         validate, wealth)

    tracer.patch_function(config.parse_config, "config.load")
    tracer.patch_function(config.apply_overrides, "config.load")
    tracer.patch_function(figures.reproduce,
                          lambda fid, *a, **k: f"figures.build.fig{fid:02d}")
    tracer.patch_method(figures.SeriesTable, "to_csv_bytes", "figures.csv_format",
                        count=_seed_free_csv_bytes)
    tracer.patch_method(figures.SeriesTable, "write", "figures.write")
    tracer.patch_function(consumption.cawf_montecarlo, "consumption.cawf_montecarlo")
    tracer.patch_function(sde.simulate_ou_reflected, "sde.ou_reflected", count=_ou_path_steps)
    tracer.patch_function(sde.simulate_gbm_reset, "sde.gbm_reset",
                          count=lambda a, k, r: ("sde.gbm_reset_samples", len(r)))
    tracer.patch_function(validate.run_density_validation, "validate.law",
                          count=lambda a, k, r: ("validate.laws", 1))
    tracer.patch_function(validate.ks_distance, "validate.ks")
    tracer.patch_function(validate.fd_density_error, "validate.fd_error")
    tracer.patch_function(kfe.solve_stationary_kfe_fd, "kfe.solve",
                          count=lambda a, k, r: ("kfe.grid_points", len(r)))
    for method in ("pdf", "cdf", "from_reset_law"):
        tracer.patch_method(densities.PiecewiseExpDensity, method, f"densities.{method}")
    tracer.patch_function(wealth.drift_diffusion, "wealth.drift_diffusion",
                          count=lambda a, k, r: ("wealth.economies", 1))
    tracer.patch_function(wealth.density_stats, "wealth.density_stats")


def run_traced_cli(result_path: str, cli_args: list) -> None:
    imported = _timed_import("cogecon.cli")
    import json

    import cogecon.cli
    from tracer import Tracer

    tracer = Tracer()
    install_tracing(tracer)
    tracer.install()
    try:
        cogecon.cli.main(cli_args)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    self_time, counts = tracer.end_op()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "import": imported,
                   "ops": [{"self_s": self_time, "counts": dict(counts)}],
                   "spans": tracer.spans()}, fh)
    sys.exit(code)


# -- set-up --------------------------------------------------------------------


def run_setup(workload: str, seed: int, out_dir: str) -> None:
    if workload == "sweep":
        _timed_import("cogecon")
        sweep_cells(seed)
    else:
        _timed_import("cogecon.cli")
        from cogecon.config import apply_overrides, parse_config

        apply_overrides(parse_config(None), seed, out_dir)
    print(repr(_clock()))


def main(argv: list) -> None:
    mode = argv[0]
    if mode == "setup":
        run_setup(argv[1], int(argv[2]), argv[3])
    elif mode == "sweep":
        run_sweep(int(argv[1]), float(argv[2]), argv[3] == "1", argv[4], argv[5])
    elif mode == "trace":
        run_traced_cli(argv[1], argv[2:])
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
