"""Benchmark combination table and the dual-oracle harness itself."""

import os
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cogecon.validate as validate_mod
from cogecon import sde
from cogecon.cognition import cognition_law
from cogecon.config import default_config
from cogecon.densities import PiecewiseExpDensity, ResetLaw
from cogecon.errors import DegenerateModelError
from cogecon.figures import (COGNITION_CROWD, STRONG_DILUTION_CROWD, STRONG_DILUTION_ETA,
                             wealth_economies)
from cogecon.rng import RngSpec
from cogecon.validate import (
    FD_TOL,
    KS_TOL,
    ComboReport,
    fd_density_error,
    fd_grid_for,
    ks_distance,
    mc_ks_for,
    run_density_validation,
    run_validations,
    benchmark_combos,
    check_reports,
    validation_jobs,
)
from cogecon.wealth import drift_diffusion, stationary_wealth_density
from references import block_end_ks_sample, whole_array_ks

LAW = ResetLaw(mu=0.2465236032020286, sigma_x=0.4, reset_rate=0.3)


def test_twelve_combos_cover_both_regimes():
    combos = benchmark_combos()
    assert len(combos) == 12
    labels = [label for label, _ in combos]
    assert len(set(labels)) == 12
    assert sum(label.startswith("type1") for label in labels) == 6
    assert sum(label.startswith("type2") for label in labels) == 6
    for label, params in combos:
        if label.startswith("type1"):
            assert params.f_sigma == 1.0
    # the paired regime ties the friction tier to the leverage tier
    paired = {(p.lam, p.f_sigma) for label, p in combos if label.startswith("type2")}
    assert paired == {(5.0, 0.2), (25.0, 0.5), (50.0, 0.8)}


def test_ks_distance_hand_case():
    # single sample at the median of the model law: D = 1/2 exactly
    d = stationary_wealth_density(LAW)
    samples = np.array([0.0])
    expected = max(1.0 - d.cdf(0.0), d.cdf(0.0))
    assert ks_distance(samples, d) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        ks_distance(np.array([]), d)


def exact_quantiles(d, n):
    """Samples placed at the (i - 1/2)/n model quantiles by bisection."""
    targets = (np.arange(n) + 0.5) / n
    lo, hi = np.full(n, -80.0), np.full(n, 80.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = d.cdf(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_ks_distance_of_exact_quantiles_is_small():
    d = stationary_wealth_density(LAW)
    n = 2000
    assert ks_distance(exact_quantiles(d, n), d) <= 0.5 / n + 1e-9


CHUNK = sde.CHUNK


def same_bits(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, CHUNK - 1, CHUNK, CHUNK + 1, 1_000_003])
@pytest.mark.parametrize("side", ["both", "left", "right"])
def test_streamed_ks_equals_whole_array_ks(n, side):
    d = stationary_wealth_density(LAW)
    gen = RngSpec(3, stream_id=n).generator()
    # Rounded to 1e-2: most values are tied with others.  Zeros of both signs
    # sit on the kink of the cdf.
    x = np.round(gen.laplace(0.5, 2.0, size=n), 2)
    x[::7] = 0.0
    x[3::7] = -0.0
    if side == "left":
        x = -np.abs(x) - 0.01
    elif side == "right":
        x = np.abs(x)
    expected = whole_array_ks(x, d)
    assert same_bits(ks_distance(x, d), expected)
    assert np.all(x[1:] >= x[:-1])   # sorted in place, as documented


@pytest.mark.parametrize("case", ["all_equal", "wrong_law", "quantiles", "quantiles_batched",
                                  "block_end"])
def test_pruned_ks_equals_whole_array_ks(case):
    # Samples where a wrong pruning would show: one value repeated, a law
    # far from the model (large D), exact quantiles, where every gap is
    # close to D, so nearly every block is kept (at 3 CHUNK + 5 samples the
    # kept blocks take four batches, the last one short), and a largest gap
    # at a block's last sample that only the exact block bound keeps.
    d = stationary_wealth_density(LAW)
    if case == "all_equal":
        x = np.full(1000, 0.3)
    elif case == "block_end":
        x = block_end_ks_sample(d, validate_mod._KS_BLOCK)
    elif case == "wrong_law":
        x = sde.simulate_gbm_reset(LAW.mu * 1.05, LAW.sigma_x, LAW.reset_rate, RngSpec(4),
                                   100_000)
    else:
        x = exact_quantiles(d, 2000 if case == "quantiles" else 3 * CHUNK + 5)
    expected = whole_array_ks(x, d)
    assert same_bits(ks_distance(x, d), expected)
    if case == "wrong_law":
        assert expected > 0.01


def test_ks_of_the_benchmark_laws_evaluates_few_samples(monkeypatch):
    # The 13 laws of `cogecon validate --seed 42` at full size: the pruned
    # maximum is the whole array's bit for bit, and the model cdf sees at
    # most 5 % of the samples, so a fallback to the full pass fails here.
    n = 1_000_000
    evaluated = []
    cdf = PiecewiseExpDensity.cdf

    def counting_cdf(self, x):
        evaluated.append(np.size(x))
        return cdf(self, x)

    configured = drift_diffusion(default_config().wealth_params())
    for _, law, rng in validation_jobs(42, configured=configured):
        x = sde.simulate_gbm_reset(law.mu, abs(law.sigma_x), law.reset_rate, rng, n)
        d = stationary_wealth_density(law)
        expected = whole_array_ks(x, d)
        evaluated.clear()
        with monkeypatch.context() as m:
            m.setattr(PiecewiseExpDensity, "cdf", counting_cdf)
            got = ks_distance(x, d)
        assert same_bits(got, expected)
        assert 0 < sum(evaluated) <= 0.05 * n


def test_mc_ks_memory_stays_near_its_sample():
    # The sample (8 bytes each) is the only n-sized array; the sort works in
    # place, and cdf and gaps run on the marks and the kept blocks alone.
    n = 1_000_000
    mc_ks_for(LAW, RngSpec(5), 1000)
    tracemalloc.start()
    try:
        mc_ks_for(LAW, RngSpec(5), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 1.5 * 2**20


def test_pooled_reports_equal_sequential_loop():
    seed, n_points, n_samples = 9, 401, 5000
    jobs = validation_jobs(seed)
    sequential = [run_density_validation(law, rng, label=label, n_points=n_points,
                                         n_samples=n_samples)
                  for label, law, rng in jobs]
    pooled = list(run_validations(jobs, n_points, n_samples))
    assert [r.label for r in pooled] == [label for label, _ in benchmark_combos()]
    for a, b in zip(pooled, sequential, strict=True):
        assert a.label == b.label and a.law == b.law
        for value in ("fd_error", "ks_distance"):
            assert np.float64(getattr(a, value)).view(np.uint64) == \
                np.float64(getattr(b, value)).view(np.uint64)


def test_pool_cancels_jobs_not_started_after_a_failure(monkeypatch):
    started = []

    def fake_validation(law, rng, label, n_points, n_samples):
        started.append(label)
        if label == "0":
            raise DegenerateModelError("job 0 fails at once")
        time.sleep(0.05)
        return ComboReport(label, law, 0.0, 1.0, 0.0, 1.0)

    monkeypatch.setattr(validate_mod, "run_density_validation", fake_validation)
    n_jobs = 4 * (os.cpu_count() or 1) + 8   # more than the pool has workers
    jobs = [(str(i), LAW, RngSpec(1, stream_id=i)) for i in range(n_jobs)]
    with pytest.raises(DegenerateModelError):
        next(run_validations(jobs, n_points=401, n_samples=1000))
    assert len(started) < n_jobs


def test_closing_the_reports_early_cancels_jobs_not_started_and_ends_the_pool(monkeypatch):
    started = []

    def fake_validation(law, rng, label, n_points, n_samples):
        started.append(label)
        time.sleep(0.05)
        return ComboReport(label, law, 0.0, 1.0, 0.0, 1.0)

    monkeypatch.setattr(validate_mod, "run_density_validation", fake_validation)
    n_jobs = 4 * (os.cpu_count() or 1) + 8   # more than the pool has workers
    jobs = [(str(i), LAW, RngSpec(1, stream_id=i)) for i in range(n_jobs)]
    before = set(threading.enumerate())
    reports = run_validations(jobs, n_points=401, n_samples=1000)
    assert next(reports).label == "0"
    reports.close()
    assert len(started) < n_jobs
    assert set(threading.enumerate()) <= before


def test_jobs_put_configured_law_on_stream_99_and_benchmarks_on_100_up():
    combos = benchmark_combos()
    jobs = validation_jobs(7, configured=LAW)
    assert [label for label, _, _ in jobs] == ["configured"] + [label for label, _ in combos]
    assert jobs[0][1] == LAW
    assert [rng for _, _, rng in jobs] == [RngSpec(7, stream_id=99)] + [
        RngSpec(7, stream_id=100 + idx) for idx in range(len(combos))]
    assert validation_jobs(7) == jobs[1:]


def test_fd_grid_spans_both_tails():
    grid = fd_grid_for(LAW, 801)
    nodes = grid.nodes()
    d = stationary_wealth_density(LAW)
    assert nodes[0] < -18.0 / d.rate_left
    assert nodes[-1] > 18.0 / d.rate_right
    assert np.any(nodes == 0.0)


def test_fd_error_shrinks_with_resolution():
    coarse = fd_density_error(LAW, n_points=501)
    fine = fd_density_error(LAW, n_points=2001)
    assert fine < coarse
    assert fine < 1e-3


def test_run_density_validation_small_but_passing():
    report = run_density_validation(LAW, RngSpec(11, stream_id=1),
                                    label="smoke", n_points=2001,
                                    n_samples=20_000)
    assert report.passed
    assert (report.fd_tol, report.ks_tol) == (FD_TOL, KS_TOL) == (1e-3, 0.02)
    assert report.fd_error < report.fd_tol
    assert report.ks_distance < report.ks_tol


def test_combo_report_pass_logic():
    ok = ComboReport("x", LAW, fd_error=1e-5, fd_tol=1e-3,
                     ks_distance=1e-3, ks_tol=0.02)
    assert ok.passed
    bad_fd = ComboReport("x", LAW, fd_error=2e-3, fd_tol=1e-3,
                         ks_distance=1e-3, ks_tol=0.02)
    bad_ks = ComboReport("x", LAW, fd_error=1e-5, fd_tol=1e-3,
                         ks_distance=0.5, ks_tol=0.02)
    assert not bad_fd.passed and not bad_ks.passed


def test_type2_laws_flip_drift_sign_across_tiers():
    # the paired-friction sweep crosses from negative to positive drift,
    # which is what makes its variance profile U-shaped
    mus = [drift_diffusion(p).mu for label, p in benchmark_combos()
           if label.startswith("type2_") and "theta0.05" in label]
    assert mus[0] < 0.0 < mus[-1]


def test_every_plotted_law_passes_both_oracles():
    # validate's benchmark laws are figures 7-10's columns; the other 30
    # plotted laws, figures 11-14's and figures 2-3's cognition laws, pass
    # both oracles at full size on streams of their own.
    cfg = default_config()
    plotted = {fid: [(f"fig{fid} {label}", drift_diffusion(p))
                     for label, p in wealth_economies(fid, cfg.wealth_params())]
               for fid in range(7, 15)}
    assert [law for _, law, _ in validation_jobs(cfg.seed)] == [
        law for fid in (7, 8, 9, 10) for _, law in plotted[fid]]

    laws = [job for fid in (11, 12, 13, 14) for job in plotted[fid]]
    weak = cfg.cognition_params()
    strong = replace(weak, eta_c=STRONG_DILUTION_ETA)
    laws += [(f"fig2 n{n}", cognition_law(replace(weak, n=n))) for n in COGNITION_CROWD]
    laws += [(f"fig3 n{n}", cognition_law(replace(strong, n=n))) for n in STRONG_DILUTION_CROWD]
    jobs = [(label, law, RngSpec(cfg.seed, stream_id=200 + idx))
            for idx, (label, law) in enumerate(laws)]
    reports = list(run_validations(jobs, n_points=4001, n_samples=1_000_000))
    assert len(reports) == 30
    check_reports(reports)
