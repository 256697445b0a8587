"""Densities, RNG streams, SDE simulators, and the FD forward-equation solver."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import ks_2samp

from cogecon import kfe, sde
from cogecon.config import default_config
from cogecon.densities import PiecewiseExpDensity, ResetLaw
from cogecon.errors import DegenerateModelError
from cogecon.kfe import Grid1D, _bernoulli, solve_stationary_kfe_fd
from cogecon.rng import RngSpec
from cogecon.sde import OuProcessSpec, simulate_gbm_reset, simulate_ou_reflected
from cogecon.validate import benchmark_combos, fd_grid_for
from cogecon.wealth import drift_diffusion
from references import (OU_ORACLE_BOUND, OU_ORACLE_PATHS, OU_ORACLE_SPEC,
                        array_assembled_kfe_fd, ou_gibbs_law, whole_array_ks)

drifts = st.floats(min_value=-2.0, max_value=2.0)
vols = st.floats(min_value=0.05, max_value=3.0)
rates = st.floats(min_value=0.05, max_value=5.0)


def numeric_moments(d: PiecewiseExpDensity):
    # Wide-enough grids that both exponential tails are fully resolved; the
    # density has a kink at the reset point, so integrate each side separately.
    lo = -40.0 / d.rate_left
    hi = 40.0 / d.rate_right
    x = np.concatenate([np.linspace(lo, 0.0, 200_001),
                        np.linspace(0.0, hi, 200_001)])
    p = d.pdf(x)
    mass = np.trapezoid(p, x)
    mean = np.trapezoid(x * p, x)
    second = np.trapezoid(x * x * p, x)
    return mass, mean, second


def test_two_sided_exponential_hand_values():
    # drift 0.1, vol 0.4, reset 0.3: s = sqrt(mu^2 + 2 beta vol^2)
    d = PiecewiseExpDensity.from_reset_law(drift=0.1, vol=0.4, reset_rate=0.3)
    s = math.sqrt(0.1**2 + 2.0 * 0.3 * 0.16)
    assert d.rate_left == pytest.approx((s + 0.1) / 0.16, rel=1e-14)
    assert d.rate_right == pytest.approx((s - 0.1) / 0.16, rel=1e-14)
    assert d.norm_K == pytest.approx(0.3 / s, rel=1e-14)


def test_negative_vol_same_law():
    a = PiecewiseExpDensity.from_reset_law(drift=0.1, vol=0.4, reset_rate=0.3)
    b = PiecewiseExpDensity.from_reset_law(drift=0.1, vol=-0.4, reset_rate=0.3)
    assert a == b


@given(drift=drifts, vol=vols, reset=rates)
def test_density_moments_match_quadrature(drift, vol, reset):
    d = PiecewiseExpDensity.from_reset_law(drift=drift, vol=vol, reset_rate=reset)
    mass, mean, second = numeric_moments(d)
    assert mass == pytest.approx(1.0, abs=1e-7)
    assert mean == pytest.approx(d.mean(), abs=1e-6 * max(1.0, abs(d.mean())))
    assert second == pytest.approx(d.second_moment(), rel=1e-5)


@given(drift=drifts, vol=vols, reset=rates)
def test_cdf_properties(drift, vol, reset):
    d = PiecewiseExpDensity.from_reset_law(drift=drift, vol=vol, reset_rate=reset)
    x = np.linspace(-30.0 / d.rate_left, 30.0 / d.rate_right, 2001)
    c = d.cdf(x)
    assert np.all(np.diff(c) >= 0.0)
    assert c[0] == pytest.approx(0.0, abs=1e-10)
    assert c[-1] == pytest.approx(1.0, abs=1e-10)
    assert d.cdf(0.0) == pytest.approx(d.norm_K / d.rate_left, rel=1e-12)


def masked_cdf(d: PiecewiseExpDensity, x):
    """The cdf as an in-place masked evaluation: each branch on its own elements."""
    x = np.asarray(x, dtype=float)
    left_mass = d.norm_K / d.rate_left
    right_mass = d.norm_K / d.rate_right
    left = x < 0.0
    right = ~left
    out = np.multiply(d.rate_left, x, out=np.empty_like(x), where=left)
    np.multiply(-d.rate_right, x, out=out, where=right)
    np.exp(out, out=out)
    np.multiply(left_mass, out, out=out, where=left)
    np.subtract(1.0, out, out=out, where=right)
    np.multiply(right_mass, out, out=out, where=right)
    np.add(left_mass, out, out=out, where=right)
    return out if out.ndim else float(out)


def test_cdf_equals_masked_form_bit_for_bit():
    def bits(value):
        return np.asarray(value, dtype=float).view(np.uint64)

    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    rng = np.random.default_rng(3)
    for drift, vol, reset in ((0.1, 0.4, 0.3), (-0.7, 0.5, 0.4), (2.0, 0.05, 1e-3)):
        d = PiecewiseExpDensity.from_reset_law(drift=drift, vol=vol, reset_rate=reset)
        for x in (*specials, 1e300, -1e300, 3.0 / d.rate_right, -3.0 / d.rate_left):
            assert bits(d.cdf(x)) == bits(masked_cdf(d, x)), (d, x)
        for size in (1, 63, 64, 65, 15_626, 100_003):
            x = rng.standard_normal(size) * 4.0 / min(d.rate_left, d.rate_right)
            x[rng.integers(0, size, min(size, 14))] = np.resize(specials, min(size, 14))
            for values in (x, np.sort(x)):
                assert np.array_equal(bits(d.cdf(values)), bits(masked_cdf(d, values))), (d, size)


def test_mean_sign_follows_drift():
    for drift in (-0.7, -0.1, 0.1, 0.7):
        d = PiecewiseExpDensity.from_reset_law(drift=drift, vol=0.5, reset_rate=0.4)
        assert math.copysign(1.0, d.mean()) == math.copysign(1.0, drift)


def test_exp_moment_threshold():
    # E[e^x] is finite iff the right tail rate exceeds one,
    # i.e. 2 beta - 2 mu - vol^2 > 0.
    heavy = PiecewiseExpDensity.from_reset_law(drift=0.3, vol=0.5, reset_rate=0.2)
    assert heavy.rate_right <= 1.0
    assert heavy.exp_moment() is None
    light = PiecewiseExpDensity.from_reset_law(drift=0.01, vol=0.2, reset_rate=0.3)
    assert light.rate_right > 1.0
    expected = 2.0 * 0.3 / (2.0 * 0.3 - 2.0 * 0.01 - 0.04)
    assert light.exp_moment() == pytest.approx(expected, rel=1e-12)


def test_zero_vol_degenerates():
    with pytest.raises(DegenerateModelError, match="zero diffusion: stationary law degenerates"):
        PiecewiseExpDensity.from_reset_law(drift=0.1, vol=0.0, reset_rate=0.3)


# -- rng ----------------------------------------------------------------------

def test_rng_bit_identical_reruns():
    a = RngSpec(42, stream_id=3).generator().standard_normal(1000)
    b = RngSpec(42, stream_id=3).generator().standard_normal(1000)
    assert np.array_equal(a, b)


def test_rng_streams_differ():
    a = RngSpec(42, stream_id=0).generator().standard_normal(100)
    b = RngSpec(42, stream_id=1).generator().standard_normal(100)
    c = RngSpec(43, stream_id=0).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_spec_validation():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2**64)
    with pytest.raises(ValueError):
        RngSpec(1, stream_id=-2)


# -- reflected OU -------------------------------------------------------------

def test_ou_paths_stay_inside_bounds():
    spec = OuProcessSpec(mean=0.5, reversion=0.1, volatility=0.8, horizon=30.0)
    paths = simulate_ou_reflected(spec, RngSpec(7), n_paths=64,
                                  record_times=np.linspace(0.0, 30.0, 31))
    assert paths.shape == (64, 31)
    assert np.all(paths >= 0.0)
    assert np.all(paths <= 1.0)


def test_ou_stationary_mean_centered():
    spec = OuProcessSpec(mean=0.5, reversion=0.1, volatility=0.8, horizon=60.0)
    paths = simulate_ou_reflected(spec, RngSpec(11), n_paths=4000,
                                  record_times=np.array([60.0]))
    assert float(paths.mean()) == pytest.approx(0.5, abs=0.02)


def test_ou_zero_vol_relaxes_to_mean():
    spec = OuProcessSpec(mean=0.5, reversion=0.5, volatility=0.0, horizon=8.0, start=0.9)
    t = np.array([0.0, 2.0, 8.0])
    path = simulate_ou_reflected(spec, RngSpec(1), n_paths=1, record_times=t)[0]
    analytic = 0.5 + (0.9 - 0.5) * np.exp(-0.5 * t)
    assert np.max(np.abs(path - analytic)) < 1e-2


def test_ou_reflected_states_follow_the_truncated_gibbs_law():
    # A law symmetric about the mean passes the mean test above; this one does not.
    spec = OU_ORACLE_SPEC
    states = simulate_ou_reflected(spec, RngSpec(1, stream_id=300), OU_ORACLE_PATHS,
                                   [spec.horizon])[:, 0]
    assert whole_array_ks(states, ou_gibbs_law(spec)) < OU_ORACLE_BOUND


def plain_ou_loop(spec: OuProcessSpec, rng: RngSpec, n_paths: int, record_times):
    """Reference stepper: the reflected-OU loop written as plain expressions,
    with np.mod for the fold.  Also returns the largest |x - lo| met before a
    fold, to show when a step overshoots by more than a whole period."""
    record_times = np.asarray(sorted(record_times), dtype=float)
    dt = spec.step_size()
    gen = rng.generator()
    x = np.full(n_paths, spec.mean if spec.start is None else spec.start, dtype=float)
    out = np.empty((n_paths, record_times.size), dtype=float)
    lo, hi = 0.0, 1.0
    period = 2.0 * (hi - lo)
    widest = 0.0
    t = 0.0
    next_record = 0
    while next_record < record_times.size and record_times[next_record] <= t:
        out[:, next_record] = x
        next_record += 1
    n_steps = int(np.ceil((record_times[-1] - t) / dt))
    for _ in range(n_steps):
        step = min(dt, record_times[-1] - t)
        if step <= 0.0:
            break
        shocks = gen.standard_normal(n_paths)
        x = x + spec.reversion * (spec.mean - x) * step \
            + spec.volatility * np.sqrt(step) * shocks
        widest = max(widest, float(np.max(np.abs(x - lo))))
        y = np.mod(x - lo, period)
        x = lo + np.minimum(y, period - y)
        t += step
        while next_record < record_times.size and record_times[next_record] <= t + 1e-12:
            out[:, next_record] = x
            next_record += 1
    while next_record < record_times.size:
        out[:, next_record] = x
        next_record += 1
    return out, widest


FIGURE6_OU = OuProcessSpec(mean=0.5, reversion=0.1, volatility=0.8, horizon=60.0)

# Horizons of k steps around multiples of ROWS, the steps per CHUNK normals at
# 1000 paths (dt = 0.25 is exact, so k steps end at k / 4): short and long
# horizons must all give the reference loop's bits.
ROWS = sde.CHUNK // 1000
BLOCK_STEPS = (1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3)


def steps_spec(n_steps: int) -> OuProcessSpec:
    return OuProcessSpec(mean=0.5, reversion=0.1, volatility=0.8, horizon=0.25 * n_steps,
                         dt=0.25)


@pytest.mark.parametrize("spec,seed,n_paths,record_times", [
    (FIGURE6_OU, 42, 1000, [60.0]),
    (FIGURE6_OU, 1, 1000, [60.0]),
    # a mean near a bound, so the law is asymmetric about the interval's middle
    (OuProcessSpec(mean=0.1, reversion=0.7, volatility=1.3, horizon=5.0, dt=0.01),
     3, 257, [5.0]),
    # steps far wider than the period: |x| >= 2 is common
    (OuProcessSpec(mean=0.5, reversion=0.2, volatility=25.0, horizon=2.0, dt=0.01),
     4, 300, [0.5, 2.0]),
    # start on a bound, several record times including 0
    (OuProcessSpec(mean=0.5, reversion=0.4, volatility=0.6, horizon=4.0, start=0.0, dt=0.02),
     5, 64, [0.0, 0.02, 1.0, 2.5, 4.0]),
    # dt does not divide the horizon: the last step is shorter
    (OuProcessSpec(mean=0.7, reversion=1.5, volatility=0.9, horizon=1.0, start=1.0, dt=0.03),
     6, 100, [0.0, 0.45, 1.0]),
    *[(steps_spec(k), 8, 1000, [0.25 * k]) for k in BLOCK_STEPS],
    # more paths than CHUNK: one step's normals exceed a chunk
    (steps_spec(5), 9, sde.CHUNK + 3, [0.5, 1.25]),
    # 100 steps, the short last one beyond ROWS steps
    (OuProcessSpec(mean=0.7, reversion=1.5, volatility=0.9, horizon=2.995, dt=0.03),
     10, 1000, [1.5, 2.995]),
], ids=["fig6-seed42", "fig6-seed1", "mean-near-bound", "vol25", "start-on-bound",
        "ragged-dt", *[f"steps{k}" for k in BLOCK_STEPS], "rows1",
        "ragged-dt-in-block"])
def test_ou_reflected_equals_plain_loop(spec, seed, n_paths, record_times):
    # The sampler steps in place and folds with fmod; the bits must not change.
    rng = RngSpec(seed, stream_id=6)
    got = simulate_ou_reflected(spec, rng, n_paths, record_times)
    want, widest = plain_ou_loop(spec, rng, n_paths, record_times)
    # Compared as bit patterns, so -0 against +0 would also fail.
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if spec.volatility == 25.0:
        assert widest >= 2.0


class ConstantNormals:
    """Generator stand-in whose every normal is `value`."""

    def __init__(self, value: float) -> None:
        self.value = value

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.full(size, self.value)
        out.fill(self.value)
        return out


def test_ou_reflected_signed_zero_fold(monkeypatch):
    # A shock of -2 takes x from 0 to -2, so x fmod 2 is -0.  The sampler
    # must still record +0, as np.mod's fold does.
    monkeypatch.setattr(RngSpec, "generator", lambda self: ConstantNormals(-2.0))
    spec = OuProcessSpec(mean=0.0, reversion=0.1, volatility=1.0, horizon=1.0, dt=1.0,
                         start=0.0)
    got = simulate_ou_reflected(spec, RngSpec(1), 3, [1.0])
    want, _ = plain_ou_loop(spec, RngSpec(1), 3, [1.0])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), np.zeros((3, 1)).view(np.uint64))


def test_ou_reflected_leaves_no_thread_behind():
    before = threading.active_count()
    spec = steps_spec(2 * ROWS + 3)
    simulate_ou_reflected(spec, RngSpec(3), 1000, [0.0, spec.horizon])
    assert threading.active_count() == before


def test_ou_reflected_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    spec = steps_spec(2 * ROWS + 3)
    rng = RngSpec(11, stream_id=6)
    got = simulate_ou_reflected(spec, rng, 1000, [0.25 * ROWS, spec.horizon])
    want, _ = plain_ou_loop(spec, rng, 1000, [0.25 * ROWS, spec.horizon])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class FailsOnSecondBlock:
    """A real generator whose second standard_normal call raises."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen, self.calls = gen, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("second block")
        return self.gen.standard_normal(*args, **kwargs)


def test_ou_reflected_worker_error_reaches_caller(monkeypatch):
    real = RngSpec.generator
    monkeypatch.setattr(RngSpec, "generator", lambda self: FailsOnSecondBlock(real(self)))
    spec = steps_spec(10**6)
    before = set(threading.enumerate())
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="second block"):
            simulate_ou_reflected(spec, RngSpec(3), 1000, [spec.horizon])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(threading.enumerate()) == before
    # Of a million steps, one was taken before the second draw failed: the
    # memory held is one step's buffers, not a list that grows with the horizon.
    assert peak < 2**22


def test_ou_spec_validation():
    with pytest.raises(ValueError):
        OuProcessSpec(mean=0.5, reversion=-0.1, volatility=0.8, horizon=60.0)
    with pytest.raises(ValueError, match="mean must lie inside"):
        OuProcessSpec(mean=2.0, reversion=0.1, volatility=0.8, horizon=60.0)
    with pytest.raises(ValueError, match="start must lie inside"):
        OuProcessSpec(mean=0.5, reversion=0.1, volatility=0.8, horizon=60.0, start=-0.1)


# -- reset diffusion ----------------------------------------------------------

def test_gbm_reset_deterministic():
    a = simulate_gbm_reset(0.2, 0.4, 0.3, RngSpec(5), n_samples=5000)
    b = simulate_gbm_reset(0.2, 0.4, 0.3, RngSpec(5), n_samples=5000)
    assert np.array_equal(a, b)


def test_gbm_reset_matches_closed_form():
    x = simulate_gbm_reset(0.2, 0.4, 0.3, RngSpec(9), n_samples=200_000)
    d = PiecewiseExpDensity.from_reset_law(drift=0.2, vol=0.4, reset_rate=0.3)
    xs = np.sort(x)
    ecdf = np.arange(1, xs.size + 1) / xs.size
    ks = np.max(np.abs(ecdf - d.cdf(xs)))
    assert ks < 0.01


def test_gbm_reset_stationary_moments():
    # X = drift A + vol sqrt(A) Z with A ~ Exp(rate): E[X] = drift / rate and
    # Var[X] = vol^2 / rate + drift^2 / rate^2.  Each estimate is compared at
    # z = 4.89 (two-sided alpha = 1e-6) standard errors of n draws; the
    # variance's standard error uses the sample's fourth central moment.
    drift, vol, rate, n, z = 0.2, 0.4, 0.3, 1_000_000, 4.89
    x = simulate_gbm_reset(drift, vol, rate, RngSpec(13), n_samples=n)
    mean, var = drift / rate, vol**2 / rate + drift**2 / rate**2
    dev = x - x.mean()
    m2 = np.mean(dev**2)
    assert abs(x.mean() - mean) < z * math.sqrt(var / n)
    assert abs(m2 - var) < z * math.sqrt((np.mean(dev**4) - m2**2) / n)


def poisson_clock_walk(drift: float, volatility: float, reset_rate: float,
                       rng: RngSpec, n_samples: int) -> np.ndarray:
    """Reference sampler: start each path at 0, walk its Poisson reset clock
    forward to t_record = 10 / reset_rate, then take the exact Gaussian step
    from the last reset.  It differs from the stationary law by the paths
    that never reset, a share e^-10 of them."""
    gen = rng.generator()
    t_record = 10.0 / reset_rate
    clock = np.zeros(n_samples)
    last_reset = np.zeros(n_samples)
    active = np.arange(n_samples)
    while active.size:
        clock[active] += gen.exponential(1.0 / reset_rate, size=active.size)
        fired = clock[active] <= t_record
        last_reset[active[fired]] = clock[active[fired]]
        active = active[fired]
    age = t_record - last_reset
    shocks = gen.standard_normal(n_samples)
    return drift * age + volatility * np.sqrt(age) * shocks


def test_gbm_reset_same_law_as_clock_walk():
    # Two-sample KS: with probability at least 1 - alpha each empirical cdf
    # lies within the DKW radius sqrt(ln(4/alpha)/2n) of the common law
    # (alpha/2 per side), so their distance stays below twice that radius.
    n, alpha = 200_000, 1e-6
    bound = 2.0 * math.sqrt(math.log(4.0 / alpha) / (2.0 * n))
    exact = simulate_gbm_reset(-0.3, 0.7, 0.8, RngSpec(21), n_samples=n)
    walked = poisson_clock_walk(-0.3, 0.7, 0.8, RngSpec(22), n_samples=n)
    assert ks_2samp(exact, walked).statistic < bound


@pytest.mark.parametrize("drift,volatility,reset_rate",
                         [(0.3, 0.5, 0.4), (-0.7, 1.2, 0.05), (1e-3, 3.0, 2.0)])
def test_gbm_reset_equals_plain_formula(drift, volatility, reset_rate):
    # The sampler evaluates the step in place; the bits must not change.
    n = 100_000
    rng = RngSpec(5, stream_id=3)
    samples = simulate_gbm_reset(drift, volatility, reset_rate, rng, n_samples=n)
    gen = rng.generator()
    age = gen.exponential(1.0 / reset_rate, size=n)
    shocks = gen.standard_normal(n)
    assert np.array_equal(samples, drift * age + volatility * np.sqrt(age) * shocks)


@pytest.mark.parametrize("n", [1, sde.CHUNK - 1, sde.CHUNK,
                               sde.CHUNK + 1, 1_000_003])
def test_gbm_reset_chunks_equal_one_whole_draw(n):
    # The normals are drawn in chunks; the samples must be those of one whole
    # draw through the plain formula, at and around every chunk boundary.
    drift, volatility, reset_rate = -0.4, 0.9, 0.6
    rng = RngSpec(17, stream_id=8)
    samples = simulate_gbm_reset(drift, volatility, reset_rate, rng, n_samples=n)
    gen = rng.generator()
    age = gen.exponential(1.0 / reset_rate, size=n)
    shocks = gen.standard_normal(n)
    plain = drift * age + volatility * np.sqrt(age) * shocks
    assert np.array_equal(samples.view(np.uint64), plain.view(np.uint64))


def test_gbm_reset_zero_vol_rejected():
    with pytest.raises(DegenerateModelError, match="zero volatility: reset process collapses"):
        simulate_gbm_reset(0.2, 0.0, 0.3, RngSpec(1), n_samples=10)


@pytest.mark.parametrize("reset_rate,n_samples", [(0.0, 10), (-0.3, 10), (0.3, 0)])
def test_gbm_reset_rejects_bad_rate_and_size(reset_rate, n_samples):
    with pytest.raises(ValueError):
        simulate_gbm_reset(0.2, 0.4, reset_rate, RngSpec(1), n_samples=n_samples)


# -- stationary forward equation, finite differences --------------------------

def test_grid_places_node_on_point():
    g = Grid1D.around_zero(3.7, 11.3, 2001)
    nodes = g.nodes()
    assert nodes.size == 2001
    k = int(np.argmin(np.abs(nodes)))
    assert abs(nodes[k]) < 1e-12


def test_bernoulli_series_branch_continuous():
    # B(z) = z / (e^z - 1) must cross z = 0 smoothly.
    for z in (1e-9, 1e-11, 0.0, -1e-11, -1e-9):
        assert _bernoulli(np.array([z]))[0] == pytest.approx(1.0 - z / 2.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_bernoulli_overflow_gives_its_zero_limit_without_warning():
    # expm1 overflows past z ~ 709.8; z / inf is already the limit B -> 0.
    assert _bernoulli(800.0) == 0.0


def test_fd_matches_closed_form():
    d = PiecewiseExpDensity.from_reset_law(drift=0.2465236032, vol=0.4, reset_rate=0.3)
    grid = Grid1D.around_zero(19.0 / d.rate_left, 19.0 / d.rate_right, 4001)
    numeric = solve_stationary_kfe_fd(0.2465236032, 0.4, 0.3, grid)
    assert np.max(np.abs(numeric - d.pdf(grid.nodes()))) < 1e-3
    assert np.trapezoid(numeric, grid.nodes()) == pytest.approx(1.0, abs=1e-10)


def test_fd_second_order_convergence():
    d = PiecewiseExpDensity.from_reset_law(drift=0.3, vol=0.5, reset_rate=0.4)
    errors = []
    for n in (1001, 2001, 4001):
        grid = Grid1D.around_zero(19.0 / d.rate_left, 19.0 / d.rate_right, n)
        numeric = solve_stationary_kfe_fd(0.3, 0.5, 0.4, grid)
        errors.append(np.max(np.abs(numeric - d.pdf(grid.nodes()))))
    # halving h must cut the error by at least ~2x; second order gives ~4x
    assert errors[0] / errors[1] > 1.8
    assert errors[1] / errors[2] > 1.8


def test_fd_validation():
    grid = Grid1D(-5.0, 5.0, 201)
    with pytest.raises(DegenerateModelError, match="zero volatility: the stationary equation"):
        solve_stationary_kfe_fd(0.1, 0.0, 0.3, grid)
    with pytest.raises(ValueError):
        solve_stationary_kfe_fd(0.1, 0.4, -0.3, grid)
    with pytest.raises(ValueError):
        solve_stationary_kfe_fd(0.1, 0.4, 0.3, Grid1D(1.0, 5.0, 201))


def _sparse_direct_solve(sub, diag, sup, source_idx, source, n):
    # The whole matrix, with its Dirichlet rows, and the one-spike right-hand side.
    lower, main, upper = np.full(n - 1, sub), np.full(n, diag), np.full(n - 1, sup)
    main[0] = main[-1] = 1.0
    upper[0] = lower[-1] = 0.0
    rhs = np.zeros(n)
    rhs[source_idx] = source
    matrix = sp.diags([lower, main, upper], offsets=[-1, 0, 1], format="csc")
    return spla.spsolve(matrix, rhs)


def test_thomas_sweep_matches_sparse_direct_solve(monkeypatch):
    # The same discretization, solved by the Thomas sweep and by a sparse LU,
    # on the twelve benchmark laws and the default configured law.
    laws = [drift_diffusion(params) for _, params in benchmark_combos()]
    laws.append(drift_diffusion(default_config().wealth_params()))

    def solve_all():
        return [solve_stationary_kfe_fd(law.mu, abs(law.sigma_x), law.reset_rate,
                                        fd_grid_for(law, 4001)) for law in laws]

    thomas = solve_all()
    monkeypatch.setattr(kfe, "_solve_tridiagonal", _sparse_direct_solve)
    for swept, reference in zip(thomas, solve_all()):
        assert np.max(np.abs(swept - reference)) <= 1e-10 * np.max(reference)


def _bit_lock_cases():
    """(law, grid) pairs: the 13 validate laws on their own grids, then 120
    seeded random laws, each on its own grid and on a random one whose source
    node is clamped or off-centre."""
    laws = [drift_diffusion(params) for _, params in benchmark_combos()]
    laws.append(drift_diffusion(default_config().wealth_params()))
    gen = np.random.default_rng(20261020)
    random_laws = [ResetLaw(mu=float(gen.uniform(-3.0, 3.0)),
                            sigma_x=float(gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-1.7, 0.5)),
                            reset_rate=float(10.0 ** gen.uniform(-2.0, 0.7))) for _ in range(120)]
    for n in (5, 401, 4001):
        yield from ((law, fd_grid_for(law, n)) for law in laws + random_laws)
        for law in random_laws:
            left, right = 10.0 ** gen.uniform(-1.0, 2.0, size=2)
            yield law, Grid1D(-float(left), float(right), n)


def test_fd_solve_is_bit_identical_to_the_array_assembled_system():
    # The solver passes the interior coefficients and the source as scalars;
    # the reference assembles every row, Dirichlet rows included, as arrays.
    for law, grid in _bit_lock_cases():
        args = (law.mu, abs(law.sigma_x), law.reset_rate, grid)
        solved, reference = solve_stationary_kfe_fd(*args), array_assembled_kfe_fd(*args)
        assert np.array_equal(solved, reference), (law, grid)
        assert np.array_equal(np.signbit(solved), np.signbit(reference)), (law, grid)
