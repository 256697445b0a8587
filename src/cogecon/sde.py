"""Path simulators: reflected Ornstein-Uhlenbeck and Brownian motion with resets.

Both are Monte Carlo counterparts to closed-form results elsewhere in the
package and are written to stay independent of those formulas: the reflected
OU uses Euler-Maruyama stepping with fold-back reflection, and the reset
process is sampled from its stationary law exactly, in two draws per path.
Poisson gaps are memoryless, so the time back to the last reset is
Exp(reset_rate); since then the state is arithmetic Brownian motion, whose
exact Gaussian transition needs no discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDiffusionError
from .rng import RngSpec

# Normals per chunk of the reset sampler: 512 KiB of scratch, small enough to
# stay in cache, large enough that the per-chunk Python overhead is noise.
_GBM_RESET_CHUNK = 1 << 16


@dataclass(frozen=True)
class OuProcessSpec:
    """Mean-reverting process reflected into [lower_bound, upper_bound].

    dX = reversion * (mean - X) dt + volatility dW, folded back into the
    bounds whenever a step oversteps them.  start defaults to the long-run
    mean when omitted.
    """

    mean: float
    reversion: float
    volatility: float
    lower_bound: float
    upper_bound: float
    dt: float | None = None
    horizon: float = 50.0
    start: float | None = None

    def __post_init__(self) -> None:
        if self.reversion <= 0.0:
            raise ValueError(f"reversion must be positive, got {self.reversion}")
        if self.volatility < 0.0:
            raise ValueError(f"volatility must be nonnegative, got {self.volatility}")
        if not self.lower_bound < self.upper_bound:
            raise ValueError("lower_bound must be below upper_bound")
        if not self.lower_bound <= self.mean <= self.upper_bound:
            raise ValueError("mean must lie inside the reflection bounds")
        if self.start is not None and not self.lower_bound <= self.start <= self.upper_bound:
            raise ValueError("start must lie inside the reflection bounds")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def step_size(self) -> float:
        """Default step keeps reversion-per-step at 1e-3."""
        return self.dt if self.dt is not None else 1e-3 / self.reversion


def simulate_ou_reflected(spec: OuProcessSpec, rng: RngSpec,
                          n_paths: int, record_times) -> np.ndarray:
    """Euler-Maruyama paths of the reflected OU process.

    Returns an array of shape (n_paths, len(record_times)) with the state of
    every path at each requested time.  Reflection folds an overshoot back
    into the interval symmetrically (repeatedly if the step is violent), which
    keeps every recorded value inside [lower_bound, upper_bound] exactly.
    """
    if n_paths <= 0:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    record_times = np.asarray(sorted(record_times), dtype=float)
    if record_times.size == 0:
        raise ValueError("record_times must be nonempty")
    if record_times[0] < 0.0 or record_times[-1] > spec.horizon:
        raise ValueError("record_times must lie inside [0, horizon]")

    dt = spec.step_size()
    gen = rng.generator()

    x = np.full(n_paths, spec.mean if spec.start is None else spec.start, dtype=float)
    out = np.empty((n_paths, record_times.size), dtype=float)

    lo, hi = spec.lower_bound, spec.upper_bound
    period = 2.0 * (hi - lo)
    # One step's scratch, reused so that stepping allocates nothing.
    shocks = np.empty(n_paths)
    y = np.empty(n_paths)
    tmp = np.empty(n_paths)
    negative = np.empty(n_paths, dtype=bool)

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
        gen.standard_normal(out=shocks)
        # x + (reversion*(mean - x))*step + (volatility*sqrt(step))*shocks,
        # in place: each product and sum is the formula's own, at most with
        # its operands swapped, so the bits are the formula's.
        np.subtract(spec.mean, x, out=tmp)
        tmp *= spec.reversion
        tmp *= step
        x += tmp
        shocks *= spec.volatility * math.sqrt(step)
        x += shocks
        # Fold back into [lo, hi] as lo + min(y, period - y) with
        # y = (x - lo) mod period; the modular form resolves any number of
        # bounces in one shot.  For period > 0, np.mod's remainder is fmod's
        # (which is exact), plus period where that is negative, and +0 where
        # it is zero.  Adding period*[y < 0] does both at once: where y >= 0
        # it adds 0.0, which changes no value but turns -0 into +0.  So y has
        # np.mod's bits without its full floor-divmod.
        np.subtract(x, lo, out=y)
        np.fmod(y, period, out=y)
        np.less(y, 0.0, out=negative)
        np.multiply(negative, period, out=tmp)
        y += tmp
        np.subtract(period, y, out=tmp)
        np.minimum(y, tmp, out=x)
        x += lo
        t += step
        while next_record < record_times.size and record_times[next_record] <= t + 1e-12:
            out[:, next_record] = x
            next_record += 1
    while next_record < record_times.size:  # pragma: no cover - guard for fp drift
        out[:, next_record] = x
        next_record += 1
    return out


def simulate_gbm_reset(drift: float, volatility: float, reset_rate: float,
                       rng: RngSpec, n_samples: int) -> np.ndarray:
    """Draws from the stationary law of the log state, one per path.

    Between resets d(log X) = drift dt + volatility dW; at the ticks of a
    Poisson clock of rate reset_rate the log state jumps back to 0.  Looking
    back from any time in the stationary regime, the gaps of that clock are
    memoryless, so the age since the last reset is Exp(reset_rate) exactly.
    Over that age the state advances by the exact Brownian transition.
    """
    if volatility == 0.0:
        raise DegenerateDiffusionError("zero volatility: reset process collapses onto the drift line")
    if reset_rate <= 0.0:
        raise ValueError(f"reset_rate must be positive, got {reset_rate}")
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    gen = rng.generator()
    age = gen.exponential(1.0 / reset_rate, size=n_samples)
    # The normals come in chunks through two reused scratch buffers: a Philox
    # stream drawn in pieces is the same stream, so the samples are those of
    # one whole draw, and no second n-element array is held.  Each chunk takes
    # drift*age + volatility*sqrt(age)*shocks in the formula's operation order.
    size = min(n_samples, _GBM_RESET_CHUNK)
    shocks, step = np.empty(size), np.empty(size)
    for start in range(0, n_samples, size):
        a = age[start:start + size]
        z, s = shocks[:a.size], step[:a.size]
        gen.standard_normal(out=z)
        np.sqrt(a, out=s)
        s *= volatility
        s *= z
        a *= drift
        a += s
    return age
