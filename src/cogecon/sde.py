"""Path simulators: Ornstein-Uhlenbeck reflected into [0, 1], Brownian motion with resets.

Both are Monte Carlo counterparts to closed-form results elsewhere in the
package and are written to stay independent of those formulas: the reflected
OU uses Euler-Maruyama stepping with fold-back reflection, drawing each step's
normals as it takes the step, in stream order on the calling thread; the reset
process is sampled from its stationary law exactly, in two draws per path.
Poisson gaps are memoryless, so the time back to the last reset is
Exp(reset_rate); since then the state is arithmetic Brownian motion, whose
exact Gaussian transition needs no discretization.
"""

from __future__ import annotations

import math

from .errors import DegenerateModelError
from .records import record
from .rng import RngSpec

# Normals per chunk of the reset sampler's scratch buffers, and most sorted
# samples per batch of validate's pruned KS: 512 KiB per array, small enough
# to stay in cache, large enough that the per-chunk Python overhead is noise.
CHUNK = 1 << 16

# Reversion per Euler step of the default step size.
REVERSION_PER_STEP = 1e-3


@record
class OuProcessSpec:
    """Mean-reverting process reflected into [0, 1].

    dX = reversion * (mean - X) dt + volatility dW, folded back whenever a step
    oversteps [0, 1].  start defaults to the long-run mean when omitted.
    """

    mean: float
    reversion: float
    volatility: float
    horizon: float
    dt: float | None = None
    start: float | None = None

    def __post_init__(self) -> None:
        if self.reversion <= 0.0:
            raise ValueError(f"reversion must be positive, got {self.reversion}")
        if self.volatility < 0.0:
            raise ValueError(f"volatility must be nonnegative, got {self.volatility}")
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie inside the reflection bounds")
        if self.start is not None and not 0.0 <= self.start <= 1.0:
            raise ValueError("start must lie inside the reflection bounds")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    def step_size(self) -> float:
        """Default step keeps reversion-per-step at REVERSION_PER_STEP."""
        return self.dt if self.dt is not None else REVERSION_PER_STEP / self.reversion


def simulate_ou_reflected(spec: OuProcessSpec, rng: RngSpec,
                          n_paths: int, record_times) -> np.ndarray:
    """Euler-Maruyama paths of the reflected OU process.

    Returns an array of shape (n_paths, len(record_times)) with the state of
    every path at each requested time.  Reflection folds an overshoot back
    into [0, 1] symmetrically (repeatedly if the step is violent), which
    keeps every recorded value inside [0, 1] exactly.
    """
    import numpy as np

    if n_paths <= 0:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    record_times = sorted(float(t) for t in record_times)
    if not record_times:
        raise ValueError("record_times must be nonempty")
    if record_times[0] < 0.0 or record_times[-1] > spec.horizon:
        raise ValueError("record_times must lie inside [0, horizon]")

    # Each step draws its normals into a reused buffer and scales them there,
    # so stepping allocates nothing.  The last step may be shorter than dt.
    dt, end = spec.step_size(), record_times[-1]
    gen = rng.generator()
    x = np.full(n_paths, spec.mean if spec.start is None else spec.start, dtype=float)
    out = np.empty((n_paths, len(record_times)), dtype=float)
    shocks = np.empty(n_paths)
    tmp = np.empty(n_paths)

    next_record = 0
    while next_record < len(record_times) and record_times[next_record] <= 0.0:
        out[:, next_record] = x
        next_record += 1

    t = 0.0
    for _ in range(math.ceil(end / dt)):
        step = min(dt, end - t)
        if step <= 0.0:
            break
        t += step
        gen.standard_normal(out=shocks)
        shocks *= spec.volatility * math.sqrt(step)
        # x + (reversion*(mean - x))*step + (volatility*sqrt(step))*shocks,
        # in place: each product and sum is the formula's own, at most
        # with its operands swapped, so the bits are the formula's.
        np.subtract(spec.mean, x, out=tmp)
        tmp *= spec.reversion
        tmp *= step
        x += tmp
        x += shocks
        # Fold back into [0, 1] as min(y, 2 - y) with y = x mod 2; the
        # modular form resolves any number of bounces in one shot.
        # np.mod's remainder is fmod's (which is exact, and x itself
        # where |x| < 2, so fmod runs only after an overshoot of 2 or
        # more), plus 2 where that is negative, and +0 where it is zero.
        # Adding 2 where x < 0 and +0.0 elsewhere also turns fmod's -0
        # into +0, so x has np.mod's bits.
        np.abs(x, out=tmp)
        if tmp.max() >= 2.0:
            np.fmod(x, 2.0, out=x)
        np.add(x, np.where(x < 0.0, 2.0, 0.0), out=x)
        np.subtract(2.0, x, out=tmp)
        np.minimum(x, tmp, out=x)
        while next_record < len(record_times) and record_times[next_record] <= t + 1e-12:
            out[:, next_record] = x
            next_record += 1
    while next_record < len(record_times):  # pragma: no cover - guard for fp drift
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
    import numpy as np

    if volatility == 0.0:
        raise DegenerateModelError("zero volatility: reset process collapses onto the drift line")
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
    size = min(n_samples, CHUNK)
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
