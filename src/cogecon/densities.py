"""Two-sided exponential stationary densities.

A drift-diffusion in log space that is reset to a fixed point at a constant
Poisson rate settles into a piecewise exponential stationary law: one decay
rate to the left of the reset point, another to the right.  Both the
cognitive-resource process and the wealth process land on this family, with
different coefficient maps feeding the same algebra.
"""

from __future__ import annotations

import math
from dataclasses import field

from .errors import DegenerateDiffusionError
from .records import record


@record
class PiecewiseExpDensity:
    """p(x) = K exp(rate_left * x) for x < 0, K exp(-rate_right * x) for x >= 0.

    The support is centered on the reset point (x = 0 in these coordinates).
    norm_K = (1/rate_left + 1/rate_right)^-1 follows from the rates and is
    derived once at construction.
    """

    rate_left: float
    rate_right: float
    norm_K: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.rate_left > 0.0 and self.rate_right > 0.0):
            raise ValueError(
                f"decay rates must be positive, got left={self.rate_left}, right={self.rate_right}")
        _set_norm_K(self, 1.0 / (1.0 / self.rate_left + 1.0 / self.rate_right))

    @classmethod
    def from_reset_law(cls, drift: float, vol: float, reset_rate: float) -> "PiecewiseExpDensity":
        """Stationary density of dx = drift dt + vol dW with Poisson(reset_rate) resets to 0.

        Only vol**2 enters, so the sign of vol is irrelevant; vol = 0 has no
        stationary density in this family and raises.
        """
        if vol == 0.0:
            raise DegenerateDiffusionError("zero diffusion: stationary law degenerates to a point mass")
        if reset_rate <= 0.0:
            raise ValueError(f"reset_rate must be positive, got {reset_rate}")
        v2 = float(vol) * float(vol)
        s = math.sqrt(drift * drift + 2.0 * reset_rate * v2)
        rate_left = (s + drift) / v2
        rate_right = (s - drift) / v2
        return cls(rate_left, rate_right)

    # -- pointwise evaluation -------------------------------------------------

    def pdf(self, x):
        # Imported here: `import cogecon` and the scalar wealth chain skip
        # numpy's import, the larger part of their start-up.
        import numpy as np

        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0,
                       self.norm_K * np.exp(self.rate_left * np.minimum(x, 0.0)),
                       self.norm_K * np.exp(-self.rate_right * np.maximum(x, 0.0)))
        return out if out.ndim else float(out)

    def cdf(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        left_mass = self.norm_K / self.rate_left
        right_mass = self.norm_K / self.rate_right
        out = np.where(
            x < 0.0,
            left_mass * np.exp(self.rate_left * np.minimum(x, 0.0)),
            left_mass + right_mass * (1.0 - np.exp(-self.rate_right * np.maximum(x, 0.0))))
        return out if out.ndim else float(out)

    # -- moments ---------------------------------------------------------------

    def mean(self) -> float:
        return self.norm_K * (1.0 / self.rate_right**2 - 1.0 / self.rate_left**2)

    def second_moment(self) -> float:
        return 2.0 * self.norm_K * (1.0 / self.rate_right**3 + 1.0 / self.rate_left**3)

    def var(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def exp_moment(self) -> float | None:
        """E[exp(x)] (level-space mean when x is a log state).

        Finite only when the right tail decays faster than exp(-x); returns
        None when rate_right <= 1 so callers can flag a heavy tail instead of
        reporting a spurious number.
        """
        if self.rate_right <= 1.0:
            return None
        return self.norm_K * (1.0 / (self.rate_left + 1.0) + 1.0 / (self.rate_right - 1.0))


# The frozen record refuses setattr; the derived field is stored through its slot.
_set_norm_K = PiecewiseExpDensity.norm_K.__set__
