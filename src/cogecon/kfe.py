"""Finite-difference solver for the stationary forward equation with resets.

Solves  0 = -mu p'(x) + (sigma^2/2) p''(x) - beta p(x) + beta delta(x)
on a uniform grid with zero boundary values.  The advection term is handled
with exponentially fitted upwinding (Scharfetter-Gummel fluxes), which
reduces to central differencing for small cell Peclet numbers and to plain
upwinding for large ones, so the scheme stays monotone without the first-order
smearing a hard upwind switch would add.  The Dirac source is assigned to the
nearest grid node with mass beta / h.

The discrete system is tridiagonal, so it is solved by one Thomas sweep
(forward elimination, then back substitution) in O(n).  Both fitting
factors are positive, so the off-diagonals are negative and each interior
row's diagonal exceeds the sum of their magnitudes by beta > 0.  A strictly
diagonally dominant matrix needs no pivoting: every pivot of the sweep stays
positive, and each eliminated super-diagonal entry stays below one in
magnitude, so rounding errors do not grow along the sweep.

This solver is one of the independent cross-checks for the closed-form
two-sided exponential densities; it shares no algebra with them.
"""

from __future__ import annotations

from .errors import DegenerateModelError
from .records import record


@record
class Grid1D:
    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        import numpy as np

        return np.linspace(self.x_min, self.x_max, self.n_points)

    @classmethod
    def around_point(cls, point: float, left_width: float, right_width: float,
                     n_points: int) -> "Grid1D":
        """Grid spanning [point - left_width, point + right_width] with a node on point.

        The left edge is nudged by less than one cell so the point lands
        exactly on a node; that keeps the Dirac source from being displaced
        by up to half a cell.
        """
        if left_width <= 0.0 or right_width <= 0.0:
            raise ValueError("widths must be positive")
        h = (left_width + right_width) / (n_points - 1)
        k = max(1, min(n_points - 2, round(left_width / h)))
        x_min = point - k * h
        return cls(x_min=x_min, x_max=x_min + (n_points - 1) * h, n_points=n_points)


def _bernoulli(z: float) -> float:
    """B(z) = z / (e^z - 1), the fitting factor of the Scharfetter-Gummel flux."""
    import numpy as np

    if abs(z) < 1e-10:
        return 1.0 - 0.5 * z
    # Above z ~ 709.8 expm1 overflows to inf, and z / inf = 0.0 is the limit.
    with np.errstate(over="ignore"):
        return z / np.expm1(z)


def _solve_tridiagonal(sub: float, diag: float, sup: float, source_idx: int, source: float,
                       n: int) -> np.ndarray:
    """Thomas sweep for n nodes: zero at both ends, and on interior row i
    sub x[i-1] + diag x[i] + sup x[i+1] = source if i == source_idx, else 0.

    No pivoting: the rows are strictly diagonally dominant.  The loop runs on
    Python floats, which is as fast as a sparse direct solve at a few thousand
    nodes and needs no linear-algebra library.
    """
    import numpy as np

    ratio = [0.0] * n  # eliminated super-diagonal, sup / pivot_i
    x = [0.0] * n  # the right-hand side, then the solution
    x[source_idx] = source
    for i in range(1, n - 1):
        pivot = diag - sub * ratio[i - 1]
        ratio[i] = sup / pivot
        x[i] = (x[i] - sub * x[i - 1]) / pivot
    for i in range(n - 2, 0, -1):
        x[i] -= ratio[i] * x[i + 1]
    return np.array(x)


def solve_stationary_kfe_fd(drift: float, sigma: float, reset_rate: float,
                            grid: Grid1D) -> np.ndarray:
    """Stationary density of the process reset to x = 0, on the grid nodes.

    sigma is the volatility of the log state: it enters the equation as the
    diffusion coefficient sigma^2 / 2.  The returned vector is normalized to
    integrate to one by the trapezoid rule.
    """
    import numpy as np

    if sigma == 0.0:
        raise DegenerateModelError("zero volatility: the stationary equation loses its diffusion term")
    if reset_rate <= 0.0:
        raise ValueError(f"reset_rate must be positive, got {reset_rate}")
    if not grid.x_min < 0.0 < grid.x_max:
        raise ValueError("the reset point 0 must lie strictly inside the grid")

    n = grid.n_points
    h = float(grid.h)
    diff = 0.5 * float(sigma) ** 2

    # Flux between nodes i and i+1:
    #   F = (diff / h) * (B(-nu) p_i - B(nu) p_{i+1}),  nu = mu h / diff,
    # and the balance at node i reads (F_{i+1/2} - F_{i-1/2})/h + beta p_i = source_i.
    nu = float(drift) * h / diff
    b_minus = float(_bernoulli(-nu))
    b_plus = float(_bernoulli(nu))
    coeff = diff / h**2

    source_idx = min(max(int(round(-grid.x_min / h)), 1), n - 2)
    density = _solve_tridiagonal(-coeff * b_minus, float(coeff * (b_minus + b_plus) + reset_rate),
                                 -coeff * b_plus, source_idx, float(reset_rate / h), n)
    if not np.all(np.isfinite(density)):
        raise DegenerateModelError("stationary system produced non-finite values (singular discretization)")

    total = np.trapezoid(density, dx=h)
    if total <= 0.0:
        raise DegenerateModelError("discrete density has nonpositive mass; grid is unusable")
    return density / total
