"""Information-entropy valuation of data sources and ensembles.

A source's value is scored from its differential entropy relative to a
reference cap: zero entropy scores +1, the cap scores -1.  Pairwise synergy
and antagonism couplings shift the ensemble aggregate, and a batch of
aggregates is squashed into a unit-interval index.
"""

from __future__ import annotations

import math
import warnings

from .records import record


@record
class SourceDist:
    """One data source's distribution, described just well enough to score it.

    kind "uniform" carries width epsilon and "gaussian" carries a variance.
    """

    kind: str
    width: float | None = None
    variance: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "uniform":
            if self.width is None or self.width <= 0.0:
                raise ValueError("uniform source needs a positive width")
        else:
            if self.variance is None or self.variance <= 0.0:
                raise ValueError("gaussian source needs a positive variance")

    @classmethod
    def uniform(cls, width: float) -> "SourceDist":
        return cls(kind="uniform", width=float(width))

    @classmethod
    def gaussian(cls, variance: float) -> "SourceDist":
        return cls(kind="gaussian", variance=float(variance))


def gaussian_entropy(variance: float) -> float:
    """Differential entropy of a normal with the given variance (no clamping)."""
    if variance <= 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def differential_entropy(d: SourceDist) -> float:
    """Differential entropy of a source, clamped below at zero.

    The clamp encodes the convention that a unit-width uniform (entropy 0) is
    the most informative source worth distinguishing; anything sharper scores
    the same.
    """
    if d.kind == "uniform":
        h = math.log(d.width)
    else:
        h = gaussian_entropy(d.variance)
    return max(h, 0.0)


def information_value(sigma_t: float, sigma_max: float) -> float:
    """Value score V = 1 - 2 sigma_t / sigma_max in [-1, 1].

    sigma_t above the cap is clamped to the cap with a warning: such a source
    is worth the minimum, not less.
    """
    if sigma_max <= 0.0:
        raise ValueError(f"sigma_max must be positive, got {sigma_max}")
    if sigma_t < 0.0:
        raise ValueError(f"sigma_t must be nonnegative, got {sigma_t}")
    if sigma_t > sigma_max:
        warnings.warn(
            f"entropy {sigma_t} exceeds the cap {sigma_max}; clamping to the cap",
            RuntimeWarning, stacklevel=2)
        sigma_t = sigma_max
    return 1.0 - 2.0 * sigma_t / sigma_max


def value_weight(v: float) -> float:
    """Map a value score from [-1, 1] to the interaction weight (v + 1) / 2."""
    return 0.5 * (v + 1.0)


@record
class InfoEnsemble:
    """A set of sources with pairwise couplings.

    synergy[(i, j)] and antagonism[(i, j)] hold the coefficients a_ij, b_ij
    for 0-based i < j; absent pairs contribute nothing.  j_coupling scales the
    whole interaction term, and sigma_max is the entropy cap shared by every
    source score.
    """

    sources: tuple[SourceDist, ...]
    sigma_max: float
    j_coupling: float
    synergy: dict
    antagonism: dict

    def __post_init__(self) -> None:
        _set_sources(self, tuple(self.sources))
        if len(self.sources) == 0:
            raise ValueError("ensemble needs at least one source")
        if self.sigma_max <= 0.0:
            raise ValueError(f"sigma_max must be positive, got {self.sigma_max}")
        if self.j_coupling < 0.0:
            raise ValueError(f"j_coupling must be nonnegative, got {self.j_coupling}")
        n = len(self.sources)
        for table_name in ("synergy", "antagonism"):
            for (i, j) in getattr(self, table_name):
                if not (0 <= i < j < n):
                    raise ValueError(f"{table_name} key ({i}, {j}) is not an ordered pair of source indices")

    def source_values(self) -> np.ndarray:
        import numpy as np

        return np.array([information_value(differential_entropy(s), self.sigma_max)
                         for s in self.sources])


# The frozen record refuses setattr; the sources tuple is stored through its slot.
_set_sources = InfoEnsemble.sources.__set__


def aggregate_data_value(e: InfoEnsemble, values=None) -> float:
    """Ensemble aggregate: mean source weight plus the normalized coupling sum.

    D = (1/n) sum phi_i + J * sum_{i<j} (a_ij - b_ij) phi_i phi_j / (n(n-1)/2).
    A single-source ensemble has no interaction term.  values defaults to e.source_values().
    """
    import numpy as np

    phis = value_weight(e.source_values() if values is None else np.asarray(values))
    n = phis.size
    base = float(np.mean(phis))
    if n == 1:
        return base
    pair_sum = 0.0
    for (i, j), a_ij in e.synergy.items():
        pair_sum += a_ij * phis[i] * phis[j]
    for (i, j), b_ij in e.antagonism.items():
        pair_sum -= b_ij * phis[i] * phis[j]
    n_pairs = n * (n - 1) / 2.0
    return base + e.j_coupling * pair_sum / n_pairs


def data_value_index(batch) -> float:
    """Squash a batch of aggregates into (0, 1): logistic of their sum."""
    import numpy as np

    batch = np.asarray(batch, dtype=float)
    if batch.size == 0:
        raise ValueError("batch must be nonempty")
    total = float(np.sum(batch))
    # Branch on sign to avoid overflow in exp for large |total|.
    if total >= 0.0:
        return 1.0 / (1.0 + math.exp(-total))
    z = math.exp(total)
    return z / (1.0 + z)
