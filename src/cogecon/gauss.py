"""Gaussian tail helpers of the tax model, their only user.

scipy.special is imported on first use, not with the module: only the tax
model needs these tails, and importing it takes longer than importing the
rest of the package, a cost every other command would pay at start-up.
"""

from __future__ import annotations

import numpy as np


def normal_sf(x):
    """Standard normal survival function 1 - Phi(x) without cancellation."""
    from scipy.special import ndtr

    return ndtr(-np.asarray(x, dtype=float))


def normal_log_sf(x):
    """log(1 - Phi(x)), finite far beyond where the survival value underflows."""
    from scipy.special import log_ndtr

    return log_ndtr(-np.asarray(x, dtype=float))


def normal_hazard(x):
    """Hazard rate phi(x) / (1 - Phi(x)) of the standard normal.

    Evaluated in log space so it stays finite and monotone for arguments of
    either sign out to hundreds of standard deviations.
    """
    x = np.asarray(x, dtype=float)
    log_pdf = -0.5 * x * x - 0.5 * np.log(2.0 * np.pi)
    return np.exp(log_pdf - normal_log_sf(x))
