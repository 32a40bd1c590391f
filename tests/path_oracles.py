"""Oracles that the tests check matrix paths against."""

import numpy as np
from scipy.optimize import linear_sum_assignment


def spectrum_drift(p) -> float:
    """Largest matched deviation of a path's sample eigenvalues from those at t=0.

    Eigenvalue multisets are matched by minimal-cost assignment, so the
    value is permutation-insensitive.  The samples are formed once.
    """
    samples = p.samples
    ref = np.linalg.eigvals(samples[0])
    worst = 0.0
    for s in samples[1:]:
        cost = np.abs(ref[:, None] - np.linalg.eigvals(s)[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    return worst
