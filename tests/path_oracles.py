"""Oracles that the tests check matrix paths against."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from matword.linalg import as_square, hermitian_part, operator_norm
from matword.paths import MatrixPath


def phase_exp(h) -> np.ndarray:
    """exp(i * pi * H) for hermitian H, via eigendecomposition; unitary up to rounding."""
    h = hermitian_part(as_square(h))
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * np.pi * w)) @ q.conj().T


def path_length(p: MatrixPath) -> float:
    """Polygonal length in operator norm (a lower bound of the true length)."""
    s = p.samples
    return float(sum(operator_norm(s[i + 1] - s[i]) for i in range(p.n_samples - 1)))


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
