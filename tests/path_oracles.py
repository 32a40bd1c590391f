"""Oracles that the tests check matrix paths against."""

from dataclasses import replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from matword import deformation, paths
from matword.linalg import as_square, hermitian_part, operator_norm
from matword.paths import CommutationConstraint, MatrixPath


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


def dense_maxima(ps, constraints, relation, samples=1025):
    """Each constraint's largest residual norm, and the relation's ("cube",
    "sphere" or None; -inf for None), over ``samples`` samples of every
    segment of the lined-up paths ``ps``, by the sampled walk."""
    best = [[-np.inf] * len(cons) for cons in constraints]
    worst = -np.inf
    stacks = None if relation is None else (
        lambda b, out: deformation._relation_stacks(b, relation, out))
    for i in range(len(ps[0]._pieces)):
        dense = []
        for q in ps:
            seg = q._pieces[i][0]
            if isinstance(seg, paths._Curved):
                dense.append(paths.curved_path((seg.w, seg.q), seg.d, samples))
            else:
                dense.append(paths.flat_path(seg.x, seg.y, samples))
        cons = [[replace(c, partner=dense[ps.index(c.partner)])
                 if isinstance(c, CommutationConstraint) and isinstance(c.partner, MatrixPath)
                 else c for c in row] for row in constraints]
        reports, w = paths.verify_paths(dense, cons, stacks)
        worst = max(worst, w)
        for row, rep in zip(best, reports):
            row[:] = [max(b, e.max_residual) for b, e in zip(row, rep.entries)]
    return best, worst
