"""Sampled matrix paths: curved conjugations, flat interpolations, concatenation.

Paths are sampled maps [0,1] -> M_n stored as (times, samples).  The default
sample count is 65 so that concatenation junctions land on existing samples.
``concat`` joins any number of paths into one preallocated read-only stack,
with the times of the left fold of binary concatenations.
Verification is report-only: each constraint yields the maximum of its
residual norm over the samples, the first time it is attained, and a
pass/fail against the supplied bound.  Residuals are formed a block of
samples at a time, each block at most SAMPLE_BLOCK samples and
SAMPLE_BLOCK_BYTES of complex residual, and ``linalg.max_operator_norm``
runs the SVD only on the samples whose norm bound still reaches the running
maximum, so the reported maxima are the per-sample SVD's to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import (
    as_square,
    default_tol,
    frozen,
    hermitian_part,
    max_operator_norm,
    operator_norm,
)
from .minpoly import PolyC, poly_eval_matrix

DEFAULT_SAMPLES = 65
# Residuals are evaluated on stacks of at most SAMPLE_BLOCK samples and
# SAMPLE_BLOCK_BYTES of complex entries, one batched matmul and SVD call per
# block.  Whole-path stacks cost too much memory: at n = 64 the normality
# residual alone holds three 65x64x64 complex temporaries (12.2 MiB).  Up to
# n = 128 a block holds SAMPLE_BLOCK samples; at n = 256 it holds 4.
SAMPLE_BLOCK = 16
SAMPLE_BLOCK_BYTES = 4 << 20


def sample_blocks(count: int, n: int) -> list[slice]:
    """Slices that walk ``count`` samples of n x n residuals in bounded blocks."""
    size = max(1, min(SAMPLE_BLOCK, SAMPLE_BLOCK_BYTES // (16 * n * n)))
    return [slice(i, i + size) for i in range(0, count, size)]


class PathError(ValueError):
    pass


def _check_times(t: np.ndarray):
    if not (np.all(np.diff(t) > 0) and t[0] == 0.0 and t[-1] == 1.0):
        raise PathError("times must increase strictly from 0 to 1")


@dataclass(frozen=True)
class MatrixPath:
    times: np.ndarray  # (s,), increasing, t[0] = 0, t[-1] = 1
    samples: np.ndarray  # (s, n, n)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.samples, dtype=complex)
        if t.ndim != 1 or len(t) < 2:
            raise PathError("a path needs at least two samples")
        if s.shape != (len(t), s.shape[1], s.shape[1]):
            raise PathError(f"samples shaped {s.shape} do not match {len(t)} times")
        _check_times(t)
        if not np.isfinite(s).all():
            raise PathError("samples have non-finite entries")
        object.__setattr__(self, "times", frozen(t))
        # a read-only array that owns its data (what the path functions below
        # hand over) is adopted as is: nobody can write to it, and a second copy
        # of a whole sample stack would raise peak memory for nothing
        if s.flags.writeable or not s.flags.owndata:
            s = frozen(s)
        object.__setattr__(self, "samples", s)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def start(self) -> np.ndarray:
        return self.samples[0]

    @property
    def end(self) -> np.ndarray:
        return self.samples[-1]


def _timegrid(n_samples: int) -> np.ndarray:
    if n_samples < 2:
        raise PathError("n_samples must be >= 2")
    return np.linspace(0.0, 1.0, n_samples)


def curved_path(h, d, n_samples: int = DEFAULT_SAMPLES) -> MatrixPath:
    """Conjugation path t -> exp(i*pi*t*H) D exp(-i*pi*t*H), H hermitian to default_tol(n)."""
    h = as_square(h)
    d = as_square(d)
    if h.shape != d.shape:
        raise PathError("generator and matrix dimensions disagree")
    if operator_norm(h - h.conj().T) > default_tol(h.shape[0]):
        raise PathError("curved path generator must be hermitian")
    w, q = np.linalg.eigh(hermitian_part(h))
    times = _timegrid(n_samples)
    samples = np.empty((n_samples, *d.shape), dtype=complex)
    for i, t in enumerate(times):
        u = (q * np.exp(1j * np.pi * t * w)) @ q.conj().T
        samples[i] = u @ d @ u.conj().T
    samples.flags.writeable = False
    return MatrixPath(times, samples)


def flat_path(x, y, n_samples: int = DEFAULT_SAMPLES) -> MatrixPath:
    """Linear interpolation t -> (1-t) X + t Y."""
    x = as_square(x)
    y = as_square(y)
    if x.shape != y.shape:
        raise PathError("endpoint dimensions disagree")
    times = _timegrid(n_samples)
    samples = np.empty((n_samples, *x.shape), dtype=complex)
    for i, t in enumerate(times):
        samples[i] = (1.0 - t) * x + t * y
    samples.flags.writeable = False
    return MatrixPath(times, samples)


def concat(p: MatrixPath, q: MatrixPath, *more: MatrixPath) -> MatrixPath:
    """Concatenation: p traversed on [0, 1/2], q on [1/2, 1].

    Endpoints must match within default_tol(n); each junction keeps the
    earlier path's final sample.  Further paths fold from the left:
    concat(a, b, c) is concat(concat(a, b), c) bit for bit, with the same
    times, samples, junction checks and errors in the same order, so a runs
    on [0, 1/4], b on [1/4, 1/2] and c on [1/2, 1].  The samples are written
    once into a single read-only stack, with no intermediate path.
    """
    parts = (p, q, *more)
    times = p.times
    for left, right in zip(parts, parts[1:]):
        if p.dim != right.dim:
            raise PathError("path dimensions disagree")
        tol = default_tol(p.dim)
        mismatch = operator_norm(left.end - right.start)
        if mismatch > tol:
            raise PathError(f"junction mismatch {mismatch:.3e} exceeds tolerance {tol:.3e}")
        times = np.concatenate([times / 2.0, 0.5 + right.times[1:] / 2.0])
        _check_times(times)
    samples = np.concatenate([p.samples, *(right.samples[1:] for right in parts[1:])])
    samples.flags.writeable = False
    return MatrixPath(times, samples)


def path_length(p: MatrixPath) -> float:
    """Polygonal length in operator norm (a lower bound of the true length)."""
    return float(sum(operator_norm(p.samples[i + 1] - p.samples[i])
                     for i in range(p.n_samples - 1)))


@dataclass(frozen=True)
class CommutationConstraint:
    """Commutator residual against another path (samplewise) or a fixed matrix."""

    partner: Union[MatrixPath, np.ndarray]
    bound: float
    label: str = "commutation"


@dataclass(frozen=True)
class PolynomialConstraint:
    poly: PolyC
    bound: float
    label: str = "polynomial"


@dataclass(frozen=True)
class NormalityConstraint:
    bound: float
    label: str = "normality"


@dataclass(frozen=True)
class TargetDistanceConstraint:
    target: np.ndarray
    bound: float
    label: str = "distance-to-target"


Constraint = Union[
    CommutationConstraint, PolynomialConstraint, NormalityConstraint, TargetDistanceConstraint
]


@dataclass(frozen=True)
class ConstraintResult:
    label: str
    max_residual: float
    bound: float
    passed: bool
    worst_t: float


@dataclass(frozen=True)
class PathReport:
    entries: tuple[ConstraintResult, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def max_residual(self, label: str) -> float:
        vals = [e.max_residual for e in self.entries if e.label == label]
        if not vals:
            raise KeyError(label)
        return max(vals)


def _residual_blocks(p: MatrixPath, c: Constraint):
    """Residual stacks of one constraint along a path, one block of samples at a time."""
    if isinstance(c, CommutationConstraint) and isinstance(c.partner, MatrixPath):
        if c.partner.samples.shape != p.samples.shape or np.any(c.partner.times != p.times):
            raise PathError("partner path must share the sample grid and dimension")
        other = c.partner.samples
    elif isinstance(c, (CommutationConstraint, TargetDistanceConstraint)):
        other = as_square(c.partner if isinstance(c, CommutationConstraint) else c.target)
        if other.shape != p.start.shape:
            raise PathError(f"a {other.shape} matrix does not match samples of size {p.dim}")
        other = np.broadcast_to(other, p.samples.shape)  # a view, not a copy
    elif not isinstance(c, (NormalityConstraint, PolynomialConstraint)):
        raise PathError(f"unknown constraint {c!r}")
    for b in sample_blocks(p.n_samples, p.dim):
        s = p.samples[b]
        if isinstance(c, CommutationConstraint):
            yield s @ other[b] - other[b] @ s
        elif isinstance(c, TargetDistanceConstraint):
            yield s - other[b]
        elif isinstance(c, NormalityConstraint):
            h = s.conj().transpose(0, 2, 1)
            yield s @ h - h @ s
        else:
            yield poly_eval_matrix(c.poly, s)


def verify_path(p: MatrixPath, constraints) -> PathReport:
    """Maximum over the samples of each constraint residual, checked against its bound.

    ``worst_t`` is the first sample time where the maximum is attained.  The
    maxima come from ``max_operator_norm``, which decomposes only the samples
    whose residual can still be the largest.
    """
    entries = []
    for c in constraints:
        worst, i = max_operator_norm(_residual_blocks(p, c))
        entries.append(ConstraintResult(
            label=c.label,
            max_residual=worst,
            bound=float(c.bound),
            passed=bool(worst <= c.bound),
            worst_t=float(p.times[i]),
        ))
    return PathReport(tuple(entries))


def spectrum_drift(p: MatrixPath) -> float:
    """Largest matched deviation of sample eigenvalues from those at t=0.

    Eigenvalue multisets are matched by minimal-cost assignment, so the
    value is permutation-insensitive.
    """
    from scipy.optimize import linear_sum_assignment

    ref = np.linalg.eigvals(p.samples[0])
    worst = 0.0
    for i in range(1, p.n_samples):
        cur = np.linalg.eigvals(p.samples[i])
        cost = np.abs(ref[:, None] - cur[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    return worst
