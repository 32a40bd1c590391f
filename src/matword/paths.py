"""Sampled matrix paths: curved conjugations, flat interpolations, concatenation.

A path is a map [0,1] -> M_n sampled at strictly increasing times from 0 to
1.  The default sample count is 65 so that concatenation junctions land on
existing samples.  A path holds segments, not samples: a stored stack, a
curved conjugation (the eigh factors of its generator and the conjugated
matrix) or a flat interpolation (its two endpoints).  ``concat`` joins the
segments of any number of paths and copies no sample, with the times of the
left fold of binary concatenations.  Samples are formed on demand, a block
at a time, each by the per-sample expression of its segment, so a sample
has the same bits whichever block forms it; ``samples`` forms the whole
read-only stack on each access and does not keep it.  A segment keeps only
its two end samples once formed, which the junction checks, the next
segment's start and the endpoint checks read again.

Verification is report-only: each constraint yields the maximum of its
residual norm over the samples, the first time it is attained, and a
pass/fail against the supplied bound.  ``verify_paths`` walks a tuple of
paths once, in the fewest balanced blocks whose n x n complex stacks fit
SAMPLE_BLOCK_BYTES.  It forms each path's block once, into a buffer reused
from block to block, and feeds every constraint's residual to its own
``linalg.MaxOperatorNorm``, which runs the SVD only on the samples whose norm
bound still reaches the running maximum, so the reported maxima are the
per-sample SVD's to the bit whatever the blocks.  Memory does not grow with
the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import (
    MaxOperatorNorm,
    as_square,
    default_tol,
    frozen,
    hermitian_part,
    operator_norm,
)
from .minpoly import PolyC, poly_eval_matrix

DEFAULT_SAMPLES = 65
# Residuals are evaluated a block of samples at a time, one batched matmul and
# SVD call per block, and a block's n x n complex stack holds at most
# SAMPLE_BLOCK_BYTES.  A walk over m paths keeps m + 4 such stacks (a block
# per path, the residual and the norm bounds' three work stacks): 1.5 MiB for
# m = 2, which stays within a 2 MiB per-core L2 cache.  The budget gives
# blocks of 34 + 33 samples at n = 16, where a long block lets the running
# maximum skip more SVDs, 4 samples at n = 64 and 1 from n = 128 on, where
# memory matters more than batching.
SAMPLE_BLOCK_BYTES = 256 << 10


def sample_blocks(count: int, n: int) -> list[slice]:
    """Slices that walk ``count`` samples of n x n residuals in the fewest
    blocks of at most SAMPLE_BLOCK_BYTES (one sample when a sample is larger),
    whose lengths differ by at most one, longest first."""
    size = max(1, SAMPLE_BLOCK_BYTES // (16 * n * n))
    k = -(-count // size)
    short, extra = divmod(count, k)
    bounds = [i * short + min(i, extra) for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class PathError(ValueError):
    pass


def _check_times(t: np.ndarray):
    if not (np.all(np.diff(t) > 0) and t[0] == 0.0 and t[-1] == 1.0):
        raise PathError("times must increase strictly from 0 to 1")


class _Stored:
    """Samples kept as a read-only stack."""

    def __init__(self, samples: np.ndarray):
        self.samples = samples

    def __len__(self):
        return len(self.samples)

    def form(self, lo: int, hi: int, out: np.ndarray):
        out[...] = self.samples[lo:hi]

    fill = form

    def sample(self, i: int) -> np.ndarray:
        return self.samples[i]


class _Formed:
    """Samples formed on demand by ``form``.  ``fill`` keeps a read-only copy
    of each end sample it forms and copies it instead of forming it again, so
    a walk over the samples and the path's ``start`` and ``end`` form each
    sample once."""

    def __len__(self):
        return len(self.times)

    def fill(self, lo: int, hi: int, out: np.ndarray):
        kept = self.kept
        if lo in kept:
            out[0] = kept[lo]
            lo, out = lo + 1, out[1:]
        if lo < hi and hi - 1 in kept:
            out[-1] = kept[hi - 1]
            hi, out = hi - 1, out[:-1]
        if lo < hi:
            self.form(lo, hi, out)
            for i in {lo, hi - 1} & {0, len(self) - 1}:
                kept[i] = frozen(out[i - lo])

    def sample(self, i: int) -> np.ndarray:
        if i not in self.kept:
            self.fill(i, i + 1, np.empty((1, *self.shape), dtype=complex))
        return self.kept[i]


class _Curved(_Formed):
    """t -> U(t) D U(t)*, U(t) = Q diag(exp(i pi t w)) Q*, for the eigh factors
    (w, Q) of the generator."""

    def __init__(self, w: np.ndarray, q: np.ndarray, d: np.ndarray, times: np.ndarray):
        self.w, self.q, self.d, self.times = w, q, d, times
        self.shape, self.kept = d.shape, {}

    def form(self, lo: int, hi: int, out: np.ndarray):
        t = self.times[lo:hi, None]
        # Q diag(exp(i pi t w)) goes in ``out``, which holds no sample yet
        u = np.multiply(self.q, np.exp(1j * np.pi * t * self.w)[:, None, :], out=out)
        u = u @ self.q.conj().T
        ud = u @ self.d
        np.matmul(ud, np.conjugate(u, out=u).transpose(0, 2, 1), out=out)


class _Flat(_Formed):
    """t -> (1 - t) X + t Y."""

    def __init__(self, x: np.ndarray, y: np.ndarray, times: np.ndarray):
        self.x, self.y, self.times = x, y, times
        self.shape, self.kept = x.shape, {}

    def form(self, lo: int, hi: int, out: np.ndarray):
        t = self.times[lo:hi, None, None]
        np.multiply(1.0 - t, self.x, out=out)
        out += t * self.y


class MatrixPath:
    """A path sampled at ``times``, increasing from t[0] = 0 to t[-1] = 1.

    ``MatrixPath(times, samples)`` keeps an (s, n, n) stack of samples.  A
    read-only array that owns its data is adopted as is; any other is copied
    first, so no caller can change the path afterwards.  The path functions
    below build paths from segments instead, whose samples are formed when
    read.  Either way a path is a tuple of (segment, first) pieces: its
    samples are those of each segment from index ``first`` on, in order.
    """

    def __init__(self, times, samples):
        t = np.asarray(times, dtype=float)
        s = np.asarray(samples, dtype=complex)
        if t.ndim != 1 or len(t) < 2:
            raise PathError("a path needs at least two samples")
        if s.shape != (len(t), s.shape[1], s.shape[1]):
            raise PathError(f"samples shaped {s.shape} do not match {len(t)} times")
        _check_times(t)
        if not np.isfinite(s).all():
            raise PathError("samples have non-finite entries")
        if s.flags.writeable or not s.flags.owndata:
            s = frozen(s)
        self._times, self._pieces, self._dim = frozen(t), ((_Stored(s), 0),), s.shape[1]

    @classmethod
    def _of(cls, times, pieces, dim: int) -> "MatrixPath":
        p = cls.__new__(cls)
        p._times, p._pieces, p._dim = times, tuple(pieces), dim
        return p

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_samples(self) -> int:
        return len(self._times)

    def form(self, b: slice, out: np.ndarray) -> np.ndarray:
        """Samples b.start to b.stop - 1, written into ``out`` and returned as
        its leading part."""
        lo, hi = b.start, b.stop
        offset = 0  # index of the piece's first sample in the path
        for seg, first in self._pieces:
            count = len(seg) - first
            a, z = max(lo, offset), min(hi, offset + count)
            if a < z:
                seg.fill(first + a - offset, first + z - offset, out[a - lo : z - lo])
            offset += count
        return out[: hi - lo]

    @property
    def samples(self) -> np.ndarray:
        """The whole (s, n, n) stack, formed anew and read-only."""
        out = np.empty((self.n_samples, self._dim, self._dim), dtype=complex)
        self.form(slice(0, self.n_samples), out)
        out.flags.writeable = False
        return out

    @property
    def start(self) -> np.ndarray:
        """The first sample, read-only; formed once and kept by its segment."""
        seg, first = self._pieces[0]
        return seg.sample(first)

    @property
    def end(self) -> np.ndarray:
        """The last sample, read-only; formed once and kept by its segment."""
        seg, _ = self._pieces[-1]
        return seg.sample(len(seg) - 1)


def _timegrid(n_samples: int) -> np.ndarray:
    if n_samples < 2:
        raise PathError("n_samples must be >= 2")
    return frozen(np.linspace(0.0, 1.0, n_samples))


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
    return MatrixPath._of(times, [(_Curved(w, q, d, times), 0)], d.shape[0])


def flat_path(x, y, n_samples: int = DEFAULT_SAMPLES) -> MatrixPath:
    """Linear interpolation t -> (1-t) X + t Y."""
    x = as_square(x)
    y = as_square(y)
    if x.shape != y.shape:
        raise PathError("endpoint dimensions disagree")
    times = _timegrid(n_samples)
    return MatrixPath._of(times, [(_Flat(x, y, times), 0)], x.shape[0])


def concat(p: MatrixPath, q: MatrixPath, *more: MatrixPath) -> MatrixPath:
    """Concatenation: p traversed on [0, 1/2], q on [1/2, 1].

    Endpoints must match within default_tol(n); each junction keeps the
    earlier path's final sample.  Further paths fold from the left:
    concat(a, b, c) is concat(concat(a, b), c) bit for bit, with the same
    times, samples, junction checks and errors in the same order, so a runs
    on [0, 1/4], b on [1/4, 1/2] and c on [1/2, 1].  The result joins the
    parts' segments and copies no sample.
    """
    parts = (p, q, *more)
    times = p.times
    pieces = list(p._pieces)
    for left, right in zip(parts, parts[1:]):
        if p.dim != right.dim:
            raise PathError("path dimensions disagree")
        tol = default_tol(p.dim)
        # the result skips right's first sample, so it is formed here and not kept
        (seg, first), *rest = right._pieces
        start = np.empty((1, p.dim, p.dim), dtype=complex)
        seg.form(first, first + 1, start)
        mismatch = operator_norm(left.end - start[0])
        if mismatch > tol:
            raise PathError(f"junction mismatch {mismatch:.3e} exceeds tolerance {tol:.3e}")
        times = np.concatenate([times / 2.0, 0.5 + right.times[1:] / 2.0])
        _check_times(times)
        pieces += [(seg, first + 1), *rest]
    return MatrixPath._of(frozen(times), pieces, p.dim)


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


def _partner(p: MatrixPath, c: Constraint):
    """The path or the matrix a constraint on ``p`` compares its samples with."""
    if isinstance(c, CommutationConstraint) and isinstance(c.partner, MatrixPath):
        return c.partner
    if isinstance(c, (CommutationConstraint, TargetDistanceConstraint)):
        other = as_square(c.partner if isinstance(c, CommutationConstraint) else c.target)
        if other.shape != (p.dim, p.dim):
            raise PathError(f"a {other.shape} matrix does not match samples of size {p.dim}")
        return other
    if not isinstance(c, (NormalityConstraint, PolynomialConstraint)):
        raise PathError(f"unknown constraint {c!r}")
    return None


def _residual(c: Constraint, s: np.ndarray, other, out: np.ndarray) -> np.ndarray:
    """Residual stack of one constraint on a block of samples, in ``out`` when
    it fits there."""
    if isinstance(c, CommutationConstraint):
        np.matmul(s, other, out=out)
        out -= other @ s
    elif isinstance(c, TargetDistanceConstraint):
        np.subtract(s, other, out=out)
    elif isinstance(c, NormalityConstraint):
        h = s.conj().transpose(0, 2, 1)
        np.matmul(s, h, out=out)
        out -= h @ s
    else:
        return poly_eval_matrix(c.poly, s)
    return out


def verify_paths(paths, constraints, relation=None) -> tuple[tuple[PathReport, ...], float]:
    """The report of ``constraints[j]`` along ``paths[j]`` for each j, from one
    pass over the samples.

    The paths share one time grid and size, and a partner path of a
    commutation constraint is one of them.  Each block of samples of every
    path is formed once, and each constraint's residual on it goes to the
    constraint's own ``MaxOperatorNorm``.  ``relation``, when given, maps the
    list of the paths' blocks and a free buffer of their shape to residual
    stacks of its own; the largest norm over all of them is returned with the
    reports (-inf without ``relation``).  ``worst_t`` is the first sample time
    where a constraint's maximum is attained.
    """
    paths = list(paths)
    constraints = [list(cons) for cons in constraints]
    p = paths[0]
    for q in paths[1:]:
        if q.n_samples != p.n_samples or q.dim != p.dim or np.any(q.times != p.times):
            raise PathError("paths must share the sample grid and dimension")

    def formed_index(q: MatrixPath) -> int:
        for i, w in enumerate(paths):
            if w is q:
                return i
        raise PathError("a partner path must be one of the verified paths")

    # for each constraint: a fixed matrix, None, or the index of a partner path
    others = [[formed_index(o) if isinstance(o, MatrixPath) else o
               for o in (_partner(q, c) for c in cons)]
              for q, cons in zip(paths, constraints)]
    blocks = sample_blocks(p.n_samples, p.dim)
    # one allocation holds every buffer of the walk: a block for each path,
    # one for the residual and three for the accumulators' ladder.  Freeing a
    # mapping this large raises glibc's mmap and trim thresholds, so each
    # block's temporaries then reuse heap pages instead of faulting in fresh
    # ones (three seed-7 verify aulpac trials at 64 x 64 on a 2-core x86 VM:
    # 1.3k minor faults, against 22.6k with separate buffers)
    longest = blocks[0].stop - blocks[0].start
    arena = np.empty((len(paths) + 4, longest, p.dim, p.dim), dtype=complex)
    buffers, residual = arena[: len(paths)], arena[len(paths)]
    scratch: list = list(arena[len(paths) + 1 :])
    accs = [[MaxOperatorNorm(scratch) for _ in cons] for cons in constraints]
    rel = MaxOperatorNorm(scratch)
    for b in blocks:
        formed = [q.form(b, buf) for q, buf in zip(paths, buffers)]
        out = residual[: len(formed[0])]
        for s, cons, row, acc_row in zip(formed, constraints, others, accs):
            for c, other, acc in zip(cons, row, acc_row):
                acc.add(_residual(c, s, formed[other] if isinstance(other, int) else other, out))
        if relation is not None:
            for r in relation(formed, out):
                rel.add(r)
    reports = tuple(
        PathReport(tuple(
            ConstraintResult(
                label=c.label,
                max_residual=acc.best,
                bound=float(c.bound),
                passed=bool(acc.best <= c.bound),
                worst_t=float(p.times[acc.where]),
            )
            for c, acc in zip(cons, acc_row)
        ))
        for cons, acc_row in zip(constraints, accs)
    )
    return reports, rel.best


def verify_path(p: MatrixPath, constraints) -> PathReport:
    """Maximum over the samples of each constraint residual, checked against
    its bound: ``verify_paths`` of the path and its partner paths."""
    constraints = list(constraints)
    partners = [c.partner for c in constraints
                if isinstance(c, CommutationConstraint) and isinstance(c.partner, MatrixPath)]
    reports, _ = verify_paths([p, *partners], [constraints] + [[] for _ in partners])
    return reports[0]
