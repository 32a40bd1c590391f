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

Checks are report-only: each constraint yields the largest norm of its
residual, the time of the largest value found, and a pass/fail against the
supplied bound.  ``certify_paths`` bounds each residual over the whole of
every curved and flat segment from the segment's structure, to within
CERTIFY_RTOL of the largest value it evaluates or to the rounding floor.
``verify_paths`` walks the samples instead, in the fewest balanced blocks
whose n x n complex stacks fit SAMPLE_BLOCK_BYTES, with one stacked
``operator_norm`` per residual and block, so its maxima are the per-sample
SVD's to the bit whatever the blocks; it also takes stored samples, which
have no structure to certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Union

import numpy as np

from .linalg import (
    as_square,
    default_tol,
    frozen,
    hermitian_part,
    operator_norm,
)
from .minpoly import PolyC, poly_eval_matrix

DEFAULT_SAMPLES = 65
# The sampled walk evaluates residuals a block of samples at a time, one
# batched matmul and SVD call per block, and a block's n x n complex stack
# holds at most SAMPLE_BLOCK_BYTES.  A walk over m paths keeps m + 1 such
# stacks (a block per path and the residual): 0.75 MiB for m = 2.  The budget
# gives blocks of 34 + 33 samples at n = 16, 4 samples at n = 64 and 1 from
# n = 128 on, where memory matters more than batching.
SAMPLE_BLOCK_BYTES = 256 << 10
# A certified sup stops at this relative distance above the largest value
# evaluated, or at the rounding floor n * u * scale above it.
CERTIFY_RTOL = 1e-2


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

    @property
    def coeffs(self) -> np.ndarray:
        """D, as the one Bernstein coefficient of a constant: a residual that
        is unitarily invariant, in members that share U(t), is D's for all t."""
        return self.d[None]

    def distance(self, target: np.ndarray) -> tuple[float, float, float]:
        """(sup, best, t) of ||Z(t) - target|| over [0, 1], by branch and bound
        with the Lipschitz constant pi ||[H, D]||, which is exact: Z'(t) =
        i pi U(t) [H, D] U(t)* for every t."""
        # in the eigenbasis of H, Z(t) - target is D' o exp(i pi t (w_i - w_j)) - Y'
        qh = self.q.conj().T
        dq, yq = qh @ self.d @ self.q, qh @ target @ self.q
        gaps = self.w[:, None] - self.w[None, :]
        lipschitz = np.pi * operator_norm(gaps * dq)

        def values(t):
            return operator_norm(dq * np.exp(1j * np.pi * t[:, None, None] * gaps) - yq)

        def bound(ends, width, state):
            return ends.mean(axis=1) + lipschitz * width / 2

        def split(lo, width, state):
            return values(lo + width / 2), state, state

        scale = _size(self.coeffs) + _size(target[None])
        return _branch_and_bound(values(np.array([0.0, 1.0])), [], bound, split,
                                 _floor(self.shape[0], scale))


class _Flat(_Formed):
    """t -> (1 - t) X + t Y."""

    def __init__(self, x: np.ndarray, y: np.ndarray, times: np.ndarray):
        self.x, self.y, self.times = x, y, times
        self.shape, self.kept = x.shape, {}

    def form(self, lo: int, hi: int, out: np.ndarray):
        t = self.times[lo:hi, None, None]
        np.multiply(1.0 - t, self.x, out=out)
        out += t * self.y

    @property
    def coeffs(self) -> np.ndarray:
        """X and Y, the Bernstein coefficients of the segment."""
        return np.stack([self.x, self.y])


def _size(coeffs: np.ndarray) -> float:
    """The largest Frobenius norm of a stack of coefficients."""
    return float(np.linalg.norm(coeffs, axis=(1, 2)).max())


def _floor(n: int, scale: float) -> float:
    """The rounding floor n * u * scale, u = 2**-53, of an n x n residual
    formed from matrices of norm ``scale``."""
    return n * np.finfo(float).eps / 2 * scale


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([a, b], 1).reshape(-1, *a.shape[1:])


def _branch_and_bound(ends, state: list, bound, split, floor: float):
    """(sup, best, t) of a residual norm over [0, 1], from its values ``ends``
    at 0 and 1: a certified sup, the largest value evaluated and its first t.

    ``bound(ends, width, state)`` bounds the norm on each interval from the
    values at its ends, its width and its ``state`` (arrays, one row per
    interval); ``split(lo, width, state)`` returns the values at the
    intervals' midpoints and the state of their two halves.  An interval is
    split while its bound lies above the largest value evaluated by more
    than CERTIFY_RTOL of it and by more than ``floor``; the sup is the
    largest bound of the intervals left.
    """
    ends = np.asarray(ends, dtype=float).reshape(1, 2)
    lo, width, sup = np.zeros(1), 1.0, -np.inf
    best, where = (ends[0, 1], 1.0) if ends[0, 1] > ends[0, 0] else (ends[0, 0], 0.0)
    while True:
        b = bound(ends, width, state)
        loose = b > max(best * (1.0 + CERTIFY_RTOL), best + floor)
        sup = max(sup, b[~loose].max(initial=-np.inf))
        if not loose.any():
            return float(sup), float(best), where
        if width < 2.0**-30:
            raise PathError("a certified bound did not converge")
        lo, ends, state = lo[loose], ends[loose], [s[loose] for s in state]
        mid, left, right = split(lo, width, state)
        width /= 2
        k = int(np.argmax(mid))
        if mid[k] > best:
            best, where = float(mid[k]), float(lo[k] + width)
        lo = _interleave(lo, lo + width)
        ends = _interleave(np.stack([ends[:, 0], mid], 1), np.stack([mid, ends[:, 1]], 1))
        state = [_interleave(a, z) for a, z in zip(left, right)]


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
    """Conjugation path t -> exp(i*pi*t*H) D exp(-i*pi*t*H), H hermitian to default_tol(n).

    ``h`` may also be the pair (w, Q) that ``np.linalg.eigh`` returns for the
    hermitian part of H: the members of one conjugation share it, which
    ``certify_paths`` needs of commutation partners and the sphere relation.
    """
    d = as_square(d)
    if isinstance(h, tuple):
        w, q = h
    else:
        h = as_square(h)
        if h.shape != d.shape:
            raise PathError("generator and matrix dimensions disagree")
        if operator_norm(h - h.conj().T) > default_tol(h.shape[0]):
            raise PathError("curved path generator must be hermitian")
        w, q = np.linalg.eigh(hermitian_part(h))
    if q.shape != d.shape:
        raise PathError("generator and matrix dimensions disagree")
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


def _resolved(paths, constraints):
    """The paths, the constraint lists and, for each constraint, a fixed
    matrix, None, or the index of its partner path among ``paths``."""
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

    others = [[formed_index(o) if isinstance(o, MatrixPath) else o
               for o in (_partner(q, c) for c in cons)]
              for q, cons in zip(paths, constraints)]
    return paths, constraints, others


def _reports(constraints, sups, bests) -> tuple[PathReport, ...]:
    """A report per path, from each constraint's sup and (largest value, time)."""
    return tuple(
        PathReport(tuple(
            ConstraintResult(
                label=c.label,
                max_residual=float(sup),
                bound=float(c.bound),
                passed=bool(sup <= c.bound),
                worst_t=float(t),
            )
            for c, sup, (_, t) in zip(cons, sup_row, best_row)
        ))
        for cons, sup_row, best_row in zip(constraints, sups, bests)
    )


def verify_paths(paths, constraints, relation) -> tuple[tuple[PathReport, ...], float]:
    """The report of ``constraints[j]`` along ``paths[j]`` for each j, from one
    pass over the samples.

    The paths share one time grid and size, and a partner path of a
    commutation constraint is one of them.  Each block of samples of every
    path is formed once, and each constraint's residual on it goes to one
    stacked ``operator_norm``.  ``relation``, when given, maps the list of
    the paths' blocks and a free buffer of their shape to residual stacks of
    its own; the largest norm over all of them is returned with the reports
    (-inf when ``relation`` is None).  ``worst_t`` is the first sample time
    where a constraint's maximum is attained.
    """
    paths, constraints, others = _resolved(paths, constraints)
    p = paths[0]
    blocks = sample_blocks(p.n_samples, p.dim)
    # one allocation holds every buffer of the walk: a block for each path and
    # one for the residual, so each block's temporaries reuse heap pages
    longest = blocks[0].stop - blocks[0].start
    arena = np.empty((len(paths) + 1, longest, p.dim, p.dim), dtype=complex)
    buffers, residual = arena[:-1], arena[-1]
    bests = [[(-np.inf, 0.0)] * len(cons) for cons in constraints]
    worst = -np.inf
    for b in blocks:
        formed = [q.form(b, buf) for q, buf in zip(paths, buffers)]
        out = residual[: len(formed[0])]
        for s, cons, row, best_row in zip(formed, constraints, others, bests):
            for k, (c, other) in enumerate(zip(cons, row)):
                norms = operator_norm(
                    _residual(c, s, formed[other] if isinstance(other, int) else other, out))
                i = int(np.argmax(norms))
                if norms[i] > best_row[k][0]:
                    best_row[k] = (float(norms[i]), p.times[b.start + i])
        if relation is not None:
            for r in relation(formed, out):
                worst = max(worst, float(operator_norm(r).max()))
    return _reports(constraints, [[v for v, _ in row] for row in bests], bests), worst


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Bernstein coefficients of the product of two matrix polynomials in
    t, from theirs (a stack of k + 1 coefficients has degree k)."""
    m, k = len(a) - 1, len(b) - 1
    out = np.zeros((m + k + 1, *a.shape[1:]), dtype=complex)
    for i in range(m + 1):
        for j in range(k + 1):
            out[i + j] += comb(m, i) * comb(k, j) / comb(m + k, i + j) * (a[i] @ b[j])
    return out


def _bernstein_sup(coeffs: np.ndarray, scale: float) -> tuple[float, float, float]:
    """(sup, best, t) of ||P(t)|| over [0, 1] for the Bernstein coefficients
    of a matrix polynomial P, whose terms have norms up to ``scale``.

    P(t) is a convex combination of the coefficients, so on each piece of a
    de Casteljau subdivision the largest norm of its coefficients bounds it
    (the convex-hull property), and the first and last coefficients are its
    values at the piece's ends.  A degree of 0 or 1 is exact at once.
    """
    n = coeffs.shape[-1]
    norms = operator_norm(coeffs)[None]

    def bound(ends, width, state):
        return state[1].max(axis=1)

    def split(lo, width, state):
        c, old = state
        k = c.shape[1] - 1
        rows = [c]
        for _ in range(k):
            rows.append((rows[-1][:, :-1] + rows[-1][:, 1:]) / 2)
        left = np.stack([r[:, 0] for r in rows], 1)
        right = np.stack([r[:, -1] for r in rows[::-1]], 1)
        # left[k] = right[0] is the value at the midpoint; the outer ends are kept
        new = operator_norm(np.concatenate([left[:, 1:], right[:, 1:-1]], 1).reshape(-1, n, n))
        new = new.reshape(len(c), 2 * k - 1)
        right_norms = np.concatenate([new[:, k - 1 :], old[:, -1:]], 1)
        return new[:, k - 1], [left, np.concatenate([old[:, :1], new[:, :k]], 1)], [
            right, right_norms]

    return _branch_and_bound(norms[:, [0, -1]], [coeffs[None], norms], bound, split,
                             _floor(n, scale))


def _same_conjugation(a, b):
    if isinstance(a, _Curved) and not (np.array_equal(a.w, b.w) and np.array_equal(a.q, b.q)):
        raise PathError("curved segments certified together must share their generator")


def _certify(c: Constraint, seg, other) -> tuple[float, float, float]:
    """(sup, best, t) of constraint ``c`` over segment ``seg``, whose partner
    ``other`` is the lined-up segment of the partner path, a fixed matrix or
    None."""
    p = seg.coeffs
    size = _size(p)
    if isinstance(c, TargetDistanceConstraint):
        if isinstance(seg, _Curved):
            return seg.distance(other)
        return _bernstein_sup(p - other, size + _size(other[None]))
    if isinstance(c, CommutationConstraint):
        if isinstance(other, np.ndarray):
            if isinstance(seg, _Curved):
                raise PathError("a curved segment's commutator with a fixed matrix "
                                "is not certified")
            q = other[None]
        else:
            _same_conjugation(seg, other)
            q = other.coeffs
        return _bernstein_sup(_times(p, q) - _times(q, p), 2 * size * _size(q))
    if isinstance(c, NormalityConstraint):
        h = p.conj().transpose(0, 2, 1)
        return _bernstein_sup(_times(p, h) - _times(h, p), 2 * size * size)
    # p(Z) by Horner's rule, as poly_eval_matrix forms it
    eye = np.eye(p.shape[-1])
    out = (complex(c.poly.coeffs[-1]) * eye)[None]
    for a in c.poly.coeffs[-2::-1]:
        out = _times(out, p) + complex(a) * eye
    return _bernstein_sup(out, sum(abs(complex(a)) * size**i for i, a in enumerate(c.poly.coeffs)))


def _certify_relation(segs, kind: str) -> float:
    """The certified sup over lined-up segments of the relation's residual
    norm: each member's norm for the cube, ||sum_j Z_j^2 - 1|| for the sphere."""
    if kind == "cube":
        return max(_bernstein_sup(s.coeffs, _size(s.coeffs))[0] for s in segs)
    for s in segs[1:]:
        _same_conjugation(segs[0], s)
    total = sum(_times(s.coeffs, s.coeffs) for s in segs) - np.eye(segs[0].shape[0])
    return _bernstein_sup(total, 1.0 + sum(_size(s.coeffs) ** 2 for s in segs))[0]


def certify_paths(paths, constraints, relation) -> tuple[tuple[PathReport, ...], float]:
    """The reports of ``verify_paths``, with each maximum certified over the
    whole of every segment instead of taken over the samples.

    Paths and partners are as for ``verify_paths``, and the paths' segments
    must line up: the k-th segment of every path is of one kind, curved or
    flat, and covers the same samples.  Curved segments certified together
    (commutation partners, and every member for the sphere relation) share
    their generator's eigh factors.  Anything else, stored samples among
    them, raises PathError; nothing falls back to sampling.

    On a curved segment, commutators of members that share U(t), normality,
    polynomial residuals and both relations are unitarily invariant, so they
    are evaluated once, on D; the distance to a target is bounded by branch
    and bound with its exact Lipschitz constant.  On a flat segment every
    residual is a matrix polynomial in t, bounded by the norms of its
    Bernstein coefficients and refined by de Casteljau subdivision; the
    distance to a target and the cube's norms have degree 1 and are exact
    at the ends, as their convexity says.  Each sup lies within CERTIFY_RTOL
    of the largest value evaluated, or within the rounding floor n * u *
    scale of it.  ``max_residual`` is the certified sup and ``worst_t`` the
    path time of the largest value evaluated (a constant residual's is the
    segment's start).  ``relation`` is "cube", "sphere" or None: the sup of
    each member's norm, or of ||sum_j Z_j^2 - 1||, is returned with the
    reports (-inf for None).
    """
    paths, constraints, others = _resolved(paths, constraints)
    p = paths[0]
    if any(len(q._pieces) != len(p._pieces) for q in paths):
        raise PathError("paths to certify must have lined-up segments")
    sups = [[-np.inf] * len(cons) for cons in constraints]
    bests = [[(-np.inf, 0.0)] * len(cons) for cons in constraints]
    worst = -np.inf
    offset = 0  # index of the piece's first sample in the paths
    for i, (seg, first) in enumerate(p._pieces):
        segs = [q._pieces[i][0] for q in paths]
        if isinstance(seg, _Stored) or any(
                type(s) is not type(seg) or len(s) != len(seg) or q._pieces[i][1] != first
                for q, s in zip(paths, segs)):
            raise PathError("only lined-up curved and flat segments can be certified")
        count = len(seg) - first
        # the path times of the segment's t = 0 and t = 1
        t0, t1 = p.times[offset - first], p.times[offset + count - 1]
        for s, cons, row, sup_row, best_row in zip(segs, constraints, others, sups, bests):
            for k, (c, other) in enumerate(zip(cons, row)):
                sup, best, t = _certify(c, s, segs[other] if isinstance(other, int) else other)
                sup_row[k] = max(sup_row[k], sup)
                if best > best_row[k][0]:
                    best_row[k] = (best, (1.0 - t) * t0 + t * t1)
        if relation is not None:
            worst = max(worst, _certify_relation(segs, relation))
        offset += count
    return _reports(constraints, sups, bests), worst


def verify_path(p: MatrixPath, constraints) -> PathReport:
    """Maximum over the samples of each constraint residual, checked against
    its bound: ``verify_paths`` of the path and its partner paths."""
    constraints = list(constraints)
    partners = [c.partner for c in constraints
                if isinstance(c, CommutationConstraint) and isinstance(c.partner, MatrixPath)]
    reports, _ = verify_paths([p, *partners], [constraints] + [[] for _ in partners], None)
    return reports[0]
