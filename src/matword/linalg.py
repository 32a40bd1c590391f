"""Dense complex matrix kernels and spectral utilities.

Everything operates on plain numpy arrays holding square complex matrices.
Exact algebraic relations only hold up to floating point slack, so structural
checks allow default_tol(n) = 1e-8 * n or a fixed constant.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import config


class LinalgError(ValueError):
    """A matrix failed a structural precondition."""


class ClusteringError(LinalgError):
    """Eigenvalue gaps straddle the clustering threshold; refusing to guess."""


class JointDiagonalizationError(LinalgError):
    """Residual after joint diagonalization exceeds the admissible bound."""


def as_square(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise LinalgError("matrix has non-finite entries")
    return a


def operator_norm(a):
    """Largest singular value; an (s, n, n) stack gives one per matrix."""
    a = np.asarray(a)
    if a.ndim == 3:
        return np.linalg.norm(a, 2, axis=(1, 2)) if a.size else np.zeros(len(a))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


# Powers p of the ladder in max_operator_norm.  A rung costs one matrix
# product per sample still in play.  On the 64 x 64 residuals of verify
# aulpac, climbing to p = 32 left about one sample in twenty to the SVD, and
# a rung past it saved less than it cost.
_LADDER_POWERS = (2, 4, 8, 16, 32)


class MaxOperatorNorm:
    """Largest ``operator_norm`` over the samples of consecutive (s, n, n) stacks,
    and the index of the first sample that attains it.

    ``add`` takes one stack at a time; ``best`` and ``where`` hold the running
    maximum and its first index, -inf and 0 before any sample.  Bit for bit,
    these are ``operator_norm`` of the concatenated stacks followed by ``max``
    and ``argmax``, but the SVD runs only on samples that can still be that
    first maximum.  Each sample A gets upper bounds on its norm,
    ||A||_2 <= ||(A*A)^(p/2)||_F^(1/p) for p = 1 (the Frobenius norm) and each
    p of _LADDER_POWERS, where a rung squares the previous one.  A rung runs
    only on the samples whose bound still reaches the running maximum, and the
    first stack decomposes its top sample after the p = 2 rung to start one.

    The bounds hold in floating point.  With u = 2**-53, each sample is first
    scaled exactly by a power of two so that its largest real or imaginary
    part lies in [1/2, 1); then 1/2 <= ||A||_2 <= sqrt(2) n, and the powers
    neither overflow nor lose accuracy to underflow for n < 2**15.  Each
    product of n x n matrices errs by at most gamma_n ||X||_F ||Y||_F <=
    n gamma_n ||G||_2^2 in Frobenius norm (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.5), so the k-th rung, p = 2^k, holds its power
    to within (2^k - 1) n^1.5 gamma_n relative, and its p-th root to within
    about n^2.5 u.  The SVD returns the norm of a matrix within
    c n^2 u ||A||_F <= c n^2.5 u ||A||_2 of the input, c of order one
    (Householder bidiagonalization, ibid. 19.3).  A relative slack of
    64 n^3 u on each bound covers both with room to spare.  A sample whose
    parts are all subnormal is always decomposed, and so is one whose
    products overflow, which makes its bound inf or nan.

    The ladder's work arrays are kept in ``scratch`` from one stack to the
    next, so blocks of one size reuse them instead of faulting in fresh
    pages; accumulators that never run ``add`` at the same time may share one.
    """

    def __init__(self, scratch: list):
        self.best, self.where, self._start = -np.inf, 0, 0
        self._scratch = scratch

    def _work(self, shape) -> tuple[np.ndarray, ...]:
        """Three complex work stacks of at least ``shape``, reused while they fit."""
        work = self._scratch
        if not work or work[0].shape[0] < shape[0] or work[0].shape[1:] != shape[1:]:
            work[:] = [np.empty(shape, dtype=complex) for _ in range(3)]
        return tuple(w[: shape[0]] for w in work)

    def add(self, r):
        r = np.asarray(r)
        n = r.shape[-1]
        slack = 1.0 + 64.0 * n**3 * np.finfo(float).eps / 2
        v = np.ascontiguousarray(r, dtype=complex).view(float)
        work = self._work(r.shape)
        g = work[0]
        mag = np.abs(v, out=g.view(float))
        _, ex = np.frexp(mag.max(axis=(1, 2), initial=0.0))
        np.ldexp(v, -ex[:, None, None], out=g.view(float))

        def bound(x, p, e):
            # ||(A*A)^(p/2)||_F^(1/p) of the scaled samples, back in units of r
            b = np.sqrt(np.einsum("kij,kij->k", x, x)) ** (1.0 / p) * slack
            return np.where(e >= -1021, np.ldexp(b, e), np.inf)

        ub, pos = bound(g.view(float), 1, ex), np.arange(len(r))  # pos: samples in play

        def in_play():
            # whether a sample can still beat the running maximum, or tie it
            # ahead of the running argmax
            return ~((ub < self.best) | ((ub == self.best) & (self._start + pos > self.where)))

        def decompose(sel):
            norms = operator_norm(r[pos[sel]])
            k = int(np.argmax(norms))
            i = self._start + int(pos[sel][k])
            if norms[k] > self.best or (norms[k] == self.best and i < self.where):
                self.best, self.where = float(norms[k]), i
            ub[sel] = -np.inf

        gi = 0  # the work stack that holds g
        for p in _LADDER_POWERS:
            keep = in_play()
            if not keep.all():
                ub, pos, ex = ub[keep], pos[keep], ex[keep]
                gi = (gi + 1) % 3
                g = np.compress(keep, g, axis=0, out=work[gi][: len(pos)])
            if not pos.size:
                break
            left = g
            if p == 2:
                left = np.conjugate(g, out=work[(gi + 2) % 3][: len(pos)]).transpose(0, 2, 1)
            gi = (gi + 1) % 3
            g = np.matmul(left, g, out=work[gi][: len(pos)])
            ub = np.minimum(ub, bound(g.view(float), p, ex))
            if self.best == -np.inf:
                decompose([np.argmax(ub)])
        keep = in_play()
        if keep.any():
            decompose(keep)
        self._start += len(r)


def max_operator_norm(blocks) -> tuple[float, int]:
    """``MaxOperatorNorm`` over ``blocks``, which may be a generator; one stack
    is held at a time."""
    acc = MaxOperatorNorm([])
    for r in blocks:
        acc.add(r)
    return acc.best, acc.where


def default_tol(n: int) -> float:
    return 1e-8 * max(n, 1)


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy, so dataclass instances stay effectively immutable."""
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_square(a)
    b = as_square(b)
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def hermitian_part(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2.0


def unitarity_defect(w) -> float:
    w = as_square(w)
    return operator_norm(w @ w.conj().T - np.eye(w.shape[0]))


def cartesian_decomposition(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A = H + iK with H, K hermitian."""
    a = as_square(a)
    h = (a + a.conj().T) / 2.0
    k = (a - a.conj().T) / 2.0j
    return h, k


def phase_exp(h) -> np.ndarray:
    """exp(i * pi * H) for hermitian H, via eigendecomposition; unitary up to rounding."""
    h = hermitian_part(as_square(h))
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * np.pi * w)) @ q.conj().T


def polar_decomposition(a) -> tuple[np.ndarray, np.ndarray]:
    """A = V R with V unitary and R positive semidefinite, via SVD.

    Rank-deficient inputs get a deterministic unitary completion from the
    SVD factors.
    """
    a = as_square(a)
    u, s, vh = np.linalg.svd(a)
    v = u @ vh
    r = (vh.conj().T * s) @ vh
    return v, r


def threshold_clusters(points, tol: float) -> np.ndarray:
    """Single-linkage cluster labels of complex points at threshold ``tol``.

    Each row of ``points`` is one point (a 1-D array holds one coordinate
    per point); two points link when every coordinate differs by at most
    ``tol`` in modulus.  Clusters are numbered in order of their lowest
    member.
    """
    p = np.asarray(points, dtype=complex)
    if p.ndim == 1:
        p = p[:, None]
    d = p[:, None, :] - p[None, :, :]
    # hypot matches the scalar abs() bit for bit; np.abs on complex arrays
    # can differ in the last ulp, which moves exact-threshold ties.
    linked = np.hypot(d.real, d.imag).max(axis=2) <= tol
    labels = np.full(len(p), -1, dtype=np.int32)
    k = 0
    for start in range(len(p)):
        if labels[start] >= 0:
            continue
        # breadth-first walk: each step labels the unlabeled neighbours of the frontier
        frontier = np.zeros(len(p), dtype=bool)
        frontier[start] = True
        while frontier.any():
            labels[frontier] = k
            frontier = linked[frontier].any(axis=0) & (labels < 0)
        k += 1
    return labels


def normality_defect(a) -> float:
    a = as_square(a)
    return operator_norm(commutator(a, a.conj().T))


def _array(dtype, ndim: int):
    return np.ctypeslib.ndpointer(dtype, ndim, flags="F_CONTIGUOUS")


_INT = ctypes.POINTER(ctypes.c_int64)
# zgees(jobvs, sort, select, n, a, lda, sdim, w, vs, ldvs, work, lwork, rwork,
# bwork, info), then gfortran's length of each character argument
_ZGEES = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_void_p, _INT,
          _array(np.complex128, 2), _INT, _INT, _array(np.complex128, 1),
          _array(np.complex128, 2), _INT, _array(np.complex128, 1), _INT,
          _array(np.float64, 1), _array(np.int64, 1), _INT, ctypes.c_size_t, ctypes.c_size_t]


def _schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form of a square matrix: (T, Q) with Q unitary, T upper
    triangular and a = Q T Q^H.

    Calls LAPACK's zgees in numpy's bundled OpenBLAS (64-bit integers) step
    for step as ``scipy.linalg.schur(a, output="complex")`` does, so the
    arrays are the same bit for bit as that call's wherever both wheels
    bundle the same OpenBLAS build: a complex Fortran-ordered copy of ``a``,
    jobvs 'V', sort 'N' with no select function, one workspace query, then
    the call with the size it returned.  Where numpy bundles no OpenBLAS
    (MKL, a distribution's build), this is that scipy call, so scipy must
    be installed there.  A failed QR iteration raises numpy's LinAlgError,
    as scipy's does.
    """
    zgees = config.lapack("zgees", _ZGEES)
    if zgees is None:
        import scipy.linalg

        return scipy.linalg.schur(a, output="complex")
    t = np.array(a, dtype=np.complex128, order="F")  # overwritten with T
    n = t.shape[0]
    q = np.empty((n, n), dtype=np.complex128, order="F")
    w = np.empty(n, dtype=np.complex128)
    rwork = np.empty(n)
    bwork = np.empty(n, dtype=np.int64)
    order, lead = ctypes.c_int64(n), ctypes.c_int64(max(n, 1))
    sdim, info = ctypes.c_int64(), ctypes.c_int64()

    def call(work, lwork: int):
        zgees(b"V", b"N", None, ctypes.byref(order), t, ctypes.byref(lead), ctypes.byref(sdim),
              w, q, ctypes.byref(lead), work, ctypes.byref(ctypes.c_int64(lwork)), rwork, bwork,
              ctypes.byref(info), 1, 1)

    query = np.empty(1, dtype=np.complex128)
    call(query, -1)
    lwork = int(query[0].real)
    call(np.empty(lwork, dtype=np.complex128), lwork)
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of internal gees")
    if info.value > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, q


def cluster_eigenbasis(a, cluster_tol: float) -> tuple[list[complex], list[np.ndarray]]:
    """Clustered spectrum and orthonormal bases of a matrix normal within default_tol(n).

    Returns (representatives, bases) where bases[j] has orthonormal columns
    spanning the invariant subspace of cluster j.  Raises ClusteringError
    when members stray farther than ``cluster_tol`` from their representative
    or two representatives come closer than ``cluster_tol``.
    """
    a = as_square(a)
    tol = default_tol(a.shape[0])
    defect = normality_defect(a)
    if defect > tol:
        raise LinalgError(f"matrix is not normal: defect {defect:.3e} > tol {tol:.3e}")

    # Complex Schur of a normal matrix is diagonal with orthonormal vectors.
    t, q = _schur(a)
    eigs = np.diag(t)

    labels = threshold_clusters(eigs, cluster_tol)
    groups = sorted((np.flatnonzero(labels == k) for k in range(labels.max() + 1)),
                    key=lambda g: (eigs[g[0]].real, eigs[g[0]].imag))
    reps = [complex(np.mean(eigs[g])) for g in groups]

    for rep, g in zip(reps, groups):
        spread = max(abs(eigs[i] - rep) for i in g)
        if spread > cluster_tol:
            raise ClusteringError(
                f"cluster spread {spread:.3e} exceeds cluster_tol {cluster_tol:.3e}; "
                "eigenvalue gaps straddle the threshold"
            )
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            gap = abs(reps[i] - reps[j])
            if gap <= cluster_tol:
                raise ClusteringError(
                    f"cluster representatives at distance {gap:.3e} <= cluster_tol"
                )

    bases = [q[:, g] for g in groups]
    return reps, bases


def max_commutator(pairs) -> float:
    """Largest commutator norm over (A, B) pairs, in order; 0 when there are none."""
    return max((operator_norm(commutator(a, b)) for a, b in pairs), default=0.0)


@dataclass(frozen=True)
class NormalTuple:
    """Ordered tuple of same-size normal matrices with their largest pairwise commutator."""

    matrices: tuple[np.ndarray, ...]
    commutator_bound: float

    @classmethod
    def from_matrices(cls, mats) -> "NormalTuple":
        mats = tuple(frozen(as_square(m)) for m in mats)
        if not mats:
            raise LinalgError("empty tuple")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != n:
                raise LinalgError("tuple members have mixed dimensions")
        return cls(mats, max_commutator(combinations(mats, 2)))

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def arity(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __len__(self):
        return len(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]


def _as_matrix_list(t) -> list[np.ndarray]:
    if isinstance(t, NormalTuple):
        return list(t.matrices)
    return [as_square(m) for m in t]


def _group_sorted_reals(w: np.ndarray, tol: float) -> list[np.ndarray]:
    """Contiguous index groups of an ascending real vector split at gaps > tol."""
    cuts = np.nonzero(np.diff(w) > tol)[0]
    return np.split(np.arange(len(w)), cuts + 1)


def _refine_basis(v: np.ndarray, mats: list[np.ndarray], ctol: float) -> list[np.ndarray]:
    if not mats or v.shape[1] == 1:
        return [v]
    b = hermitian_part(v.conj().T @ mats[0] @ v)
    w, s = np.linalg.eigh(b)
    out = []
    for idx in _group_sorted_reals(w, ctol):
        out.extend(_refine_basis(v @ s[:, idx], mats[1:], ctol))
    return out


def _is_diagonal(a: np.ndarray, tol: float) -> bool:
    return operator_norm(a - np.diag(np.diag(a))) <= tol


def joint_diagonalize(t, tol: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Approximately diagonalize a tuple of almost-commuting normal matrices.

    Recursive block refinement: the hermitian part of the first matrix is
    diagonalized, eigenvalues are clustered, the next matrix is compressed
    to each cluster subspace, and so on through all real and imaginary
    parts.  Eigenvalues cluster at max(1e-8, sqrt(cb)) for the commutator
    bound cb.  The unitary is exact up to rounding; all approximation shows
    up in the off-diagonal residual, which must stay below an admissible
    bound that shrinks with ``tol``.

    Returns (U, diagonals) with U unitary and diagonals[j] the diagonal of
    U* X_j U.
    """
    mats = _as_matrix_list(t)
    n = mats[0].shape[0]
    cb = t.commutator_bound if isinstance(t, NormalTuple) else max_commutator(combinations(mats, 2))
    if cb > tol:
        raise JointDiagonalizationError(
            f"commutator bound {cb:.3e} exceeds tolerance {tol:.3e}"
        )

    diag_tol = 1e-13 * n
    if all(_is_diagonal(m, diag_tol) for m in mats):
        return np.eye(n, dtype=complex), [np.diag(m).copy() for m in mats]

    cluster_tol = max(1e-8, float(np.sqrt(max(cb, 0.0))))

    parts: list[np.ndarray] = []
    for m in mats:
        h, k = cartesian_decomposition(m)
        parts.append(h)
        parts.append(k)

    blocks = _refine_basis(np.eye(n, dtype=complex), parts, cluster_tol)
    u = np.hstack(blocks)

    diags = []
    residual = 0.0
    for m in mats:
        b = u.conj().T @ m @ u
        d = np.diag(b).copy()
        residual = max(residual, operator_norm(b - np.diag(d)))
        diags.append(d)

    bound = 10.0 * n * max(np.sqrt(max(tol, 0.0)), 1e-10)
    if residual > bound:
        raise JointDiagonalizationError(
            f"off-diagonal residual {residual:.3e} exceeds bound {bound:.3e}; "
            "tuple is not close enough to commuting"
        )
    return u, diags


def principal_unitary_log(z) -> np.ndarray:
    """Hermitian H with -1 <= H <= 1 and exp(i*pi*H) = Z.

    Requires Z unitary within default_tol(n), its spectrum farther than 1e-8 from -1.
    """
    z = as_square(z)
    defect = unitarity_defect(z)
    if defect > default_tol(z.shape[0]):
        raise LinalgError(f"matrix is not unitary: defect {defect:.3e}")

    t, q = _schur(z)
    eigs = np.diag(t)
    phases = eigs / np.abs(eigs)
    if np.min(np.abs(phases + 1.0)) <= 1e-8:
        raise LinalgError("unitary spectrum touches -1; principal log undefined")
    h = (q * (np.angle(phases) / np.pi)) @ q.conj().T
    return hermitian_part(h)
