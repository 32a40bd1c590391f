"""Constructive approximation lemmas at matrix scale.

Projection refinement, the nearby commuting unitary with its explicit
constant 3r(r-1)/s, joint isospectral approximants built from minimal-cost
eigenvalue matching, nearby generators with fully split spectra, and the
block compression / doubling / dilation toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinalgError,
    NormalTuple,
    as_square,
    cluster_eigenbasis,
    commutator,
    default_tol,
    frozen,
    joint_diagonalize,
    operator_norm,
    polar_decomposition,
    unitarity_defect,
)


class ApproximantError(ValueError):
    pass


@dataclass(frozen=True)
class ProjectionFamily:
    """Pairwise orthogonal hermitian projections summing to the identity."""

    projections: tuple[np.ndarray, ...]

    @classmethod
    def from_projections(cls, projs, tol: float | None = None) -> "ProjectionFamily":
        projs = tuple(frozen(as_square(p)) for p in projs)
        if not projs:
            raise ApproximantError("empty projection family")
        n = projs[0].shape[0]
        tol = default_tol(n) if tol is None else tol
        ortho = 0.0
        for i, p in enumerate(projs):
            if operator_norm(p - p.conj().T) > tol or operator_norm(p @ p - p) > tol:
                raise ApproximantError(f"member {i} is not a hermitian projection")
            for q in projs[i + 1 :]:
                ortho = max(ortho, operator_norm(p @ q))
        complete = operator_norm(sum(projs) - np.eye(n))
        if ortho > tol:
            raise ApproximantError(f"family not pairwise orthogonal: {ortho:.3e}")
        if complete > tol:
            raise ApproximantError(f"family does not resolve the identity: {complete:.3e}")
        return cls(projs)

    def __len__(self):
        return len(self.projections)


def refine_projections(p: ProjectionFamily, q: ProjectionFamily) -> ProjectionFamily:
    """Common refinement of two families that commute within default_tol(n).

    Its members, the nonzero products P_j Q_k, span both inputs; |P| * |Q| at most.
    """
    tol = default_tol(p.projections[0].shape[0])
    for pj in p.projections:
        for qk in q.projections:
            c = operator_norm(commutator(pj, qk))
            if c > tol:
                raise ApproximantError(f"families do not commute: residual {c:.3e}")
    out = []
    for pj in p.projections:
        for qk in q.projections:
            r = pj @ qk
            if operator_norm(r) > 0.5:
                out.append((r + r.conj().T) / 2.0)
    return ProjectionFamily.from_projections(out, tol=10 * tol)


@dataclass(frozen=True)
class CommutingUnitaryResult:
    """Unitary commuting with D, with the explicit proof constant.

    ``constant`` is 3r(r-1)/s for r spectral clusters at minimum gap s, and
    ||1 - W Z|| <= constant * ||W D W* - D|| holds for the input unitary W.
    Blocks whose compression vanished got an identity completion; their
    indices are recorded.
    """

    z: np.ndarray
    constant: float
    completed_blocks: tuple[int, ...]


def nearby_commuting_unitary(
    w, d, cluster_tol: float = 1e-8, min_gap: float = 1e-8
) -> CommutingUnitaryResult:
    """Unitary Z with [Z, D] = 0 and ||1 - W Z|| <= (3r(r-1)/s) ||W D W* - D||.

    W must be unitary and D normal, both within default_tol(n).  Built by
    compressing W to the spectral blocks of D and replacing each block by
    the unitary factor of its polar decomposition.
    """
    w = as_square(w)
    d = as_square(d)
    n = w.shape[0]
    if w.shape != d.shape:
        raise LinalgError("dimension mismatch")
    defect = unitarity_defect(w)
    if defect > default_tol(n):
        raise LinalgError(f"W is not unitary: defect {defect:.3e}")

    values, bases = cluster_eigenbasis(d, cluster_tol)
    r = len(values)
    if r == 1:
        # Everything commutes with an (almost) scalar matrix.
        return CommutingUnitaryResult(frozen(w.conj().T), 0.0, ())

    s = min(
        abs(values[i] - values[j]) for i in range(r) for j in range(i + 1, r)
    )
    if s < min_gap:
        raise ApproximantError(f"spectral gap {s:.3e} below min_gap {min_gap:.3e}")

    v = np.zeros((n, n), dtype=complex)
    completed = []
    for idx, basis in enumerate(bases):
        block = basis.conj().T @ w @ basis
        if operator_norm(block) <= 1e-12:
            vb = np.eye(block.shape[0], dtype=complex)
            completed.append(idx)
        else:
            vb, _ = polar_decomposition(block)
        v += basis @ vb @ basis.conj().T

    z = v.conj().T
    return CommutingUnitaryResult(frozen(z), 3.0 * r * (r - 1) / s, tuple(completed))


@dataclass(frozen=True)
class IsospectralApproximant:
    """Inner automorphism x -> W x W* with its eigenvalue-slot matching."""

    w: np.ndarray
    permutation: np.ndarray | None  # source slot i -> target slot permutation[i]
    # (U, diagonals) of the target's joint diagonalization, when matched to one
    target_basis: tuple[np.ndarray, tuple[np.ndarray, ...]] | None = None

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def apply(self, x) -> np.ndarray:
        x = as_square(x)
        return self.w @ x @ self.w.conj().T

    def inverse(self) -> "IsospectralApproximant":
        return IsospectralApproximant(
            frozen(self.w.conj().T),
            None if self.permutation is None else frozen(np.argsort(self.permutation)),
        )


def matching_cost_matrix(
    dx: list[np.ndarray], dy: list[np.ndarray], overlap: np.ndarray, overlap_weight: float
) -> np.ndarray:
    """Assignment cost between joint eigenvalue slots.

    Base cost is the maximum coordinatewise modulus difference.  Slots with
    disjoint eigenvectors (by the overlap matrix) are penalized, which breaks
    value ties toward the geometric correspondence (crossed matches on
    near-degenerate values would otherwise make the conjugation
    uncompressible).
    """
    n = dx[0].shape[0]
    cost = np.zeros((n, n))
    for dxj, dyj in zip(dx, dy):
        cost = np.maximum(cost, np.abs(dxj[:, None] - dyj[None, :]))
    return cost + overlap_weight * (1.0 - np.abs(overlap) ** 2)


def joint_isospectral_approximant(
    x: NormalTuple, y: NormalTuple, delta: float
) -> IsospectralApproximant:
    """Unitary conjugation carrying X's joint eigenbasis onto Y's.

    Both tuples must commute within default_tol(n).  Joint eigenvalue
    vectors are matched by minimal-cost assignment where a pair costs the
    maximum coordinatewise modulus difference, plus an eigenvector-overlap
    tie-break at the scale of the pair distance.  Spectra are preserved
    exactly (conjugation); Y's joint eigenbasis is recorded.
    """
    from scipy.optimize import linear_sum_assignment

    if x.arity != y.arity or x.dim != y.dim:
        raise ApproximantError("tuples must share arity and dimension")
    n = x.dim
    tol = default_tol(n)
    for t, name in ((x, "source"), (y, "target")):
        if t.commutator_bound > tol:
            raise ApproximantError(
                f"{name} tuple commutator bound {t.commutator_bound:.3e} exceeds {tol:.3e}"
            )
    slack = delta * (1.0 + 1e-9) + 1e-12
    for j, (xj, yj) in enumerate(zip(x, y)):
        dist = operator_norm(xj - yj)
        if dist > slack:
            raise ApproximantError(f"||X_{j} - Y_{j}|| = {dist:.3e} exceeds delta {delta:.3e}")

    ux, dx = joint_diagonalize(x, tol=max(x.commutator_bound, 1e-12))
    uy, dy = joint_diagonalize(y, tol=max(y.commutator_bound, 1e-12))

    overlap = ux.conj().T @ uy
    cost = matching_cost_matrix(dx, dy, overlap, overlap_weight=max(delta, 1e-12))
    rows, cols = linear_sum_assignment(cost)
    perm = cols[np.argsort(rows)]

    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    w = uy @ p @ ux.conj().T
    return IsospectralApproximant(
        frozen(w), frozen(perm), (frozen(uy), tuple(frozen(d) for d in dy)),
    )


def _lattice_candidates(step: float, count: int):
    yield 0.0
    for k in range(1, count + 1):
        yield k * step
        yield -k * step


def nearby_generator(x: NormalTuple, j: int, delta: float) -> np.ndarray:
    """Normal matrix with n distinct eigenvalues, within delta of X_j.

    The tuple must commute within default_tol(n).  The result commutes with
    every member of the tuple, so all of them are functions of it.
    Eigenvalues are placed deterministically on a lattice of pitch
    0.9 * delta / (2n) inside the delta-disk around each eigenvalue of X_j.
    """
    n = x.dim
    if not 0 <= j < x.arity:
        raise ApproximantError(f"index {j} out of range for arity {x.arity}")
    if x.commutator_bound > default_tol(n):
        raise ApproximantError("tuple is not commuting within tolerance")
    step = 0.9 * delta / (2 * n)
    if step <= 1e-13 * max(1.0, operator_norm(x[j])):
        raise ApproximantError(
            f"delta {delta:.3e} too small to separate {n} eigenvalues"
        )
    u, diags = joint_diagonalize(x, tol=max(x.commutator_bound, 1e-12))
    base = diags[j]

    order = sorted(range(n), key=lambda i: (base[i].real, base[i].imag, i))
    chosen = np.empty(n, dtype=complex)
    placed: list[complex] = []
    for i in order:
        for off in _lattice_candidates(step, 2 * n):
            cand = base[i] + off
            if all(abs(cand - prev) >= step * (1.0 - 1e-9) for prev in placed):
                chosen[i] = cand
                placed.append(cand)
                break
        else:
            raise ApproximantError("could not place distinct eigenvalues inside the disk")

    return (u * chosen) @ u.conj().T


def upper_left_block(m) -> np.ndarray:
    """Compression M_{2n} -> M_n onto the leading half."""
    m = as_square(m)
    if m.shape[0] % 2:
        raise LinalgError(f"dimension {m.shape[0]} is odd; need an even size")
    n = m.shape[0] // 2
    return m[:n, :n].copy()


def double_embed(x) -> np.ndarray:
    """Doubling embedding x -> x (+) x."""
    x = as_square(x)
    return np.kron(np.eye(2), x)


SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def dilate(psi: IsospectralApproximant, kind: str = "standard") -> IsospectralApproximant:
    """Lift an inner automorphism of M_n to M_{2n}.

    standard: conjugation by W (+) W.
    swap:     conjugation by (SWAP (x) 1) (W* (+) W), an involution.
    """
    w = psi.w
    n = w.shape[0]
    if kind == "standard":
        big = np.kron(np.eye(2), w)
    elif kind == "swap":
        zero = np.zeros_like(w)
        big = np.kron(SWAP2, np.eye(n)) @ np.block([[w.conj().T, zero], [zero, w]])
    else:
        raise ApproximantError(f"unknown dilation kind {kind!r}")
    return IsospectralApproximant(frozen(big), None)


def conjugation_tuple_map(w):
    """Elementwise x -> W x W* on tuples."""
    w = as_square(w)

    def phi(mats):
        return [w @ as_square(m) @ w.conj().T for m in mats]

    return phi


def dilation_tuple_map(w):
    """Elementwise doubling followed by the standard dilated conjugation."""
    big = dilate(IsospectralApproximant(frozen(as_square(w)), None))

    def phi(mats):
        return [big.apply(double_embed(m)) for m in mats]

    return phi
