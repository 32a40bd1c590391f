"""Constructive approximation lemmas at matrix scale.

The nearby commuting unitary with its explicit constant 3r(r-1)/s, joint
isospectral approximants built from minimal-cost eigenvalue matching, and
the block compression / doubling / dilation toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinalgError,
    NormalTuple,
    as_square,
    cluster_eigenbasis,
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
class CommutingUnitaryResult:
    """Unitary commuting with D, with the explicit proof constant.

    ``constant`` is 3r(r-1)/s for r spectral clusters at minimum gap s, and
    ||1 - W Z|| <= constant * ||W D W* - D|| holds for the input unitary W.
    """

    z: np.ndarray
    constant: float


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
        return CommutingUnitaryResult(frozen(w.conj().T), 0.0)

    s = min(
        abs(values[i] - values[j]) for i in range(r) for j in range(i + 1, r)
    )
    if s < min_gap:
        raise ApproximantError(f"spectral gap {s:.3e} below min_gap {min_gap:.3e}")

    v = np.zeros((n, n), dtype=complex)
    for basis in bases:
        block = basis.conj().T @ w @ basis
        if operator_norm(block) <= 1e-12:
            # the compression vanished: complete the block by the identity
            vb = np.eye(block.shape[0], dtype=complex)
        else:
            vb, _ = polar_decomposition(block)
        v += basis @ vb @ basis.conj().T

    z = v.conj().T
    return CommutingUnitaryResult(frozen(z), 3.0 * r * (r - 1) / s)


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


def _min_cost_assignment(cost) -> np.ndarray:
    """Column assigned to each row by a minimum-cost perfect matching.

    A port of the shortest-augmenting-path solver that
    scipy.optimize.linear_sum_assignment runs (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016), square case,
    kept step for step so that ties resolve to the same columns: the free
    columns are listed in reverse and swap-removed, reduced costs are summed
    left to right, and a tie on the lowest cost goes to an unassigned column.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ApproximantError(f"assignment cost must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ApproximantError("assignment cost has non-finite entries")
    n = c.shape[0]
    rows = c.tolist()
    u = [0.0] * n
    v = [0.0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        # shortest augmenting path from row cur, over the reduced costs
        remaining = list(range(n - 1, -1, -1))
        spc = [math.inf] * n
        visited_rows, visited_cols = [], []
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            visited_rows.append(i)
            ci, ui = rows[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        # dual update, then augment along the path
        u[cur] += min_val
        for i in visited_rows:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.intp)


def joint_isospectral_approximant(
    x: NormalTuple, y: NormalTuple, delta: float
) -> IsospectralApproximant:
    """Unitary conjugation carrying X's joint eigenbasis onto Y's.

    Both tuples must commute within default_tol(n).  Joint eigenvalue
    vectors are matched by minimal-cost assignment where a pair costs the
    maximum coordinatewise modulus difference, plus an eigenvector-overlap
    tie-break at the scale of the pair distance.  The assignment is
    ``_min_cost_assignment``, which picks the columns
    scipy.optimize.linear_sum_assignment picks without importing it.
    Spectra are preserved exactly (conjugation); Y's joint eigenbasis is
    recorded.
    """
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
    return isospectral_from_bases(ux, dx, uy, dy, delta)


def isospectral_from_bases(ux, dx, uy, dy, delta: float) -> IsospectralApproximant:
    """``joint_isospectral_approximant`` of tuples already diagonalized: X_j =
    ux diag(dx[j]) ux* and Y_j = uy diag(dy[j]) uy*, unchecked."""
    n = len(ux)
    overlap = ux.conj().T @ uy
    cost = matching_cost_matrix(dx, dy, overlap, overlap_weight=max(delta, 1e-12))
    perm = _min_cost_assignment(cost)

    p = np.zeros((n, n))
    p[perm, np.arange(n)] = 1.0
    w = uy @ p @ ux.conj().T
    return IsospectralApproximant(
        frozen(w), frozen(perm), (frozen(uy), tuple(frozen(d) for d in dy)),
    )


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
