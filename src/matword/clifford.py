"""Real Clifford algebra generators and the induced metric on matrix tuples.

The algebra with N anticommuting generators squaring to -1 is represented by
left multiplication on its own 2^N-dimensional basis, indexed by subsets of
{1..N} encoded as bitmasks.  Generator matrices are signed permutations with
integer entries, so the defining relations hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock

import numpy as np

from .linalg import LinalgError, _as_matrix_list, as_square

MAX_GENERATORS = 12


@dataclass(frozen=True)
class CliffordRep:
    """Left-regular representation: one signed-permutation matrix per generator."""

    nvars: int
    generators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return 2**self.nvars


_CACHE: dict[int, CliffordRep] = {}
_CACHE_LOCK = Lock()


def _left_multiplier(j: int, nvars: int) -> np.ndarray:
    """Matrix of left multiplication by generator j on the subset basis."""
    size = 2**nvars
    bit = 1 << (j - 1)
    below = bit - 1
    g = np.zeros((size, size), dtype=np.int64)
    for col in range(size):
        sign = -1 if (col & below).bit_count() % 2 else 1
        if col & bit:
            sign = -sign  # generator squares to -1
        g[col ^ bit, col] = sign
    return g


def clifford_generators(nvars: int) -> CliffordRep:
    """Generators of the real Clifford algebra on ``nvars`` symbols."""
    if not 1 <= nvars <= MAX_GENERATORS:
        raise LinalgError(f"generator count must be in 1..{MAX_GENERATORS}, got {nvars}")
    with _CACHE_LOCK:
        rep = _CACHE.get(nvars)
        if rep is None:
            gens = tuple(_left_multiplier(j, nvars) for j in range(1, nvars + 1))
            for g in gens:
                g.flags.writeable = False
            rep = CliffordRep(nvars, gens)
            _CACHE[nvars] = rep
    return rep


def clifford_operator(mats) -> np.ndarray:
    """i * sum_j X_j (x) e_j acting on C^n tensored with the algebra."""
    mats = _as_matrix_list(mats)
    if not mats:
        raise LinalgError("empty tuple")
    rep = clifford_generators(len(mats))
    n = mats[0].shape[0]
    out = np.zeros((n * rep.dim, n * rep.dim), dtype=complex)
    for x, g in zip(mats, rep.generators):
        out += 1j * np.kron(as_square(x), g.astype(float))
    return out


def _power_iteration_norm(a: np.ndarray) -> float:
    """Power iteration on A* A: at most 1000 steps, to a 1e-8 relative change."""
    n = a.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    b = a.conj().T @ a
    lam = 0.0
    for _ in range(1000):
        w = b @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_lam = float(np.real(np.vdot(v, b @ v)))
        if abs(new_lam - lam) <= 1e-8 * max(new_lam, 1e-300):
            lam = new_lam
            break
        lam = new_lam
    return float(np.sqrt(max(lam, 0.0)))


def clifford_norm(mats) -> float:
    """Operator norm of the Clifford operator of a tuple, exact up to 4096 rows.

    Above 4096 rows it is a power-iteration estimate, stopped at a 1e-8
    relative change of the Rayleigh quotient, and not a bound.
    """
    op = clifford_operator(mats)
    if op.shape[0] <= 4096:
        return float(np.linalg.norm(op, 2))
    return _power_iteration_norm(op)


def clifford_distance(s, t) -> float:
    """Metric on same-arity tuples: norm of the Clifford operator of S - T."""
    s = _as_matrix_list(s)
    t = _as_matrix_list(t)
    if len(s) != len(t):
        raise LinalgError(f"arity mismatch: {len(s)} vs {len(t)}")
    diffs = [as_square(a) - as_square(b) for a, b in zip(s, t)]
    return clifford_norm(diffs)


__all__ = [
    "CliffordRep",
    "MAX_GENERATORS",
    "clifford_distance",
    "clifford_generators",
    "clifford_norm",
    "clifford_operator",
]
