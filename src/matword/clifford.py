"""Complex Clifford algebra generators and the induced metric on matrix tuples.

The algebra with N anticommuting generators squaring to -1 is represented
irreducibly on C^(2^floor(N/2)): generator j is -i gamma_j, where gamma_j
are Jordan-Wigner products of Pauli matrices.  Entries lie in {0, +-1, +-i},
so the defining relations hold exactly.  For odd N the other irreducible
representation gives the negative Clifford operator, and the left-regular
one a sum of copies of both, so every norm is the same in each (Loring,
"K-theory and pseudospectra for topological insulators", Ann. Phys. 356, 2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .linalg import LinalgError, _as_matrix_list, as_square

MAX_GENERATORS = 12
MAX_ROWS = 4096  # the largest operator clifford_norm decomposes densely

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    """Irreducible representation: one read-only matrix per generator."""

    nvars: int
    generators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return 2 ** (self.nvars // 2)


@cache
def clifford_generators(nvars: int) -> CliffordRep:
    """Generators of the complex Clifford algebra on ``nvars`` symbols."""
    if not 1 <= nvars <= MAX_GENERATORS:
        raise LinalgError(f"generator count must be in 1..{MAX_GENERATORS}, got {nvars}")
    k = nvars // 2
    eye = np.eye(2, dtype=complex)
    factors = [[_PAULI_Z] * q + [pauli] + [eye] * (k - q - 1)
               for q in range(k) for pauli in (_PAULI_X, _PAULI_Y)]
    if nvars % 2:
        factors.append([_PAULI_Z] * k)
    gens = tuple(-1j * reduce(np.kron, f, np.eye(1, dtype=complex)) for f in factors)
    for g in gens:
        g.flags.writeable = False
    return CliffordRep(nvars, gens)


def clifford_operator(mats) -> np.ndarray:
    """i * sum_j X_j (x) e_j acting on C^n tensored with the representation."""
    mats = _as_matrix_list(mats)
    if not mats:
        raise LinalgError("empty tuple")
    rep = clifford_generators(len(mats))
    return sum(np.kron(as_square(x), 1j * g) for x, g in zip(mats, rep.generators))


def clifford_norm(mats) -> float:
    """Operator norm of the Clifford operator of a tuple: one dense SVD.

    An operator of more than MAX_ROWS rows is refused with LinalgError
    before it is built.
    """
    mats = _as_matrix_list(mats)
    if mats:
        rows = mats[0].shape[0] * clifford_generators(len(mats)).dim
        if rows > MAX_ROWS:
            raise LinalgError(f"Clifford operator of {rows} rows exceeds {MAX_ROWS}")
    return float(np.linalg.norm(clifford_operator(mats), 2))


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
    "MAX_ROWS",
    "clifford_distance",
    "clifford_generators",
    "clifford_norm",
    "clifford_operator",
]
