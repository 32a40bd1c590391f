"""A factory of commuting tuples and an oracle for the pseudospectra of
normal matrices, which the tests check the library against."""

import numpy as np

from matword.linalg import as_square, hermitian_part
from matword.pseudospectra import Grid2D
from matword.sampling import haar_unitary


def commuting_hermitian_tuple(rng: np.random.Generator, m: int, n: int) -> list[np.ndarray]:
    """m exactly commuting hermitian contractions, diagonal in a common basis."""
    q = haar_unitary(rng, n)
    out = []
    for _ in range(m):
        d = rng.uniform(-1.0, 1.0, n)
        out.append(hermitian_part((q * d) @ q.conj().T))
    return out


def eigenvalue_disk_mask(a, eps: float, grid: Grid2D) -> np.ndarray:
    """Membership oracle for normal matrices: distance to the spectrum <= eps."""
    a = as_square(a)
    eigs = np.linalg.eigvals(a)
    dist = np.min(np.abs(grid.nodes[:, None] - eigs[None, :]), axis=1)
    return dist <= eps
