"""The left-regular Clifford representation, which the tests check the
irreducible one against.

The algebra with N anticommuting generators squaring to -1 acts on itself by
left multiplication on the 2^N subsets of {1..N}, encoded as bitmasks; each
generator is a signed permutation with integer entries.  For odd N it holds
both irreducible representations, of opposite orientation, so its operator
norms are those of either one.
"""

import numpy as np


def left_multiplier(j: int, nvars: int) -> np.ndarray:
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


def left_regular_norm(mats) -> float:
    """Norm of i * sum_j X_j (x) L_j on C^n tensored with the whole algebra.

    Each generator flips one bit of a subset, so the operator maps the
    odd-size subsets onto the even-size ones and back; its norm is the
    larger of those two blocks' norms, each a quarter of the operator.
    """
    m = len(mats)
    gens = [left_multiplier(j, m) for j in range(1, m + 1)]
    odd = np.array([s.bit_count() % 2 for s in range(2**m)], dtype=bool)
    return max(
        float(np.linalg.norm(sum(1j * np.kron(np.asarray(x, dtype=complex), g[np.ix_(rows, ~rows)])
                                 for x, g in zip(mats, gens)), 2))
        for rows in (odd, ~odd)
    )
