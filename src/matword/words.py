"""Mixed matrix words, word functions and noncommutative polynomial systems.

A word is a product c_1 x_1^k_1 ... c_L x_L^k_L of coefficient matrices and
powers of variable matrices, evaluated strictly left to right.  Variables of
a word function on m inputs are indexed 0..2m-1, where index m+j stands for
the conjugate transpose of input j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import clifford_distance
from .linalg import LinalgError, _as_matrix_list, as_square, operator_norm


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class WordSpec:
    """One mixed word: parallel index lists of equal length L plus exponents."""

    coeff_indices: tuple[int, ...]
    var_indices: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.coeff_indices) == len(self.var_indices) == len(self.exponents)):
            raise WordError("coeff_indices, var_indices and exponents must have equal length")
        if len(self.exponents) == 0:
            raise WordError("empty word")
        if any(k < 0 for k in self.exponents):
            raise WordError("exponents must be non-negative")


def _check_indices(word: WordSpec, n_coeffs: int, n_vars: int):
    if any(not 0 <= i < n_coeffs for i in word.coeff_indices):
        raise WordError(f"coefficient index out of range (have {n_coeffs} coefficients)")
    if any(not 0 <= i < n_vars for i in word.var_indices):
        raise WordError(f"variable index out of range (have {n_vars} variables)")


def eval_word(word: WordSpec, coeffs: Sequence, variables: Sequence) -> np.ndarray:
    """Evaluate one word left to right; powers use binary exponentiation."""
    coeffs = [as_square(c) for c in coeffs]
    variables = [as_square(v) for v in variables]
    if not coeffs:
        raise WordError("coefficient set is empty")
    n = coeffs[0].shape[0]
    for m in coeffs + variables:
        if m.shape[0] != n:
            raise LinalgError("coefficient/variable dimensions disagree")
    if not any(np.array_equal(c, np.eye(n)) or operator_norm(c - np.eye(n)) <= 1e-14 * n
               for c in coeffs):
        raise WordError("coefficient set must contain the identity")
    _check_indices(word, len(coeffs), len(variables))

    out = np.eye(n, dtype=complex)
    for ci, vi, k in zip(word.coeff_indices, word.var_indices, word.exponents):
        out = out @ coeffs[ci]
        if k > 0:
            out = out @ np.linalg.matrix_power(variables[vi], k)
    return out


@dataclass(frozen=True)
class WordFunction:
    """m-component function; component k is sum_j alpha_{k,j} * word_{k,j}.

    Words see 2*arity variables: the inputs followed by their adjoints.
    """

    arity: int
    components: tuple[tuple[tuple[complex, WordSpec], ...], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise WordError("arity must be positive")
        for comp in self.components:
            for _, w in comp:
                if any(i >= 2 * self.arity for i in w.var_indices):
                    raise WordError("word references a variable beyond the adjoint range")

    @classmethod
    def identity(cls, arity: int) -> "WordFunction":
        comps = tuple(
            ((1.0 + 0.0j, WordSpec((0,), (j,), (1,))),) for j in range(arity)
        )
        return cls(arity, comps)


def _eval_sums(sums, x, arity: int, what: str) -> list[np.ndarray]:
    """Evaluate sums of (alpha, word) terms on a tuple and its adjoints,
    with the identity as the only coefficient."""
    mats = _as_matrix_list(x)
    if len(mats) != arity:
        raise WordError(f"arity mismatch: {what} takes {arity}, tuple has {len(mats)}")
    n = mats[0].shape[0]
    coeffs = [np.eye(n, dtype=complex)]
    variables = mats + [m.conj().T for m in mats]
    out = []
    for terms in sums:
        acc = np.zeros((n, n), dtype=complex)
        for alpha, word in terms:
            acc = acc + alpha * eval_word(word, coeffs, variables)
        out.append(acc)
    return out


def eval_word_function(f: WordFunction, x) -> list[np.ndarray]:
    """Evaluate each component on a tuple, with the identity as the only coefficient."""
    return _eval_sums(f.components, x, f.arity, "function")


@dataclass(frozen=True)
class NCPolySystem:
    """System of noncommutative polynomials with a residual tolerance.

    Each polynomial is a tuple of (coefficient, word) pairs over ``nvars``
    variables; index nvars+j addresses the adjoint of variable j.
    """

    nvars: int
    polys: tuple[tuple[tuple[complex, WordSpec], ...], ...]
    eps: float

    def __post_init__(self):
        if len(self.polys) < 1:
            raise WordError("system needs at least one polynomial")
        if self.eps < 0:
            raise WordError("eps must be non-negative")


def commutator_system(nvars: int, eps: float) -> NCPolySystem:
    """All pairwise commutator polynomials x_j x_k - x_k x_j, j < k."""
    polys = []
    for j in range(nvars):
        for k in range(j + 1, nvars):
            polys.append(
                (
                    (1.0 + 0.0j, WordSpec((0, 0), (j, k), (1, 1))),
                    (-1.0 + 0.0j, WordSpec((0, 0), (k, j), (1, 1))),
                )
            )
    return NCPolySystem(nvars, tuple(polys), eps)


def variety_membership(x, system: NCPolySystem):
    """Evaluate residual norms of the system; member iff all are <= eps."""
    values = _eval_sums(system.polys, x, system.nvars, "system")
    residuals = [operator_norm(v) for v in values]
    member = all(r <= system.eps for r in residuals)
    return member, residuals


TupleMap = Callable[[Sequence[np.ndarray]], list[np.ndarray]]


def controllability_ratio(f: WordFunction, phi: TupleMap, x, y) -> float:
    """Distortion ratio of ``f`` under the linear tuple map ``phi``.

    Returns d(phi(f(X)), phi(f(Y))) / d(f(phi(X)), f(phi(Y))) in the Clifford
    metric.  A denominator at most 1e-14 is only accepted when the numerator
    is at most 1e-12 (ratio 0); otherwise the ratio is undefined and raises.
    """
    xm = _as_matrix_list(x)
    ym = _as_matrix_list(y)
    num = clifford_distance([phi_m for phi_m in phi(eval_word_function(f, xm))],
                            [phi_m for phi_m in phi(eval_word_function(f, ym))])
    den = clifford_distance(eval_word_function(f, phi(xm)), eval_word_function(f, phi(ym)))
    if den <= 1e-14:
        if num <= 1e-12:
            return 0.0
        raise WordError(
            f"controllability ratio undefined: numerator {num:.3e} with zero denominator"
        )
    return num / den


def controllability_constant(f: WordFunction, phi: TupleMap, pairs) -> float:
    """Empirical control constant: max ratio over sampled tuple pairs."""
    best = 0.0
    for x, y in pairs:
        best = max(best, controllability_ratio(f, phi, x, y))
    return best
