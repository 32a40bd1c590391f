"""Seeded random matrix factories shared by the harness and the tests."""

from __future__ import annotations

import numpy as np

from .linalg import hermitian_part, operator_norm


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    h = hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    cur = operator_norm(h)
    return h * (norm / cur) if cur > 0 else h


def unitary_near_identity(rng: np.random.Generator, n: int, bound: float) -> np.ndarray:
    """Unitary V with ||1 - V|| <= bound (approximately attaining it)."""
    if bound <= 0:
        return np.eye(n, dtype=complex)
    s = random_hermitian(rng, n, norm=1.0)
    angle = 2.0 * np.arcsin(min(bound, 1.99) / 2.0)
    w, q = np.linalg.eigh(s)
    return (q * np.exp(1j * angle * w)) @ q.conj().T


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Gaussian matrix scaled by 1/sqrt(n), so the spectrum sits near the unit disk."""
    scale = 1.0 / np.sqrt(n)
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
