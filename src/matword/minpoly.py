"""Ritz values, approximate minimal polynomials and lemniscate fields.

The approximate minimal polynomial of A is found by a degree sweep of monic
least-squares fits over Ritz values from a seeded Arnoldi run; the residual
is the operator norm of p evaluated at A.  Lemniscates are level sets of
|p(z)| extracted by marching squares on tensor grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LinalgError, as_square, operator_norm
from .pseudospectra import Grid2D, GridError, ScalarField2D


@dataclass(frozen=True)
class PolyC:
    """Complex polynomial, coefficients ascending c0..cd."""

    coeffs: tuple[complex, ...]
    monic: bool = False

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise LinalgError("polynomial needs at least one coefficient")
        if not all(np.isfinite([c.real, c.imag]).all() for c in map(complex, self.coeffs)):
            raise LinalgError("polynomial has non-finite coefficients")
        if self.monic and self.coeffs[-1] != 1:
            raise LinalgError("monic polynomial must have leading coefficient 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def roots(self) -> np.ndarray:
        """The roots, refused by name when one lies beyond the float range."""
        c = np.trim_zeros(np.array(self.coeffs[::-1], dtype=complex), "f")
        if len(c) < 2:
            return np.array([], dtype=complex)
        # the first row of the companion matrix whose eigenvalues np.roots takes
        with np.errstate(over="ignore", invalid="ignore"):
            row = -c[1:] / c[0]
        if not np.isfinite(row).all():
            text = ",".join(repr(a.real) if a.imag == 0 else repr(a)
                            for a in map(complex, self.coeffs))
            raise LinalgError(f"polynomial {text} has a root beyond the float range")
        return np.roots(c)


def poly_eval(p: PolyC, z):
    """Horner evaluation; broadcasts over arrays of points."""
    z = np.asarray(z, dtype=complex)
    out = np.full_like(z, p.coeffs[-1])
    for c in p.coeffs[-2::-1]:
        out = out * z + c
    return out


def poly_eval_matrix(p: PolyC, a) -> np.ndarray:
    """p(A) by Horner's rule; an (s, n, n) stack gives one p(A) per matrix."""
    a = as_square(a) if np.ndim(a) == 2 else np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[-1])
    out = np.broadcast_to(complex(p.coeffs[-1]) * eye.astype(complex), a.shape).copy()
    for c in p.coeffs[-2::-1]:
        out = out @ a + complex(c) * eye
    return out


def poly_residual(p: PolyC, a) -> float:
    """Operator norm of p(A); inf where p(A) overflows, which no SVD is asked for."""
    with np.errstate(over="ignore", invalid="ignore"):
        pa = poly_eval_matrix(p, a)
    return operator_norm(pa) if np.isfinite(pa).all() else np.inf


def _arnoldi(a: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Upper-Hessenberg section from k Arnoldi steps with full reorthogonalization.

    Stops early on breakdown (invariant subspace found) and returns the
    section built so far.
    """
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    scale = max(float(np.linalg.norm(a, "fro")), 1e-300)

    q = np.zeros((n, k + 1), dtype=complex)
    h = np.zeros((k + 1, k), dtype=complex)
    q[:, 0] = v
    steps = 0
    for j in range(k):
        w = a @ q[:, j]
        for _ in range(2):  # two Gram-Schmidt passes
            proj = q[:, : j + 1].conj().T @ w
            w = w - q[:, : j + 1] @ proj
            h[: j + 1, j] += proj
        beta = np.linalg.norm(w)
        h[j + 1, j] = beta
        steps = j + 1
        if beta <= 1e-12 * scale:
            break
        q[:, j + 1] = w / beta
    return h[:steps, :steps]


def ritz_values(a, k: int, seed: int = 0) -> np.ndarray:
    """Eigenvalues of the k-step Arnoldi section with a seeded start vector."""
    a = as_square(a)
    n = a.shape[0]
    if not 1 <= k <= n:
        raise LinalgError(f"need 1 <= k <= n, got k={k}, n={n}")
    hk = _arnoldi(a, k, seed)
    vals = np.linalg.eigvals(hk)
    return vals[np.lexsort((vals.imag, vals.real))]


def _monic_fit(nodes: np.ndarray, degree: int) -> PolyC:
    """Monic least-squares fit: minimize sum |p(node)|^2 over monic degree-d p."""
    vand = np.vander(nodes, degree, increasing=True) if degree > 0 else None
    lead = nodes**degree
    if degree == 0:
        return PolyC((1.0 + 0.0j,), monic=True)
    c, *_ = np.linalg.lstsq(vand, -lead, rcond=None)
    return PolyC(tuple(c) + (1.0 + 0.0j,), monic=True)


@np.errstate(over="ignore", invalid="ignore")  # PolyC refuses a fit that overflows
def approx_min_poly(a, delta: float, max_deg: int, seed: int = 0) -> tuple[PolyC, float]:
    """Smallest-degree monic fit over Ritz values reaching ||p(A)|| <= delta.

    Fits min(n, max(2 * max_deg, 16)) Ritz values at degrees 1..max_deg;
    when no degree reaches delta, the lowest residual fit found is returned.
    delta must be positive.
    """
    a = as_square(a)
    n = a.shape[0]
    if max_deg < 1:
        raise LinalgError("max_deg must be >= 1")
    if not delta > 0:
        raise LinalgError(f"delta must be positive, got {delta!r}")
    nodes = ritz_values(a, min(n, max(2 * max_deg, 16)), seed)

    best: tuple[PolyC, float] | None = None
    for d in range(1, max_deg + 1):
        p = _monic_fit(nodes, d)
        res = poly_residual(p, a)
        if best is None or res < best[1]:
            best = (p, res)
        if res <= delta:
            return p, res
    return best


@np.errstate(over="ignore", invalid="ignore")  # ScalarField2D refuses a field that overflows
def lemniscate_field(p: PolyC, grid: Grid2D) -> ScalarField2D:
    """|p(z)| at every grid node."""
    return ScalarField2D(grid, np.abs(poly_eval(p, grid.nodes)))


def _edge_point(pa: complex, pb: complex, fa: float, fb: float, level: float) -> complex:
    t = (level - fa) / (fb - fa)
    return pa + t * (pb - pa)


_EDGE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0))  # bottom, right, top, left


def _cell_segments(corners, values, level):
    inside = [v < level for v in values]
    crossed = [e for e, (i, j) in enumerate(_EDGE_CORNERS) if inside[i] != inside[j]]
    if not crossed:
        return []
    pts = {}
    for e in crossed:
        i, j = _EDGE_CORNERS[e]
        pts[e] = _edge_point(corners[i], corners[j], values[i], values[j], level)
    if len(crossed) == 2:
        return [(pts[crossed[0]], pts[crossed[1]])]
    # Saddle cell: the center value decides whether the diagonal corners
    # connect through the middle or sit in separate caps.
    center_inside = float(np.mean(values)) < level
    pairs = [(3, 0), (1, 2)] if inside[0] != center_inside else [(0, 1), (2, 3)]
    return [(pts[a], pts[b]) for a, b in pairs]


def _stitch(segments: list[tuple[complex, complex]]) -> list[np.ndarray]:
    def key(z: complex):
        return (round(z.real, 9), round(z.imag, 9))

    adjacency: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(idx)
        adjacency.setdefault(key(b), []).append(idx)

    used = [False] * len(segments)
    lines: list[np.ndarray] = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        # grow forward from the tail, then backward from the head
        for endpoint_idx, append in ((len(chain) - 1, True), (0, False)):
            while True:
                tip = chain[-1] if append else chain[0]
                nxt = None
                for cand in adjacency.get(key(tip), []):
                    if not used[cand]:
                        nxt = cand
                        break
                if nxt is None:
                    break
                used[nxt] = True
                ca, cb = segments[nxt]
                other = cb if key(ca) == key(tip) else ca
                if append:
                    chain.append(other)
                else:
                    chain.insert(0, other)
        lines.append(np.array(chain, dtype=complex))
    return lines


def lemniscate_contours(field: ScalarField2D, level: float) -> list[np.ndarray]:
    """Marching-squares polylines of the level set {z : field(z) = level}.

    Needs a tensor grid.  Closed curves repeat their first vertex at the
    end; the list is empty when the level set misses the grid.
    """
    if level <= 0:
        raise GridError("level must be positive")
    grid = field.grid
    if grid.kind != "chebyshev" or grid.shape is None:
        raise GridError("contour extraction requires a tensor grid")
    q, p = grid.shape
    z = grid.nodes.reshape(q, p)
    f = field.values.reshape(q, p)

    # only cells whose corners straddle the level have segments; nonzero
    # keeps the row-major order of the all-cells loop
    inside = f < level
    c = (inside[:-1, :-1], inside[:-1, 1:], inside[1:, 1:], inside[1:, :-1])
    straddles = (c[0] != c[1]) | (c[1] != c[2]) | (c[2] != c[3])
    segments: list[tuple[complex, complex]] = []
    for iy, ix in zip(*np.nonzero(straddles)):
        corners = (z[iy, ix], z[iy, ix + 1], z[iy + 1, ix + 1], z[iy + 1, ix])
        values = (f[iy, ix], f[iy, ix + 1], f[iy + 1, ix + 1], f[iy + 1, ix])
        segments.extend(_cell_segments(corners, values, level))
    return _stitch(segments)


def is_closed(polyline: np.ndarray) -> bool:
    """More than two vertices, the last within 1e-9 of the first."""
    return len(polyline) > 2 and abs(polyline[0] - polyline[-1]) <= 1e-9
