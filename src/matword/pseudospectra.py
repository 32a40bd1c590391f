"""Pseudospectra on interpolation grids, with scanning triples.

Grids are either tensor products of Chebyshev points of the second kind or
quadtrees whose leaves carry small Chebyshev stencils.  Fields store one
non-negative real value per grid node; the main field is the smallest
singular value of A - lambda * I.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_square, frozen, operator_norm


class GridError(ValueError):
    pass


Bounds = tuple[float, float, float, float]  # (re_min, re_max, im_min, im_max)


@dataclass(frozen=True)
class QuadCell:
    x0: float
    x1: float
    y0: float
    y1: float
    depth: int

    def children(self) -> tuple["QuadCell", ...]:
        xm = 0.5 * (self.x0 + self.x1)
        ym = 0.5 * (self.y0 + self.y1)
        d = self.depth + 1
        return (
            QuadCell(self.x0, xm, self.y0, ym, d),
            QuadCell(xm, self.x1, self.y0, ym, d),
            QuadCell(self.x0, xm, ym, self.y1, d),
            QuadCell(xm, self.x1, ym, self.y1, d),
        )


@dataclass(frozen=True)
class Grid2D:
    bounds: Bounds
    nodes: np.ndarray  # complex, one entry per node
    kind: str  # "chebyshev" | "quadtree"
    shape: tuple[int, int] | None = None  # (q, p) for tensor grids, y-major
    cells: tuple[QuadCell, ...] | None = None
    cell_order: int = 3

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class ScalarField2D:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise GridError(f"need one value per node: {v.shape} vs {self.grid.size}")
        if not np.isfinite(v).all():
            raise GridError("field has non-finite values")
        if np.any(v < 0):
            raise GridError("field values must be non-negative")
        object.__setattr__(self, "values", frozen(v))


@dataclass(frozen=True)
class PseudospectrumResult:
    field: ScalarField2D
    mask: np.ndarray  # bool per node
    eps: float


@dataclass(frozen=True)
class ScanTriple:
    """(U, sigma, V) with recomputed residual ||U A V - sigma U V||."""

    sigma: complex
    u: np.ndarray  # k x n, adjoint of the left singular block
    v: np.ndarray  # n x k, right singular block
    residual: float


def _validate_bounds(bounds: Bounds) -> Bounds:
    x0, x1, y0, y1 = (float(b) for b in bounds)
    if not (x1 > x0 and y1 > y0 and np.isfinite([x0, x1, y0, y1]).all()):
        raise GridError(f"degenerate or unbounded rectangle {bounds}")
    return (x0, x1, y0, y1)


def chebyshev_points(a: float, b: float, count: int) -> np.ndarray:
    """Chebyshev points of the second kind mapped to [a, b], ascending."""
    if count < 2:
        raise GridError("need at least 2 points per axis")
    k = np.arange(count)
    ref = -np.cos(np.pi * k / (count - 1))  # ascending in [-1, 1]
    return a + (b - a) * (ref + 1.0) / 2.0


def chebyshev_grid(bounds: Bounds, p: int, q: int) -> Grid2D:
    """Tensor Chebyshev grid: p points along the real axis, q imaginary."""
    bounds = _validate_bounds(bounds)
    xs = chebyshev_points(bounds[0], bounds[1], p)
    ys = chebyshev_points(bounds[2], bounds[3], q)
    nodes = (xs[None, :] + 1j * ys[:, None]).ravel()
    return Grid2D(bounds, frozen(nodes), "chebyshev", shape=(q, p))


def _quadtree_nodes(cells: tuple[QuadCell, ...], order: int) -> np.ndarray:
    """Union of the cells' Chebyshev stencils, ordered by (imag, real).

    Nodes whose coordinates agree to 10 decimals are one node, kept at the
    first-seen value in cell order, then y-major within a cell.
    """
    box = np.array([(c.x0, c.x1, c.y0, c.y1) for c in cells])
    xs = chebyshev_points(box[:, 0:1], box[:, 1:2], order)
    ys = chebyshev_points(box[:, 2:3], box[:, 3:4], order)
    pts = (xs[:, None, :] + 1j * ys[:, :, None]).ravel()
    # round() on a float64 scalar is np.round, not Python's float round;
    # np.unique compares with ==, so keys -0.0 and 0.0 name one node
    _, kx = np.unique(np.round(pts.real, 10), return_inverse=True)
    _, ky = np.unique(np.round(pts.imag, 10), return_inverse=True)
    _, first = np.unique(kx * (ky.max() + 1) + ky, return_index=True)
    pts = pts[first]
    return pts[np.lexsort((pts.real, pts.imag))]


def quadtree_grid(bounds: Bounds, depth: int = 0, cell_order: int = 3) -> Grid2D:
    """Uniformly subdivided quadtree grid over a rectangle."""
    bounds = _validate_bounds(bounds)
    if cell_order < 2:
        raise GridError("cell_order must be >= 2")
    if depth < 0:
        raise GridError(f"depth must be >= 0, got {depth}")
    cells = [QuadCell(*bounds, 0)]
    for _ in range(depth):
        cells = [child for c in cells for child in c.children()]
    cells = tuple(cells)
    return Grid2D(bounds, frozen(_quadtree_nodes(cells, cell_order)), "quadtree",
                  cells=cells, cell_order=cell_order)


def _sigma_min(a: np.ndarray, eye: np.ndarray, z) -> float:
    return np.linalg.svd(a - z * eye, compute_uv=False)[-1]


def refine_grid(grid: Grid2D, field, threshold: float, max_depth: int) -> Grid2D:
    """Subdivide quadtree cells that hold a node with field value <= threshold.

    ``field`` is a ScalarField2D on ``grid`` or on a grid with equal nodes
    (else GridError), or a square matrix A, whose field sigma_min(A - z) is
    evaluated only where a cell's decision needs it.  A cell's nodes are
    those in its closed rectangle, hanging nodes of finer neighbours
    included, visited nearest-centre first; the first node at or below the
    threshold splits the cell.  For a matrix, sigma_min is 1-Lipschitz in z
    (Weyl), so a node z needs no SVD when an evaluated node w of the cell
    has sigma(w) - |z - w| above the threshold by more than the SVD's
    rounding error: the decisions, and so the grid, are those of the full
    field.  Cells already at ``max_depth`` are kept; when nothing qualifies
    the grid is returned unchanged.  The threshold must be positive.
    """
    if not threshold > 0:
        raise GridError(f"threshold must be positive, got {threshold!r}")
    if grid.kind != "quadtree" or grid.cells is None:
        raise GridError("refinement needs a quadtree grid")
    z = grid.nodes
    if isinstance(field, ScalarField2D):
        if field.grid is not grid and not np.array_equal(field.grid.nodes, z):
            raise GridError("field does not match the grid")
        value = field.values.__getitem__
        margin = None  # a tabulated field need not be Lipschitz
    else:
        a = as_square(field)
        eye = np.eye(a.shape[0])
        values = np.full(grid.size, np.nan)
        # covers the rounding error of two SVDs, p(n) u ||A - z||, at desk scale
        margin = 1e-12 * (np.linalg.norm(a) + np.abs(z).max() + 1.0)

        def value(i):
            if np.isnan(values[i]):
                values[i] = _sigma_min(a, eye, z[i])
            return values[i]

    def splits(c: QuadCell) -> bool:
        pad = 1e-9 * max(c.x1 - c.x0, c.y1 - c.y0)
        (idx,) = np.nonzero(
            (z.real >= c.x0 - pad)
            & (z.real <= c.x1 + pad)
            & (z.imag >= c.y0 - pad)
            & (z.imag <= c.y1 + pad)
        )
        zc = z[idx]
        centre = complex(0.5 * (c.x0 + c.x1), 0.5 * (c.y0 + c.y1))
        certified = np.zeros(len(idx), dtype=bool)
        for k in np.argsort(np.abs(zc - centre), kind="stable"):
            if certified[k]:
                continue
            v = value(idx[k])
            if v <= threshold:
                return True
            if margin is not None:
                certified |= v - np.abs(zc - zc[k]) > threshold + margin
        return False

    new_cells: list[QuadCell] = []
    changed = False
    for c in grid.cells:
        if c.depth < max_depth and splits(c):
            new_cells.extend(c.children())
            changed = True
        else:
            new_cells.append(c)
    if not changed:
        return grid
    cells = tuple(new_cells)
    return replace(grid, nodes=frozen(_quadtree_nodes(cells, grid.cell_order)), cells=cells)


def sigma_min_field(a, grid: Grid2D) -> ScalarField2D:
    """Smallest singular value of A - lambda at every grid node."""
    a = as_square(a)
    n = a.shape[0]
    eye = np.eye(n)
    values = np.empty(grid.size)
    for i, lam in enumerate(grid.nodes):
        values[i] = _sigma_min(a, eye, lam)
    return ScalarField2D(grid, values)


def pseudospectrum(a, eps: float, grid: Grid2D) -> PseudospectrumResult:
    """Field of smallest singular values plus the eps-membership mask."""
    if eps <= 0:
        raise GridError("eps must be positive")
    field = sigma_min_field(a, grid)
    mask = field.values <= eps
    return PseudospectrumResult(field, frozen(mask), eps)


def scan_triples(a, eps: float, points) -> list[ScanTriple]:
    """Scanning triples at the given points, one per point inside the region.

    For each point sigma with sigma_min(A - sigma) <= eps the right/left
    singular subspaces for singular values <= eps are extracted; the stored
    residual is recomputed from the blocks and points violating the bound
    are dropped.
    """
    if eps <= 0:
        raise GridError("eps must be positive")
    a = as_square(a)
    n = a.shape[0]
    eye = np.eye(n)
    out: list[ScanTriple] = []
    for sigma in points:
        sigma = complex(sigma)
        b = a - sigma * eye
        u_full, s, vh = np.linalg.svd(b)
        keep = s <= eps
        if not keep.any():
            continue
        u = u_full[:, keep].conj().T
        v = vh[keep, :].conj().T
        residual = operator_norm(u @ a @ v - sigma * (u @ v))
        if residual > eps:
            continue
        out.append(ScanTriple(sigma, frozen(u), frozen(v), residual))
    return out


def eigenvalue_disk_mask(a, eps: float, grid: Grid2D) -> np.ndarray:
    """Membership oracle for normal matrices: distance to the spectrum <= eps."""
    a = as_square(a)
    eigs = np.linalg.eigvals(a)
    dist = np.min(np.abs(grid.nodes[:, None] - eigs[None, :]), axis=1)
    return dist <= eps
