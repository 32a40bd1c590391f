"""The JSON matrix and grid loaders as they were before pair arrays were
parsed straight into floats: ``json.loads`` of the whole file, then one
Python list per [re, im] pair.  The tests check ``io.load_matrices`` and
``io.load_grid_json`` against them, array bits and error messages alike.
Only the parse path is copied; the key and cell checks are the library's.
"""

import json
from pathlib import Path

import numpy as np

from matword import io
from matword.linalg import frozen
from matword.pseudospectra import Grid2D, _validate_bounds


def _from_pairs(pairs, count: int, what: str) -> np.ndarray:
    if len(pairs) != count:
        raise io.FileFormatError(f"{what}: expected {count} entries, found {len(pairs)}")
    out = np.empty(count, dtype=complex)
    try:
        arr = np.array(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.shape == (count, 2) and np.isfinite(arr).all():
        out.real = arr[:, 0]
        out.imag = arr[:, 1]
        return out
    # the per-entry pass names the first malformed entry
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise io.FileFormatError(f"{what}: entry {i} is not an [re, im] pair")
        re, im = float(pair[0]), float(pair[1])
        if not (np.isfinite(re) and np.isfinite(im)):
            raise io.FileFormatError(f"{what}: entry {i} is not finite")
        out[i] = complex(re, im)
    return out


def _load_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise io.FileFormatError(
            f"{path}: parse error at byte offset {exc.pos}: {exc.msg}") from exc
    return io._require(doc, path)


def load_matrices(path) -> tuple[np.ndarray, ...]:
    doc = _load_json(path)
    if doc.get("format") != io.MATRIX_FORMAT:
        raise io.FileFormatError(f"{path}: unrecognized format {doc.get('format')!r}")
    dim = io._value(doc, path, "dim", int)
    if dim < 1:
        raise io.FileFormatError(f"{path}: key 'dim' must be at least 1, found {dim}")
    entries = io._value(doc, path, "matrices", list, default=[])
    if not entries:
        raise io.FileFormatError(f"{path}: container holds no matrices")
    mats = []
    for i, rec in enumerate(entries):
        where = f"{path}: matrix {i}"
        flat = io._value(rec, where, "entries", lambda e: _from_pairs(e, dim * dim, where))
        mats.append(flat.reshape(dim, dim))
    return tuple(mats)


def load_grid_json(path) -> Grid2D:
    doc = _load_json(path)
    g = io._require(doc["grid"] if "grid" in doc else doc, path, "nodes", "bounds", "kind")
    nodes = io._value(g, path, "nodes", lambda v: _from_pairs(v, len(v), f"{path}: nodes"))
    return Grid2D(
        bounds=io._value(g, path, "bounds", _validate_bounds),
        nodes=frozen(nodes),
        kind=g["kind"],
        shape=io._value(g, path, "shape", lambda sh: tuple(int(v) for v in sh), default=None),
        cells=io._value(g, path, "cells", lambda cs: io._quad_cells(cs, path), default=None),
        cell_order=io._value(g, path, "cell_order", int, default=3),
    )
