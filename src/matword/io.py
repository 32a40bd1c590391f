"""File formats: matrix containers, polynomials, fields, contours, reports.

Matrices travel in a JSON container with entries as row-major [re, im]
pairs.  Loaders validate dimensions and finiteness and recompute all
tolerances rather than trusting stored ones.  Report files carry no
timestamps in their bodies, so identical inputs reproduce identical bytes;
CSV files may carry a leading '#' comment line which parsers skip.

Every JSON file is read by ``_load_json``.  Each ``entries`` or ``nodes``
value that is a plain JSON array of ``[number, number]`` pairs goes to
numpy's C float parser, 64 KiB of its text at a time, and ``json.loads``
parses the rest of the document, so no Python list or float is built per
entry.  A value with anything else in it, with text outside the JSON
grammar that strtod would still read (``+1``, ``01``, ``1.``, ``.5``), with
a value that is not finite or with a ``-0`` integer (``json`` reads it as
+0.0, strtod as -0.0) is left to ``json.loads``, and a document that
``json.loads`` then refuses is read again as plain JSON.  Every file thus
gives the arrays, bit for bit, and the errors that ``json.loads`` and one
list per pair give.

Every JSON file is written by ``_write_json``, with the bytes of
``json.dumps(doc, sort_keys=True)``.  The large documents (the scan triples,
the matrix container and the sampled paths) hand it their lists as
iterators, and it writes those one item at a time, so no writer holds a
whole document in memory.  Matrix entries go in as ``_pairs`` text, formed
a chunk of entries at a time, so no writer builds their list of pairs.
Everything that is not streamed is encoded before the file is opened, and a
stream that fails while writing removes the file, so a document that cannot
be encoded leaves no file behind.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from collections.abc import Iterator
from itertools import groupby
from pathlib import Path

import numpy as np

from .linalg import NormalTuple, as_square, frozen
from .minpoly import PolyC
from .pseudospectra import Grid2D, QuadCell, ScalarField2D, ScanTriple, _validate_bounds

MATRIX_FORMAT = "matword-matrix-v1"
POLY_FORMAT = "matword-poly-v1"
NCPOLY_FORMAT = "matword-ncpoly-v1"


class FileFormatError(ValueError):
    pass


class _Text:
    """JSON text that ``_write_json`` writes as given, one string at a time."""

    def __init__(self, chunks):
        self.chunks = chunks


# entries formatted per string of a _pairs text
_PAIR_CHUNK = 1024


def _pairs(values: np.ndarray) -> _Text:
    """The row-major [re, im] pairs of ``values`` as JSON text: the bytes of
    ``json.dumps`` of their list, with each float written by ``float.__repr__``
    as the encoder writes a finite float."""

    def chunks():
        v = np.asarray(values).ravel()
        yield "["
        for i in range(0, len(v), _PAIR_CHUNK):
            c = v[i : i + _PAIR_CHUNK]
            if np.isfinite(c).all():
                text = ", ".join(f"[{re!r}, {im!r}]" for re, im in zip(c.real.tolist(),
                                                                       c.imag.tolist()))
            else:  # NaN and the infinities as json.dumps writes them
                text = json.dumps(np.stack([c.real, c.imag], -1).tolist())[1:-1]
            yield text if i == 0 else ", " + text
        yield "]"

    return _Text(chunks())


def _from_pairs(pairs, count: int, what: str) -> np.ndarray:
    """Complex entries from the parsed JSON list of [re, im] pairs, or from the
    finite (count, 2) floats that ``_pair_floats`` read."""
    if len(pairs) != count:
        raise FileFormatError(f"{what}: expected {count} entries, found {len(pairs)}")
    if isinstance(pairs, np.ndarray):
        return pairs.view(complex).reshape(count)
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
            raise FileFormatError(f"{what}: entry {i} is not an [re, im] pair")
        re, im = float(pair[0]), float(pair[1])
        if not (np.isfinite(re) and np.isfinite(im)):
            raise FileFormatError(f"{what}: entry {i} is not finite")
        out[i] = complex(re, im)
    return out


def _lazy(node) -> bool:
    return isinstance(node, (Iterator, _Text)) or (
        isinstance(node, dict) and any(_lazy(v) for v in node.values()))


def _json_parts(node) -> list:
    """``node``'s JSON text as strings, with each iterator left in place of its
    list and each ``_Text`` in place of its text."""
    if isinstance(node, (Iterator, _Text)):
        return [node]
    if not isinstance(node, dict):
        return [json.dumps(node, sort_keys=True)]
    parts, sep = ["{"], ""
    # each run of plain values in key order is encoded by one json.dumps call
    for lazy, keys in groupby(sorted(node), key=lambda k: _lazy(node[k])):
        if lazy:
            for key in keys:
                parts += [f"{sep}{json.dumps(key)}: ", *_json_parts(node[key])]
                sep = ", "
        else:
            parts.append(sep + json.dumps({k: node[k] for k in keys}, sort_keys=True)[1:-1])
            sep = ", "
    parts.append("}")
    return parts


def _json_text(parts):
    """The strings of ``parts``, each iterator written as a JSON list one item at a time."""
    for part in parts:
        if isinstance(part, str):
            yield part
            continue
        if isinstance(part, _Text):
            yield from part.chunks
            continue
        yield "["
        sep = ""
        # no enumerate: its cached result tuple would keep the last item alive
        for item in part:
            item = _json_parts(item)  # frees the item before the next one is built
            yield sep
            yield from _json_text(item)
            sep = ", "
        yield "]"


def _write_json(path, doc):
    """``json.dumps(doc, sort_keys=True)`` into ``path``, where an iterator, at
    the top or as a dict value, stands for a list and is written item by item."""
    parts = _json_parts(doc)
    with open(path, "w", encoding="utf-8") as f:
        try:
            f.writelines(_json_text(parts))
        except BaseException:
            f.close()
            Path(path).unlink()
            raise


def _write_lines(path, lines: list[str], header: str | None):
    """Text lines, after a '# header' comment line when ``header`` is set."""
    head = [f"# {header}"] if header else []
    Path(path).write_text("\n".join(head + lines) + "\n", encoding="utf-8")


def save_matrices(path, matrices, names=None, meta: dict | None = None):
    """Write one or more square matrices to the JSON container."""
    if isinstance(matrices, NormalTuple):
        matrices = list(matrices.matrices)
    if isinstance(matrices, np.ndarray) and matrices.ndim == 2:
        matrices = [matrices]
    matrices = [as_square(m) for m in matrices]
    dim = matrices[0].shape[0]
    if names is None:
        names = [f"m{i}" for i in range(len(matrices))]
    elif len(names) != len(matrices):
        raise FileFormatError(f"{len(names)} names for {len(matrices)} matrices")
    doc = {
        "format": MATRIX_FORMAT,
        "dim": dim,
        "matrices": ({"name": nm, "entries": _pairs(m)} for nm, m in zip(names, matrices)),
    }
    if meta:
        doc["meta"] = meta
    _write_json(path, doc)


_JSON_WS = b" \t\n\r"
# an entries or nodes key whose value opens like an array of arrays; group 1
# is the outer bracket
_PAIRS_KEY = re.compile(rb'"(?:entries|nodes)"[ \t\n\r]*:[ \t\n\r]*(\[)[ \t\n\r]*\[')
_PAIRS_END = re.compile(rb"\][ \t\n\r]*\]")
_BRACKETS_AS_SPACES = bytes.maketrans(b"[]", b"  ")
# bytes of pair text checked and parsed at a time
_PAIRS_PIECE = 1 << 16

# byte classes; the ones below _OTHER make up numbers
_PLUS, _DOT, _SIGN, _EXP, _ZERO, _DIGIT, _OTHER, _OPEN, _COMMA, _CLOSE = range(10)
_CLASSES = bytes({**dict.fromkeys(b"123456789", _DIGIT), ord("0"): _ZERO, ord("+"): _PLUS,
                  ord("."): _DOT, ord("-"): _SIGN, ord("e"): _EXP, ord("E"): _EXP,
                  ord("["): _OPEN, ord(","): _COMMA, ord("]"): _CLOSE}.get(i, _OTHER)
                 for i in range(256))


def _json_numbers(c: np.ndarray, at: np.ndarray) -> bool:
    """Whether the runs of number bytes in ``c``, the byte classes of pair
    text without whitespace, are JSON numbers other than the integer -0,
    given that C's strtod reads each one whole.  ``at`` holds the positions
    of all other bytes, the first and the last byte among them.  A number
    follows an opening bracket or a comma and starts with a digit, a lone 0,
    or a minus sign and either; it ends in a digit before a comma or a
    closing bracket, and has no point right before its exponent."""
    before, after = c[at[1:] - 1], c[at[1:]]
    ends = (before >= _OTHER) | ((before >= _ZERO) & (after >= _COMMA))
    q = at[:-1]
    x, n1, n2, n3 = c[q], c[q + 1], c.take(q + 2, mode="clip"), c.take(q + 3, mode="clip")
    signed = (n1 == _SIGN) & ((n2 == _DIGIT) | ((n2 == _ZERO) & ((n3 == _DOT) | (n3 == _EXP))))
    first = (n1 == _DIGIT) | ((n1 == _ZERO) & (n2 != _ZERO) & (n2 != _DIGIT)) | signed
    starts = (n1 >= _OTHER) | (((x == _OPEN) | (x == _COMMA)) & first)
    return bool(ends.all() and starts.all() and not ((c[1:] == _EXP) & (c[:-1] == _DOT)).any())


def _floats(text: bytes) -> np.ndarray | None:
    """The comma-separated numbers of ``text``, or None where C's strtod does
    not read each one whole."""
    try:
        with warnings.catch_warnings():  # older numpy warns, and keeps what it read
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring(text, sep=",")
    except (ValueError, DeprecationWarning):
        return None


def _pair_floats(raw: bytes, a: int):
    """``(values, b)`` when ``raw[a:b + 1]`` is a JSON array of k [number,
    number] pairs, ``values`` being their (k, 2) floats, all finite, with no
    -0 integer among them; otherwise None.  The text is checked and parsed a
    piece of about 64 KiB at a time, each piece ending at a comma."""
    skeleton, values, s = [], [], a
    while True:
        e = raw.find(b",", s + _PAIRS_PIECE)
        e = len(raw) - 1 if e < 0 else e
        c = np.frombuffer(raw[s:e + 1].translate(_CLASSES, _JSON_WS), np.uint8)
        at = np.flatnonzero(c >= _OTHER)  # brackets, commas and bytes outside numbers
        sk = c[at].tobytes()
        last = sk.find(bytes((_CLOSE, _CLOSE)))
        if last >= 0:  # the array ends in this piece
            end = _PAIRS_END.search(raw, s, e + 1)
            if end is None:
                return None
            e = end.end() - 1
            at, sk = at[:last + 2], sk[:last + 2]
            c = c[:at[-1] + 1]
        elif e == len(raw) - 1:
            return None
        if not _json_numbers(c, at):
            return None
        v = _floats(raw[s + 1:e].translate(_BRACKETS_AS_SPACES))
        if v is None or not np.isfinite(v).all():
            return None
        values.append(v)
        # a piece after the first starts at the comma the one before ended at
        skeleton.append(sk if s == a else sk[1:])
        if last >= 0:
            break
        s = e
    skeleton = b"".join(skeleton)
    k = (len(skeleton) - 1) // 4
    values = np.concatenate(values)
    pairs = (b"[" + b"[,]," * (k - 1) + b"[,]]").translate(_CLASSES)
    if skeleton != pairs or len(values) != 2 * k:
        return None
    return values.reshape(k, 2), e


def _parse_pairs_fast(raw: bytes):
    """The document in ``raw`` with each entries or nodes value that
    ``_pair_floats`` reads replaced by its floats, or None when no value is
    read that way or the rest is not valid JSON."""
    pieces, arrays, pos = [], [], 0
    m = _PAIRS_KEY.search(raw)
    while m:
        found = None
        if raw[m.start() - 1:m.start()] != b"\\":  # not an escaped quote
            found = _pair_floats(raw, m.start(1))
        if found is None:
            m = _PAIRS_KEY.search(raw, m.end())
            continue
        pairs, b = found
        pieces += [raw[pos:m.start(1)], b'"\\u0000%d"' % len(arrays)]
        arrays.append(pairs)
        pos = b + 1
        m = _PAIRS_KEY.search(raw, pos)
    if not arrays:
        return None
    pieces.append(raw[pos:])
    text = b"".join(pieces)
    # each placeholder string starts with U+0000, which no other string may hold
    if text.count(b"\\u0000") != len(arrays):
        return None

    def restore(obj):
        for key in ("entries", "nodes"):
            v = obj.get(key)
            if isinstance(v, str) and v.startswith("\0"):
                obj[key] = arrays[int(v[1:])]
        return obj

    try:
        return json.loads(text.decode("utf-8"), object_hook=restore)
    except (ValueError, RecursionError):
        return None


def _load_json(path) -> dict:
    doc = _parse_pairs_fast(Path(path).read_bytes())
    if doc is None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}: parse error at byte offset {exc.pos}: {exc.msg}") from exc
    return _require(doc, path)


def _require(obj, where, *keys) -> dict:
    """``obj`` itself, once it is a JSON object that holds every one of ``keys``."""
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected a JSON object, found {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise FileFormatError(f"{where}: missing key {key!r}")
    return obj


_REQUIRED = object()


def _value(obj, where, key, convert, default=_REQUIRED):
    """``convert(obj[key])``; a value of the wrong type or shape raises
    FileFormatError naming the file and the key.  Given a ``default``, the
    key may be absent or null."""
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    value = _require(obj, where, key)[key]
    try:
        return convert(value)
    except FileFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where}: malformed value for key {key!r}: {exc}") from exc


def load_matrices(path) -> tuple[np.ndarray, ...]:
    """The container's matrices, in file order."""
    doc = _load_json(path)
    if doc.get("format") != MATRIX_FORMAT:
        raise FileFormatError(f"{path}: unrecognized format {doc.get('format')!r}")
    dim = _value(doc, path, "dim", int)
    if dim < 1:
        raise FileFormatError(f"{path}: key 'dim' must be at least 1, found {dim}")
    entries = _value(doc, path, "matrices", list, default=[])
    if not entries:
        raise FileFormatError(f"{path}: container holds no matrices")
    mats = []
    for i, rec in enumerate(entries):
        where = f"{path}: matrix {i}"
        flat = _value(rec, where, "entries", lambda e: _from_pairs(e, dim * dim, where))
        mats.append(flat.reshape(dim, dim))
    return tuple(mats)


def load_tuple(path) -> NormalTuple:
    """The container's matrices as a NormalTuple with freshly computed bounds."""
    return NormalTuple.from_matrices(load_matrices(path))


def save_poly(path, p: PolyC):
    doc = {
        "format": POLY_FORMAT,
        "coeffs": [[complex(c).real, complex(c).imag] for c in p.coeffs],
        "monic": bool(p.monic),
    }
    _write_json(path, doc)


def load_poly(path) -> PolyC:
    doc = _load_json(path)
    if doc.get("format") != POLY_FORMAT:
        raise FileFormatError(f"{path}: unrecognized format {doc.get('format')!r}")
    coeffs = _value(doc, path, "coeffs", lambda cs: tuple(complex(re, im) for re, im in cs))
    return PolyC(coeffs, monic=bool(doc.get("monic", False)))


def parse_poly_literal(text: str) -> PolyC:
    """Parse 'z^2-1'-style literals or comma-separated ascending coefficients.

    Literal terms use integer or decimal coefficients; the comma form lists
    c0,c1,...  Real coefficients only.
    """
    import re as _re

    text = text.strip()
    if "," in text:
        coeffs = tuple(complex(float(tok)) for tok in text.split(","))
        return PolyC(coeffs)
    cleaned = text.replace(" ", "").replace("-", "+-")
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    terms = [t for t in cleaned.split("+") if t]
    if not terms:
        raise FileFormatError(f"cannot parse polynomial {text!r}")
    pattern = _re.compile(r"^(-?\d*\.?\d*)(z(?:\^(\d+))?)?$")
    accum: dict[int, float] = {}
    for term in terms:
        m = pattern.match(term)
        if not m or (not m.group(1) and not m.group(2)):
            raise FileFormatError(f"cannot parse polynomial term {term!r}")
        coeff_txt, zpart, power_txt = m.group(1), m.group(2), m.group(3)
        if coeff_txt in ("", "-"):
            coeff = -1.0 if coeff_txt == "-" else 1.0
        else:
            coeff = float(coeff_txt)
        power = 0
        if zpart:
            power = int(power_txt) if power_txt else 1
        accum[power] = accum.get(power, 0.0) + coeff
    degree = max(accum)
    coeffs = tuple(complex(accum.get(k, 0.0)) for k in range(degree + 1))
    return PolyC(coeffs)


def write_field_csv(path, field: ScalarField2D, mask: np.ndarray | None = None, header: str | None = None):
    lines = ["re,im,value" + (",mask" if mask is not None else "")]
    for i, z in enumerate(field.grid.nodes):
        row = f"{float(z.real)!r},{float(z.imag)!r},{float(field.values[i])!r}"
        if mask is not None:
            row += f",{int(mask[i])}"
        lines.append(row)
    _write_lines(path, lines, header)


def _grid_dict(g: Grid2D) -> dict:
    return {
        "kind": g.kind,
        "bounds": list(g.bounds),
        "shape": None if g.shape is None else list(g.shape),
        "cell_order": g.cell_order,
        "cells": None
        if g.cells is None
        else [[c.x0, c.x1, c.y0, c.y1, c.depth] for c in g.cells],
        "nodes": _pairs(g.nodes),
    }


def field_json_dict(field: ScalarField2D) -> dict:
    return {"grid": _grid_dict(field.grid), "values": [float(v) for v in field.values]}


def write_field_json(path, field: ScalarField2D):
    _write_json(path, field_json_dict(field))


def _finite_number(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _quad_cells(cells, path) -> tuple:
    """Cells as parsed, once each is 4 finite coordinates and an integer depth >= 0."""
    out = []
    for i, c in enumerate(cells):
        if not (isinstance(c, list) and len(c) == 5 and all(_finite_number(v) for v in c)
                and c[4] >= 0 and c[4] == int(c[4])):
            raise FileFormatError(
                f"{path}: cell {i} is not [x0, x1, y0, y1, depth] with finite numbers "
                f"and an integer depth >= 0: {c!r}")
        out.append(QuadCell(c[0], c[1], c[2], c[3], int(c[4])))
    return tuple(out)


def load_grid_json(path) -> Grid2D:
    doc = _load_json(path)
    g = _require(doc["grid"] if "grid" in doc else doc, path, "nodes", "bounds", "kind")
    nodes = _value(g, path, "nodes", lambda v: _from_pairs(v, len(v), f"{path}: nodes"))
    return Grid2D(
        bounds=_value(g, path, "bounds", _validate_bounds),
        nodes=frozen(nodes),
        kind=g["kind"],
        shape=_value(g, path, "shape", lambda sh: tuple(int(v) for v in sh), default=None),
        cells=_value(g, path, "cells", lambda cs: _quad_cells(cs, path), default=None),
        cell_order=_value(g, path, "cell_order", int, default=3),
    )


def write_grid_json(path, grid: Grid2D):
    _write_json(path, {"grid": _grid_dict(grid)})


def write_triples_json(path, triples: list[ScanTriple]):
    _write_json(path, (
        {
            "sigma": [t.sigma.real, t.sigma.imag],
            "residual": t.residual,
            "u": _pairs(t.u),
            "v": _pairs(t.v),
            "rank": t.v.shape[1],
        }
        for t in triples
    ))


def _path_records(p):
    """A path's {"matrix", "t"} records, its samples formed one at a time."""
    buf = np.empty((1, p.dim, p.dim), dtype=complex)
    for i, t in enumerate(p.times):
        # each record is written before the next is drawn, so the buffer is
        # free again when the next sample is formed
        yield {"matrix": _pairs(p.form(slice(i, i + 1), buf)), "t": float(t)}


def write_paths_json(path, paths):
    """Sampled paths as {"paths": [[{"matrix": [[re, im], ...], "t": t}, ...], ...]}."""
    _write_json(path, {"paths": (_path_records(p) for p in paths)})


def write_contours_csv(path, contours, header: str | None = None):
    lines = ["contour,vertex,re,im"]
    for ci, poly in enumerate(contours):
        for vi, z in enumerate(poly):
            lines.append(f"{ci},{vi},{float(z.real)!r},{float(z.imag)!r}")
    _write_lines(path, lines, header)


def write_json_report(path, doc: dict):
    _write_json(path, doc)


def write_csv_rows(path, rows, header_comment: str | None = None):
    _write_lines(path, [",".join(str(v) for v in row) for row in rows], header_comment)


def ncpoly_json_dict(system) -> dict:
    return {
        "format": NCPOLY_FORMAT,
        "nvars": system.nvars,
        "eps": system.eps,
        "polys": [
            [
                [
                    [complex(alpha).real, complex(alpha).imag],
                    {
                        "coeff_indices": list(w.coeff_indices),
                        "var_indices": list(w.var_indices),
                        "exponents": list(w.exponents),
                    },
                ]
                for alpha, w in poly
            ]
            for poly in system.polys
        ],
    }


def save_ncpoly(path, system):
    _write_json(path, ncpoly_json_dict(system))


def load_ncpoly(path):
    from .words import NCPolySystem, WordSpec

    doc = _load_json(path)
    if doc.get("format") != NCPOLY_FORMAT:
        raise FileFormatError(f"{path}: unrecognized format {doc.get('format')!r}")

    def term(k, alpha, w):
        if not (isinstance(alpha, list) and len(alpha) == 2):
            raise FileFormatError(f"{path}: polynomial {k}: coefficient {alpha!r} "
                                  "is not an [re, im] pair")
        _require(w, f"{path}: polynomial {k}: word", "coeff_indices", "var_indices",
                 "exponents")
        return (
            complex(alpha[0], alpha[1]),
            WordSpec(
                tuple(int(i) for i in w["coeff_indices"]),
                tuple(int(i) for i in w["var_indices"]),
                tuple(int(i) for i in w["exponents"]),
            ),
        )

    nvars = _value(doc, path, "nvars", int)
    eps = _value(doc, path, "eps", float)
    polys = _value(doc, path, "polys", lambda ps: tuple(
        tuple(term(k, alpha, w) for alpha, w in poly) for k, poly in enumerate(ps)))
    return NCPolySystem(nvars, polys, eps)
