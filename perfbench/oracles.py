"""Output checks.  They read the files the CLI wrote and recompute each
property with plain numpy, never through matword.  Every check counts as
attempted; every one that does not hold counts as failed."""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

FIELD_RTOL = 1e-10  # relative agreement of a field value with the SVD oracle
DECISIVE = 1e-9  # |sigma - eps| beyond which the mask bit must agree
CLOSED_TOL = 1e-9
SAMPLED_NODES = 48
SAMPLED_MASKED = 16


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _num(text: str) -> float:
    """A CSV number; the field writer emits numpy 2 reprs such as 'np.float64(0.5)'."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _data_lines(path) -> list[str]:
    return [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def _complex_array(pairs, shape) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in pairs])
    return flat.reshape(shape)


def read_field_csv(path):
    """Nodes, values and mask of a field CSV written by ``matword scan``."""
    rows = [ln.split(",") for ln in _data_lines(path)[1:]]
    nodes = np.array([complex(_num(r[0]), _num(r[1])) for r in rows])
    values = np.array([_num(r[2]) for r in rows])
    mask = np.array([r[3] == "1" for r in rows])
    return nodes, values, mask


def check_scan(checks: Checks, a, eps, field_csv, triples_json, seed):
    """Field values and mask bits at seeded nodes against a per-node SVD,
    then every scanning triple's residual and position."""
    nodes, values, mask = read_field_csv(field_csv)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(nodes), min(SAMPLED_NODES, len(nodes)), replace=False)
    inside = np.flatnonzero(mask)
    picked = np.union1d(picked, rng.choice(inside, min(SAMPLED_MASKED, len(inside)), replace=False))
    eye = np.eye(a.shape[0])
    for i in picked:
        ref = np.linalg.svd(a - nodes[i] * eye, compute_uv=False)[-1]
        checks.check(abs(values[i] - ref) <= FIELD_RTOL * ref, f"field value at node {i}")
        if abs(ref - eps) > DECISIVE:
            checks.check(bool(mask[i]) == (ref <= eps), f"mask bit at node {i}")

    masked = {(z.real, z.imag) for z in nodes[mask]}
    n = a.shape[0]
    for j, t in enumerate(json.loads(Path(triples_json).read_text(encoding="utf-8"))):
        sigma = complex(*t["sigma"])
        u = _complex_array(t["u"], (t["rank"], n))
        v = _complex_array(t["v"], (n, t["rank"]))
        residual = np.linalg.norm(u @ a @ v - sigma * (u @ v), 2)
        checks.check(residual <= eps, f"triple {j} residual {residual:.3e} > eps")
        checks.check((sigma.real, sigma.imag) in masked, f"triple {j} off the masked nodes")


def check_minpoly(checks: Checks, a, delta, max_deg, poly_json):
    coeffs = [complex(re, im) for re, im in
              json.loads(Path(poly_json).read_text(encoding="utf-8"))["coeffs"]]
    eye = np.eye(a.shape[0])
    pa = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        pa = pa @ a + c * eye
    residual = np.linalg.norm(pa, 2)
    checks.check(len(coeffs) - 1 <= max_deg, f"degree {len(coeffs) - 1} > {max_deg}")
    checks.check(residual <= delta, f"||p(A)|| = {residual:.3e} > delta {delta}")


def check_contours(checks: Checks, contours_csv):
    contours = defaultdict(list)
    for ln in _data_lines(contours_csv)[1:]:
        ci, _, re, im = ln.split(",")
        contours[int(ci)].append(complex(_num(re), _num(im)))
    checks.check(len(contours) > 0, "no lemniscate contour")
    for ci, pts in contours.items():
        closed = len(pts) > 2 and abs(pts[0] - pts[-1]) <= CLOSED_TOL
        checks.check(closed, f"contour {ci} is not closed")


def check_refinement(checks: Checks, grid_jsons):
    sizes = [len(json.loads(Path(p).read_text(encoding="utf-8"))["grid"]["nodes"])
             for p in grid_jsons]
    for i in range(1, len(sizes)):
        checks.check(sizes[i] >= sizes[i - 1], f"refinement {i} shrank the grid")


def check_trials(checks: Checks, report_json, trials):
    records = json.loads(Path(report_json).read_text(encoding="utf-8"))["trials"]
    checks.check(len(records) == trials, f"{len(records)} trial records, expected {trials}")
    for i, rec in enumerate(records):
        checks.check(rec["passed"] is True, f"trial {i} (seed {rec['seed']}) failed")


def check_digests(checks: Checks, digests):
    """Every pass of a run must write the same report bytes as the first."""
    for i, digest in enumerate(digests[1:], start=1):
        checks.check(digest == digests[0], f"pass {i} report digest differs from pass 0")


def report_digest(out_dir) -> str:
    """SHA-256 over every output file under ``out_dir``, skipping '#' comment lines."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        for ln in path.read_bytes().splitlines():
            if not ln.startswith(b"#"):
                h.update(ln + b"\n")
    return h.hexdigest()
