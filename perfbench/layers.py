"""Traced functions at the matword module boundaries and the per-layer metrics.

Every span is named ``<module>.<function>``.  The per-layer metrics are
computed for each traced pass from its spans; ``summarize`` reports the
median over passes, except the connect latency percentiles, which pool the
per-trial samples of all traced passes.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

from spans import self_times


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _field_nodes(args, kwargs, result):
    return {"nodes": result.grid.size}


def _masked(args, kwargs, result):
    return {"masked": int(result.mask.sum()), "nodes": int(result.mask.size)}


def _triples(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 2, "points")), "kept": len(result)}


def _splits(args, kwargs, result):
    before = len(_arg(args, kwargs, 0, "grid").cells)
    return {"cells": before, "splits": (len(result.cells) - before) // 3}


def _degree(args, kwargs, result):
    return {"degree": result[0].degree}


def _trials(args, kwargs, result):
    return {"trials": len(result.records), "passed": sum(r.passed for r in result.records)}


IO_LOADS = ("load_matrices", "load_tuple", "load_poly", "load_grid_json")
IO_WRITES = ("save_matrices", "save_poly", "write_field_csv", "write_field_json",
             "write_grid_json", "write_triples_json", "write_contours_csv",
             "write_json_report", "write_csv_rows")
CONNECT = ("deformation.connect_commuting", "deformation.connect_soft_algebraic")
VERIFY = ("deformation.verify_ulpac", "deformation.verify_aulpac")
PATH_BUILD = ("paths.curved_path", "paths.flat_path", "paths.concat")

# (module, function, counter) for every public function the traced pass wraps.
_COUNTERS = {
    "pseudospectra": {"sigma_min_field": _field_nodes, "pseudospectrum": _masked,
                      "scan_triples": _triples, "refine_grid": _splits},
    "minpoly": {"approx_min_poly": _degree, "lemniscate_field": None,
                "lemniscate_contours": None, "poly_residual": None},
    "linalg": {"operator_norm": None, "commutator": None, "joint_diagonalize": None,
               "principal_unitary_log": None},
    "approximants": {"joint_isospectral_approximant": None,
                     "nearby_commuting_unitary": None, "dilate": None},
    "paths": {"curved_path": None, "flat_path": None, "concat": None, "verify_path": None},
    "deformation": {"generate_instance": None, "connect_commuting": None,
                    "connect_soft_algebraic": None, "verify_ulpac": _trials,
                    "verify_aulpac": _trials},
    "io": {**{f: None for f in IO_LOADS}, **{f: _bytes_written for f in IO_WRITES}},
    "cli": {"dispatch": None},
}
TARGETS = [(mod, fn, f"{mod}.{fn}", counter)
           for mod, fns in _COUNTERS.items() for fn, counter in fns.items()]

# name -> unit, in the order the result lists them
METRICS = {
    "pseudospectra.sigma_min_field.self_s": "s",
    "pseudospectra.sigma_min_field.nodes": "count",
    "pseudospectra.sigma_min_field.us_per_node": "us",
    "pseudospectra.scan_triples.self_s": "s",
    "pseudospectra.scan_triples.points": "count",
    "pseudospectra.scan_triples.kept_ratio": "1",
    "pseudospectra.masked_share": "1",
    "pseudospectra.refine_grid.self_s": "s",
    "pseudospectra.refine_grid.split_ratio": "1",
    "minpoly.approx_min_poly.self_s": "s",
    "minpoly.approx_min_poly.degree": "count",
    "minpoly.lemniscate_field.self_s": "s",
    "minpoly.lemniscate_contours.self_s": "s",
    "minpoly.poly_residual.calls": "count",
    "minpoly.poly_residual.self_s": "s",
    "linalg.operator_norm.calls": "count",
    "linalg.operator_norm.self_s": "s",
    "linalg.commutator.calls": "count",
    "linalg.joint_diagonalize.self_s": "s",
    "linalg.joint_diagonalize.errors": "count",
    "linalg.principal_unitary_log.self_s": "s",
    "approximants.joint_isospectral_approximant.self_s": "s",
    "approximants.nearby_commuting_unitary.self_s": "s",
    "approximants.dilate.self_s": "s",
    "paths.build.self_s": "s",
    "paths.verify_path.self_s": "s",
    "paths.verify_path.calls": "count",
    "deformation.generate_instance.self_s": "s",
    "deformation.connect.self_s": "s",
    "deformation.connect.p50_ms": "ms",
    "deformation.connect.tail_ms": "ms",
    "deformation.connect.errors": "count",
    "deformation.verify.self_s": "s",
    "deformation.trials_passed_ratio": "1",
    "io.load_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "cli.dispatch.self_s": "s",
    "trace_overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass; 0 where the pass never reaches a layer."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    for s in spans:
        self_s[s.name] += own[s.sid]
        calls[s.name] += 1
        errors[s.name] += s.error is not None
        for key, value in (s.counts or {}).items():
            counts[s.name][key] += value

    def total(names, table=self_s):
        return sum(table[n] for n in names)

    field = counts["pseudospectra.sigma_min_field"]
    triples = counts["pseudospectra.scan_triples"]
    masked = counts["pseudospectra.pseudospectrum"]
    refine = counts["pseudospectra.refine_grid"]
    trials = counts["deformation.verify_ulpac"]["trials"] + counts["deformation.verify_aulpac"]["trials"]
    passed = counts["deformation.verify_ulpac"]["passed"] + counts["deformation.verify_aulpac"]["passed"]
    return {
        "pseudospectra.sigma_min_field.self_s": self_s["pseudospectra.sigma_min_field"],
        "pseudospectra.sigma_min_field.nodes": field["nodes"],
        "pseudospectra.sigma_min_field.us_per_node":
            1e6 * _ratio(self_s["pseudospectra.sigma_min_field"], field["nodes"]),
        "pseudospectra.scan_triples.self_s": self_s["pseudospectra.scan_triples"],
        "pseudospectra.scan_triples.points": triples["points"],
        "pseudospectra.scan_triples.kept_ratio": _ratio(triples["kept"], triples["points"]),
        "pseudospectra.masked_share": _ratio(masked["masked"], masked["nodes"]),
        "pseudospectra.refine_grid.self_s": self_s["pseudospectra.refine_grid"],
        "pseudospectra.refine_grid.split_ratio": _ratio(refine["splits"], refine["cells"]),
        "minpoly.approx_min_poly.self_s": self_s["minpoly.approx_min_poly"],
        "minpoly.approx_min_poly.degree": counts["minpoly.approx_min_poly"]["degree"],
        "minpoly.lemniscate_field.self_s": self_s["minpoly.lemniscate_field"],
        "minpoly.lemniscate_contours.self_s": self_s["minpoly.lemniscate_contours"],
        "minpoly.poly_residual.calls": calls["minpoly.poly_residual"],
        "minpoly.poly_residual.self_s": self_s["minpoly.poly_residual"],
        "linalg.operator_norm.calls": calls["linalg.operator_norm"],
        "linalg.operator_norm.self_s": self_s["linalg.operator_norm"],
        "linalg.commutator.calls": calls["linalg.commutator"],
        "linalg.joint_diagonalize.self_s": self_s["linalg.joint_diagonalize"],
        "linalg.joint_diagonalize.errors": errors["linalg.joint_diagonalize"],
        "linalg.principal_unitary_log.self_s": self_s["linalg.principal_unitary_log"],
        "approximants.joint_isospectral_approximant.self_s":
            self_s["approximants.joint_isospectral_approximant"],
        "approximants.nearby_commuting_unitary.self_s":
            self_s["approximants.nearby_commuting_unitary"],
        "approximants.dilate.self_s": self_s["approximants.dilate"],
        "paths.build.self_s": total(PATH_BUILD),
        "paths.verify_path.self_s": self_s["paths.verify_path"],
        "paths.verify_path.calls": calls["paths.verify_path"],
        "deformation.generate_instance.self_s": self_s["deformation.generate_instance"],
        "deformation.connect.self_s": total(CONNECT),
        "deformation.connect.errors": total(CONNECT, errors),
        "deformation.verify.self_s": total(VERIFY),
        "deformation.trials_passed_ratio": _ratio(passed, trials),
        "io.load_s": total(f"io.{f}" for f in IO_LOADS),
        "io.write_s": total(f"io.{f}" for f in IO_WRITES),
        "io.bytes_written": sum(counts[f"io.{f}"]["bytes"] for f in IO_WRITES),
        "cli.dispatch.self_s": self_s["cli.dispatch"],
    }


def tail_percentile(count: int) -> float:
    """Highest of the p50/p90/p99/p99.9 percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(spans, overhead_s: float) -> tuple[dict[str, float], dict]:
    """Per-layer metrics (median over traced passes) plus latency sample details."""
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s.pass_id].append(s)
    per_pass = [pass_metrics(group) for _, group in sorted(by_pass.items())]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

    connect_ms = [1e3 * (s.end - s.start) for s in spans if s.name in CONNECT]
    q = tail_percentile(len(connect_ms))
    metrics["deformation.connect.p50_ms"] = percentile(connect_ms, 50.0) if connect_ms else 0.0
    metrics["deformation.connect.tail_ms"] = percentile(connect_ms, q) if connect_ms else 0.0
    metrics["trace_overhead_s"] = overhead_s
    details = {"traced_passes": len(per_pass), "connect_samples": len(connect_ms),
               "connect_tail_percentile": q}
    return {name: metrics[name] for name in METRICS}, details
