"""Command-line front end.

Exit codes: 0 success, 1 ran correctly but a constraint check failed,
2 usage or I/O error.  Reports are byte-identical for identical argv and
seed; only '#' comment lines in CSV files may carry timestamps.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import io
from .deformation import (
    InstanceSpec,
    connect_algebraic,
    connect_commuting,
    connect_soft_algebraic,
    generate_instance,
    verify_aulpac,
    verify_ulpac,
)
from .minpoly import approx_min_poly, lemniscate_contours, lemniscate_field
from .pseudospectra import (
    chebyshev_grid,
    pseudospectrum,
    quadtree_grid,
    refine_grid,
    scan_triples,
)
from .words import WordFunction, eval_word_function, variety_membership

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_USAGE = 2


class CliError(Exception):
    pass


def _finite_float(text: str) -> float:
    """argparse type of the thresholds: NaN and the infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_bounds(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise CliError(f"bounds need 4 comma-separated numbers, got {text!r}")
    return tuple(parts)


def _parse_grid_arg(spec: str, bounds):
    """cheb:PxQ or quad:DEPTH[:ORDER]."""
    kind, _, rest = spec.partition(":")
    if kind == "cheb":
        p, _, q = rest.partition("x")
        return chebyshev_grid(bounds, int(p), int(q or p))
    if kind == "quad":
        depth, _, order = rest.partition(":")
        return quadtree_grid(bounds, int(depth or 0), int(order or 3))
    raise CliError(f"unknown grid spec {spec!r} (use cheb:PxQ or quad:DEPTH)")


def _as_single_matrix(mats) -> np.ndarray:
    if len(mats) == 1:
        return mats[0]
    if len(mats) == 2:
        # hermitian pair: scan the joint spectrum through X + iY
        return mats[0] + 1j * mats[1]
    raise CliError("input must hold one matrix or a hermitian pair")


def _load_polys(args, m: int):
    texts = args.polys
    if texts is None:
        return None
    polys = []
    for t in texts:
        if t.endswith(".json"):
            polys.append(io.load_poly(t))
        else:
            polys.append(io.parse_poly_literal(t))
    if len(polys) == 1:
        polys = polys * m
    return tuple(polys)


def _instance_spec(args) -> InstanceSpec:
    return InstanceSpec(
        kind=args.kind, m=args.m, n=args.n, delta=args.delta, seed=args.seed,
        polys=_load_polys(args, args.m), eps_alg=args.eps_alg,
    )


def _need(value, message: str):
    if value is None:
        raise CliError(message)
    return value


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_scan(args) -> int:
    a = _as_single_matrix(io.load_matrices(args.input))
    grid = _parse_grid_arg(args.grid, _parse_bounds(args.bounds))
    result = pseudospectrum(a, args.eps, grid)
    triples = scan_triples(a, args.eps, grid.nodes[result.mask])
    io.write_field_csv(args.out, result.field, result.mask, header=f"scan {_stamp()}")
    triples_path = args.triples or Path(args.out).with_suffix(".triples.json")
    io.write_triples_json(triples_path, triples)
    if not result.mask.any():
        print("pseudospectral region empty at this eps", file=sys.stderr)
        return EXIT_CONSTRAINT
    print(f"{int(result.mask.sum())} nodes inside, {len(triples)} triples -> {args.out}")
    return EXIT_OK


def _cmd_minpoly(args) -> int:
    a = _as_single_matrix(io.load_matrices(args.input))
    p, residual = approx_min_poly(a, args.delta, args.max_deg, seed=args.seed)
    io.save_poly(args.out, p)
    print(f"degree {p.degree}, residual {residual:.6e} -> {args.out}")
    return EXIT_OK if residual <= args.delta else EXIT_CONSTRAINT


def _cmd_lemniscate(args) -> int:
    p = io.load_poly(args.poly) if args.poly.endswith(".json") else io.parse_poly_literal(args.poly)
    grid = _parse_grid_arg(args.grid, _parse_bounds(args.bounds))
    field = lemniscate_field(p, grid)
    contours = lemniscate_contours(field, args.level)
    if args.field:
        io.write_field_csv(args.field, field, header=f"lemniscate {_stamp()}")
    io.write_contours_csv(args.out, contours, header=f"lemniscate {_stamp()}")
    print(f"{len(contours)} contour(s) -> {args.out}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    if args.action == "generate":
        grid = _parse_grid_arg(args.grid, _parse_bounds(args.bounds))
        io.write_grid_json(args.out, grid)
        print(f"{grid.size} nodes -> {args.out}")
        return EXIT_OK
    grid = io.load_grid_json(_need(args.grid_file, "grid refine needs --grid-file"))
    a = _as_single_matrix(io.load_matrices(_need(args.input, "grid refine needs --input")))
    refined = refine_grid(grid, a, args.threshold, args.max_depth)
    io.write_grid_json(args.out, refined)
    print(f"{grid.size} -> {refined.size} nodes -> {args.out}")
    return EXIT_OK


def _cmd_deform(args) -> int:
    x = io.load_tuple(args.x)
    y = io.load_tuple(args.y)
    polys = _load_polys(args, x.arity)
    if args.mode == "gujc":
        result = connect_commuting(x, y, eps=args.eps)
    elif args.mode == "algebraic":
        polys = _need(polys, "algebraic deformation needs --polys")
        result = connect_algebraic(x, y, polys, eps=args.eps)
    else:
        polys = _need(polys, "soft deformation needs --polys")
        delta = args.delta if args.delta is not None else args.eps
        delta = _need(delta, "soft deformation needs --delta or --eps")
        result = connect_soft_algebraic(x, y, polys, delta, eps=args.eps)
    if args.report:
        io.write_json_report(args.report, result.to_json_dict())
    if args.paths:
        io.write_paths_json(args.paths, result.paths)
    ok = result.passed and (args.eps is None or result.achieved_eps <= args.eps)
    print(
        f"achieved_eps {result.achieved_eps:.6e}, commutation {result.max_commutation:.3e}, "
        f"{'pass' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_CONSTRAINT


def _cmd_verify(args) -> int:
    spec = _instance_spec(args)
    if args.mode == "ulpac":
        report = verify_ulpac(spec, args.trials, eps_pass=args.eps)
    else:
        report = verify_aulpac(spec, args.trials, eps_pass=args.eps)
    if args.report:
        io.write_json_report(args.report, report.to_json_dict())
    if args.csv:
        io.write_csv_rows(args.csv, report.csv_rows(), header_comment=f"verify {_stamp()}")
    print(f"{args.mode}: pass rate {report.pass_rate:.3f} over {args.trials} trials")
    return EXIT_OK if report.all_passed else EXIT_CONSTRAINT


def _cmd_generate(args) -> int:
    x, y = generate_instance(_instance_spec(args))
    io.save_matrices(args.out, x, meta={"seed": args.seed, "kind": args.kind})
    io.save_matrices(args.out_y, y, meta={"seed": args.seed, "kind": args.kind})
    print(f"instance -> {args.out}, {args.out_y}")
    return EXIT_OK


def _cmd_words(args) -> int:
    x = io.load_matrices(args.input)
    if args.action == "membership":
        system = io.load_ncpoly(_need(args.system, "words membership needs --system"))
        if args.eps is not None:
            from dataclasses import replace

            system = replace(system, eps=args.eps)
        member, residuals = variety_membership(x, system)
        doc = {"member": bool(member), "residuals": [float(r) for r in residuals],
               "eps": system.eps}
        if args.out:
            io.write_json_report(args.out, doc)
        print(f"member={member}, max residual {max(residuals):.6e}")
        return EXIT_OK if member else EXIT_CONSTRAINT
    # evaluate: the identity word function unless one is supplied inline
    if args.function:
        system = io.load_ncpoly(args.function)
        f = WordFunction(system.nvars, system.polys)
    else:
        f = WordFunction.identity(len(x))
    values = eval_word_function(f, x)
    if args.out:
        io.save_matrices(args.out, values)
    print(f"evaluated {len(values)} component(s)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="matword", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    # the seeded instance recipe that verify and generate share
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--kind", choices=["cube", "sphere"], default="cube")
    instance.add_argument("--m", type=int, required=True)
    instance.add_argument("--n", type=int, required=True)
    instance.add_argument("--delta", type=_finite_float, required=True)
    instance.add_argument("--seed", type=int, required=True)
    instance.add_argument("--polys", nargs="*", default=None)
    instance.add_argument("--eps-alg", type=_finite_float, default=0.0)

    p = sub.add_parser("scan", help="pseudospectrum field, mask and scanning triples")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--grid", default="cheb:101x101")
    p.add_argument("--bounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--triples", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("minpoly", help="approximate minimal polynomial from Ritz values")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=_finite_float, required=True)
    p.add_argument("--max-deg", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_minpoly)

    p = sub.add_parser("lemniscate", help="level-set contours of |p(z)|")
    p.add_argument("--poly", required=True)
    p.add_argument("--grid", default="cheb:201x201")
    p.add_argument("--bounds", required=True)
    p.add_argument("--level", type=_finite_float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--field", default=None)
    p.set_defaults(func=_cmd_lemniscate)

    p = sub.add_parser("grid", help="generate or refine interpolation grids")
    p.add_argument("action", choices=["generate", "refine"])
    p.add_argument("--grid", default="cheb:65x65", help="grid spec (generate)")
    p.add_argument("--bounds", default="-1,1,-1,1")
    p.add_argument("--grid-file", default=None, help="existing grid JSON (refine)")
    p.add_argument("--input", default=None, help="matrix file for the field (refine)")
    p.add_argument("--threshold", type=_finite_float, default=1e-2)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("deform", help="connect nearby commuting tuples")
    p.add_argument("mode", choices=["gujc", "algebraic", "soft"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--polys", nargs="*", default=None)
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--delta", type=_finite_float, default=None,
                   help="endpoint residual bound (soft)")
    p.add_argument("--report", default=None)
    p.add_argument("--paths", default=None, help="dump sampled paths as (t, matrix) records")
    p.set_defaults(func=_cmd_deform)

    p = sub.add_parser("verify", parents=[instance], help="randomized connectivity verification")
    p.add_argument("mode", choices=["ulpac", "aulpac"])
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", parents=[instance], help="emit a seeded instance pair")
    p.add_argument("--out", required=True)
    p.add_argument("--out-y", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("words", help="evaluate word functions or variety membership")
    p.add_argument("action", choices=["eval", "evaluate", "membership"])
    p.add_argument("--input", required=True)
    p.add_argument("--function", default=None)
    p.add_argument("--system", default=None)
    p.add_argument("--eps", type=_finite_float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_words)

    return ap


def _preprocess(argv) -> list[str]:
    """Join '--bounds -1,1,-1,1' into one token so argparse does not read
    the leading minus as an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--bounds" and i + 1 < len(argv):
            out.append(f"--bounds={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def dispatch(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_preprocess(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "command", None) is None:
        ap.print_usage()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
