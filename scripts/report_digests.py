#!/usr/bin/env python3
"""Print sha256 digests of the report bodies a refactor must leave unchanged.

One line per report: the acceptance criteria 1-8 bodies (serialized exactly
as tests/test_acceptance.py does for criterion 9), then the JSON report and
the CSV body (without '#' comment lines) of several ``matword verify`` runs:
the two shapes the benchmark runs, an AULPAC cube run where some trials
fail their bounds, and a ULPAC run whose trials are all refused.  Last come
the JSON report and the exported path samples of one ``matword deform`` run
per mode (gujc, algebraic, soft), each on a seeded ``matword generate`` pair.
Then the pseudospectra commands on the benchmark's seed-0 inputs: the field
CSV body and the triples JSON of ``matword scan`` on the desk-cluster pair
and on the Ginibre matrix, and the grid JSON of ``matword grid generate``
followed by three chained ``matword grid refine`` runs on the Ginibre matrix.

The first line, ``# blas_threads=1`` by default, records the thread count
of numpy's bundled OpenBLAS, the one library matword runs on
(``matword.config.blas_threads``, None without one); ``import matword``
pins it to MATWORD_THREADS, 1 when unset, so the digests do not depend on
OPENBLAS_NUM_THREADS.

Run:  python scripts/report_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import test_acceptance  # noqa: E402
import workloads  # noqa: E402
from matword import config  # noqa: E402
from matword.cli import dispatch  # noqa: E402

VERIFY_RUNS = {
    "verify-ulpac-cube": [
        "ulpac", "--kind", "cube", "--m", "2", "--n", "16", "--delta", "0.02",
        "--trials", "10", "--seed", "7", "--polys", "z^2-1", "--eps-alg", "1e-3",
        "--eps", "0.2",
    ],
    "verify-aulpac-sphere": [
        "aulpac", "--kind", "sphere", "--m", "2", "--n", "32", "--delta", "0.02",
        "--trials", "3", "--seed", "7",
    ],
    "verify-aulpac-cube-failing": [
        "aulpac", "--kind", "cube", "--m", "2", "--n", "8", "--delta", "0.05",
        "--trials", "5", "--seed", "7", "--eps", "0.027",
    ],
    "verify-ulpac-refused": [
        "ulpac", "--kind", "cube", "--m", "2", "--n", "8", "--delta", "0.4",
        "--trials", "2", "--seed", "3", "--polys", "z^2-1", "--eps-alg", "1e-3",
    ],
}

# mode -> (generate arguments, deform arguments)
DEFORM_RUNS = {
    "gujc": (
        ["--kind", "cube", "--m", "2", "--n", "12", "--delta", "0.02", "--seed", "11"],
        ["--eps", "0.2"],
    ),
    "algebraic": (
        ["--kind", "cube", "--m", "2", "--n", "12", "--delta", "0.05", "--seed", "12",
         "--polys", "z^2-1"],
        ["--polys", "z^2-1", "--eps", "0.2"],
    ),
    "soft": (
        ["--kind", "cube", "--m", "2", "--n", "12", "--delta", "0.02", "--seed", "13",
         "--polys", "z^2-1", "--eps-alg", "1e-3"],
        ["--polys", "z^2-1", "--delta", "0.05", "--eps", "0.2"],
    ),
}


# name -> (benchmark part whose seed-0 input is scanned, its input file, grid, eps, bounds)
SCAN_RUNS = {
    "scan-desk": (workloads.DESK_CLUSTER, "pair.json", workloads.DESK_SCAN_GRID,
                  workloads.DESK_EPS, workloads.DESK_BOUNDS),
    "scan-ginibre": (workloads.GINIBRE_REFINE, "ginibre.json", workloads.GINIBRE_SCAN_GRID,
                     workloads.GINIBRE_EPS, workloads.GINIBRE_BOUNDS),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_body(path: Path) -> bytes:
    return "\n".join(
        ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")
    ).encode()


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch(argv)


def main():
    print(f"# blas_threads={config.blas_threads()}")
    for k in range(1, 9):
        build = getattr(test_acceptance, f"criterion_{k}_report")
        print(f"c{k} {_sha(test_acceptance._report_bytes(build()))}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in VERIFY_RUNS.items():
            report, csv = Path(tmp, f"{name}.json"), Path(tmp, f"{name}.csv")
            code = _quiet(["verify", *argv, "--report", str(report), "--csv", str(csv)])
            print(f"{name}.exit {code}")
            print(f"{name}.json {_sha(report.read_bytes())}")
            print(f"{name}.csv {_sha(_csv_body(csv))}")
        for mode, (generate, deform) in DEFORM_RUNS.items():
            x, y = Path(tmp, f"{mode}-x.json"), Path(tmp, f"{mode}-y.json")
            report, paths = Path(tmp, f"{mode}.json"), Path(tmp, f"{mode}-paths.json")
            _quiet(["generate", *generate, "--out", str(x), "--out-y", str(y)])
            code = _quiet(["deform", mode, "--x", str(x), "--y", str(y), *deform,
                           "--report", str(report), "--paths", str(paths)])
            print(f"deform-{mode}.exit {code}")
            print(f"deform-{mode}.json {_sha(report.read_bytes())}")
            print(f"deform-{mode}.paths {_sha(paths.read_bytes())}")
        for name, (part, matrix, grid, eps, bounds) in SCAN_RUNS.items():
            part.make_inputs(part.base_seed, Path(tmp))
            field = Path(tmp, f"{name}.csv")
            code = _quiet(["scan", "--input", str(Path(tmp, matrix)), "--eps", str(eps),
                           "--grid", grid, "--bounds", bounds, "--out", str(field)])
            print(f"{name}.exit {code}")
            print(f"{name}.csv {_sha(_csv_body(field))}")
            print(f"{name}.triples {_sha(Path(tmp, f'{name}.triples.json').read_bytes())}")
        ginibre = str(Path(tmp, "ginibre.json"))
        grids = [Path(tmp, f"grid{i}.json") for i in range(workloads.REFINES + 1)]
        code = _quiet(["grid", "generate", "--grid", "quad:2",
                       "--bounds", workloads.GINIBRE_BOUNDS, "--out", str(grids[0])])
        print(f"grid-generate.exit {code}")
        print(f"grid-generate.json {_sha(grids[0].read_bytes())}")
        for i in range(workloads.REFINES):
            code = _quiet(["grid", "refine", "--grid-file", str(grids[i]), "--input", ginibre,
                           "--threshold", "0.2", "--max-depth", "6", "--out", str(grids[i + 1])])
            print(f"grid-refine-{i + 1}.exit {code}")
            print(f"grid-refine-{i + 1}.json {_sha(grids[i + 1].read_bytes())}")


if __name__ == "__main__":
    main()
