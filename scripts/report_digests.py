#!/usr/bin/env python3
"""Print sha256 digests of the report bodies a refactor must leave unchanged.

One line per report: the acceptance criteria 1-8 bodies (serialized exactly
as tests/test_acceptance.py does for criterion 9), then the JSON report and
the CSV body (without '#' comment lines) of several ``matword verify`` runs:
the two shapes the benchmark runs, an AULPAC cube run where some trials
fail their bounds, and a ULPAC run whose trials are all refused.  Last come
the JSON report and the exported path samples of one ``matword deform`` run
per mode (gujc, algebraic, soft), each on a seeded ``matword generate`` pair.

The first line records the thread count each bundled OpenBLAS reports
(``matword.config.blas_threads``); ``import matword`` pins it to
MATWORD_THREADS, 1 when unset, so the digests do not depend on
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

import test_acceptance  # noqa: E402
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    print(f"# blas_threads={config.blas_threads()}")
    for k in range(1, 9):
        build = getattr(test_acceptance, f"criterion_{k}_report")
        print(f"c{k} {_sha(test_acceptance._report_bytes(build()))}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in VERIFY_RUNS.items():
            report, csv = Path(tmp, f"{name}.json"), Path(tmp, f"{name}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = dispatch(["verify", *argv, "--report", str(report), "--csv", str(csv)])
            body = "\n".join(
                ln for ln in csv.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")
            )
            print(f"{name}.exit {code}")
            print(f"{name}.json {_sha(report.read_bytes())}")
            print(f"{name}.csv {_sha(body.encode())}")
        for mode, (generate, deform) in DEFORM_RUNS.items():
            x, y = Path(tmp, f"{mode}-x.json"), Path(tmp, f"{mode}-y.json")
            report, paths = Path(tmp, f"{mode}.json"), Path(tmp, f"{mode}-paths.json")
            with contextlib.redirect_stdout(io.StringIO()):
                dispatch(["generate", *generate, "--out", str(x), "--out-y", str(y)])
                code = dispatch(["deform", mode, "--x", str(x), "--y", str(y), *deform,
                                 "--report", str(report), "--paths", str(paths)])
            print(f"deform-{mode}.exit {code}")
            print(f"deform-{mode}.json {_sha(report.read_bytes())}")
            print(f"deform-{mode}.paths {_sha(paths.read_bytes())}")


if __name__ == "__main__":
    main()
