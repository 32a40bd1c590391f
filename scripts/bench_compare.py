#!/usr/bin/env python3
"""Benchmark a parent checkout against a changed one and write a BENCH json.

Runs ``perfbench/run.py`` of each checkout in alternating pairs (the parent
first in even pairs, the change first in odd ones), pair k on seed k + 1,
then one traced run per side and workload for the per-layer metrics, then
one in-process pass of each workload's commands on seed 0 per side that
counts, by matrix size, the matrices ``linalg.operator_norm`` decomposes
(the traced ``linalg.operator_norm.calls`` counts calls, and one call may
take a whole stack), then one ``matword verify aulpac`` trial at the top of
desk scale (n = 128, dilated to 256), one ``matword verify ulpac`` trial and
one ``matword verify aulpac`` trial at the benchmark's seed-0 shapes (cube,
m = 2, n = 16; sphere, m = 2, n = 32) and one ``matword scan`` at acceptance
criterion 8's size (the seed-880000 Ginibre matrix at n = 50,
a 101x101 Chebyshev grid, eps 0.2) per side, each in a fresh interpreter
that reports its own peak RSS, the sha256 of its outputs, whether it
imported scipy at all, the scipy subpackages it loaded and the build string
of numpy's bundled OpenBLAS, then the tier-1 suite once per side for its
wall time, then three alternating rounds per side of a child that loads a
desk-style pair at n = 16, 100 and 256 with the checkout's
``io.load_matrices`` and reports the traced peak, the load times and a
digest of the arrays.  Last, one child on the change's code records the build strings
of numpy's and scipy's bundled OpenBLAS and compares ``linalg._schur``
with ``scipy.linalg.schur`` bit for bit (scipy's copy on matword's thread
count) on 132 seeded matrices, Ginibre, Hermitian and unitary at n = 1-40,
64, 100, 128 and 256: the two wheels may bundle different OpenBLAS builds.
The record holds every run, each side's median and quartiles, the change's
win count, the two parts of ``setup_s`` (the fresh-interpreter import and
the median input preparation) compared the same way, the decomposed-matrix
counts, the four fresh-interpreter runs' wall times, peak RSS, digests and
scipy imports, the loader rounds, the OpenBLAS builds and the Schur comparison, and the environment each side reported (BLAS threads,
nproc, git SHA, a digest of its ``src/matword``).  The fresh ULPAC and AULPAC
trials show what each workload's verify part pays for its imports, which
``setup_s`` hides: its median of three in-process preparations runs after
the first has imported everything.

Run:  python scripts/bench_compare.py --parent ../parent --change . \\
          --pairs 10 --out BENCH_topic.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("desk-aulpac", "ginibre-ulpac")
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
         "no:cacheprovider"]


# One pass of a workload's commands on seed 0, with every matword binding of
# linalg.operator_norm replaced by a wrapper that counts the matrices it is
# handed, by size.  It runs in a child interpreter on the checkout's own code.
COUNT_DECOMPOSED = r"""
import collections, contextlib, io, sys, json, tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import numpy as np
import matword.cli
from matword import linalg
from workloads import WORKLOADS

real, counts = linalg.operator_norm, collections.Counter()

def counting(a):
    a = np.asarray(a)
    if a.size:
        counts[a.shape[-1]] += len(a) if a.ndim == 3 else 1
    return real(a)

for name, mod in list(sys.modules.items()):
    if name.startswith("matword") and getattr(mod, "operator_norm", None) is real:
        mod.operator_norm = counting
with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
    cmds = []
    for part in WORKLOADS[sys.argv[2]].parts:
        ind, out = Path(work, "in", part.name), Path(work, "out", part.name)
        ind.mkdir(parents=True)
        out.mkdir(parents=True)
        part.make_inputs(part.base_seed, ind)
        cmds += part.commands(part.base_seed, ind, out, False)
    counts.clear()
    codes = [matword.cli.dispatch(argv) for argv in cmds]
print(json.dumps({"exit_codes": codes, "by_size": {str(n): c for n, c in sorted(counts.items())}}))
"""


# Fresh-interpreter runs of the checkout's own CLI: a child that runs one
# command, then prints its exit code, its own peak RSS (Linux reports
# ru_maxrss in KiB), the sha256 of each named output file, without its
# '#' comment lines, whether scipy is in sys.modules, its public subpackages
# there, and the build string of numpy's bundled OpenBLAS (None without one).  The
# runs are one verify trial at the top of desk scale (n = 128, dilated to
# 256), one verify trial of each of perfbench's ulpac-cube and aulpac-sphere
# parts at seed 0 and one scan at acceptance criterion 8's size.
TOP_OF_DESK = ["verify", "aulpac", "--kind", "sphere", "--m", "2", "--n", "128", "--delta", "0.02",
               "--trials", "1", "--seed", "7"]
BENCH_ULPAC = ["verify", "ulpac", "--kind", "cube", "--m", "2", "--n", "16", "--delta", "0.02",
               "--trials", "1", "--seed", "7", "--polys", "z^2-1", "--eps-alg", "1e-3",
               "--eps", "0.2"]
BENCH_AULPAC = ["verify", "aulpac", "--kind", "sphere", "--m", "2", "--n", "32", "--delta", "0.02",
                "--trials", "1", "--seed", "7"]
CRITERION_8_SCAN = ["scan", "--eps", "0.2", "--grid", "cheb:101x101",
                    "--bounds", "-1.5,1.5,-1.5,1.5"]
FRESH_CHILD = r"""
import contextlib, ctypes, hashlib, io, json, resource, sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
import numpy
import matword.cli

outputs = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    code = matword.cli.dispatch(sys.argv[3:])
# read before the digests, which hold whole output files in memory
maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
scipy_imported = "scipy" in sys.modules
digests = {name: hashlib.sha256(b"".join(
    line for line in Path(path).read_bytes().splitlines(True) if not line.startswith(b"#")
)).hexdigest() for name, path in outputs.items()}
scipy_subpackages = sorted({".".join(m.split(".")[:2]) for m in sys.modules
                           if m.startswith("scipy.") and not m.split(".")[1].startswith("_")})
numpy_openblas = None
for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    try:
        get_config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
    except (OSError, AttributeError):
        continue
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    numpy_openblas = get_config().decode()
    break
print(json.dumps({"exit_code": code, "maxrss_mib": maxrss_mib, "sha256": digests,
                  "scipy_imported": scipy_imported, "scipy_subpackages": scipy_subpackages,
                  "numpy_openblas": numpy_openblas}))
"""
# The build string of each wheel's bundled OpenBLAS (numpy's is the
# 64-bit-integer build, symbol suffix 64_; None without one), and how many of
# 132 seeded matrices get the same T and Q bits from the checkout's
# linalg._schur as from scipy.linalg.schur, with scipy's copy set to the
# thread count of numpy's.
OPENBLAS_CHILD = r"""
import ctypes, json, sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))
import numpy as np
import scipy
import scipy.linalg
from matword import config, linalg
from matword.sampling import haar_unitary


def bundled(package, suffix):
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_config().decode(), set_threads
    return None, None


numpy_build, _ = bundled(np, "64_")
scipy_build, scipy_set_threads = bundled(scipy, "")
if scipy_set_threads is not None and config.blas_threads() is not None:
    scipy_set_threads(config.blas_threads())
sizes, same, differing = [*range(1, 41), 64, 100, 128, 256], 0, []
for kind in ("ginibre", "hermitian", "unitary"):
    for n in sizes:
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = {"ginibre": g / np.sqrt(2 * n), "hermitian": (g + g.conj().T) / 2,
             "unitary": haar_unitary(rng, n)}[kind]
        got, want = linalg._schur(a), scipy.linalg.schur(a, output="complex")
        if all(x.tobytes() == y.tobytes() for x, y in zip(got, want)):
            same += 1
        else:
            differing.append([kind, n])
print(json.dumps({"numpy_openblas": numpy_build, "scipy_openblas": scipy_build,
                  "blas_threads": config.blas_threads(),
                  "zgees": {"kinds": ["ginibre", "hermitian", "unitary"], "sizes": sizes,
                            "matrices": 3 * len(sizes), "same_bits": same,
                            "differing": differing}}))
"""
# io.load_matrices on a desk-style pair (perfbench's clustered_pair, seed 1)
# at n = 16, 100 and 256, written by the checkout's own writer: the
# tracemalloc peak of one load after a first one, that peak over the file's
# bytes plus the arrays' bytes, the minimum and median of 30 timed loads, and
# the sha256 of the loaded arrays.
LOADER_CHILD = r"""
import hashlib, json, sys, tempfile, time, tracemalloc
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from matword import io
from workloads import clustered_pair

out = {}
with tempfile.TemporaryDirectory() as tmp:
    for n, clusters in ((16, 4), (100, 10), (256, 8)):
        path = Path(tmp, "pair.json")
        io.save_matrices(path, clustered_pair(n, clusters, 1), names=["X", "Y"])
        mats = io.load_matrices(path)
        tracemalloc.start()
        io.load_matrices(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(30):
            start = time.perf_counter()
            io.load_matrices(path)
            times.append(time.perf_counter() - start)
        times.sort()
        size = path.stat().st_size
        out[n] = {"file_bytes": size, "peak_mib": peak / 2**20,
                  "peak_ratio": peak / (size + sum(m.nbytes for m in mats)),
                  "min_ms": times[0] * 1e3, "median_ms": times[15] * 1e3,
                  "sha256": hashlib.sha256(b"".join(m.tobytes() for m in mats)).hexdigest()}
print(json.dumps(out))
"""
# Criterion 8's input: the seed-880000 Ginibre matrix at n = 50, saved by the
# checkout's own writer.
CRITERION_8_INPUT = r"""
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from matword import io

rng = np.random.default_rng(880_000)
n = 50
io.save_matrices(sys.argv[2], [(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)])
"""


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "matword").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-2])


def decomposed(root: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNT_DECOMPOSED, str(root), workload],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loader(root: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", LOADER_CHILD, str(root)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def openblas(root: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", OPENBLAS_CHILD, str(root)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_run(root: Path, argv: list[str], files: list[str], outputs: dict) -> dict:
    """``argv`` plus its file arguments ``files``, run in a fresh child."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CHILD, str(root), json.dumps(outputs), *argv, *files],
        capture_output=True, text=True, check=True,
    )
    wall = time.perf_counter() - start
    return {"argv": argv, "wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])}


def fresh_verify(root: Path, argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report = str(Path(tmp, "report.json"))
        return fresh_run(root, argv, ["--report", report], {"report": report})


def criterion_8_scan(root: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        a, field, triples = (str(Path(tmp, f)) for f in ("a.json", "field.csv", "triples.json"))
        subprocess.run([sys.executable, "-c", CRITERION_8_INPUT, str(root), a], check=True)
        return fresh_run(root, CRITERION_8_SCAN,
                         ["--input", a, "--out", field, "--triples", triples],
                         {"triples": triples, "field_body": field})


def tier1(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, "summary": proc.stdout.strip().splitlines()[-1]}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "all": values}


def compare_pairs(parent: list[float], change: list[float]) -> dict:
    """Each side's median and quartiles, and how often the change is lower."""
    p, c = summary(parent), summary(change)
    return {"parent": p, "change": c, "change_wins": sum(b < a for a, b in zip(parent, change)),
            "pairs": len(parent), "median_delta": c["median"] - p["median"],
            "parent_iqr": p["q3"] - p["q1"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {w: {side: [] for side in sides} for w in args.workloads}
    for w in args.workloads:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                rec = bench(sides[side], w, k + 1, args.seconds, 0)
                setup = rec["end_to_end"]["setup_s"]
                runs[w][side].append({
                    "seed": k + 1, "correct": rec["checks"]["failed"] == 0,
                    **{m: rec["end_to_end"][m]["value"] for m in END_TO_END},
                    "setup_parts_s": {"import_s": setup["import_s"],
                                      "prepare_s": statistics.median(setup["prepare_s"])},
                    "parts_run_s": {p: t["value"] for p, t in rec["parts_run_s"].items()},
                    "environment": rec["environment"],
                })
                print(f"{w} pair {k} {side}: run_s {runs[w][side][-1]['run_s']:.3f}",
                      file=sys.stderr, flush=True)

    result = {"sides": {}, "workloads": {}}
    for side, root in sides.items():
        env = runs[args.workloads[0]][side][0]["environment"]
        result["sides"][side] = {"src_sha256": src_digest(root),
                                 "git_sha": env["git_sha"], "blas_threads": env["blas_threads"],
                                 "nproc": env["nproc"],
                                 "top_of_desk": fresh_verify(root, TOP_OF_DESK),
                                 "bench_ulpac": fresh_verify(root, BENCH_ULPAC),
                                 "bench_aulpac": fresh_verify(root, BENCH_AULPAC),
                                 "criterion_8_scan": criterion_8_scan(root),
                                 "tier1": tier1(root)}
    for w in args.workloads:
        entry = {m: compare_pairs([r[m] for r in runs[w]["parent"]],
                                  [r[m] for r in runs[w]["change"]]) for m in END_TO_END}
        for parts in ("parts_run_s", "setup_parts_s"):
            entry[parts] = {
                part: compare_pairs([r[parts][part] for r in runs[w]["parent"]],
                                    [r[parts][part] for r in runs[w]["change"]])
                for part in runs[w]["parent"][0][parts]
            }
        entry["all_correct"] = all(r["correct"] for side in sides for r in runs[w][side])
        entry["blas_threads"] = {side: runs[w][side][0]["environment"]["blas_threads"]
                                 for side in sides}
        entry["traced_seed0"] = {side: bench(root, w, 0, args.seconds, 1)["per_layer"]
                                 for side, root in sides.items()}
        entry["decomposed_seed0"] = {side: decomposed(root, w) for side, root in sides.items()}
        result["workloads"][w] = entry
    result["loader"] = {side: [] for side in sides}
    for k in range(3):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result["loader"][side].append(loader(sides[side]))
    result["openblas"] = openblas(sides["change"])
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
