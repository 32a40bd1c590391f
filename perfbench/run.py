#!/usr/bin/env python3
"""matword benchmark: one workload, run as real CLI commands, timed and checked.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload desk-aulpac --seed 0 --seconds 15 --trace 0

Each workload is a fixed sequence of ``matword`` commands, grouped in parts and
called in-process through ``matword.cli.dispatch`` on inputs generated from
``--seed``.
``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` splits the time between untraced passes and traced passes and
reports the per-layer metrics of the traced ones.  The outputs are checked
after the timed passes.

Standard output ends with two JSON lines: the full record (units, sample
counts, fail_ratio, report digests, environment), then the result
``{"correct", "attempted", "failed", "metrics"}``.  A traced run writes its
spans as JSONL under perfbench/out/.  BLAS threads
are left at the environment's default; on desk-aulpac a traced run also
records a single-threaded pass (OPENBLAS_NUM_THREADS=1) in a child process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
BASELINE_WORKLOAD = "desk-aulpac"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="added to each part's base seed; 0 gives the acceptance inputs")
    ap.add_argument("--seconds", type=float, default=55.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- environment ---------------------------------------------------------------

def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it is not found."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


# -- running commands ----------------------------------------------------------

def run_commands(cmds) -> tuple[list[int], str]:
    """Dispatch each argv in turn; returns exit codes and the captured output."""
    from matword import cli

    sink = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in cmds:
            codes.append(cli.dispatch(argv))
    return codes, sink.getvalue()


def timed_passes(cmds, out_dir, budget_s, checks, start_pass=None):
    """Run passes until the next one would end past ``budget_s`` (at least one).

    ``cmds`` maps each part to its argv list.  Returns the wall time of each
    pass, the wall times of each part, and the report digest of each pass.
    """
    from oracles import report_digest

    times, part_times, digests = [], {name: [] for name in cmds}, []
    t0 = time.perf_counter()
    while True:
        if start_pass is not None:
            start_pass(len(times))
        elapsed = 0.0
        for name, part_cmds in cmds.items():
            start = time.perf_counter()
            codes, log = run_commands(part_cmds)
            part_times[name].append(time.perf_counter() - start)
            elapsed += part_times[name][-1]
            for argv, code in zip(part_cmds, codes):
                checks.check(code == 0, f"`{' '.join(argv[:2])}` exited {code}: {log[-300:]}")
        times.append(elapsed)
        digests.append(report_digest(out_dir))
        if time.perf_counter() - t0 + elapsed > budget_s:
            return times, part_times, digests


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import matword.cli",
                    str(SRC)], check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def prepare(wl, seeds, work):
    """Generate and write each part's inputs, then run its warm-up commands."""
    start = time.perf_counter()
    inputs = {}
    for part in wl.parts:
        ind, warm = work / "inputs" / part.name, work / "warmup" / part.name
        ind.mkdir(parents=True)
        warm.mkdir(parents=True)
        inputs[part.name] = part.make_inputs(seeds[part.name], ind)
        run_commands(part.commands(seeds[part.name], ind, warm, True))
    return inputs, work / "inputs", time.perf_counter() - start


def single_thread_baseline(seed, seconds) -> dict:
    """Untraced run of the baseline workload with OPENBLAS_NUM_THREADS=1."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", BASELINE_WORKLOAD,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr[-500:]}
    child = json.loads(proc.stdout.splitlines()[-2])
    return {
        "run_s": child["end_to_end"]["run_s"],
        "parts_run_s": child["parts_run_s"],
        "blas_threads": child["environment"]["blas_threads"],
        "correct": child["checks"]["failed"] == 0,
        "digest": child["digests"]["untraced"],
    }


# -- one run -------------------------------------------------------------------

def timing(values, unit) -> dict:
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "all": values}


def run_workload(wl, seed, seconds, trace, work) -> dict:
    import layers
    from oracles import Checks, check_digests
    from spans import Recorder

    checks = Checks()
    seeds = {part.name: part.base_seed + seed for part in wl.parts}
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    prepare_s = []
    for k in range(SETUP_REPEATS):
        inputs, ind, elapsed = prepare(wl, seeds, work / f"setup{k}")
        prepare_s.append(elapsed)
    out = work / "out"
    cmds = {}
    for part in wl.parts:
        (out / part.name).mkdir(parents=True)
        cmds[part.name] = part.commands(seeds[part.name], ind / part.name, out / part.name, False)

    run_s, parts_s, digests = timed_passes(cmds, out, seconds / 2 if trace else seconds, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": wl.name, "seed": seed, "input_seeds": seeds, "seconds": seconds,
        "trace": trace, "environment": environment(),
        "end_to_end": {
            "setup_s": {"value": import_s + statistics.median(prepare_s), "unit": "s",
                        "samples": SETUP_REPEATS, "import_s": import_s, "prepare_s": prepare_s},
            "run_s": timing(run_s, "s"),
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        },
        "parts_run_s": {name: timing(t, "s") for name, t in parts_s.items()},
        "digests": {"untraced": sorted(set(digests))},
    }

    if trace:
        recorder = Recorder()
        with recorder.patched("matword", layers.TARGETS):
            traced_s, _, traced_digests = timed_passes(
                cmds, out, seconds / 2, checks, lambda i: setattr(recorder, "pass_id", i))
        digests += traced_digests
        overhead = statistics.median(traced_s) - statistics.median(run_s)
        per_layer, details = layers.summarize(recorder.spans, overhead)
        spans_path = OUT / f"{wl.name}.spans.jsonl"
        recorder.write_jsonl(spans_path)
        record["digests"]["traced"] = sorted(set(traced_digests))
        record["traced"] = {"run_s": timing(traced_s, "s"), "spans": len(recorder.spans),
                            "spans_file": str(spans_path.relative_to(ROOT)), **details}
        record["per_layer"] = {name: {"value": per_layer[name], "unit": unit}
                               for name, unit in layers.METRICS.items()}

    for part in wl.parts:
        part.check(checks, inputs[part.name], out / part.name, seeds[part.name])
    check_digests(checks, digests)
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures[:20]}
    record["end_to_end"]["fail_ratio"] = {
        "value": checks.failed / checks.attempted, "unit": "1", "attempted": checks.attempted}

    if trace and wl.name == BASELINE_WORKLOAD:
        record["single_thread_baseline"] = {
            **single_thread_baseline(seed, max(1.0, seconds / 4)),
            "default_threads_run_s": record["end_to_end"]["run_s"]["value"],
            "default_threads_parts_run_s": {
                name: t["value"] for name, t in record["parts_run_s"].items()},
        }
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matword" / "__init__.py").is_file():
        print(f"error: no matword sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matword

    if Path(matword.__file__).resolve().parent != (SRC / "matword").resolve():
        print(f"error: matword imported from {matword.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = record["per_layer"] if args.trace else {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in record["end_to_end"].items() if name != "fail_ratio"
    }
    checks = record["checks"]
    print(json.dumps(record))
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
