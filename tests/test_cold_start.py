"""What a fresh interpreter loads, and that deferred scipy imports stay pinned.

``import matword`` loads numpy and the bare scipy package only.  The one
scipy submodule the commands use, ``scipy.linalg`` (for Schur forms), loads
inside the functions that call it, so ``scan`` never loads it and
``verify`` and ``deform`` load it alone: the assignment and the cluster
labels they need are matword's own, not ``scipy.optimize`` or
``scipy.sparse``.  Each test runs its probe in a fresh interpreter, because
this test process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matword
from matword import config

SRC = Path(matword.__file__).resolve().parents[1]
SUBMODULES = ("scipy.linalg", "scipy.sparse", "scipy.optimize")

_COMMAND_PROBE = """
import sys
from pathlib import Path

import numpy as np

import matword.cli
from matword import io

work = Path(sys.argv[1])
io.save_matrices(work / "a.json", np.diag([0.1, 0.2]))
io.save_matrices(work / "b.json", np.diag([0.11, 0.21]))
code = matword.cli.dispatch(sys.argv[2:])
print(code, sorted(m for m in {submodules!r} if m in sys.modules))
"""


def run_probe(code, *args, **env):
    full_env = {k: v for k, v in os.environ.items() if k != "MATWORD_THREADS"}
    full_env.update(PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=full_env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def test_scan_loads_no_scipy_submodule_and_verify_does(tmp_path):
    probe = _COMMAND_PROBE.format(submodules=SUBMODULES)
    scan = ["scan", "--input", tmp_path / "a.json", "--eps", "0.5", "--grid", "cheb:5x5",
            "--bounds", "-1,1,-1,1", "--out", tmp_path / "f.csv"]
    # the command prints its own summary first; the probe's line comes last
    assert run_probe(probe, tmp_path, *scan).splitlines()[-1] == "0 []"
    instance = ["--m", "2", "--n", "4", "--delta", "0.02", "--trials", "1", "--seed", "0"]
    commands = {
        "verify ulpac": ["verify", "ulpac", "--kind", "cube", *instance, "--polys", "z^2-1",
                         "--eps-alg", "1e-3", "--eps", "0.2", "--report", tmp_path / "u.json"],
        "verify aulpac": ["verify", "aulpac", "--kind", "sphere", *instance,
                          "--report", tmp_path / "s.json"],
        "deform gujc": ["deform", "gujc", "--x", tmp_path / "a.json", "--y", tmp_path / "b.json",
                        "--report", tmp_path / "d.json"],
    }
    for name, argv in commands.items():
        assert run_probe(probe, tmp_path, *argv).splitlines()[-1] == "0 ['scipy.linalg']", name


_SCHUR_PROBE = """
import sys

import numpy as np

from matword import config, linalg
from matword.sampling import haar_unitary

assert "scipy.linalg" not in sys.modules
rng = np.random.default_rng(11)
q = haar_unitary(rng, 100)
eigs = np.exp(2j * np.pi * np.arange(100) / 100) * (1.0 + 0.1 * rng.random(100))
a = (q * eigs) @ q.conj().T
reps, _ = linalg.cluster_eigenbasis(a, 1e-3)
print(config.blas_threads())
print(repr(reps))
"""


def test_deferred_schur_runs_on_the_pinned_openblas():
    if config.blas_threads() is None:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    outputs = [run_probe(_SCHUR_PROBE, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
    assert outputs[0].splitlines()[0] == "{'numpy': 1, 'scipy': 1}"
    assert outputs[0] == outputs[1]
