"""What a fresh interpreter loads, and that the Schur forms run on the pinned OpenBLAS.

``import matword`` loads numpy and matword only, and no command loads scipy
or maps a file of scipy's wheel: the Schur forms call LAPACK's zgees in
numpy's bundled OpenBLAS through the entry point ``matword.config`` hands
out, and the assignment and the cluster labels are matword's own.  So
``scan``, ``verify`` and ``deform`` also run where scipy cannot be imported
at all.  Each test runs its probe in a fresh interpreter, because this test
process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matword
from matword import config

SRC = Path(matword.__file__).resolve().parents[1]

_COMMAND_PROBE = """
import sys
from pathlib import Path

{prelude}

import numpy as np

import matword.cli
from matword import io

work = Path(sys.argv[1])
io.save_matrices(work / "a.json", np.diag([0.1, 0.2]))
io.save_matrices(work / "b.json", np.diag([0.11, 0.21]))
code = matword.cli.dispatch(sys.argv[2:])
maps = Path("/proc/self/maps")
mapped = None
if maps.exists():
    mapped = sorted({{ln.split()[-1] for ln in maps.read_text().splitlines() if "scipy.libs" in ln}})
print(code, "scipy" in sys.modules, mapped)
"""


def run_probe(code, *args, **env):
    full_env = {k: v for k, v in os.environ.items() if k != "MATWORD_THREADS"}
    full_env.update(PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=full_env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def run_commands(tmp_path, prelude: str = "") -> dict[str, list[str]]:
    """Exit code, whether scipy is in sys.modules, and the mapped files of
    scipy's wheel (None without /proc/self/maps) after each command, each
    run in a fresh interpreter that first runs ``prelude``."""
    probe = _COMMAND_PROBE.format(prelude=prelude)
    instance = ["--m", "2", "--n", "4", "--delta", "0.02", "--trials", "1", "--seed", "0"]
    commands = {
        "scan": ["scan", "--input", tmp_path / "a.json", "--eps", "0.5", "--grid", "cheb:5x5",
                 "--bounds", "-1,1,-1,1", "--out", tmp_path / "f.csv"],
        "verify ulpac": ["verify", "ulpac", "--kind", "cube", *instance, "--polys", "z^2-1",
                         "--eps-alg", "1e-3", "--eps", "0.2", "--report", tmp_path / "u.json"],
        "verify aulpac": ["verify", "aulpac", "--kind", "sphere", *instance,
                          "--report", tmp_path / "s.json"],
        "deform gujc": ["deform", "gujc", "--x", tmp_path / "a.json", "--y", tmp_path / "b.json",
                        "--report", tmp_path / "d.json"],
    }
    # each command prints its own summary first; the probe's line comes last
    return {name: run_probe(probe, tmp_path, *argv).splitlines()[-1].split(" ", 2)
            for name, argv in commands.items()}


def test_no_command_loads_scipy(tmp_path):
    results = run_commands(tmp_path)
    for name, (code, imported, _) in results.items():
        assert (code, imported) == ("0", "False"), name
    if any(mapped == "None" for _, _, mapped in results.values()):
        pytest.skip("no /proc/self/maps here: the mapped-file check did not run")
    for name, (_, _, mapped) in results.items():
        assert mapped == "[]", name


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # a None entry makes every ``import scipy`` raise ImportError
    for name, (code, _, _) in run_commands(tmp_path, 'sys.modules["scipy"] = None').items():
        assert code == "0", name


_SCHUR_PROBE = """
import hashlib
import sys

import numpy as np

from matword import config, linalg
from matword.sampling import haar_unitary, random_hermitian

rng = np.random.default_rng(11)
q = haar_unitary(rng, 100)
eigs = np.exp(2j * np.pi * np.arange(100) / 100) * (1.0 + 0.1 * rng.random(100))
a = (q * eigs) @ q.conj().T
reps, _ = linalg.cluster_eigenbasis(a, 1e-3)
z = linalg.phase_exp(random_hermitian(rng, 100, norm=0.9))
h = linalg.principal_unitary_log(z)
print(config.blas_threads(), "scipy" in sys.modules)
print(repr(reps))
print(hashlib.sha256(h.tobytes()).hexdigest())
"""


def test_schur_forms_run_on_the_pinned_openblas():
    if config.blas_threads() is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    outputs = [run_probe(_SCHUR_PROBE, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
    assert outputs[0].splitlines()[0] == "1 False"
    assert outputs[0] == outputs[1]
