"""The benchmark's workloads: seeded inputs, warm-up, one pass of matword CLI
commands, and the output checks.

A workload is a sequence of parts, each one job of the toolkit, and one pass
runs every part's commands in turn.  Each part's inputs come from ``base_seed + seed`` so that ``--seed 0``
reproduces the inputs the acceptance criteria use.  The program receives
only the generated input files and the command lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from matword import io
from matword.linalg import commutator, operator_norm
from matword.sampling import ginibre, haar_unitary, random_hermitian

# Grids and trial counts sit below the north-star sizes so that one pass takes
# about 2-4 s and a run's median covers 10-30 passes; the per-node and
# per-trial work is unchanged.
DESK_BOUNDS = "-0.7,0.7,-0.7,0.7"
DESK_EPS = 0.05
DESK_SCAN_GRID = "cheb:21x21"
DESK_LEMNISCATE_GRID = "cheb:101x101"
DESK_DELTA = 1e-2
DESK_MAX_DEG = 10
GINIBRE_BOUNDS = "-1.5,1.5,-1.5,1.5"
GINIBRE_EPS = 0.2
GINIBRE_SCAN_GRID = "cheb:31x31"
REFINES = 3
ULPAC_TRIALS = 10
AULPAC_TRIALS = 3


@dataclass(frozen=True)
class Part:
    name: str
    base_seed: int
    # (input seed, inputs dir) -> in-memory inputs for the oracles
    make_inputs: Callable[[int, Path], dict]
    # (input seed, inputs dir, outputs dir, warm-up?) -> argv of each command;
    # the warm-up runs the same commands on tiny grids or one trial, unchecked
    commands: Callable[[int, Path, Path, bool], list[list[str]]]
    # (checks, inputs, outputs dir, input seed) -> None
    check: Callable[[oracles.Checks, dict, Path, int], None]


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]


def clustered_pair(n, clusters, seed, target_comm=1.5e-3):
    """Almost-commuting hermitian pair with tight spectral clusters, as in
    scripts/desk_example.py and acceptance criterion 5."""
    rng = np.random.default_rng(seed)
    centers = []
    while len(centers) < clusters:
        cand = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        if all(abs(cand - c) >= 0.25 for c in centers):
            centers.append(cand)
    per = n // clusters
    eigs = np.concatenate(
        [c + rng.uniform(0, 5e-5, per) * np.exp(2j * np.pi * rng.uniform(0, 1, per))
         for c in centers]
    )
    q = haar_unitary(rng, len(eigs))
    a0 = (q * eigs) @ q.conj().T
    x0, y0 = (a0 + a0.conj().T) / 2, (a0 - a0.conj().T) / 2j
    e1, e2 = random_hermitian(rng, len(eigs)), random_hermitian(rng, len(eigs))
    probe = operator_norm(commutator(x0 + 1e-3 * e1, y0 + 1e-3 * e2))
    eps = 1e-3 * target_comm / probe
    return x0 + eps * e1, y0 + eps * e2


# -- desk-cluster ------------------------------------------------------------

def _desk_inputs(seed, ind):
    x, y = clustered_pair(100, 10, seed)
    io.save_matrices(ind / "pair.json", [x, y], names=["X", "Y"])
    return {"a": x + 1j * y}


def _desk_commands(seed, ind, out, warmup):
    scan_grid, lem_grid = ("cheb:3x3", "cheb:9x9") if warmup else (DESK_SCAN_GRID, DESK_LEMNISCATE_GRID)
    pair = str(ind / "pair.json")
    return [
        ["scan", "--input", pair, "--eps", str(DESK_EPS), "--grid", scan_grid,
         "--bounds", DESK_BOUNDS, "--out", str(out / "field.csv")],
        ["minpoly", "--input", pair, "--delta", str(DESK_DELTA), "--max-deg", str(DESK_MAX_DEG),
         "--seed", "5", "--out", str(out / "poly.json")],
        ["lemniscate", "--poly", str(out / "poly.json"), "--grid", lem_grid,
         "--bounds", DESK_BOUNDS, "--level", "1e-2", "--out", str(out / "contours.csv")],
    ]


def _desk_check(checks, inputs, out, seed):
    a = inputs["a"]
    oracles.check_scan(checks, a, DESK_EPS, out / "field.csv", out / "field.triples.json", seed)
    oracles.check_minpoly(checks, a, DESK_DELTA, DESK_MAX_DEG, out / "poly.json")
    oracles.check_contours(checks, out / "contours.csv")


# -- ginibre-refine ----------------------------------------------------------

def _ginibre_inputs(seed, ind):
    a = ginibre(np.random.default_rng(seed), 50)
    io.save_matrices(ind / "ginibre.json", [a])
    return {"a": a}


def _ginibre_commands(seed, ind, out, warmup):
    mat = str(ind / "ginibre.json")
    cmds = [
        ["scan", "--input", mat, "--eps", str(GINIBRE_EPS),
         "--grid", "cheb:3x3" if warmup else GINIBRE_SCAN_GRID,
         "--bounds", GINIBRE_BOUNDS, "--out", str(out / "field.csv")],
        ["grid", "generate", "--grid", "quad:2", "--bounds", GINIBRE_BOUNDS,
         "--out", str(out / "grid0.json")],
    ]
    for i in range(1 if warmup else REFINES):
        cmds.append(["grid", "refine", "--grid-file", str(out / f"grid{i}.json"),
                     "--input", mat, "--threshold", "0.2", "--max-depth", "6",
                     "--out", str(out / f"grid{i + 1}.json")])
    return cmds


def _ginibre_check(checks, inputs, out, seed):
    oracles.check_scan(checks, inputs["a"], GINIBRE_EPS, out / "field.csv",
                       out / "field.triples.json", seed)
    oracles.check_refinement(checks, [out / f"grid{i}.json" for i in range(REFINES + 1)])


# -- ulpac-cube and aulpac-sphere ----------------------------------------------

def _no_inputs(seed, ind):
    return {}


def _ulpac_commands(seed, ind, out, warmup):
    return [["verify", "ulpac", "--kind", "cube", "--m", "2", "--n", "16", "--delta", "0.02",
             "--trials", "1" if warmup else str(ULPAC_TRIALS), "--seed", str(seed),
             "--polys", "z^2-1", "--eps-alg", "1e-3", "--eps", "0.2",
             "--report", str(out / "report.json"), "--csv", str(out / "trials.csv")]]


def _aulpac_commands(seed, ind, out, warmup):
    return [["verify", "aulpac", "--kind", "sphere", "--m", "2", "--n", "32", "--delta", "0.02",
             "--trials", "1" if warmup else str(AULPAC_TRIALS), "--seed", str(seed),
             "--report", str(out / "report.json"), "--csv", str(out / "trials.csv")]]


def _verify_check(trials):
    def check(checks, inputs, out, seed):
        oracles.check_trials(checks, out / "report.json", trials)
    return check


DESK_CLUSTER = Part("desk-cluster", 550_000, _desk_inputs, _desk_commands, _desk_check)
GINIBRE_REFINE = Part("ginibre-refine", 880_000, _ginibre_inputs, _ginibre_commands,
                      _ginibre_check)
ULPAC_CUBE = Part("ulpac-cube", 7, _no_inputs, _ulpac_commands, _verify_check(ULPAC_TRIALS))
AULPAC_SPHERE = Part("aulpac-sphere", 7, _no_inputs, _aulpac_commands,
                     _verify_check(AULPAC_TRIALS))

# Each workload pairs a job that exercises a planned optimization with a job
# that bypasses a different one, so each optimization has a workload where it
# should gain and another where it must show no loss: Schur certification
# gains on desk-cluster and must not slow ginibre-refine; path batching gains
# on ulpac-cube (16x16) and must not slow aulpac-sphere (64x64).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-aulpac", (DESK_CLUSTER, AULPAC_SPHERE)),
        Workload("ginibre-ulpac", (GINIBRE_REFINE, ULPAC_CUBE)),
    )
}
