"""Acceptance criteria, one test per criterion.

Each criterion body is a pure function of its seed returning a
JSON-serializable report; criterion 9 reruns all of them and checks that
the serialized report bodies are byte-identical.  Every test prints one
PASS line with the headline numbers (visible under ``pytest -s``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matword
from matword.approximants import (
    IsospectralApproximant,
    dilate,
    double_embed,
    nearby_commuting_unitary,
    upper_left_block,
)
from matword.clifford import clifford_distance, clifford_norm
from matword.deformation import (
    InstanceSpec,
    connect_algebraic,
    connect_commuting,
    connect_soft_algebraic,
    generate_instance,
)
from matword.linalg import commutator, frozen, operator_norm
from matword.minpoly import PolyC, approx_min_poly
from matword.paths import MatrixPath
from matword.pseudospectra import (
    chebyshev_grid,
    pseudospectrum,
    scan_triples,
)
from matword.sampling import haar_unitary, random_hermitian, unitary_near_identity
from normal_oracles import eigenvalue_disk_mask
from path_oracles import spectrum_drift

Z2M1 = PolyC((-1.0, 0.0, 1.0))

_REPORTS: dict[str, bytes] = {}


def _freeze_report(name: str, doc: dict) -> dict:
    body = json.dumps(doc, sort_keys=True).encode()
    _REPORTS.setdefault(name, body)
    return doc


def _report_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


# -- criterion 1 -------------------------------------------------------------

def _clustered_diagonal(rng, n, r, min_gap):
    """Diagonal normal matrix with r distinct values separated by >= min_gap."""
    values = []
    while len(values) < r:
        cand = complex(rng.uniform(-1, 1), rng.uniform(-1, 1) * 0.3)
        if all(abs(cand - v) >= min_gap for v in values):
            values.append(cand)
    sizes = rng.multinomial(n - r, np.full(r, 1.0 / r)) + 1
    diag = np.concatenate([np.full(k, v) for v, k in zip(values, sizes)])
    gap = min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])
    return np.diag(diag), float(gap)


def criterion_1_report() -> dict:
    worst_comm = 0.0
    worst_margin = 0.0
    trials = 500
    for t in range(trials):
        rng = np.random.default_rng(110_000 + t)
        n = int(rng.integers(8, 33))
        r = int(rng.integers(2, 7))
        d, s = _clustered_diagonal(rng, n, r, min_gap=0.2)
        if t % 2:
            w = haar_unitary(rng, n)
        else:
            block = np.zeros((n, n), dtype=complex)
            # unitary nearly commuting with d: block-diagonal times a small twist
            start = 0
            for v in np.unique(np.diag(d)):
                idx = np.where(np.isclose(np.diag(d), v))[0]
                block[np.ix_(idx, idx)] = haar_unitary(rng, len(idx))
                start += len(idx)
            w = unitary_near_identity(rng, n, 0.2) @ block
        res = nearby_commuting_unitary(w, d, cluster_tol=0.05, min_gap=0.15)
        assert res.constant == pytest.approx(3.0 * r * (r - 1) / s, rel=1e-12)
        worst_comm = max(worst_comm, operator_norm(commutator(res.z, d)) / n)
        lhs = operator_norm(np.eye(n) - w @ res.z)
        rhs = res.constant * operator_norm(w @ d @ w.conj().T - d)
        assert lhs <= rhs + 1e-10, f"trial {t}: {lhs} > {rhs}"
        if rhs > 1e-300:
            worst_margin = max(worst_margin, lhs / rhs)
    return {
        "trials": trials,
        "worst_commutation_per_n": worst_comm,
        "worst_bound_ratio": worst_margin,
    }


def test_criterion_1_nearby_commuting_unitary():
    doc = _freeze_report("c1", criterion_1_report())
    assert doc["worst_commutation_per_n"] <= 1e-8
    assert doc["worst_bound_ratio"] <= 1.0 + 1e-10
    print(
        f"\ncriterion 1: PASS  500 trials, [Z,D]/n <= {doc['worst_commutation_per_n']:.2e}, "
        f"bound ratio <= {doc['worst_bound_ratio']:.3f}"
    )


# -- criterion 2 -------------------------------------------------------------

def criterion_2_report() -> dict:
    worst_slack = np.inf
    worst_delta_ratio = 0.0
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng(220_000 + t)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 17))
        s = [random_hermitian(rng, n, norm=float(rng.uniform(0.2, 1.0))) for _ in range(m)]
        tt = [random_hermitian(rng, n, norm=float(rng.uniform(0.2, 1.0))) for _ in range(m)]
        bound = sum(operator_norm(v) for v in s)
        worst_slack = min(worst_slack, bound - clifford_norm(s))
        d = clifford_distance(s, tt)
        dmax = m * max(operator_norm(a - b) for a, b in zip(s, tt))
        worst_delta_ratio = max(worst_delta_ratio, d / dmax)
    return {
        "trials": trials,
        "worst_norm_slack": worst_slack,
        "worst_metric_ratio": worst_delta_ratio,
    }


def test_criterion_2_clifford_bounds():
    doc = _freeze_report("c2", criterion_2_report())
    assert doc["worst_norm_slack"] >= -1e-10
    assert doc["worst_metric_ratio"] <= 1.0 + 1e-12
    print(
        f"\ncriterion 2: PASS  200 tuples, norm slack >= {doc['worst_norm_slack']:.3e}, "
        f"metric/bound <= {doc['worst_metric_ratio']:.3f}"
    )


# -- criterion 3 -------------------------------------------------------------

def criterion_3_report() -> dict:
    worst_roundtrip = 0.0
    worst_match = 0.0
    trials = 100
    for t in range(trials):
        rng = np.random.default_rng(330_000 + t)
        n = int(rng.integers(2, 9))
        w = haar_unitary(rng, n)
        x = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        worst_roundtrip = max(
            worst_roundtrip,
            operator_norm(upper_left_block(double_embed(x)) - x),
        )
        psi = IsospectralApproximant(frozen(w), None)
        small = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = upper_left_block(dilate(psi, "swap").inverse().apply(double_embed(small)))
        rhs = upper_left_block(dilate(psi, "standard").apply(double_embed(small)))
        worst_match = max(worst_match, operator_norm(lhs - rhs))
    return {"trials": trials, "worst_roundtrip": worst_roundtrip, "worst_match": worst_match}


def test_criterion_3_compression_dilation_identities():
    doc = _freeze_report("c3", criterion_3_report())
    assert doc["worst_roundtrip"] <= 1e-10
    assert doc["worst_match"] <= 1e-10
    print(
        f"\ncriterion 3: PASS  100 pairs, compress-embed {doc['worst_roundtrip']:.2e}, "
        f"dilation match {doc['worst_match']:.2e}"
    )


# -- criterion 4 -------------------------------------------------------------

def criterion_4_report() -> dict:
    trials = 20
    disagreements = 0
    nodes_checked = 0
    for t in range(trials):
        rng = np.random.default_rng(440_000 + t)
        n = int(rng.integers(5, 51))
        u = haar_unitary(rng, n)
        eigs = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n)
        a = (u * eigs) @ u.conj().T
        grid = chebyshev_grid((-1, 1, -1, 1), 21, 21)
        eps = float(rng.uniform(0.05, 0.3))
        got = pseudospectrum(a, eps, grid)
        oracle = eigenvalue_disk_mask(a, eps, grid)
        dist = np.min(np.abs(grid.nodes[:, None] - eigs[None, :]), axis=1)
        decisive = np.abs(dist - eps) > 1e-9
        nodes_checked += int(decisive.sum())
        disagreements += int((got.mask[decisive] != oracle[decisive]).sum())
    return {"trials": trials, "nodes": nodes_checked, "disagreements": disagreements}


def test_criterion_4_pseudospectrum_oracle():
    doc = _freeze_report("c4", criterion_4_report())
    assert doc["disagreements"] == 0
    print(
        f"\ncriterion 4: PASS  {doc['trials']} matrices, {doc['nodes']} nodes, "
        "0 disagreements with the eigenvalue-disk oracle"
    )


# -- criterion 5 -------------------------------------------------------------

def _clustered_pair(seed=550_000):
    """100x100 almost-commuting hermitian pair with 10 tight spectral clusters."""
    rng = np.random.default_rng(seed)
    n, k = 100, 10
    centers = []
    while len(centers) < k:
        cand = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        if all(abs(cand - c) >= 0.25 for c in centers):
            centers.append(cand)
    eigs = np.concatenate(
        [
            c
            + rng.uniform(0, 5e-5, n // k) * np.exp(2j * np.pi * rng.uniform(0, 1, n // k))
            for c in centers
        ]
    )
    q = haar_unitary(rng, n)
    a0 = (q * eigs) @ q.conj().T
    x0 = (a0 + a0.conj().T) / 2
    y0 = (a0 - a0.conj().T) / 2j
    e1 = random_hermitian(rng, n)
    e2 = random_hermitian(rng, n)

    def comm_at(eps):
        return operator_norm(commutator(x0 + eps * e1, y0 + eps * e2))

    eps = 1e-3 * (1.5e-3 / comm_at(1e-3))
    x = x0 + eps * e1
    y = y0 + eps * e2
    return x, y, operator_norm(commutator(x, y))


def criterion_5_report() -> dict:
    x, y, comm = _clustered_pair()
    a = x + 1j * y
    grid = chebyshev_grid((-0.7, 0.7, -0.7, 0.7), 101, 101)
    result = pseudospectrum(a, 0.05, grid)
    inside = int(result.mask.sum())
    p, residual = approx_min_poly(a, delta=1e-2, max_deg=10, seed=5)
    return {
        "commutator": comm,
        "nodes_inside": inside,
        "degree": p.degree,
        "residual": residual,
    }


def test_criterion_5_desk_scaled_clustering_example():
    doc = _freeze_report("c5", criterion_5_report())
    assert 5e-4 <= doc["commutator"] <= 5e-3
    assert doc["nodes_inside"] > 0
    assert doc["degree"] <= 10
    assert doc["residual"] <= 1e-2
    print(
        f"\ncriterion 5: PASS  ||[X,Y]|| = {doc['commutator']:.2e}, "
        f"{doc['nodes_inside']} grid nodes inside, min-poly degree {doc['degree']} "
        f"with residual {doc['residual']:.2e}"
    )


# -- criterion 6 -------------------------------------------------------------

def criterion_6_report() -> dict:
    trials = 50
    worst_end = 0.0
    worst_comm = 0.0
    worst_drift = 0.0
    for t in range(trials):
        spec = InstanceSpec("cube", 2, 16, 0.02, seed=660_000 + t)
        x, y = generate_instance(spec)
        res = connect_commuting(x, y)
        assert all(p.n_samples == 65 for p in res.paths)
        worst_end = max(worst_end, res.endpoint_residual)
        worst_comm = max(worst_comm, res.max_commutation)
        for p in res.paths:
            half = p.n_samples // 2 + 1
            curved = MatrixPath(np.linspace(0.0, 1.0, half), np.array(p.samples[:half]))
            worst_drift = max(worst_drift, spectrum_drift(curved))
    return {
        "trials": trials,
        "worst_endpoint": worst_end,
        "worst_commutation": worst_comm,
        "worst_spectrum_drift": worst_drift,
    }


def test_criterion_6_deformation_invariants():
    doc = _freeze_report("c6", criterion_6_report())
    n = 16
    assert doc["worst_endpoint"] <= 1e-8 * n
    assert doc["worst_commutation"] <= 1e-7 * n
    assert doc["worst_spectrum_drift"] <= 1e-9
    print(
        f"\ncriterion 6: PASS  50 instances, endpoints {doc['worst_endpoint']:.2e}, "
        f"commutators {doc['worst_commutation']:.2e}, spectra drift {doc['worst_spectrum_drift']:.2e}"
    )


# -- criterion 7 -------------------------------------------------------------

def criterion_7_report() -> dict:
    trials = 50
    worst_exact = 0.0
    worst_soft = 0.0
    for t in range(trials):
        spec = InstanceSpec(
            "cube", 2, 16, 0.02, seed=770_000 + t, polys=(Z2M1,), eps_alg=0.0
        )
        x, y = generate_instance(spec)
        res = connect_algebraic(x, y, (Z2M1,), eps=1e-7 * 16)
        worst_exact = max(worst_exact, res.max_poly_residual)
    for t in range(trials):
        spec = InstanceSpec(
            "cube", 2, 16, 0.002, seed=775_000 + t, polys=(Z2M1,), eps_alg=3.5e-3
        )
        x, y = generate_instance(spec)
        res = connect_soft_algebraic(x, y, (Z2M1,), delta=0.01, eps=0.05)
        worst_soft = max(worst_soft, res.max_poly_residual)
    return {
        "trials": 2 * trials,
        "worst_exact_residual": worst_exact,
        "worst_soft_residual": worst_soft,
    }


def test_criterion_7_algebraic_connectivity():
    doc = _freeze_report("c7", criterion_7_report())
    assert doc["worst_exact_residual"] <= 1e-7 * 16
    assert doc["worst_soft_residual"] <= 0.05
    print(
        f"\ncriterion 7: PASS  100 instances, exact residual {doc['worst_exact_residual']:.2e}, "
        f"soft residual {doc['worst_soft_residual']:.3f}"
    )


# -- criterion 8 -------------------------------------------------------------

def criterion_8_report() -> dict:
    rng = np.random.default_rng(880_000)
    n = 50
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    grid = chebyshev_grid((-1.5, 1.5, -1.5, 1.5), 101, 101)
    eps = 0.2
    triples = scan_triples(a, eps, grid.nodes)
    worst = 0.0
    for t in triples:
        check = operator_norm(t.u @ a @ t.v - t.sigma * (t.u @ t.v))
        worst = max(worst, check)
        assert check <= eps
    return {"triples": len(triples), "eps": eps, "worst_residual": worst}


def test_criterion_8_scanning_triples():
    doc = _freeze_report("c8", criterion_8_report())
    assert doc["triples"] > 0
    assert doc["worst_residual"] <= doc["eps"]
    print(
        f"\ncriterion 8: PASS  {doc['triples']} triples on a 101x101 grid, "
        f"worst recomputed residual {doc['worst_residual']:.3f} <= eps {doc['eps']}"
    )


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_determinism():
    builders = {
        "c1": criterion_1_report,
        "c2": criterion_2_report,
        "c3": criterion_3_report,
        "c4": criterion_4_report,
        "c5": criterion_5_report,
        "c6": criterion_6_report,
        "c7": criterion_7_report,
        "c8": criterion_8_report,
    }
    mismatched = []
    for name, build in builders.items():
        first = _REPORTS.get(name)
        again = _report_bytes(build())
        if first is None:
            first = again
        if first != again:
            mismatched.append(name)
    assert not mismatched, f"non-deterministic report bodies: {mismatched}"
    print("\ncriterion 9: PASS  criteria 1-8 reports byte-identical on rerun")


# Criterion 5's quantities, printed by a fresh interpreter: both digits
# move with the BLAS thread count unless ``import matword`` pins it.
_THREAD_PROBE = """
from test_acceptance import _clustered_pair
from matword.minpoly import approx_min_poly
x, y, comm = _clustered_pair()
p, residual = approx_min_poly(x + 1j * y, 1e-2, 10, seed=5)
print(repr(comm), repr(residual))
"""


def test_reports_independent_of_blas_threads():
    src = Path(matword.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "MATWORD_THREADS"}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1], f"output depends on OPENBLAS_NUM_THREADS: {outputs}"
