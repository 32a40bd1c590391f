import ctypes
import functools
import gc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matword import config, linalg
from matword.deformation import InstanceSpec, verify_aulpac, verify_ulpac
from matword.io import parse_poly_literal
from matword.linalg import (
    ClusteringError,
    JointDiagonalizationError,
    LinalgError,
    NormalTuple,
    cartesian_decomposition,
    cluster_eigenbasis,
    commutator,
    joint_diagonalize,
    operator_norm,
    polar_decomposition,
    principal_unitary_log,
    threshold_clusters,
)
from matword.sampling import haar_unitary, random_hermitian
from normal_oracles import commuting_hermitian_tuple
from path_oracles import phase_exp


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_complex(rng, 5)
        assert operator_norm(commutator(a, a)) == 0.0

    def test_identity_commutes(self, rng):
        b = random_complex(rng, 4)
        assert operator_norm(commutator(np.eye(4), b)) == 0.0

    def test_hand_computed_2x2(self):
        # diag(1,2) against the upper shift: AB = [[0,1],[0,0]], BA = [[0,2],[0,0]]
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        expected = np.array([[0.0, -1.0], [0.0, 0.0]])
        assert np.allclose(commutator(a, b), expected, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(LinalgError):
            commutator(np.eye(2), np.eye(3))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, n), random_complex(rng, n)
        assert np.array_equal(commutator(a, b), -commutator(b, a))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_operator_norm_of_non_finite_input_is_inf_without_lapack(capfd, bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    assert linalg.operator_norm(a) == np.inf
    stack = np.array([2 * np.eye(3), a, np.eye(3)])
    assert linalg.operator_norm(stack).tolist() == [2.0, np.inf, 1.0]
    assert linalg.operator_norm(np.array([a, a])).tolist() == [np.inf, np.inf]
    # LAPACK saw no such matrix: it prints DLASCL errors for them
    assert "DLASCL" not in capfd.readouterr().err


class TestCartesianDecomposition:
    def test_hermitian_input(self, rng):
        a = random_hermitian(rng, 5)
        h, k = cartesian_decomposition(a)
        assert np.allclose(h, a)
        assert operator_norm(k) < 1e-14

    def test_pure_imaginary_identity(self):
        h, k = cartesian_decomposition(1j * np.eye(3))
        assert operator_norm(h) < 1e-15
        assert np.allclose(k, np.eye(3))

    def test_reconstruction(self, rng):
        a = random_complex(rng, 7)
        h, k = cartesian_decomposition(a)
        assert operator_norm(a - (h + 1j * k)) <= 1e-14
        assert operator_norm(h - h.conj().T) < 1e-14
        assert operator_norm(k - k.conj().T) < 1e-14


def union_find_clusters(points, tol):
    """Reference single linkage: the O(n^2) union-find over max-of-moduli gaps
    that ``threshold_clusters`` replaced, labels numbered by lowest member."""
    pts = [np.atleast_1d(p) for p in np.asarray(points, dtype=complex)]
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for k in range(i + 1, len(pts)):
            if max(abs(a - b) for a, b in zip(pts[i], pts[k])) <= tol:
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[max(ri, rk)] = min(ri, rk)
    seen: dict[int, int] = {}
    return np.array([seen.setdefault(find(i), len(seen)) for i in range(len(pts))])


class TestThresholdClusters:
    def test_chain_links_and_numbering(self):
        labels = threshold_clusters(np.array([0.5, 0.0, 0.1, 0.55, 0.2]), 0.1)
        assert labels.tolist() == [0, 1, 1, 0, 1]

    def test_max_of_moduli_metric(self):
        pts = np.array([[0.0, 0.0], [0.05, 0.3], [0.05, 0.0]])
        assert threshold_clusters(pts, 0.1).tolist() == [0, 1, 0]

    def test_matches_union_find_oracle_on_grid_ties(self):
        # Points on a 0.01 grid make gaps land exactly on the thresholds, where
        # np.abs on complex arrays and the scalar abs() can disagree in the
        # last ulp; both uses (complex spectra and stacked joint diagonals)
        # must reproduce the union-find labels exactly.
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(2, 13)), int(rng.integers(1, 4))
            tol = float(rng.choice([1e-9, 0.01, 0.05, 0.2]))
            pts = (np.round(rng.uniform(-0.15, 0.15, (n, m)), 2)
                   + 1j * np.round(rng.uniform(-0.15, 0.15, (n, m)), 2))
            for points in (pts[:, 0], np.stack(list(pts.T), 1)):
                want = union_find_clusters(points, tol)
                got = threshold_clusters(points, tol)
                assert np.array_equal(got, want), (seed, tol)

    def test_matches_union_find_oracle_up_to_desk_scale(self):
        for seed in range(12):
            rng = np.random.default_rng(7000 + seed)
            n, m = int(rng.integers(13, 257)), int(rng.integers(1, 4))
            tol = float(rng.choice([0.01, 0.03, 0.1]))
            pts = (np.round(rng.uniform(-0.5, 0.5, (n, m)), 2)
                   + 1j * np.round(rng.uniform(-0.5, 0.5, (n, m)), 2))
            for points in (pts[:, 0], pts):
                got = threshold_clusters(points, tol)
                assert np.array_equal(got, union_find_clusters(points, tol)), (seed, tol)

    def test_chain_is_walked_to_its_end(self):
        # 256 points each linked only to its neighbours: listed in order, the
        # walk from the first point takes 255 steps (the longest there is);
        # shuffled, it runs both ways from a point inside the chain
        for order in (np.arange(256), np.random.default_rng(3).permutation(256)):
            chain = (0.01 * order) * np.exp(0.25j)
            assert threshold_clusters(chain, 0.0101).tolist() == [0] * 256
            assert threshold_clusters(chain, 0.0099).tolist() == list(range(256))

    def test_no_points_give_no_labels(self):
        for points in (np.zeros(0), np.zeros((0, 2))):
            labels = threshold_clusters(points, 0.1)
            assert labels.shape == (0,) and labels.dtype.kind == "i"


def projections(bases):
    return [b @ b.conj().T for b in bases]


class TestSpectralDecomposition:
    """cluster_eigenbasis: clustered eigenvalues with orthonormal cluster bases."""

    def test_exact_degeneracy(self):
        values, bases = cluster_eigenbasis(np.diag([1.0, 1.0, -1.0]), 0.1)
        assert sorted(b.shape[1] for b in bases) == [1, 2]
        assert sorted(v.real for v in values) == pytest.approx([-1.0, 1.0])

    def test_below_tolerance_merges(self):
        values, bases = cluster_eigenbasis(np.diag([0.0, 1e-9]), 1e-6)
        assert len(values) == 1 and bases[0].shape == (2, 2)

    def test_gaps_exceeding_tolerance_split(self):
        values, _ = cluster_eigenbasis(np.diag([0.0, 0.5, 1.0]), 0.1)
        assert len(values) == 3

    def test_resolution_of_identity_and_structure(self, rng):
        n = 12
        u = haar_unitary(rng, n)
        vals = np.repeat([0.0, 0.7, -0.4], 4)
        a = (u * vals) @ u.conj().T
        values, bases = cluster_eigenbasis(a, 0.1)
        projs = projections(bases)
        assert operator_norm(sum(projs) - np.eye(n)) <= 1e-10 * n
        for p in projs:
            assert operator_norm(p - p.conj().T) <= 1e-12
            assert operator_norm(p @ p - p) <= 1e-12
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                assert operator_norm(p @ q) <= 1e-12
        rebuilt = sum(lam * p for lam, p in zip(values, projs))
        assert operator_norm(a - rebuilt) <= 0.1

    def test_straddling_gaps_raise(self):
        # chain 0, .1, .2, .3, .4 links into one cluster whose spread
        # exceeds the threshold
        with pytest.raises(ClusteringError):
            cluster_eigenbasis(np.diag([0.0, 0.1, 0.2, 0.3, 0.4]), 0.12)

    def test_rejects_non_normal(self):
        with pytest.raises(LinalgError):
            cluster_eigenbasis(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)


class TestJointDiagonalize:
    def test_already_diagonal(self):
        t = NormalTuple.from_matrices([np.diag([3.0, 1.0, 2.0]), np.diag([0.0, 1.0, 0.5])])
        u, diags = joint_diagonalize(t, tol=1e-10)
        assert np.array_equal(u, np.eye(3))
        assert np.allclose(diags[0], [3.0, 1.0, 2.0])
        assert np.allclose(diags[1], [0.0, 1.0, 0.5])

    def test_conjugated_diagonals_recovered(self, rng):
        n = 8
        d1 = rng.uniform(-1, 1, n)
        d2 = rng.uniform(-1, 1, n)
        w = haar_unitary(rng, n)
        t = NormalTuple.from_matrices([(w * d1) @ w.conj().T, (w * d2) @ w.conj().T])
        u, diags = joint_diagonalize(t, tol=1e-8)
        got = sorted(zip(np.round(diags[0].real, 8), np.round(diags[1].real, 8)))
        want = sorted(zip(np.round(d1, 8), np.round(d2, 8)))
        assert np.allclose(got, want, atol=1e-7)

    def test_single_normal_matrix(self, rng):
        n = 6
        u = haar_unitary(rng, n)
        vals = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        a = (u * vals) @ u.conj().T
        t = NormalTuple.from_matrices([a])
        uj, diags = joint_diagonalize(t, tol=1e-8)
        assert operator_norm(uj @ uj.conj().T - np.eye(n)) < 1e-12
        assert np.allclose(np.sort_complex(diags[0]), np.sort_complex(vals), atol=1e-9)

    @pytest.mark.parametrize("n,m", [(6, 2), (10, 3), (16, 2)])
    def test_exactly_commuting_residual(self, rng, n, m):
        t = NormalTuple.from_matrices(commuting_hermitian_tuple(rng, m, n))
        u, diags = joint_diagonalize(t, tol=1e-8)
        assert operator_norm(u @ u.conj().T - np.eye(n)) <= 1e-12 * n
        for mat, d in zip(t, diags):
            assert operator_norm(u.conj().T @ mat @ u - np.diag(d)) <= 1e-8 * n

    def test_rejects_far_from_commuting(self, rng):
        x = np.diag([1.0, -1.0])
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = NormalTuple.from_matrices([x, y])
        with pytest.raises(JointDiagonalizationError):
            joint_diagonalize(t, tol=1e-3)


class TestPrincipalUnitaryLog:
    def test_identity(self):
        assert operator_norm(principal_unitary_log(np.eye(4))) < 1e-12

    def test_scalar_phase(self):
        h = principal_unitary_log(1j * np.eye(3))
        assert np.allclose(h, 0.5 * np.eye(3), atol=1e-12)

    def test_small_rotation_round_trip(self, rng):
        h0 = random_hermitian(rng, 5, norm=0.3)
        z = phase_exp(h0)
        h = principal_unitary_log(z)
        assert operator_norm(h - h0) < 1e-9

    def test_round_trip_property(self):
        # 100 random unitaries with ||1 - Z|| <= 1.9
        for seed in range(100):
            gen = np.random.default_rng(1000 + seed)
            h0 = random_hermitian(gen, 4, norm=0.79)
            z = phase_exp(h0)
            assert operator_norm(np.eye(4) - z) <= 1.9
            h = principal_unitary_log(z)
            assert operator_norm(phase_exp(h) - z) <= 1e-9
            assert operator_norm(h - h.conj().T) < 1e-12
            assert np.all(np.linalg.eigvalsh(h) <= 1 + 1e-12)
            assert np.all(np.linalg.eigvalsh(h) >= -1 - 1e-12)

    def test_spectrum_at_minus_one_rejected(self):
        with pytest.raises(LinalgError):
            principal_unitary_log(np.diag([-1.0, 1.0]))


@functools.cache
def scipy_openblas_set_threads():
    """Thread-count setter of scipy's bundled OpenBLAS (32-bit integers, no
    symbol suffix), the copy scipy.linalg calls; None where scipy bundles none."""
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return setter
    return None


def scipy_schur(a):
    """The oracle: scipy.linalg.schur(a, output="complex"), with scipy's own
    OpenBLAS on as many threads as matword's.  matword pins only numpy's copy,
    and scipy's zgees gives other bits on two threads than on one (n >= 100)."""
    setter, threads = scipy_openblas_set_threads(), config.blas_threads()
    if setter is not None and threads is not None:
        setter(threads)
    return scipy.linalg.schur(a, output="complex")


def assert_same_arrays(got, want):
    """Same dtype, shape, memory order and bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.flags.f_contiguous) == (w.dtype, w.shape, w.flags.f_contiguous)
        assert g.tobytes() == w.tobytes()


class TestSchur:
    """The direct zgees call must return scipy.linalg.schur's arrays bit for bit."""

    SIZES = [*range(1, 41), 64, 128, 256]

    @staticmethod
    def _input(kind, rng, n):
        g = random_complex(rng, n)
        return {
            "ginibre": lambda: g / np.sqrt(2 * n),
            "unitary": lambda: haar_unitary(rng, n),
            "hermitian": lambda: (g + g.conj().T) / 2,
            "real": lambda: g.real,
            "diagonal": lambda: np.diag(g[0]),
        }[kind]()

    @pytest.mark.parametrize("kind", ["ginibre", "unitary", "hermitian", "real", "diagonal"])
    def test_matches_scipy_on_seeded_inputs(self, kind):
        for n in self.SIZES:
            a = self._input(kind, np.random.default_rng(n), n)
            assert_same_arrays(linalg._schur(a), scipy_schur(a))

    def test_matches_scipy_on_the_matrices_verify_decomposes(self, monkeypatch):
        inputs, schur = [], linalg._schur

        def recording(a):
            inputs.append(np.array(a))
            return schur(a)

        monkeypatch.setattr(linalg, "_schur", recording)
        verify_ulpac(InstanceSpec("cube", 2, 16, 0.02, seed=7, polys=(parse_poly_literal("z^2-1"),),
                                  eps_alg=1e-3), 1, eps_pass=0.2)
        verify_aulpac(InstanceSpec("sphere", 2, 32, 0.02, seed=7), 1)
        monkeypatch.undo()
        assert {a.shape[0] for a in inputs} == {16, 64}
        for a in inputs:
            assert_same_arrays(linalg._schur(a), scipy_schur(a))

    def test_fallback_without_a_bundled_openblas_is_scipy(self, monkeypatch):
        a = self._input("ginibre", np.random.default_rng(5), 12)
        bundled = linalg._schur(a)
        monkeypatch.setattr(config, "_bundled", lambda: None)
        assert config.lapack("zgees", linalg._ZGEES) is None
        assert config.blas_threads() is None
        assert_same_arrays(linalg._schur(a), bundled)
        assert_same_arrays(linalg._schur(a), scipy_schur(a))

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep the call's arrays alive until the cyclic collector ran
        if config.blas_threads() is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        a = self._input("ginibre", np.random.default_rng(3), 16)
        gc.collect()
        gc.disable()
        try:
            linalg._schur(a)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_failed_iteration_raises_linalg_error(self, monkeypatch):
        zgees = config.lapack("zgees", linalg._ZGEES)
        if zgees is None:
            pytest.skip("numpy does not bundle OpenBLAS here")

        def failing(*args):
            zgees(*args)
            args[-3]._obj.value = 2  # info > 0: the QR iteration did not converge

        monkeypatch.setattr(config, "lapack", lambda name, argtypes: failing)
        with pytest.raises(np.linalg.LinAlgError, match="Schur form not found"):
            linalg._schur(np.eye(3))


class TestPolarDecomposition:
    def test_unitary_input(self, rng):
        w = haar_unitary(rng, 5)
        v, r = polar_decomposition(w)
        assert np.allclose(v, w, atol=1e-12)
        assert np.allclose(r, np.eye(5), atol=1e-12)

    def test_positive_scalar(self):
        v, r = polar_decomposition(2.0 * np.eye(3))
        assert np.allclose(v, np.eye(3), atol=1e-14)
        assert np.allclose(r, 2.0 * np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        a = np.diag([-3.0, 0.0])
        v, r = polar_decomposition(a)
        assert np.allclose(r, np.diag([3.0, 0.0]), atol=1e-13)
        assert v[0, 0] == pytest.approx(-1.0)
        assert abs(v[1, 1]) == pytest.approx(1.0)
        assert operator_norm(v @ v.conj().T - np.eye(2)) < 1e-13
        assert operator_norm(v @ r - a) < 1e-13

    def test_reconstruction(self, rng):
        a = random_complex(rng, 8)
        v, r = polar_decomposition(a)
        n = 8
        assert operator_norm(v @ r - a) <= 1e-12 * n * operator_norm(a)
        assert np.all(np.linalg.eigvalsh((r + r.conj().T) / 2) >= -1e-12)


class TestNormalTuple:
    def test_records_actual_bounds(self, rng):
        x = np.diag([1.0, -1.0])
        y = np.array([[0.0, 0.5], [0.5, 0.0]])
        t = NormalTuple.from_matrices([x, y])
        assert t.commutator_bound == pytest.approx(operator_norm(commutator(x, y)))
        # the contraction slack max(0, ||M|| - 1), from the stored members
        assert max(max(0.0, operator_norm(m) - 1.0) for m in t) == 0.0
        t2 = NormalTuple.from_matrices([2.0 * np.eye(2)])
        assert t2.commutator_bound == 0.0
        assert max(max(0.0, operator_norm(m) - 1.0) for m in t2) == pytest.approx(1.0)

    def test_rejects_mixed_dims(self):
        with pytest.raises(LinalgError):
            NormalTuple.from_matrices([np.eye(2), np.eye(3)])

    def test_matrices_are_read_only(self):
        t = NormalTuple.from_matrices([np.eye(2)])
        with pytest.raises(ValueError):
            t[0][0, 0] = 5.0
