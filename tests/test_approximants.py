import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from matword import approximants
from matword.approximants import (
    ApproximantError,
    _min_cost_assignment,
    conjugation_tuple_map,
    dilate,
    double_embed,
    joint_isospectral_approximant,
    nearby_commuting_unitary,
    upper_left_block,
)
from matword.deformation import InstanceSpec, verify_aulpac, verify_ulpac
from matword.io import parse_poly_literal
from matword.linalg import (
    LinalgError,
    NormalTuple,
    commutator,
    joint_diagonalize,
    max_commutator,
    operator_norm,
)
from matword.sampling import (
    commuting_hermitian_tuple,
    haar_unitary,
    unitary_near_identity,
)


def random_block_unitary(rng, bases):
    """Unitary commuting with the projection family spanned by bases."""
    n = sum(b.shape[1] for b in bases)
    out = np.zeros((n, n), dtype=complex)
    for b in bases:
        out += b @ haar_unitary(rng, b.shape[1]) @ b.conj().T
    return out


class TestNearbyCommutingUnitary:
    def test_commuting_input_recovers_adjoint(self, rng):
        d = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        w = random_block_unitary(
            rng, [np.eye(4)[:, :2], np.eye(4)[:, 2:]]
        )
        res = nearby_commuting_unitary(w, d)
        assert operator_norm(np.eye(4) - w @ res.z) <= 1e-12
        assert operator_norm(commutator(res.z, d)) <= 1e-12

    def test_identity_w(self):
        d = np.diag([0.5, -0.5]).astype(complex)
        res = nearby_commuting_unitary(np.eye(2), d)
        assert operator_norm(res.z - np.eye(2)) < 1e-13
        assert res.constant == pytest.approx(3.0 * 2 * 1 / 1.0)

    def test_inequality_on_random_trials(self):
        # 200 near-commuting 8x8 unitaries against r=4 clusters at gap 1/2
        d = np.diag(np.repeat([0.75, 0.25, -0.25, -0.75], 2)).astype(complex)
        bases = [np.eye(8)[:, 2 * k : 2 * k + 2] for k in range(4)]
        worst_ratio = 0.0
        for seed in range(200):
            rng = np.random.default_rng(9000 + seed)
            b = random_block_unitary(rng, bases)
            v = unitary_near_identity(rng, 8, 0.2)
            w = v @ b
            res = nearby_commuting_unitary(w, d)
            assert res.constant == pytest.approx(3 * 4 * 3 / 0.5)
            assert operator_norm(commutator(res.z, d)) <= 1e-9 * 8
            lhs = operator_norm(np.eye(8) - w @ res.z)
            rhs = res.constant * operator_norm(w @ d @ w.conj().T - d)
            assert lhs <= rhs + 1e-10
            if rhs > 0:
                worst_ratio = max(worst_ratio, lhs / rhs)
        assert worst_ratio <= 1.0 + 1e-10

    def test_gap_guard(self):
        d = np.diag([0.0, 1e-12]).astype(complex)
        with pytest.raises((ApproximantError, LinalgError)):
            nearby_commuting_unitary(haar_unitary(np.random.default_rng(0), 2), d,
                                     cluster_tol=1e-14, min_gap=1e-6)

    def test_zero_block_completion(self):
        # W swaps the two eigenspaces of D, so both compressed blocks vanish:
        # the second exactly, the first up to 1e-13 i, whose polar factor is i
        d = np.diag([1.0, -1.0]).astype(complex)
        w = np.array([[1e-13j, 1.0], [1.0, 0.0]], dtype=complex)
        res = nearby_commuting_unitary(w, d)
        # both blocks are completed by the identity, so Z is the identity
        assert operator_norm(res.z - np.eye(2)) < 1e-12
        assert operator_norm(commutator(res.z, d)) < 1e-12

    def test_scalar_d_short_circuits(self, rng):
        w = haar_unitary(rng, 3)
        res = nearby_commuting_unitary(w, 0.3 * np.eye(3))
        assert res.constant == 0.0
        assert operator_norm(np.eye(3) - w @ res.z) < 1e-12


def brute_force_assignment(cost):
    """Minimal total assignment cost by exhaustive permutation search."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, p] for i, p in enumerate(perm)))
    return best


class TestJointIsospectralApproximant:
    def test_equal_diagonal_tuples(self):
        t = NormalTuple.from_matrices([np.diag([0.3, -0.1, 0.8]), np.diag([0.5, 0.2, -0.6])])
        psi = joint_isospectral_approximant(t, t, delta=0.0)
        assert operator_norm(psi.w - np.eye(3)) < 1e-12
        # matched joint eigenvalues coincide: slot i of X goes to slot perm[i] of Y
        _, dx = joint_diagonalize(t, tol=1e-12)
        _, dy = psi.target_basis
        assert all(np.array_equal(a, b[psi.permutation]) for a, b in zip(dx, dy))

    def test_conjugated_target_matched_exactly(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 6)
        v = unitary_near_identity(rng, 6, 0.05)
        x = NormalTuple.from_matrices(mats)
        y = NormalTuple.from_matrices([v @ m @ v.conj().T for m in mats])
        delta = max(operator_norm(a - b) for a, b in zip(x, y))
        psi = joint_isospectral_approximant(x, y, delta)
        wx = [psi.apply(xj) for xj in x]
        assert max(operator_norm(a - yj) for a, yj in zip(wx, y)) <= 1e-9
        assert max(operator_norm(a - xj) for a, xj in zip(wx, x)) <= (
            2 * operator_norm(np.eye(6) - v) + 1e-9)
        assert max_commutator(zip(wx, y)) <= 1e-8 * 6

    def test_spectra_preserved_exactly(self, rng):
        x = NormalTuple.from_matrices(commuting_hermitian_tuple(rng, 2, 5))
        v = unitary_near_identity(rng, 5, 0.1)
        y = NormalTuple.from_matrices([v @ m @ v.conj().T for m in x])
        psi = joint_isospectral_approximant(x, y, 0.3)
        for m in x:
            before = np.sort(np.linalg.eigvalsh(m))
            after = np.sort(np.linalg.eigvalsh(psi.apply(m)))
            assert np.allclose(before, after, atol=1e-10)

    def test_matching_cost_optimal_for_small_n(self):
        from matword.approximants import matching_cost_matrix

        for seed in range(25):
            rng = np.random.default_rng(4000 + seed)
            n = int(rng.integers(2, 7))
            q = haar_unitary(rng, n)
            dx = [rng.uniform(-1, 1, n) for _ in range(2)]
            dy = [d + rng.uniform(-0.05, 0.05, n) for d in dx]
            x = NormalTuple.from_matrices([(q * d) @ q.conj().T for d in dx])
            y = NormalTuple.from_matrices([(q * d) @ q.conj().T for d in dy])
            psi = joint_isospectral_approximant(x, y, delta=0.2)
            # the permutation lives in joint-diagonalization slot order,
            # which is deterministic, so rebuild the exact solver input
            ux, djx = joint_diagonalize(x, tol=max(x.commutator_bound, 1e-12))
            uy, djy = joint_diagonalize(y, tol=max(y.commutator_bound, 1e-12))
            cost = matching_cost_matrix(
                djx, djy, overlap=ux.conj().T @ uy, overlap_weight=0.2
            )
            total = sum(cost[i, p] for i, p in enumerate(psi.permutation))
            assert total <= brute_force_assignment(cost) + 1e-10

    def test_distance_gate(self, rng):
        x = NormalTuple.from_matrices([np.diag([1.0, -1.0])])
        y = NormalTuple.from_matrices([np.diag([-1.0, 1.0]) + 0.5 * np.eye(2)])
        with pytest.raises(ApproximantError):
            joint_isospectral_approximant(x, y, delta=0.01)

    def test_inverse_is_adjoint(self, rng):
        x = NormalTuple.from_matrices(commuting_hermitian_tuple(rng, 2, 4))
        v = unitary_near_identity(rng, 4, 0.05)
        y = NormalTuple.from_matrices([v @ m @ v.conj().T for m in x])
        psi = joint_isospectral_approximant(x, y, 0.2)
        inv = psi.inverse()
        assert operator_norm(inv.apply(psi.apply(x[0])) - x[0]) < 1e-12


def scipy_columns(cost):
    """The oracle: scipy's assignment, as the column of each row."""
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(len(cost)))
    return cols


class TestMinCostAssignment:
    """The pure-Python port must pick scipy's columns, ties included."""

    @pytest.mark.parametrize("kind", ["uniform", "integer", "zero", "tenths"])
    def test_matches_scipy_on_seeded_costs(self, kind):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 41))
            cost = {
                "uniform": lambda: rng.uniform(-1.0, 1.0, (n, n)),
                "integer": lambda: rng.integers(0, 4, (n, n)).astype(float),  # many ties
                "zero": lambda: np.zeros((n, n)),
                "tenths": lambda: np.round(rng.random((n, n)), 1),
            }[kind]()
            got = _min_cost_assignment(cost)
            assert np.array_equal(got, scipy_columns(cost)), (kind, seed, n)

    @pytest.mark.parametrize("n", [128, 256])
    def test_matches_scipy_at_desk_scale(self, n):
        cost = np.random.default_rng(n).random((n, n))
        assert np.array_equal(_min_cost_assignment(cost), scipy_columns(cost))

    def test_empty_and_single(self):
        assert _min_cost_assignment(np.zeros((0, 0))).tolist() == []
        assert _min_cost_assignment([[3.5]]).tolist() == [0]

    def test_matches_scipy_on_the_costs_verify_builds(self, monkeypatch):
        costs = []

        def recording(cost):
            costs.append(np.array(cost))
            return _min_cost_assignment(cost)

        monkeypatch.setattr(approximants, "_min_cost_assignment", recording)
        verify_ulpac(InstanceSpec("cube", 2, 16, 0.02, seed=7, polys=(parse_poly_literal("z^2-1"),),
                                  eps_alg=1e-3), 1, eps_pass=0.2)
        verify_aulpac(InstanceSpec("sphere", 2, 32, 0.02, seed=7), 1)
        assert {c.shape[0] for c in costs} == {16, 32, 64}
        for cost in costs:
            assert np.array_equal(_min_cost_assignment(cost), scipy_columns(cost))

    @pytest.mark.parametrize("cost", [
        np.zeros((3, 4)), np.zeros(3), np.zeros((2, 2, 2)),
        np.array([[0.0, np.nan], [1.0, 0.0]]),
        np.array([[0.0, np.inf], [1.0, 0.0]]),
        np.array([[0.0, -np.inf], [1.0, 0.0]]),
    ], ids=["wide", "vector", "stack", "nan", "inf", "minus-inf"])
    def test_malformed_cost_is_rejected(self, cost):
        with pytest.raises(ApproximantError):
            _min_cost_assignment(cost)


class TestCompressionAndDilation:
    def test_double_then_compress_is_identity(self, rng):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(upper_left_block(double_embed(x)), x)

    def test_compress_zero(self):
        assert np.array_equal(upper_left_block(np.zeros((4, 4))), np.zeros((2, 2)))

    def test_compress_labeled_blocks(self):
        m = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(upper_left_block(m), m[:2, :2])

    def test_odd_dimension_rejected(self):
        with pytest.raises(LinalgError):
            upper_left_block(np.eye(3))

    def test_double_embed_norm(self, rng):
        x = rng.standard_normal((4, 4))
        assert operator_norm(double_embed(x)) == pytest.approx(operator_norm(x), rel=1e-12)

    def _psi(self, w):
        from matword.approximants import IsospectralApproximant
        from matword.linalg import frozen

        return IsospectralApproximant(frozen(w), None)

    def test_standard_dilation_of_identity(self):
        psi = self._psi(np.eye(3, dtype=complex))
        big = dilate(psi, "standard")
        assert np.allclose(big.w, np.eye(6))

    def test_swap_dilation_unitary(self, rng):
        w = haar_unitary(rng, 4)
        big = dilate(self._psi(w), "swap")
        assert operator_norm(big.w @ big.w.conj().T - np.eye(8)) < 1e-12
        # the swap dilation is an involution
        assert operator_norm(big.apply(big.apply(double_embed(w))) - double_embed(w)) < 1e-12

    def test_standard_dilation_commutes_with_doubling(self, rng):
        w = haar_unitary(rng, 4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        big = dilate(self._psi(w), "standard")
        lhs = big.apply(double_embed(x))
        rhs = double_embed(w @ x @ w.conj().T)
        assert operator_norm(lhs - rhs) <= 1e-12

    def test_local_matching_identity(self, rng):
        # compressing the inverted swap dilation agrees with compressing the
        # standard dilation, for arbitrary x and W
        for seed in range(100):
            gen = np.random.default_rng(5000 + seed)
            n = int(gen.integers(2, 6))
            w = haar_unitary(gen, n)
            x = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            psi = self._psi(w)
            lhs = upper_left_block(dilate(psi, "swap").inverse().apply(double_embed(x)))
            rhs = upper_left_block(dilate(psi, "standard").apply(double_embed(x)))
            assert operator_norm(lhs - rhs) <= 1e-10

    def test_covering_property_for_commuting_tuples(self, rng):
        # dilated images of a commuting tuple compress back to a commuting tuple
        mats = commuting_hermitian_tuple(rng, 3, 4)
        w = haar_unitary(rng, 4)
        big = dilate(self._psi(w), "standard")
        compressed = [upper_left_block(big.apply(double_embed(m))) for m in mats]
        for i, a in enumerate(compressed):
            for b in compressed[i + 1:]:
                assert operator_norm(commutator(a, b)) <= 1e-12

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ApproximantError):
            dilate(self._psi(np.eye(2, dtype=complex)), "sideways")


def test_conjugation_map_preserves_commutators(rng):
    mats = commuting_hermitian_tuple(rng, 2, 4)
    phi = conjugation_tuple_map(haar_unitary(rng, 4))
    out = phi(mats)
    assert operator_norm(commutator(out[0], out[1])) <= 1e-12
