import numpy as np
import pytest

from clifford_oracles import left_regular_norm
from matword import clifford
from matword.clifford import (
    MAX_GENERATORS,
    clifford_distance,
    clifford_generators,
    clifford_norm,
    clifford_operator,
)
from matword.linalg import LinalgError, operator_norm
from matword.sampling import haar_unitary, random_hermitian


class TestGenerators:
    def test_one_generator_matches_hand_table(self):
        # -i times the Pauli matrices: one generator is -i on C^1, two are
        # -i X and -i Y on C^2, and a third is -i Z
        assert np.array_equal(clifford_generators(1).generators[0], [[-1j]])
        e1, e2, e3 = clifford_generators(3).generators
        assert np.array_equal(e1, [[0, -1j], [-1j, 0]])
        assert np.array_equal(e2, [[0, -1], [1, 0]])
        assert np.array_equal(e3, [[-1j, 0], [0, 1j]])
        assert all(np.array_equal(a, b)
                   for a, b in zip(clifford_generators(2).generators, (e1, e2)))

    @pytest.mark.parametrize("nvars", range(1, MAX_GENERATORS + 1))
    def test_defining_relations_exact(self, nvars):
        rep = clifford_generators(nvars)
        size = 2 ** (nvars // 2)
        assert rep.dim == size
        eye = np.eye(size)
        for i, gi in enumerate(rep.generators):
            assert gi.shape == (size, size)
            assert not gi.flags.writeable
            for j, gj in enumerate(rep.generators):
                assert np.array_equal(gi @ gj + gj @ gi, -2 * (i == j) * eye)

    def test_generator_count_guard(self):
        with pytest.raises(LinalgError):
            clifford_generators(0)
        with pytest.raises(LinalgError):
            clifford_generators(13)

    def test_cache_returns_same_object(self):
        assert clifford_generators(3) is clifford_generators(3)


class TestCliffordOperator:
    def test_single_identity_is_unitary(self):
        op = clifford_operator([np.eye(4)])
        assert op.shape == (4, 4)
        assert clifford_norm([np.eye(4)]) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(op @ op.conj().T - np.eye(4)) < 1e-12

    def test_zero_tuple(self):
        assert clifford_norm([np.zeros((3, 3)), np.zeros((3, 3))]) == 0.0

    def test_norm_bounded_by_sum(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            mats = [random_hermitian(rng, n, norm=float(rng.uniform(0.1, 2.0)))
                    for _ in range(2)]
            bound = sum(operator_norm(m) for m in mats)
            assert clifford_norm(mats) <= bound + 1e-10

    def test_operator_size(self):
        # n * 2^floor(m/2) rows
        assert clifford_operator([np.eye(3), np.eye(3)]).shape == (6, 6)
        assert clifford_operator([np.eye(3)] * 3).shape == (6, 6)
        assert clifford_operator([np.eye(3)] * 4).shape == (12, 12)

    @pytest.mark.parametrize("nvars", range(1, 9))
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_norm_matches_left_regular_representation(self, nvars, n):
        rng = np.random.default_rng(100 * nvars + n)
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(nvars)]
        expected = left_regular_norm(mats)
        assert clifford_norm(mats) == pytest.approx(expected, rel=1e-13)

    def test_oversized_operator_is_refused_before_it_is_built(self, monkeypatch):
        built = []

        def record(mats):
            built.append(len(mats))
            return np.zeros((1, 1))

        monkeypatch.setattr(clifford, "clifford_operator", record)
        # 12 generators act on C^64: 64 * 64 = 4096 rows is the largest allowed
        assert clifford_norm([np.eye(64)] * 12) == 0.0
        with pytest.raises(LinalgError, match="4160 rows"):
            clifford_norm([np.eye(65)] * 12)
        with pytest.raises(LinalgError, match="4160 rows"):
            clifford_distance([np.eye(65)] * 12, [np.zeros((65, 65))] * 12)
        assert built == [12]


class TestDeltaMetric:
    def test_zero_on_equal_tuples(self, rng):
        mats = [random_hermitian(rng, 4) for _ in range(3)]
        assert clifford_distance(mats, mats) == 0.0

    def test_single_member_is_operator_norm(self, rng):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        assert clifford_distance([a], [b]) == pytest.approx(operator_norm(a - b), abs=1e-12)

    def test_max_bound(self, rng):
        for _ in range(20):
            s = [random_hermitian(rng, 4) for _ in range(3)]
            t = [random_hermitian(rng, 4) for _ in range(3)]
            bound = 3 * max(operator_norm(a - b) for a, b in zip(s, t))
            assert clifford_distance(s, t) <= bound + 1e-10

    def test_triangle_inequality(self):
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            s, t, u = ([random_hermitian(rng, 3) for _ in range(2)] for _ in range(3))
            dsu = clifford_distance(s, u)
            dst = clifford_distance(s, t)
            dtu = clifford_distance(t, u)
            assert dsu <= dst + dtu + 1e-10

    def test_homogeneity(self, rng):
        s = [random_hermitian(rng, 4) for _ in range(2)]
        t = [random_hermitian(rng, 4) for _ in range(2)]
        c = -0.37 + 1.2j
        scaled = clifford_distance([c * m for m in s], [c * m for m in t])
        assert scaled == pytest.approx(abs(c) * clifford_distance(s, t), rel=1e-12)

    def test_arity_mismatch(self, rng):
        with pytest.raises(LinalgError):
            clifford_distance([np.eye(2)], [np.eye(2), np.eye(2)])

    def test_conjugation_invariance(self, rng):
        # distance is unchanged by a common unitary conjugation
        s = [random_hermitian(rng, 4) for _ in range(2)]
        t = [random_hermitian(rng, 4) for _ in range(2)]
        w = haar_unitary(rng, 4)
        sc = [w @ m @ w.conj().T for m in s]
        tc = [w @ m @ w.conj().T for m in t]
        assert clifford_distance(sc, tc) == pytest.approx(clifford_distance(s, t), rel=1e-10)
