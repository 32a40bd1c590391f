import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matword.approximants import (
    IsospectralApproximant,
    conjugation_tuple_map,
    dilate,
    dilation_tuple_map,
    double_embed,
)
from matword.clifford import clifford_distance
from matword.linalg import NormalTuple, operator_norm
from matword.sampling import commuting_hermitian_tuple, haar_unitary, random_hermitian
from matword.words import (
    WordError,
    WordFunction,
    WordSpec,
    commutator_system,
    controllability_constant,
    controllability_ratio,
    eval_word,
    eval_word_function,
    variety_membership,
)


def _coeffs(n, extra=()):
    return [np.eye(n, dtype=complex), *extra]


class TestEvalWord:
    def test_zero_exponent_gives_identity(self, rng):
        x = rng.standard_normal((3, 3))
        w = WordSpec((0,), (0,), (0,))
        assert np.array_equal(eval_word(w, _coeffs(3), [x]), np.eye(3))

    def test_plain_power(self, rng):
        x = rng.standard_normal((4, 4))
        w = WordSpec((0,), (0,), (3,))
        assert np.allclose(eval_word(w, _coeffs(4), [x]), x @ x @ x)

    def test_two_letter_word_against_brute_force(self, rng):
        c1 = rng.standard_normal((2, 2))
        c2 = rng.standard_normal((2, 2))
        x1 = rng.standard_normal((2, 2))
        x2 = rng.standard_normal((2, 2))
        w = WordSpec((1, 2), (0, 1), (1, 1))
        got = eval_word(w, _coeffs(2, (c1, c2)), [x1, x2])
        assert np.allclose(got, c1 @ x1 @ c2 @ x2, atol=1e-13)

    def test_index_out_of_range(self):
        w = WordSpec((0,), (5,), (1,))
        with pytest.raises(WordError):
            eval_word(w, _coeffs(2), [np.eye(2)])

    def test_identity_must_be_present(self, rng):
        w = WordSpec((0,), (0,), (1,))
        with pytest.raises(WordError):
            eval_word(w, [2 * np.eye(2)], [np.eye(2)])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_all_zero_exponents_identity_coeffs(self, seed, length):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 3))
        w = WordSpec((0,) * length, (0,) * length, (0,) * length)
        assert np.array_equal(eval_word(w, _coeffs(3), [x]), np.eye(3))


class TestWordFunction:
    def test_identity_function(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 4)
        t = NormalTuple.from_matrices(mats)
        f = WordFunction.identity(2)
        out = eval_word_function(f, t)
        assert all(np.allclose(a, b) for a, b in zip(out, mats))

    def test_normality_through_adjoint_slot(self, rng):
        u = haar_unitary(rng, 4)
        x = (u * (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))) @ u.conj().T
        # components X X* and X* X agree for a normal input
        f = WordFunction(
            1,
            (
                ((1.0 + 0j, WordSpec((0, 0), (0, 1), (1, 1))),),
                ((1.0 + 0j, WordSpec((0, 0), (1, 0), (1, 1))),),
            ),
        )
        a, b = eval_word_function(f, [x])
        assert operator_norm(a - b) <= 1e-10

    def test_commutator_as_word_function(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 5)
        f = WordFunction(
            2,
            (
                (
                    (1.0 + 0j, WordSpec((0, 0), (0, 1), (1, 1))),
                    (-1.0 + 0j, WordSpec((0, 0), (1, 0), (1, 1))),
                ),
            ),
        )
        (out,) = eval_word_function(f, mats)
        assert operator_norm(out) <= 1e-12

    def test_arity_mismatch(self):
        f = WordFunction.identity(2)
        with pytest.raises(WordError):
            eval_word_function(f, [np.eye(2)])

    def test_linear_in_alphas(self, rng):
        x = random_hermitian(rng, 3)
        w = WordSpec((0,), (0,), (2,))
        f1 = WordFunction(1, (((0.5 + 0.25j, w),),))
        f2 = WordFunction(1, (((1.0 + 0.5j, w),),))
        (a,) = eval_word_function(f1, [x])
        (b,) = eval_word_function(f2, [x])
        assert np.allclose(2.0 * a, b, atol=1e-14)


class TestVarietyMembership:
    def test_fixed_diagonal_commutant(self):
        # matrices commuting with N = diag(n, ..., 1), N as a second variable:
        # exact membership at eps 0
        n = 4
        big_n = np.diag(np.arange(n, 0, -1).astype(float))
        x = np.diag([0.3, -0.2, 0.9, 0.0])
        member, residuals = variety_membership([x, big_n], commutator_system(2, 0.0))
        assert member
        assert residuals[0] <= 1e-14

    def test_commuting_pair_member(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 4)
        member, residuals = variety_membership(mats, commutator_system(2, 1e-6))
        assert member

    def test_non_commuting_pair_rejected(self):
        x = np.diag([0.5, -0.5])
        y = np.array([[0.0, 0.5], [0.5, 0.0]])
        # [x, y] has norm 0.5 exactly
        member, residuals = variety_membership([x, y], commutator_system(2, 0.1))
        assert not member
        assert residuals[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_eps(self, rng):
        x = np.diag([0.5, -0.5])
        y = np.array([[0.0, 0.5], [0.5, 0.0]])
        for eps in (0.0, 0.2, 0.5, 0.7):
            member, _ = variety_membership([x, y], commutator_system(2, eps))
            assert member == (eps >= 0.5)


class TestControllability:
    def test_equal_tuples_give_zero(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 4)
        f = WordFunction.identity(2)
        phi = dilation_tuple_map(haar_unitary(rng, 4))
        assert controllability_ratio(f, phi, mats, mats) == 0.0

    def test_identity_function_ratio_one(self, rng):
        x = commuting_hermitian_tuple(rng, 2, 4)
        y = commuting_hermitian_tuple(rng, 2, 4)
        f = WordFunction.identity(2)
        phi = dilation_tuple_map(haar_unitary(rng, 4))
        assert controllability_ratio(f, phi, x, y) == pytest.approx(1.0, abs=1e-8)

    def test_square_word_ratio_bounded(self):
        # f(X) = X_1^2 behaves isometrically under the standard dilation
        f = WordFunction(2, (((1.0 + 0j, WordSpec((0,), (0,), (2,))),),))
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(7000 + seed)
            x = commuting_hermitian_tuple(rng, 2, 4)
            y = commuting_hermitian_tuple(rng, 2, 4)
            phi = dilation_tuple_map(haar_unitary(rng, 4))
            worst = max(worst, controllability_ratio(f, phi, x, y))
        assert worst <= 1.0 + 1e-8

    def test_swap_dilation_also_controlled(self, rng):
        f = WordFunction(2, (((1.0 + 0j, WordSpec((0,), (0,), (2,))),),))
        x = commuting_hermitian_tuple(rng, 2, 4)
        y = commuting_hermitian_tuple(rng, 2, 4)
        big = dilate(IsospectralApproximant(haar_unitary(rng, 4), None), "swap")

        def phi(mats):
            return [big.apply(double_embed(m)) for m in mats]

        assert controllability_ratio(f, phi, x, y) <= 1.0 + 1e-8

    def test_constant_estimation(self, rng):
        f = WordFunction.identity(2)
        phi = conjugation_tuple_map(haar_unitary(rng, 4))
        pairs = [
            (commuting_hermitian_tuple(rng, 2, 4), commuting_hermitian_tuple(rng, 2, 4))
            for _ in range(10)
        ]
        c = controllability_constant(f, phi, pairs)
        assert c == pytest.approx(1.0, abs=1e-8)

    def test_undefined_ratio_raises(self, rng):
        # f collapses everything to zero upstream of phi, but phi(f(X)) keeps
        # a nonzero difference: impossible; instead force numerator > 0 with
        # zero denominator via a zero word function downstream.
        f = WordFunction(1, (((0.0 + 0j, WordSpec((0,), (0,), (1,))),),))
        phi = conjugation_tuple_map(np.eye(3))
        x = [np.diag([1.0, 0.5, 0.0])]
        y = [np.diag([0.2, 0.1, 0.0])]
        # both sides evaluate f = 0, so the ratio is 0/0 -> 0 by convention
        assert controllability_ratio(f, phi, x, y) == 0.0


def test_dilation_invariance_of_metric(rng):
    # conjugating doubled tuples by 1 (x) W leaves the metric at its
    # doubled-tuple value
    s = commuting_hermitian_tuple(rng, 2, 3)
    t = commuting_hermitian_tuple(rng, 2, 3)
    w = np.kron(np.eye(2), haar_unitary(rng, 3))
    sd = [double_embed(m) for m in s]
    td = [double_embed(m) for m in t]
    ws = [w @ m @ w.conj().T for m in sd]
    wt = [w @ m @ w.conj().T for m in td]
    assert clifford_distance(ws, wt) == pytest.approx(clifford_distance(sd, td), abs=1e-8)
    assert clifford_distance(sd, td) == pytest.approx(clifford_distance(s, t), abs=1e-10)
