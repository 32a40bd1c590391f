import functools
import re
import tracemalloc

import numpy as np
import pytest

from matword import deformation, paths
from matword.linalg import (
    commutator,
    default_tol,
    hermitian_part,
    operator_norm,
)
from matword.minpoly import PolyC
from matword.paths import (
    CommutationConstraint,
    MatrixPath,
    NormalityConstraint,
    PathError,
    PolynomialConstraint,
    TargetDistanceConstraint,
    certify_paths,
    concat,
    curved_path,
    flat_path,
    verify_path,
    verify_paths,
)
from matword.sampling import random_hermitian
from normal_oracles import commuting_hermitian_tuple
from path_oracles import dense_maxima, path_length, phase_exp, spectrum_drift


class TestCurvedPath:
    def test_zero_generator_is_constant(self, rng):
        d = random_hermitian(rng, 4)
        p = curved_path(np.zeros((4, 4)), d, 9)
        assert all(operator_norm(s - d) < 1e-14 for s in p.samples)

    def test_commuting_generator_is_constant(self):
        h = np.diag([0.5, -0.5])
        d = np.diag([1.0, 2.0])
        p = curved_path(h, d, 9)
        assert all(operator_norm(s - d) < 1e-13 for s in p.samples)

    def test_hand_computed_endpoint(self):
        # H = diag(1,-1)/2: exp(i pi H) = diag(i, -i); conjugating the upper
        # shift multiplies the off-diagonal entry by i * conj(-i) = -1
        h = np.diag([0.5, -0.5])
        d = np.array([[0.0, 1.0], [0.0, 0.0]])
        p = curved_path(h, d, 5)
        expected = np.array([[0.0, -1.0], [0.0, 0.0]])
        assert operator_norm(p.end - expected) < 1e-12

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(PathError):
            curved_path(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 5)

    def test_spectrum_preserved(self, rng):
        h = random_hermitian(rng, 5)
        d = random_hermitian(rng, 5)
        p = curved_path(h, d, 17)
        assert spectrum_drift(p) <= 1e-9


class TestFlatPath:
    def test_constant_when_equal(self, rng):
        x = random_hermitian(rng, 3)
        p = flat_path(x, x, 5)
        assert path_length(p) < 1e-14

    def test_midpoint(self, rng):
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        p = flat_path(x, y, 5)
        assert operator_norm(p.samples[2] - (x + y) / 2) < 1e-14

    def test_diagonal_family_stays_commuting(self, rng):
        x = np.diag(rng.uniform(-1, 1, 4))
        y = np.diag(rng.uniform(-1, 1, 4))
        p = flat_path(x, y, 9)
        for s in p.samples:
            assert operator_norm(s @ x - x @ s) < 1e-14
            assert operator_norm(s @ y - y @ s) < 1e-14

    def test_stack_matches_list_expression_and_is_built_in_place(self, rng):
        n = 64
        x, y = random_hermitian(rng, n), random_hermitian(rng, n)
        times = np.linspace(0.0, 1.0, 65)
        want = np.array([(1.0 - t) * x + t * y for t in times])
        tracemalloc.start()
        try:
            p = flat_path(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(p.samples, want)
        # one stack plus per-sample temporaries, not a list and its copy
        assert peak < 1.25 * want.nbytes


class TestConcat:
    def test_concat_with_constant_tail(self, rng):
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        p = flat_path(x, y, 9)
        tail = flat_path(y, y, 9)
        joined = concat(p, tail)
        assert operator_norm(joined.start - x) < 1e-14
        assert operator_norm(joined.end - y) < 1e-14

    def test_reparametrization_identity(self, rng):
        x, y, z = (random_hermitian(rng, 3) for _ in range(3))
        p = flat_path(x, y, 9)
        q = flat_path(y, z, 9)
        joined = concat(p, q)
        i = np.where(np.isclose(joined.times, 0.25))[0][0]
        assert operator_norm(joined.samples[i] - p.samples[4]) < 1e-14

    def test_associativity_of_endpoints(self, rng):
        x, y, z, w = (random_hermitian(rng, 3) for _ in range(4))
        p, q, r = flat_path(x, y, 5), flat_path(y, z, 5), flat_path(z, w, 5)
        left = concat(concat(p, q), r)
        right = concat(p, concat(q, r))
        assert operator_norm(left.start - right.start) < 1e-14
        assert operator_norm(left.end - right.end) < 1e-14
        assert not np.array_equal(left.times, right.times)

    def test_junction_mismatch_rejected(self, rng):
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        p = flat_path(x, y, 5)
        q = flat_path(y + 0.1 * np.eye(3), x, 5)
        with pytest.raises(PathError):
            concat(p, q)

    @staticmethod
    def chain(seed, lengths, n=3):
        """Paths with the given sample counts on uneven time grids, each
        starting at the previous one's final sample."""
        rng = np.random.default_rng(seed)
        parts, start = [], random_stack(rng, 1, n)[0]
        for s in lengths:
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, s - 2)), [1.0]])
            stack = random_stack(rng, s, n)
            stack[0] = start
            parts.append(MatrixPath(times, stack))
            start = stack[-1]
        return parts

    @staticmethod
    def folded(parts):
        """The binary concatenation formula applied from the left."""
        times, samples = parts[0].times, parts[0].samples
        for q in parts[1:]:
            times = np.concatenate([times / 2.0, 0.5 + q.times[1:] / 2.0])
            samples = np.concatenate([samples, q.samples[1:]])
        return times, samples

    @pytest.mark.parametrize("lengths", [(5, 9), (9, 2, 17), (2, 5, 33, 4), (33, 33, 22, 3)])
    def test_n_ary_is_the_nested_fold_bit_for_bit(self, lengths):
        parts = self.chain(len(lengths), lengths)
        got, nested = concat(*parts), functools.reduce(concat, parts)
        times, samples = self.folded(parts)
        for p in (got, nested):
            assert np.array_equal(p.times, times) and np.array_equal(p.samples, samples)
            assert p.samples.flags.owndata and not p.samples.flags.writeable
            assert p.times.flags.owndata and not p.times.flags.writeable
        assert got.times[sum(lengths[:-1]) - len(lengths) + 1] == 0.5

    @pytest.mark.parametrize("lengths", [(5, 9, 3), (2, 5, 33, 4)])
    def test_bad_junction_anywhere_raises_the_nested_error(self, lengths):
        def nested_error(parts):
            with pytest.raises(PathError) as err:
                functools.reduce(concat, parts)
            return re.escape(str(err.value))

        base = self.chain(7, lengths)
        for k in range(1, len(lengths)):
            # a shifted start at junction k, then also a larger one after it:
            # the first one is reported
            for shifted in ([k], range(k, len(lengths))):
                parts = list(base)
                for j in shifted:
                    moved = parts[j].samples.copy()
                    moved[0] += 0.1 * j * np.eye(3)
                    parts[j] = MatrixPath(parts[j].times, moved)
                with pytest.raises(PathError, match=nested_error(parts)):
                    concat(*parts)
            parts = list(base)
            parts[k] = random_path(np.random.default_rng(k), 4, 4)
            with pytest.raises(PathError, match="path dimensions disagree"):
                concat(*parts)


class TestPathLength:
    def test_constant_path(self, rng):
        x = random_hermitian(rng, 3)
        assert path_length(flat_path(x, x, 9)) == 0.0

    def test_flat_length_is_distance(self, rng):
        x, y = random_hermitian(rng, 4), random_hermitian(rng, 4)
        for n in (2, 5, 33):
            assert path_length(flat_path(x, y, n)) == pytest.approx(
                operator_norm(x - y), rel=1e-10
            )

    def test_curved_length_converges(self, rng):
        h = np.diag([0.5, -0.5])
        d = np.array([[0.3, 1.0], [1.0, -0.2]])
        l64 = path_length(curved_path(h, d, 65))
        l128 = path_length(curved_path(h, d, 129))
        assert abs(l128 - l64) / l128 < 0.05

    def test_additive_under_concat(self, rng):
        x, y, z = (random_hermitian(rng, 3) for _ in range(3))
        p, q = flat_path(x, y, 9), flat_path(y, z, 9)
        total = path_length(concat(p, q))
        assert total == pytest.approx(path_length(p) + path_length(q), rel=1e-12)


class TestVerifyPath:
    def test_commuting_pair_reports_zero(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 4)
        p = flat_path(mats[0], mats[0], 9)
        report = verify_path(p, [CommutationConstraint(mats[1], 1e-9)])
        assert report.passed
        assert report.entries[0].max_residual <= 1e-12

    def test_conjugated_family_keeps_commutators(self, rng):
        mats = commuting_hermitian_tuple(rng, 2, 5)
        h = random_hermitian(rng, 5)
        p0 = curved_path(h, mats[0], 17)
        p1 = curved_path(h, mats[1], 17)
        report = verify_path(p0, [CommutationConstraint(p1, 1e-9)])
        assert report.passed

    def test_polynomial_violation_reported_at_interior(self):
        # flat path between the two square roots of 1 passes through
        # matrices that are far from the variety of z^2 - 1
        p = flat_path(np.eye(2), -np.eye(2), 9)
        poly = PolyC((-1.0, 0.0, 1.0))
        report = verify_path(p, [PolynomialConstraint(poly, 1e-6)])
        (entry,) = report.entries
        assert not entry.passed
        assert entry.worst_t == pytest.approx(0.5)
        assert entry.max_residual == pytest.approx(1.0, abs=1e-12)

    def test_normality_and_distance_entries(self, rng):
        x, y = random_hermitian(rng, 3), random_hermitian(rng, 3)
        p = flat_path(x, y, 9)
        report = verify_path(
            p,
            [
                NormalityConstraint(1e-10),
                TargetDistanceConstraint(y, operator_norm(x - y) + 1e-12),
            ],
        )
        assert report.passed


def test_curved_path_matches_phase_exp(rng):
    h = random_hermitian(rng, 4, norm=0.6)
    d = random_hermitian(rng, 4)
    p = curved_path(h, d, 5)
    u = phase_exp(0.5 * h)
    assert operator_norm(p.samples[2] - u @ d @ u.conj().T) < 1e-12


def looped_horner(poly, a):
    """p(A) for one matrix, the Horner loop the stacked evaluation replaced."""
    n = a.shape[0]
    out = complex(poly.coeffs[-1]) * np.eye(n, dtype=complex)
    for c in poly.coeffs[-2::-1]:
        out = out @ a + complex(c) * np.eye(n)
    return out


def looped_residuals(p, c):
    """Reference per-sample residuals: one operator_norm call per sample."""
    out = np.empty(p.n_samples)
    for i, s in enumerate(p.samples):
        if isinstance(c, CommutationConstraint):
            partner = c.partner.samples[i] if isinstance(c.partner, MatrixPath) else c.partner
            out[i] = operator_norm(commutator(s, partner))
        elif isinstance(c, PolynomialConstraint):
            out[i] = operator_norm(looped_horner(c.poly, s))
        elif isinstance(c, NormalityConstraint):
            out[i] = operator_norm(commutator(s, s.conj().T))
        else:
            out[i] = operator_norm(s - c.target)
    return out


def looped_relation_residual(tuples, kind):
    """Reference relation residual over a sequence of matrix tuples."""
    worst = 0.0
    for mats in tuples:
        if kind == "cube":
            for z in mats:
                worst = max(worst, max(0.0, operator_norm(z) - 1.0))
        else:
            n = mats[0].shape[0]
            acc = np.zeros((n, n), dtype=complex)
            for z in mats:
                acc = acc + z @ z
            worst = max(worst, operator_norm(acc - np.eye(n)))
    return worst


def random_stack(rng, s, n, scale=1.0):
    z = rng.standard_normal((s, n, n)) + 1j * rng.standard_normal((s, n, n))
    return scale * z / np.sqrt(2 * n)


def random_path(rng, s, n):
    return MatrixPath(np.linspace(0.0, 1.0, s), random_stack(rng, s, n))


# sample counts on and off the 16-sample block boundary
STACK_SHAPES = [(n, s) for n in (1, 3, 16, 64) for s in (2, 17, 65)]


class TestStackedResiduals:
    @pytest.mark.parametrize("n,s", STACK_SHAPES)
    def test_every_constraint_matches_looped_oracle(self, n, s):
        rng = np.random.default_rng(1000 * n + s)
        p = random_path(rng, s, n)
        constraints = [
            CommutationConstraint(random_path(rng, s, n), 1.0),
            CommutationConstraint(random_stack(rng, 1, n)[0], 1.0),
            NormalityConstraint(1.0),
            TargetDistanceConstraint(random_stack(rng, 1, n)[0], 1.0),
            PolynomialConstraint(PolyC((0.3 - 0.1j, -1.0, 0.5j, 1.0)), 1.0),
        ]
        for c in constraints:
            expected = looped_residuals(p, c)
            (entry,) = verify_path(p, [c]).entries
            assert entry.max_residual == expected.max()
            assert entry.worst_t == p.times[np.argmax(expected)]

    @pytest.mark.parametrize("kind", ["cube", "sphere"])
    @pytest.mark.parametrize("n,s", STACK_SHAPES)
    def test_relation_residual_matches_looped_oracle(self, kind, n, s):
        rng = np.random.default_rng(2000 * n + s)
        # norms near 1, so the cube's contraction slack is exercised
        stacks = [random_stack(rng, s, n, scale=0.6) for _ in range(3)]
        got = deformation._relation_residual(stacks, kind)
        assert got == looped_relation_residual(zip(*stacks), kind)
        mats = [z[-1] for z in stacks]
        assert deformation._relation_residual(mats, kind) == looped_relation_residual(
            [mats], kind
        )

    def test_partner_on_another_time_grid_rejected(self, rng):
        p = random_path(rng, 5, 3)
        other = MatrixPath(np.array([0.0, 0.1, 0.2, 0.6, 1.0]), random_stack(rng, 5, 3))
        for partner in (other, random_path(rng, 9, 3), random_path(rng, 5, 4)):
            with pytest.raises(PathError):
                verify_path(p, [CommutationConstraint(partner, 1.0)])

    def test_fixed_matrix_of_another_size_rejected(self, rng):
        p = random_path(rng, 5, 3)
        for c in (CommutationConstraint(np.eye(4), 1.0), TargetDistanceConstraint(np.eye(2), 1.0)):
            with pytest.raises(PathError):
                verify_path(p, [c])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_sample_rejected(self, rng, bad):
        samples = random_stack(rng, 5, 3)
        samples[2, 1, 0] = bad
        with pytest.raises(PathError, match="non-finite"):
            MatrixPath(np.linspace(0.0, 1.0, 5), samples)


def looped_max(stack):
    """Reference maximum and first argmax: one operator_norm call per sample."""
    norms = [operator_norm(z) for z in stack]
    worst = int(np.argmax(norms))
    return norms[worst], worst


def walked(stack, block=None, monkeypatch=None):
    """The sampled walk's maximum and first argmax over a stored ``stack``:
    ``verify_path`` of its distance to zero, in blocks of ``block`` samples."""
    if block is not None:
        monkeypatch.setattr(paths, "SAMPLE_BLOCK_BYTES", block * 16 * stack.shape[-1] ** 2)
    p = MatrixPath(np.linspace(0.0, 1.0, len(stack)), stack)
    zero = np.zeros(stack.shape[1:])
    (entry,) = verify_path(p, [TargetDistanceConstraint(zero, np.inf)]).entries
    return entry.max_residual, int(np.flatnonzero(p.times == entry.worst_t)[0])


def test_sample_blocks_at_the_default_budget():
    for n, lengths in ((16, [34, 33]), (64, [4] * 16 + [3]), (128, [1] * 67), (256, [1] * 67)):
        assert [b.stop - b.start for b in paths.sample_blocks(67, n)] == lengths
    for n in (1, 2, 16, 64, 128, 181, 256):
        per_sample = 16 * n * n
        fit = max(1, paths.SAMPLE_BLOCK_BYTES // per_sample)  # samples a block may hold
        for count in (1, 3, 4, 5, 16, 17, 33, 65, 67, 129):
            blocks = paths.sample_blocks(count, n)
            covered = np.concatenate([np.arange(count)[b] for b in blocks])
            assert np.array_equal(covered, np.arange(count))
            lengths = [b.stop - b.start for b in blocks]
            # balanced, longest first, each within the budget unless it holds
            # one sample, and no fewer blocks would fit
            assert lengths == sorted(lengths, reverse=True) and lengths[0] - lengths[-1] <= 1
            assert lengths[-1] > 0
            assert lengths[0] == 1 or lengths[0] * per_sample <= paths.SAMPLE_BLOCK_BYTES
            assert (len(blocks) - 1) * fit < count


@pytest.mark.parametrize("n, size", [(16, 16), (64, 16), (128, 16), (256, 4)])
def test_sample_blocks_cover_every_sample_once(n, size, monkeypatch):
    # a budget of exactly ``size`` n x n samples, plus slack short of one more
    monkeypatch.setattr(paths, "SAMPLE_BLOCK_BYTES", size * 16 * n * n + 16 * n * n - 1)
    for count in (1, 3, 4, 5, 16, 17, 65, 129):
        blocks = paths.sample_blocks(count, n)
        covered = np.concatenate([np.arange(count)[b] for b in blocks])
        assert np.array_equal(covered, np.arange(count))
        lengths = [len(range(count)[b]) for b in blocks]
        assert len(blocks) == -(-count // size)
        assert lengths == sorted(lengths, reverse=True) and lengths[0] - lengths[-1] <= 1
        assert min(lengths) > 0 and max(lengths) <= min(size, count)
        assert max(lengths) * 16 * n * n <= paths.SAMPLE_BLOCK_BYTES


class TestMaxOperatorNorm:
    """The sampled walk takes one stacked operator_norm per block; its maximum
    must be the looped oracle's, bit for bit, including the first argmax."""

    @staticmethod
    def check(stack):
        want = looped_max(stack)
        norms = operator_norm(stack)
        assert (norms.max(), int(np.argmax(norms))) == want
        if len(stack) > 1:
            got = walked(stack)
            assert got == want
            assert type(got[0]) is float and type(got[1]) is int
        return want

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_ties_zeros_and_a_single_sample(self, n):
        rng = np.random.default_rng(n)
        a, b = random_stack(rng, 2, n)
        # the largest matrix recurs in the same block and in later blocks
        stack = np.array([b, a, b, a, a] + [b] * 12 + [a] * 48)
        assert self.check(stack)[1] == int(operator_norm(a) > operator_norm(b))
        assert self.check(np.zeros((65, n, n), dtype=complex)) == (0.0, 0)
        self.check(stack[:1])
        self.check(np.zeros((1, n, n)))

    @pytest.mark.parametrize("n,s", STACK_SHAPES + [(256, 9)])
    def test_block_size_moves_no_result(self, n, s, monkeypatch):
        # blocks of 4 and of 16 samples give the same value and first argmax
        rng = np.random.default_rng(3000 * n + s)
        stack = random_stack(rng, s, n)
        stack[s // 2 :: 3] = stack[s // 2]  # ties across and within blocks
        assert walked(stack, 4, monkeypatch) == walked(stack, 16, monkeypatch)
        assert walked(stack, 4, monkeypatch) == looped_max(stack)

    def test_largest_at_the_last_sample(self, rng):
        stack = random_stack(rng, 65, 16)
        stack *= (np.linspace(0.5, 1.0, 65) / operator_norm(stack))[:, None, None]
        assert self.check(stack)[1] == 64

    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("scale", [1.0, 2.0**-1065])
    def test_rank_one_samples_where_the_bounds_are_tight(self, n, scale):
        # u v* with unit u and v has norm 1 and Frobenius norm 1, so norms
        # differ only by rounding, which alone picks the argmax; the second
        # scale makes every entry subnormal
        rng = np.random.default_rng(n)
        u = rng.standard_normal((65, n, 1)) + 1j * rng.standard_normal((65, n, 1))
        v = rng.standard_normal((65, 1, n)) + 1j * rng.standard_normal((65, 1, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        self.check(scale * (u @ v))
        self.check(scale * (u @ v) * (1.0 + 1e-15 * rng.permutation(65))[:, None, None])

    def test_curved_path_norms_equal_up_to_rounding(self, rng):
        # conjugation keeps every singular value, so all 65 samples tie up to
        # rounding and the computed norms decide the argmax
        h = random_hermitian(rng, 16)
        p = curved_path(h, random_stack(rng, 1, 16)[0])
        self.check(p.samples)
        q = curved_path(h, random_hermitian(rng, 16))
        c = CommutationConstraint(q, 1.0)
        expected = looped_residuals(p, c)
        assert np.ptp(expected) < 1e-12 * expected.max()
        (entry,) = verify_path(p, [c]).entries
        assert entry.max_residual == expected.max()
        assert entry.worst_t == p.times[np.argmax(expected)]

    def test_subnormal_and_huge_samples(self, rng):
        stack = random_stack(rng, 20, 3)
        stack *= np.ldexp(1.0, rng.integers(-1070, 1000, 20))[:, None, None]
        self.check(stack)

    def test_a_benchmark_trial_decomposes_under_half_its_samples(self, monkeypatch):
        # one trial of verify aulpac --kind sphere --m 2 --n 32 --seed 7 (64 x 64):
        # the walk would decompose each of the 65 samples of the five
        # constraint residuals and of the relation's
        decomposed = [0]

        def counting_norm(a, real=paths.operator_norm):
            decomposed[0] += len(a) if np.ndim(a) == 3 else 1
            return real(a)

        monkeypatch.setattr(paths, "operator_norm", counting_norm)
        (r,) = deformation.verify_aulpac(deformation.InstanceSpec("sphere", 2, 32, 0.02, 7),
                                         1).records
        assert r.passed
        assert 0 < decomposed[0] <= 6 * 65 / 2


class TestSampleAdoption:
    """A path keeps a given read-only stack that owns its data, and copies any
    array a caller might write to later."""

    def test_writeable_array_is_copied(self, rng):
        samples = random_stack(rng, 5, 3)
        before = samples.copy()
        p = MatrixPath(np.linspace(0.0, 1.0, 5), samples)
        assert p.samples is not samples and not np.shares_memory(p.samples, samples)
        assert samples.flags.writeable and not p.samples.flags.writeable
        samples[2] = 0.0
        assert np.array_equal(p.samples, before)

    def test_read_only_view_of_writeable_base_is_copied(self, rng):
        base = random_stack(rng, 5, 3)
        before = base.copy()
        view = base.view()
        view.flags.writeable = False
        p = MatrixPath(np.linspace(0.0, 1.0, 5), view)
        assert not np.shares_memory(p.samples, base)
        base[1] = 0.0
        assert np.array_equal(p.samples, before)


def stored_curved(h, d, s):
    """The per-sample expressions of a curved path's stored stack."""
    w, q = np.linalg.eigh(hermitian_part(h))
    out = np.empty((s, *d.shape), dtype=complex)
    for i, t in enumerate(np.linspace(0.0, 1.0, s)):
        u = (q * np.exp(1j * np.pi * t * w)) @ q.conj().T
        out[i] = u @ d @ u.conj().T
    return out


def stored_flat(x, y, s):
    """The per-sample expressions of a flat path's stored stack."""
    out = np.empty((s, *x.shape), dtype=complex)
    for i, t in enumerate(np.linspace(0.0, 1.0, s)):
        out[i] = (1.0 - t) * x + t * y
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestLazySamples:
    """Samples formed on demand are the stored per-sample expressions to the bit,
    in every block, whichever segments a block straddles."""

    @staticmethod
    def check(p, want):
        assert np.array_equal(bits(p.samples), bits(want))
        assert np.array_equal(bits(p.start), bits(want[0]))
        assert np.array_equal(bits(p.end), bits(want[-1]))
        count, n = len(want), p.dim
        buf = np.empty((count, n, n), dtype=complex)
        windows = paths.sample_blocks(count, n) + [
            slice(lo, min(lo + w, count)) for w in (1, 5, 17) for lo in range(0, count, 3)]
        for b in windows:
            assert np.array_equal(bits(p.form(b, buf)), bits(want[b]))

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    @pytest.mark.parametrize("s", [2, 17, 33, 65])
    def test_curved_flat_and_three_part_concat(self, n, s):
        rng = np.random.default_rng(100 * n + s)
        h, d = random_hermitian(rng, n), random_stack(rng, 1, n)[0]
        curved = curved_path(h, d, s)
        want_curved = stored_curved(h, d, s)
        self.check(curved, want_curved)
        y, z = random_stack(rng, 2, n)
        flat = flat_path(want_curved[-1], y, s)
        want_flat = stored_flat(want_curved[-1], y, s)
        self.check(flat, want_flat)
        tail = flat_path(y, z, 5)
        joined = concat(curved, flat, tail)
        self.check(joined, np.concatenate([want_curved, want_flat[1:], stored_flat(y, z, 5)[1:]]))
        assert joined.n_samples == 2 * s + 3
        # a concatenation of concatenations is the same path
        nested = concat(concat(curved, flat), tail)
        assert np.array_equal(nested.times, joined.times)
        self.check(nested, joined.samples)

    def test_samples_are_formed_anew_and_read_only(self, rng):
        p = curved_path(random_hermitian(rng, 4), random_hermitian(rng, 4), 9)
        first, second = p.samples, p.samples
        assert first is not second and not np.shares_memory(first, second)
        assert not first.flags.writeable and first.flags.owndata
        assert np.array_equal(first, second)


def formation_counts(monkeypatch):
    """{(segment, sample index): times formed}, filled while the patch holds."""
    counts = {}
    for cls in (paths._Curved, paths._Flat):
        def counting(seg, lo, hi, out, real=cls.form):
            for i in range(lo, hi):
                counts[seg, i] = counts.get((seg, i), 0) + 1
            real(seg, lo, hi, out)
        monkeypatch.setattr(cls, "form", counting)
    return counts


@pytest.mark.parametrize("verify, spec", [
    (deformation.verify_aulpac, deformation.InstanceSpec("sphere", 2, 8, 0.02, 7)),
    (deformation.verify_ulpac,
     deformation.InstanceSpec("cube", 2, 8, 0.02, 73, (PolyC((-1.0, 0.0, 1.0)),), 1e-3)),
])
def test_a_trial_forms_each_sample_once_besides_its_ends(monkeypatch, verify, spec):
    counts = formation_counts(monkeypatch)
    (r,) = verify(spec, 1, eps_pass=0.2).records
    assert r.passed
    segments = {seg for seg, _ in counts}
    curved = [seg for seg in segments if isinstance(seg, paths._Curved)]
    assert len(curved) == spec.m and len(segments) == (2 if spec.polys is None else 3) * spec.m
    for seg in segments:
        # the certificate forms no sample; the junction and endpoint checks
        # form each end once, and the flat segment's start and the recovery
        # check reuse kept ends
        want = [1] + [0] * (len(seg) - 2) + [1]
        assert [counts.get((seg, i), 0) for i in range(len(seg))] == want


def test_path_length_forms_each_sample_once(monkeypatch, rng):
    counts = formation_counts(monkeypatch)
    c = curved_path(random_hermitian(rng, 3), random_hermitian(rng, 3), 9)
    p = concat(c, flat_path(c.end, np.eye(3), 9))
    path_length(p)
    # building the path forms the curved end, where the flat segment starts,
    # and the flat segment's first sample, which only the junction check reads
    assert len(counts) == p.n_samples + 1 and set(counts.values()) == {1}


@pytest.mark.parametrize("verify, spec", [
    (deformation.verify_ulpac,
     deformation.InstanceSpec("cube", 2, 16, 0.02, 7, (PolyC((-1.0, 0.0, 1.0)),), 1e-3)),
    (deformation.verify_aulpac, deformation.InstanceSpec("sphere", 2, 32, 0.02, 7)),
    (deformation.verify_aulpac, deformation.InstanceSpec("cube", 3, 8, 0.02, 11)),
])
def test_reports_do_not_depend_on_the_block_budget(monkeypatch, verify, spec):
    # budgets of one sample, five (ragged blocks), the default and a whole path
    results = []

    def keeping(*args, real=deformation._assemble_result):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(deformation, "_assemble_result", keeping)
    dim = spec.n if verify is deformation.verify_ulpac else 2 * spec.n
    per_sample = 16 * dim * dim
    seen = []
    for budget in (per_sample, 5 * per_sample, paths.SAMPLE_BLOCK_BYTES, 100 * per_sample):
        monkeypatch.setattr(paths, "SAMPLE_BLOCK_BYTES", budget)
        results.clear()
        records = verify(spec, 1).records
        (res,) = results
        seen.append((records, res.reports, res.relation_residual, res.endpoint_residual))
    assert seen[0][0][0].passed
    assert all(s == seen[0] for s in seen[1:])


def test_one_benchmark_trial_stays_under_4_mib():
    # one trial of verify aulpac --kind sphere --m 2 --n 32 --seed 7 (64 x 64):
    # 2.7 MiB at the peak with 4-sample blocks, 8.7 MiB with 16-sample blocks,
    # 15 MiB with whole-path stacks
    spec = deformation.InstanceSpec("sphere", 2, 32, 0.02, 7)
    deformation.verify_aulpac(spec, 1)  # imports and first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        (r,) = deformation.verify_aulpac(spec, 1).records
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert r.passed
    assert peak <= 4 * 2**20


def test_a_walk_at_256_holds_one_sample_per_block():
    # two 5-sample paths at 256 x 256 (1 MiB a sample) with the constraints and
    # the sphere relation of a trial: the walk's three stacks hold one sample
    # each, against four samples each with 4-sample blocks
    rng = np.random.default_rng(256)
    h = 1e-3 * random_hermitian(rng, 256)
    d = [np.diag(rng.uniform(-1.0, 1.0, 256)).astype(complex) for _ in range(2)]
    ps = [concat(c, flat_path(c.end, dj, 3)) for c, dj in zip(
        (curved_path(h, dj, 3) for dj in d), d)]
    cons = [[CommutationConstraint(ps[1], 1.0), NormalityConstraint(1.0),
             TargetDistanceConstraint(d[0], 1.0)],
            [NormalityConstraint(1.0), TargetDistanceConstraint(d[1], 1.0)]]

    def walk():
        return paths.verify_paths(
            ps, cons, lambda b, out: deformation._relation_stacks(b, "sphere", out))

    walk()  # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports, _ = walk()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak <= 9 * 2**20


def test_accumulators_sharing_scratch_match_the_looped_oracle(monkeypatch):
    # stored paths of two sizes walked in blocks of changing length, with
    # ties, subnormal, huge and zero samples
    rng = np.random.default_rng(5)
    for n in (3, 16, 3):
        z = random_stack(rng, 40, n)
        z[7::9] = z[7]  # ties within and across blocks
        z[3] *= 2.0**-1070  # every part subnormal
        z[11] *= 1e200
        z[20] = 0.0
        for block in (1, 7, 16, 40):
            assert walked(z, block, monkeypatch) == looped_max(z)


def assert_certified(ps, constraints, relation):
    """certify_paths against the 1,025-sample walk of every segment: never
    below its maximum less default_tol(n), and within 1% of it, or within
    default_tol(n) where the maximum is below that."""
    reports, worst = certify_paths(ps, constraints, relation)
    want, want_worst = dense_maxima(ps, constraints, relation)
    tol = default_tol(ps[0].dim)
    got = [[e.max_residual for e in rep.entries] for rep in reports]
    if relation is not None:
        got, want = got + [[worst]], want + [[want_worst]]
    for cert, sampled in zip(sum(got, []), sum(want, [])):
        assert cert >= sampled - tol
        assert abs(cert - sampled) <= (0.01 * sampled if sampled >= tol else tol), (cert, sampled)
    return reports, worst


def member_constraints(ps, targets, poly):
    """The constraints a pipeline puts on its paths: pairwise commutation,
    normality, distance to the target and a polynomial residual."""
    return [[CommutationConstraint(ps[k], 1.0) for k in range(j + 1, len(ps))]
            + [NormalityConstraint(1.0), TargetDistanceConstraint(y, 1.0),
               PolynomialConstraint(poly, 1.0)]
            for j, (p, y) in enumerate(zip(ps, targets))]


DEGREE_2, DEGREE_3 = PolyC((-1.0, 0.0, 1.0)), PolyC((0.3 - 0.1j, -1.0, 0.5j, 1.0))
# commuting and non-commuting members at each size; at n = 64, one of each
# segment kind, as the dense walk takes about 6 s a case there
SIZES = [(n, commuting) for n in (1, 3, 16) for commuting in (True, False)]


class TestCertifiedSup:
    """Certified sups over curved and flat segments against the dense walk:
    commuting members go with z^2 - 1 and the cube, non-commuting ones with a
    complex cubic and the sphere."""

    @staticmethod
    def members(rng, n, commuting):
        if commuting:
            return commuting_hermitian_tuple(rng, 2, n)
        return [random_hermitian(rng, n) + 0.1j * random_stack(rng, 1, n)[0] for _ in range(2)]

    @pytest.mark.parametrize("n, commuting", SIZES + [(64, False)])
    def test_curved_segments(self, n, commuting):
        rng = np.random.default_rng(10 * n + commuting)
        eig = np.linalg.eigh(random_hermitian(rng, n, norm=0.8))
        ds = self.members(rng, n, commuting)
        ps = [curved_path(eig, d, 9) for d in ds]
        targets = [d + 0.05 * random_hermitian(rng, n) for d in ds]
        poly, kind = (DEGREE_2, "cube") if commuting else (DEGREE_3, "sphere")
        reports, _ = assert_certified(ps, member_constraints(ps, targets, poly), kind)
        # a constant residual's largest value is the segment's start
        assert all(e.worst_t == 0.0 for rep in reports for e in rep.entries
                   if e.label != "distance-to-target")

    @pytest.mark.parametrize("n, commuting", SIZES + [(64, True)])
    def test_flat_segments(self, n, commuting):
        rng = np.random.default_rng(20 * n + commuting)
        starts, ends = self.members(rng, n, commuting), self.members(rng, n, commuting)
        ps = [flat_path(a, b, 9) for a, b in zip(starts, ends)]
        targets = [random_hermitian(rng, n) for _ in ps]
        poly, kind = (DEGREE_2, "cube") if commuting else (DEGREE_3, "sphere")
        reports, _ = assert_certified(ps, member_constraints(ps, targets, poly), kind)
        # the distance is convex, so it is largest at an end
        for rep, a, b, y in zip(reports, starts, ends, targets):
            (e,) = [e for e in rep.entries if e.label == "distance-to-target"]
            ends_at = (operator_norm(a - y), operator_norm(b - y))
            assert e.worst_t == float(ends_at[1] > ends_at[0])

    @pytest.mark.parametrize("kind", ["cube", "sphere"])
    def test_pipelines(self, monkeypatch, kind):
        # every certify_paths call of the three pipelines, the soft one with
        # its flat, curved and flat segments
        calls = []

        def recording(ps, constraints, relation, real=deformation.certify_paths):
            calls.append((ps, constraints, relation))
            return real(ps, constraints, relation)

        monkeypatch.setattr(deformation, "certify_paths", recording)
        spec = deformation.InstanceSpec(kind, 2, 8, 0.02, 7)
        deformation.verify_aulpac(spec, 1)
        x, y = deformation.generate_instance(
            deformation.InstanceSpec("cube", 2, 16, 0.02, 13, (DEGREE_2,), 1e-3))
        deformation.connect_soft_algebraic(x, y, (DEGREE_2,), 0.05, eps=0.2)
        x, y = deformation.generate_instance(
            deformation.InstanceSpec("cube", 2, 3, 0.02, 12, (DEGREE_2,)))
        deformation.connect_algebraic(x, y, (DEGREE_2,), eps=0.2)
        assert [len(ps[0]._pieces) for ps, _, _ in calls] == [2, 3, 2]
        for ps, constraints, relation in calls:
            assert_certified(ps, constraints, relation)

    def test_what_cannot_be_certified_is_refused(self, rng):
        n = 4
        eig = np.linalg.eigh(random_hermitian(rng, n))
        d, e = random_hermitian(rng, n), random_hermitian(rng, n)
        curved, flat = curved_path(eig, d, 5), flat_path(d, e, 5)
        other = curved_path(random_hermitian(rng, n), e, 5)
        stored = MatrixPath(curved.times, curved.samples)
        refused = [
            ([stored], [[NormalityConstraint(1.0)]], None),
            ([curved, flat], [[CommutationConstraint(flat, 1.0)], []], None),
            ([curved, other], [[CommutationConstraint(other, 1.0)], []], None),
            ([curved, other], [[], []], "sphere"),
            ([curved], [[CommutationConstraint(e, 1.0)]], None),
            ([concat(curved, flat_path(curved.end, e, 5)), flat_path(d, e, 9)], [[], []], None),
        ]
        for ps, constraints, relation in refused:
            with pytest.raises(PathError):
                certify_paths(ps, constraints, relation)
        # the walk takes all of them
        verify_paths([stored], [[NormalityConstraint(1.0)]], None)
