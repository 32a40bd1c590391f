import numpy as np
import pytest

from matword import minpoly
from matword.linalg import LinalgError
from matword.minpoly import (
    PolyC,
    approx_min_poly,
    is_closed,
    lemniscate_contours,
    lemniscate_field,
    poly_eval,
    poly_eval_matrix,
    poly_residual,
    ritz_values,
)
from matword.pseudospectra import GridError, ScalarField2D, chebyshev_grid
from matword.sampling import haar_unitary


class TestPolyC:
    def test_monic_flag_enforced(self):
        with pytest.raises(LinalgError):
            PolyC((1.0, 2.0), monic=True)

    def test_roots(self):
        p = PolyC((-1.0, 0.0, 1.0))  # z^2 - 1
        assert sorted(p.roots().real) == pytest.approx([-1.0, 1.0])

    def test_horner_against_power_sum(self, rng):
        coeffs = tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        p = PolyC(coeffs)
        z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        direct = sum(c * z**k for k, c in enumerate(coeffs))
        assert np.allclose(poly_eval(p, z), direct, atol=1e-12)

    def test_matrix_evaluation(self, rng):
        a = rng.standard_normal((4, 4))
        p = PolyC((2.0, -1.0, 1.0))
        assert np.allclose(
            poly_eval_matrix(p, a), a @ a - a + 2.0 * np.eye(4), atol=1e-12
        )


class TestRitzValues:
    def test_full_krylov_recovers_spectrum(self, rng):
        n = 8
        u = haar_unitary(rng, n)
        eigs = np.linspace(-0.9, 0.9, n) + 1j * np.linspace(0.4, -0.4, n)
        a = (u * eigs) @ u.conj().T
        got = ritz_values(a, n, seed=3)
        assert np.allclose(
            np.sort_complex(got), np.sort_complex(eigs), atol=1e-8
        )

    def test_scalar_matrix_breaks_down_immediately(self):
        a = 0.7 * np.eye(5)
        got = ritz_values(a, 5, seed=0)
        assert len(got) == 1
        assert got[0] == pytest.approx(0.7, abs=1e-12)

    def test_interlacing_for_hermitian(self):
        a = np.diag([1.0, 2.0, 3.0])
        got = ritz_values(a, 2, seed=11)
        assert np.all(np.abs(got.imag) < 1e-10)
        assert np.all(got.real >= 1.0 - 1e-9)
        assert np.all(got.real <= 3.0 + 1e-9)

    def test_k_out_of_range(self):
        with pytest.raises(LinalgError):
            ritz_values(np.eye(3), 4)


class TestApproxMinPoly:
    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(LinalgError, match="delta must be positive"):
            approx_min_poly(np.diag([0.1, 0.2]), delta=delta, max_deg=3)

    def test_exact_degree_two(self):
        a = np.diag([0.0, 0.0, 1.0])
        p, res = approx_min_poly(a, delta=1e-8, max_deg=5)
        assert p.degree == 2
        assert res <= 1e-8
        # roots at 0 and 1
        assert sorted(np.round(p.roots().real, 6)) == pytest.approx([0.0, 1.0], abs=1e-6)

    def test_zero_matrix(self):
        p, res = approx_min_poly(np.zeros((4, 4)), delta=1e-10, max_deg=3)
        assert p.degree == 1
        assert res == pytest.approx(0.0, abs=1e-14)
        assert abs(p.coeffs[0]) <= 1e-12 and p.coeffs[1] == 1.0

    def test_residual_non_increasing_in_max_deg(self, rng):
        n = 20
        u = haar_unitary(rng, n)
        eigs = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.8, 0.8, n)
        a = (u * eigs) @ u.conj().T
        prev = np.inf
        # a delta no fit reaches, so every degree up to max_deg is tried
        for max_deg in (1, 2, 4, 6, 8):
            _, res = approx_min_poly(a, delta=1e-300, max_deg=max_deg, seed=5)
            assert res <= prev + 1e-12
            prev = res

    def test_normal_with_few_eigenvalues(self, rng):
        # r distinct eigenvalues: residual ~ 0 at degree <= r
        u = haar_unitary(rng, 12)
        vals = np.repeat([0.1, -0.5, 0.6 + 0.2j], 4)
        a = (u * vals) @ u.conj().T
        p, res = approx_min_poly(a, delta=1e-8, max_deg=6, seed=2)
        assert p.degree <= 3
        assert res <= 1e-8

    def test_unreachable_delta_returns_best(self, rng):
        n = 12
        u = haar_unitary(rng, n)
        eigs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        a = (u * eigs) @ u.conj().T
        p, res = approx_min_poly(a, delta=1e-16, max_deg=2, seed=4)
        assert res > 1e-16
        assert p.degree <= 2


class TestLemniscates:
    def test_field_is_modulus(self, rng):
        g = chebyshev_grid((-1, 1, -1, 1), 9, 9)
        p = PolyC((0.0, 1.0))  # z
        field = lemniscate_field(p, g)
        assert np.allclose(field.values, np.abs(g.nodes), atol=1e-14)

    def test_value_at_origin(self):
        p = PolyC((-1.0, 0.0, 1.0))
        assert abs(poly_eval(p, 0.0)) == pytest.approx(1.0)

    def test_empty_when_level_below_field(self):
        g = chebyshev_grid((2, 3, 2, 3), 9, 9)
        p = PolyC((0.0, 1.0))
        field = lemniscate_field(p, g)
        assert lemniscate_contours(field, 0.5) == []

    def test_circle_contour(self):
        g = chebyshev_grid((-1, 1, -1, 1), 81, 81)
        p = PolyC((0.0, 1.0))
        field = lemniscate_field(p, g)
        contours = lemniscate_contours(field, 0.5)
        assert len(contours) == 1
        loop = contours[0]
        assert is_closed(loop)
        xs = np.sort(np.unique(g.nodes.real))
        max_cell = float(np.max(np.diff(xs)))
        radial_dev = np.max(np.abs(np.abs(loop) - 0.5))
        assert radial_dev <= 2.0 * max_cell

    def test_two_loops_for_quadratic(self):
        g = chebyshev_grid((-1.6, 1.6, -0.8, 0.8), 281, 141)
        p = PolyC((-1.0, 0.0, 1.0))  # z^2 - 1
        field = lemniscate_field(p, g)
        contours = lemniscate_contours(field, 0.1)
        closed = [c for c in contours if is_closed(c)]
        assert len(closed) == 2
        centers = sorted(np.mean(c).real for c in closed)
        assert centers[0] == pytest.approx(-1.0, abs=0.05)
        assert centers[1] == pytest.approx(1.0, abs=0.05)

    def test_rejects_quadtree_grid(self):
        from matword.pseudospectra import quadtree_grid

        g = quadtree_grid((-1, 1, -1, 1), depth=2)
        p = PolyC((0.0, 1.0))
        field = lemniscate_field(p, g)
        with pytest.raises(GridError):
            lemniscate_contours(field, 0.5)

    @pytest.mark.parametrize("case", ["figure-eight", "ties", "saddles"])
    def test_straddling_cells_match_all_cells_loop(self, case):
        g = chebyshev_grid((-1.6, 1.6, -0.8, 0.8), 61, 31)
        values = lemniscate_field(PolyC((-1.0, 0.0, 1.0)), g).values
        level = 1.0  # |z^2 - 1| = 1 pinches at the saddle z = 0
        if case == "ties":
            # a quarter of the nodes sit exactly on the level
            values = np.round(values * 4) / 4
        elif case == "saddles":
            # 0/1 corners make many cells whose diagonals straddle the level
            values = np.random.default_rng(3).integers(0, 2, g.size) * 2.0
        field = ScalarField2D(g, values)
        got = lemniscate_contours(field, level)
        want = looped_contours(field, level)
        assert len(got) == len(want) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_level_must_be_positive(self):
        g = chebyshev_grid((-1, 1, -1, 1), 5, 5)
        field = lemniscate_field(PolyC((0.0, 1.0)), g)
        with pytest.raises(GridError):
            lemniscate_contours(field, 0.0)


def looped_contours(field, level):
    """Reference contours: marching squares over every cell of the grid."""
    q, p = field.grid.shape
    z = field.grid.nodes.reshape(q, p)
    f = field.values.reshape(q, p)
    segments = []
    for iy in range(q - 1):
        for ix in range(p - 1):
            corners = (z[iy, ix], z[iy, ix + 1], z[iy + 1, ix + 1], z[iy + 1, ix])
            values = (f[iy, ix], f[iy, ix + 1], f[iy + 1, ix + 1], f[iy + 1, ix])
            segments.extend(minpoly._cell_segments(corners, values, level))
    return minpoly._stitch(segments)


def test_poly_residual_matches_eigenvalue_sup(rng):
    # for a normal matrix ||p(A)|| equals max |p(lambda)|
    u = haar_unitary(rng, 6)
    eigs = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    a = (u * eigs) @ u.conj().T
    p = PolyC((0.3, -0.2, 1.0))
    want = np.max(np.abs(poly_eval(p, eigs)))
    assert poly_residual(p, a) == pytest.approx(want, rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_poly_residual_is_infinite_without_an_svd(capfd):
    # p(2) overflows, and an SVD of an overflowed p(A) makes LAPACK print
    # "On entry to DLASCL ..." on stderr
    p = PolyC((1e308, 0.0, 1e308))
    assert poly_residual(p, np.diag([0.5, 2.0])) == np.inf
    assert poly_residual(p, np.diag([0.5, 0.25])) == pytest.approx(1.25e308)
    assert capfd.readouterr().err == ""
