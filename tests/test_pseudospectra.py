import numpy as np
import pytest

from matword import io, pseudospectra
from matword.linalg import operator_norm
from matword.pseudospectra import (
    GridError,
    QuadCell,
    ScalarField2D,
    chebyshev_grid,
    chebyshev_points,
    pseudospectrum,
    quadtree_grid,
    refine_grid,
    scan_triples,
    sigma_min_field,
)
from matword.sampling import ginibre, haar_unitary
from normal_oracles import eigenvalue_disk_mask


class TestChebyshevGrid:
    def test_two_points_are_corners(self):
        g = chebyshev_grid((-1, 1, -1, 1), 2, 2)
        assert sorted((z.real, z.imag) for z in g.nodes) == [
            (-1, -1), (-1, 1), (1, -1), (1, 1),
        ]

    def test_three_points_include_midpoint(self):
        xs = chebyshev_points(-1.0, 1.0, 3)
        assert np.allclose(xs, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_affine_map(self):
        xs = chebyshev_points(0.0, 2.0, 3)
        assert np.allclose(xs, [0.0, 1.0, 2.0], atol=1e-15)

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(GridError):
            chebyshev_grid((0, 0, -1, 1), 3, 3)
        # an unbounded or NaN side would put non-finite nodes in the grid
        for bounds in ((0, np.inf, -1, 1), (0, 1, np.nan, 1)):
            with pytest.raises(GridError):
                chebyshev_grid(bounds, 3, 3)

    def test_nodes_within_bounds(self):
        g = chebyshev_grid((0, 2, -3, -1), 7, 5)
        assert np.all(g.nodes.real >= 0) and np.all(g.nodes.real <= 2)
        assert np.all(g.nodes.imag >= -3) and np.all(g.nodes.imag <= -1)
        assert g.size == 35


class TestQuadtreeRefinement:
    def test_no_cell_qualifies_is_identity(self):
        g = quadtree_grid((0, 1, 0, 1), depth=1)
        field = ScalarField2D(g, np.full(g.size, 10.0))
        assert refine_grid(g, field, threshold=1.0, max_depth=4) is g

    def test_uniform_low_field_splits_every_cell(self):
        g = quadtree_grid((0, 1, 0, 1), depth=0)
        field = ScalarField2D(g, np.zeros(g.size))
        refined = refine_grid(g, field, threshold=1.0, max_depth=1)
        assert len(refined.cells) == 4
        again = refine_grid(refined, sigma_like(refined, 0.0), threshold=1.0, max_depth=1)
        assert again is refined  # every cell already at max depth

    def test_single_low_corner_refines_one_subtree(self):
        # low values strictly interior to the bottom-left cell, so shared
        # boundary nodes do not drag neighbors below the threshold
        g = quadtree_grid((0, 1, 0, 1), depth=1)
        values = np.where(
            (g.nodes.real <= 0.3) & (g.nodes.imag <= 0.3), 0.0, 10.0
        ).astype(float)
        field = ScalarField2D(g, values)
        refined = refine_grid(g, field, threshold=0.5, max_depth=2)
        depths = sorted(c.depth for c in refined.cells)
        assert depths == [1, 1, 1, 2, 2, 2, 2]

    def test_field_on_another_grid_of_the_same_size_rejected(self):
        g = quadtree_grid((0, 1, 0, 1), depth=1)
        other = quadtree_grid((5, 6, 5, 6), depth=1)
        assert other.size == g.size
        with pytest.raises(GridError):
            refine_grid(g, ScalarField2D(other, np.zeros(other.size)), threshold=0.5, max_depth=2)

    def test_field_on_reloaded_grid_refines_like_the_original(self, tmp_path):
        g = quadtree_grid((0, 1, 0, 1), depth=1)
        io.write_grid_json(tmp_path / "g.json", g)
        back = io.load_grid_json(tmp_path / "g.json")
        values = np.where((g.nodes.real <= 0.3) & (g.nodes.imag <= 0.3), 0.0, 10.0)
        expected = refine_grid(g, ScalarField2D(g, values), threshold=0.5, max_depth=2)
        refined = refine_grid(g, ScalarField2D(back, values), threshold=0.5, max_depth=2)
        assert back is not g and len(expected.cells) == 7
        assert refined.cells == expected.cells
        assert same_bits(refined.nodes, expected.nodes)

    def test_cells_partition_bounds(self):
        g = quadtree_grid((0, 2, 0, 2), depth=2)
        area = sum((c.x1 - c.x0) * (c.y1 - c.y0) for c in g.cells)
        assert area == pytest.approx(4.0)


def sigma_like(grid, value):
    return ScalarField2D(grid, np.full(grid.size, float(value)))


def reference_quadtree_nodes(cells, order):
    """The per-node loop _quadtree_nodes replaced: round() on each float64
    coordinate as a fraction of the cells' bounding box, first-seen value per
    key, sorted by (imag, real)."""
    box = np.array([(c.x0, c.x1, c.y0, c.y1) for c in cells])
    x0, x1, y0, y1 = box[:, 0].min(), box[:, 1].max(), box[:, 2].min(), box[:, 3].max()
    seen = {}
    for c in cells:
        xs = chebyshev_points(c.x0, c.x1, order)
        ys = chebyshev_points(c.y0, c.y1, order)
        for y in ys:
            for x in xs:
                key = (round((x - x0) / (x1 - x0), 10), round((y - y0) / (y1 - y0), 10))
                seen.setdefault(key, x + 1j * y)
    return np.array(sorted(seen.values(), key=lambda z: (z.imag, z.real)), dtype=complex)


def random_tree(rng, bounds, max_levels):
    """Cells of a quadtree where each leaf splits with probability 1/2 per level."""
    cells = [QuadCell(*bounds, 0)]
    for _ in range(max_levels):
        cells = [ch for c in cells for ch in (c.children() if rng.random() < 0.5 else (c,))]
    return tuple(cells)


def random_bounds(rng):
    cx, cy = rng.uniform(-2, 2, 2)
    w = rng.uniform(0.1, 2, 4)
    return (cx - w[0], cx + w[1], cy - w[2], cy + w[3])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestQuadtreeNodes:
    def test_matches_reference_on_random_trees(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            cells = random_tree(rng, random_bounds(rng), int(rng.integers(0, 5)))
            order = int(rng.integers(2, 6))
            got = pseudospectra._quadtree_nodes(cells, order)
            assert same_bits(got, reference_quadtree_nodes(cells, order))

    def test_near_tie_keys_match_reference(self):
        # on the unit box a key is the coordinate itself. 0.12345678905 sits
        # just above a decimal tie: round() on a float64 scalar rounds it
        # down, Python's float round() rounds it up, onto the key of
        # 0.1234567891
        cells = (QuadCell(0.12345678905, 1.0, 0.0, 1.0, 0),
                 QuadCell(0.1234567891, 1.0, 0.0, 1.0, 0),
                 QuadCell(0.0, 1.0, 0.0, 1.0, 0))
        got = pseudospectra._quadtree_nodes(cells, 3)
        assert same_bits(got, reference_quadtree_nodes(cells, 3))
        assert np.sum(got.real < 0.2) == 9

    def test_signed_zero_keys_name_one_node(self):
        # the middle stencil point of [-1, 1] lands a rounding error below
        # 0, and 0 is a corner of [0, 1]: as fractions of the box both keys
        # are 0.5
        cells = (QuadCell(-1.0, 1.0, -1.0, 1.0, 0), QuadCell(0.0, 1.0, 0.0, 1.0, 0))
        got = pseudospectra._quadtree_nodes(cells, 3)
        assert same_bits(got, reference_quadtree_nodes(cells, 3))

    # the keys stay finite past 1.8e298, where round(x, 10) overflows, and
    # tell nodes apart on a box far below 1e-10
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bounds", [(-1e299, 1e299, -1, 1), (-1e307, 1e307, -1, 1),
                                        (0, 1e-12, 0, 1e-12), (-2, 2, -2, 2)])
    def test_every_node_is_kept_at_any_finite_scale(self, bounds):
        g = quadtree_grid(bounds, 1)
        assert g.size == 25
        assert len(set(g.nodes.real)) == 5 and len(set(g.nodes.imag)) == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cells_whose_box_spans_past_the_float_range_keep_their_nodes(self):
        cells = (QuadCell(-1e308, -9e307, 0.0, 1.0, 0), QuadCell(9e307, 1e308, 0.0, 1.0, 0))
        assert len(pseudospectra._quadtree_nodes(cells, 3)) == 18


def random_matrix(rng, kind, n):
    if kind == "ginibre":
        return ginibre(rng, n)
    if kind == "normal":
        u = haar_unitary(rng, n)
        return (u * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))) @ u.conj().T
    # Jordan-like: random diagonal plus a scaled superdiagonal
    return np.diag(rng.uniform(-1, 1, n)) + rng.uniform(0.1, 1) * np.eye(n, k=1)


class TestLazyRefinement:
    """refine_grid given the matrix against refine_grid given the full field."""

    @pytest.mark.parametrize("kind", ["ginibre", "normal", "jordan"])
    def test_matches_full_field(self, kind):
        rng = np.random.default_rng({"ginibre": 1, "normal": 2, "jordan": 3}[kind])
        splits = 0
        for case in range(40):
            a = random_matrix(rng, kind, int(rng.integers(1, 25)))
            g = quadtree_grid((-1.5, 1.5, -1.5, 1.5), int(rng.integers(0, 3)),
                              int(rng.integers(2, 5)))
            max_depth = int(rng.integers(1, 5))
            for _ in range(2):
                field = sigma_min_field(a, g)
                if case % 2:
                    threshold = float(rng.choice(field.values))  # a node sits on it
                else:
                    threshold = float(rng.uniform(0.0, 0.6))
                want = refine_grid(g, field, threshold, max_depth)
                got = refine_grid(g, a, threshold, max_depth)
                assert got.cells == want.cells
                assert same_bits(got.nodes, want.nodes)
                splits += want is not g
                g = want
        assert splits >= 20  # the cases exercise splitting, not only no-ops

    def test_threshold_at_a_hanging_node_value(self):
        # one cell split, its neighbours see the finer cell's hanging nodes
        a = ginibre(np.random.default_rng(5), 8)
        g = quadtree_grid((-1.5, 1.5, -1.5, 1.5), 1)
        g = refine_grid(g, ScalarField2D(g, np.where(np.arange(g.size) == 0, 0.0, 9.0)), 1.0, 2)
        field = sigma_min_field(a, g)
        for threshold in field.values:
            want = refine_grid(g, field, float(threshold), 3)
            got = refine_grid(g, a, float(threshold), 3)
            assert got.cells == want.cells

    def test_matrix_form_skips_most_evaluations(self, monkeypatch):
        a = ginibre(np.random.default_rng(880_000), 50)
        g = quadtree_grid((-1.5, 1.5, -1.5, 1.5), 2)
        for _ in range(2):
            g = refine_grid(g, a, 0.2, 6)
        assert g.size >= 900
        calls = []
        sigma_min = pseudospectra._sigma_min

        def counted(*args):
            calls.append(args[-1])
            return sigma_min(*args)

        monkeypatch.setattr(pseudospectra, "_sigma_min", counted)
        got = refine_grid(g, a, 0.2, 6)
        assert len(calls) <= g.size // 2
        assert len(set(calls)) == len(calls)  # once per node
        monkeypatch.setattr(pseudospectra, "_sigma_min", sigma_min)
        want = refine_grid(g, sigma_min_field(a, g), 0.2, 6)
        assert got.cells == want.cells

    def test_every_evaluated_node_certifies_every_cell(self, monkeypatch):
        # the benchmark's chained refines: certified from one cell's own
        # nodes only, these passes took 475 SVDs
        a = ginibre(np.random.default_rng(880_000), 50)
        g = quadtree_grid((-1.5, 1.5, -1.5, 1.5), 2)
        calls = []
        sigma_min = pseudospectra._sigma_min

        def counted(*args):
            calls.append(args[-1])
            return sigma_min(*args)

        for _ in range(3):
            monkeypatch.setattr(pseudospectra, "_sigma_min", counted)
            got = refine_grid(g, a, 0.2, 6)
            monkeypatch.setattr(pseudospectra, "_sigma_min", sigma_min)
            want = refine_grid(g, sigma_min_field(a, g), 0.2, 6)
            assert got.cells == want.cells
            assert same_bits(got.nodes, want.nodes)
            g = want
        assert len(calls) <= 330

    # numpy's norm of these matrices overflows, so the margin is infinite and
    # certifies nothing: every decision takes an SVD, and still matches
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a, bounds, split", [
        (np.diag([1e200, 0.0]), (-2, 2, -2, 2), True),
        (np.array([[1e308, -1e308], [1e308, 1e308]]), (-1e307, 1e307, -1, 1), False),
    ], ids=["low-nodes", "huge"])
    def test_overflowing_norm_refines_like_the_full_field(self, a, bounds, split):
        g = quadtree_grid(bounds, 1)
        got = refine_grid(g, a, 0.5, 3)
        want = refine_grid(g, sigma_min_field(a, g), 0.5, 3)
        assert got.cells == want.cells and same_bits(got.nodes, want.nodes)
        assert (got is not g) == split

    def test_matrix_needs_a_quadtree(self):
        g = chebyshev_grid((-1, 1, -1, 1), 3, 3)
        with pytest.raises(GridError):
            refine_grid(g, np.eye(2), 0.1, 2)

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_threshold_must_be_positive(self, threshold):
        g = quadtree_grid((-1, 1, -1, 1), 1)
        for field in (np.eye(2), ScalarField2D(g, np.zeros(g.size))):
            with pytest.raises(GridError, match="threshold must be positive"):
                refine_grid(g, field, threshold, 2)


class TestSigmaMinField:
    def test_zero_at_eigenvalues(self, rng):
        u = haar_unitary(rng, 5)
        eigs = rng.uniform(-0.5, 0.5, 5) + 1j * rng.uniform(-0.5, 0.5, 5)
        a = (u * eigs) @ u.conj().T
        g = chebyshev_grid((-1, 1, -1, 1), 4, 4)
        # evaluate directly at an eigenvalue through a tiny custom grid
        from matword.linalg import frozen
        from matword.pseudospectra import Grid2D

        probe = Grid2D((-1, 1, -1, 1), frozen(eigs), "chebyshev", shape=(1, 5))
        field = sigma_min_field(a, probe)
        assert np.all(field.values <= 1e-10)
        del g

    def test_shifted_diagonal(self):
        a = np.diag([0.0, 2.0])
        from matword.linalg import frozen
        from matword.pseudospectra import Grid2D

        probe = Grid2D((-1, 3, -1, 1), frozen(np.array([1.0 + 0j])), "chebyshev", (1, 1))
        field = sigma_min_field(a, probe)
        assert field.values[0] == pytest.approx(1.0, abs=1e-14)

    def test_jordan_block_singular_at_zero(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        from matword.linalg import frozen
        from matword.pseudospectra import Grid2D

        probe = Grid2D((-1, 1, -1, 1), frozen(np.array([0.0 + 0j])), "chebyshev", (1, 1))
        field = sigma_min_field(a, probe)
        assert field.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_lipschitz_in_lambda(self, rng):
        a = ginibre(rng, 12)
        g = chebyshev_grid((-1.5, 1.5, -1.5, 1.5), 9, 9)
        field = sigma_min_field(a, g)
        z = g.nodes.reshape(9, 9)
        v = field.values.reshape(9, 9)
        # horizontal and vertical neighbors within common cells
        dh = np.abs(v[:, 1:] - v[:, :-1]) - np.abs(z[:, 1:] - z[:, :-1])
        dv = np.abs(v[1:, :] - v[:-1, :]) - np.abs(z[1:, :] - z[:-1, :])
        assert dh.max() <= 1e-12
        assert dv.max() <= 1e-12


class TestPseudospectrum:
    def test_normal_matrix_matches_disk_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 12))
            u = haar_unitary(rng, n)
            eigs = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
            a = (u * eigs) @ u.conj().T
            g = chebyshev_grid((-1, 1, -1, 1), 21, 21)
            eps = 0.25
            got = pseudospectrum(a, eps, g)
            oracle = eigenvalue_disk_mask(a, eps, g)
            dist = np.min(np.abs(g.nodes[:, None] - eigs[None, :]), axis=1)
            decisive = np.abs(dist - eps) > 1e-9
            assert np.array_equal(got.mask[decisive], oracle[decisive])

    def test_empty_mask_when_eps_below_field(self, rng):
        a = np.diag([5.0 + 0j, 6.0])
        g = chebyshev_grid((-1, 1, -1, 1), 5, 5)
        got = pseudospectrum(a, 1e-3, g)
        assert not got.mask.any()

    def test_eps_must_be_positive(self):
        with pytest.raises(GridError):
            pseudospectrum(np.eye(2), 0.0, chebyshev_grid((-1, 1, -1, 1), 3, 3))


class TestScanTriples:
    def test_exact_eigenpair(self):
        a = np.diag([0.0, 5.0])
        (triple,) = scan_triples(a, 0.1, [0.0])
        assert triple.residual <= 1e-14
        assert triple.u.shape == (1, 2)
        assert triple.v.shape == (2, 1)

    def test_far_point_omitted(self):
        a = np.diag([0.0, 5.0])
        assert scan_triples(a, 0.1, [2.5]) == []

    def test_jordan_block_residual(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        (triple,) = scan_triples(a, 0.5, [0.0])
        smin = np.linalg.svd(a, compute_uv=False)[-1]
        assert triple.residual == pytest.approx(smin, abs=1e-12)
        assert triple.residual <= 0.5

    def test_residual_recomputed_independently(self, rng):
        a = ginibre(rng, 20)
        g = chebyshev_grid((-1.2, 1.2, -1.2, 1.2), 15, 15)
        eps = 0.3
        triples = scan_triples(a, eps, g.nodes)
        assert triples, "expected at least one triple at this eps"
        for t in triples:
            check = operator_norm(t.u @ a @ t.v - t.sigma * (t.u @ t.v))
            assert check <= eps + 1e-12
            assert check == pytest.approx(t.residual, abs=1e-10)
