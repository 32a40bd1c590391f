import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from matword import config, io
from matword.cli import dispatch
from matword.linalg import NormalTuple
from matword.minpoly import PolyC
from matword.pseudospectra import ScanTriple
from matword.sampling import commuting_hermitian_tuple, random_hermitian
from matword.words import NCPolySystem, WordSpec, commutator_system


def openblas_default_threads() -> int:
    """Thread count OpenBLAS starts with: its first environment setting,
    capped at the usable cores, else one per usable core."""
    cores = len(os.sched_getaffinity(0))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), cores)
    return cores


@pytest.fixture
def restore_threads():
    """Put the BLAS thread count back to what ``import matword`` set; request
    it before ``monkeypatch`` so the environment is restored first."""
    yield
    config.apply_env()


def csv_data_rows(path):
    """Data rows of a CSV file: no '#' comment lines and no column header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class TestMatrixContainer:
    def test_round_trip_single_matrix(self, tmp_path, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "a.json"
        io.save_matrices(path, a)
        (back,) = io.load_matrices(path)
        assert np.array_equal(back, a)

    def test_round_trip_tuple(self, tmp_path, rng):
        mats = commuting_hermitian_tuple(rng, 3, 5)
        path = tmp_path / "t.json"
        io.save_matrices(path, mats)
        got = io.load_matrices(path)
        assert isinstance(got, tuple) and len(got) == 3
        assert all(np.array_equal(a, b) for a, b in zip(got, mats))
        back = io.load_tuple(path)
        assert isinstance(back, NormalTuple)
        assert all(np.array_equal(a, b) for a, b in zip(back, mats))
        # bounds are recomputed, not trusted
        assert back.commutator_bound <= 1e-12

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"], []])
    def test_names_must_match_the_matrices(self, tmp_path, names):
        path = tmp_path / "m.json"
        with pytest.raises(io.FileFormatError, match=f"{len(names)} names for 2 matrices"):
            io.save_matrices(path, [np.eye(2), 2 * np.eye(2)], names=names)
        assert not path.exists()
        io.save_matrices(path, [np.eye(2), 2 * np.eye(2)], names=["a", "b"])
        assert len(io.load_matrices(path)) == 2

    def test_truncated_file_names_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "matword-matrix-v1", "dim": 2, "matrices": [')
        with pytest.raises(io.FileFormatError, match="byte offset"):
            io.load_matrices(path)

    def test_nan_entry_rejected_with_index(self, tmp_path):
        doc = {
            "format": "matword-matrix-v1",
            "dim": 2,
            "matrices": [{"name": "m0", "entries": [[0.0, 0.0], [float("nan"), 0.0],
                                                     [0.0, 0.0], [1.0, 0.0]]}],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FileFormatError, match="entry 1"):
            io.load_matrices(path)

    def test_wrong_entry_count_rejected(self, tmp_path):
        doc = {
            "format": "matword-matrix-v1",
            "dim": 2,
            "matrices": [{"name": "m0", "entries": [[0.0, 0.0]]}],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(io.FileFormatError, match="expected 4"):
            io.load_matrices(path)


NAN_ENTRIES = json.loads("[[0, 0], [1, NaN], [1, 1]]")
HUGE_ENTRIES = json.loads("[[0, 0], [1, 1e400], [1, 1]]")


class TestEntryPairs:
    """io._from_pairs: the array fast path and the messages of the per-entry pass."""

    @pytest.mark.parametrize(
        "entries,exc,message",
        [
            ([[0, 0], [1, 1]], io.FileFormatError, "m: expected 3 entries, found 2"),
            ([[0, 0], 5, [1, 1]], io.FileFormatError, "m: entry 1 is not an [re, im] pair"),
            ([[0, 0], [1], [1, 1]], io.FileFormatError, "m: entry 1 is not an [re, im] pair"),
            ([[0, 0], [1, 2, 3], [1, 1]], io.FileFormatError,
             "m: entry 1 is not an [re, im] pair"),
            ([[[0, 0]], [[1, 1]], [[2, 2]]], io.FileFormatError,
             "m: entry 0 is not an [re, im] pair"),
            ([[[0], [0]], [[1], [1]], [[2], [2]]], TypeError,
             "float() argument must be a string or a real number, not 'list'"),
            ([[0, 0], ["abc", 1], [1, 1]], ValueError, "could not convert string to float: 'abc'"),
            (NAN_ENTRIES, io.FileFormatError, "m: entry 1 is not finite"),
            (HUGE_ENTRIES, io.FileFormatError, "m: entry 1 is not finite"),
        ],
    )
    def test_malformed_entries(self, entries, exc, message):
        with pytest.raises(exc) as info:
            io._from_pairs(entries, 3, "m")
        assert type(info.value) is exc
        assert str(info.value) == message

    def test_numeric_strings_parse_as_before(self):
        got = io._from_pairs([["1.5", 2], [0, "-0.25"]], 2, "m")
        assert np.array_equal(got, [1.5 + 2j, -0.25j])

    def test_signed_zeros_and_subnormals_round_trip_bit_exactly(self, tmp_path):
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                   2.2250738585072014e-308, 1.7976931348623157e308, -1.0, 0.1]
        rng = np.random.default_rng(9)
        re = rng.permutation(special + special[:6])
        im = rng.permutation(special + special[:6])
        a = np.empty(16, dtype=complex)
        a.real, a.imag = re, im
        a = a.reshape(4, 4)
        path = tmp_path / "a.json"
        io.save_matrices(path, a)
        (back,) = io.load_matrices(path)
        assert np.array_equal(back.view(np.int64), a.view(np.int64))


class TestPolyFormats:
    def test_poly_round_trip(self, tmp_path):
        p = PolyC((-1.0 + 0j, 0.0 + 0j, 1.0 + 0j), monic=True)
        path = tmp_path / "p.json"
        io.save_poly(path, p)
        assert io.load_poly(path) == p

    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("z^2-1", (-1, 0, 1)),
            ("2z^3+0.5z-1", (-1, 0.5, 0, 2)),
            ("z", (0, 1)),
            ("-z^2+z", (0, 1, -1)),
            ("1", (1,)),
            ("-1,0,1", (-1, 0, 1)),
        ],
    )
    def test_literal_parser(self, text, coeffs):
        p = io.parse_poly_literal(text)
        assert p.coeffs == tuple(complex(c) for c in coeffs)

    def test_bad_literal_rejected(self):
        with pytest.raises(io.FileFormatError):
            io.parse_poly_literal("z**2 # 1")

    def test_ncpoly_round_trip(self, tmp_path):
        system = commutator_system(2, 1e-6)
        path = tmp_path / "sys.json"
        io.save_ncpoly(path, system)
        back = io.load_ncpoly(path)
        assert back == system


class TestFieldFiles:
    def test_field_csv_layout(self, tmp_path):
        from matword.pseudospectra import chebyshev_grid, sigma_min_field

        g = chebyshev_grid((-1, 1, -1, 1), 3, 3)
        field = sigma_min_field(np.diag([0.0, 0.5]), g)
        path = tmp_path / "f.csv"
        io.write_field_csv(path, field, mask=field.values <= 0.5, header="test")
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "re,im,value,mask"
        assert len(lines) == 2 + g.size
        rows = csv_data_rows(path)
        nodes = [complex(float(r[0]), float(r[1])) for r in rows]
        assert nodes == list(g.nodes)
        assert [float(r[2]) for r in rows] == list(field.values)

    def test_grid_json_round_trip(self, tmp_path):
        from matword.pseudospectra import quadtree_grid

        g = quadtree_grid((-1, 1, -1, 1), depth=2)
        path = tmp_path / "g.json"
        io.write_grid_json(path, g)
        back = io.load_grid_json(path)
        assert back.kind == "quadtree"
        assert np.allclose(back.nodes, g.nodes)
        assert len(back.cells) == len(g.cells)


class TestCli:
    def _write_pair(self, tmp_path, rng, n=8, delta=0.02):
        from matword.deformation import InstanceSpec, generate_instance

        x, y = generate_instance(InstanceSpec("cube", 2, n, delta, seed=99))
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        io.save_matrices(xp, x)
        io.save_matrices(yp, y)
        return xp, yp

    def test_unknown_subcommand_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_command_usage_error(self):
        assert dispatch([]) == 2

    def test_scan_pipeline(self, tmp_path, rng):
        a = random_hermitian(rng, 10) + 1j * random_hermitian(rng, 10)
        h = (a + a.conj().T) / 2
        k = (a - a.conj().T) / 2j
        inp = tmp_path / "pair.json"
        io.save_matrices(inp, [h, k])
        out = tmp_path / "field.csv"
        code = dispatch(
            ["scan", "--input", str(inp), "--eps", "0.5",
             "--grid", "cheb:15x15", "--bounds", "-2,2,-2,2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "field.triples.json").exists()

    def test_scan_triples_stay_beside_an_output_without_suffix(self, tmp_path):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.0, 1.0]))
        (tmp_path / "run.v2").mkdir()
        out = tmp_path / "run.v2" / "field"
        assert dispatch(["scan", "--input", str(a), "--eps", "0.5", "--grid", "cheb:5x5",
                         "--bounds", "-2,2,-2,2", "--out", str(out)]) == 0
        assert (tmp_path / "run.v2" / "field.triples.json").exists()
        assert not (tmp_path / "run.triples.json").exists()

    def test_minpoly_and_lemniscate(self, tmp_path, rng):
        a = np.diag([0.0, 0.0, 1.0, 1.0])
        inp = tmp_path / "a.json"
        io.save_matrices(inp, a)
        pout = tmp_path / "p.json"
        assert dispatch(
            ["minpoly", "--input", str(inp), "--delta", "1e-8",
             "--max-deg", "5", "--out", str(pout)]
        ) == 0
        p = io.load_poly(pout)
        assert p.degree == 2
        cout = tmp_path / "c.csv"
        assert dispatch(
            ["lemniscate", "--poly", str(pout), "--bounds", "-2,2,-2,2",
             "--grid", "cheb:101x101", "--level", "0.3", "--out", str(cout)]
        ) == 0
        assert cout.read_text().count("\n") > 10
        rows = csv_data_rows(cout)
        assert rows and all(len(r) == 4 and r[0].isdigit() and r[1].isdigit() for r in rows)
        assert np.isfinite([[float(r[2]), float(r[3])] for r in rows]).all()

    def test_grid_generate_and_refine(self, tmp_path):
        gout = tmp_path / "g.json"
        assert dispatch(
            ["grid", "generate", "--grid", "quad:1", "--bounds", "-1,1,-1,1",
             "--out", str(gout)]
        ) == 0
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1 + 0.1j, -0.2 - 0.3j]))
        rout = tmp_path / "g2.json"
        assert dispatch(
            ["grid", "refine", "--grid-file", str(gout), "--input", str(a),
             "--threshold", "0.5", "--max-depth", "3", "--out", str(rout)]
        ) == 0
        refined = io.load_grid_json(rout)
        assert refined.size > io.load_grid_json(gout).size

    def test_deform_gujc_exit_codes(self, tmp_path, rng):
        xp, yp = self._write_pair(tmp_path, rng)
        report = tmp_path / "r.json"
        code = dispatch(
            ["deform", "gujc", "--x", str(xp), "--y", str(yp),
             "--eps", "0.5", "--report", str(report)]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["achieved_eps"] <= 0.5
        # an unreachable eps flips the exit code to the constraint failure 1
        assert dispatch(
            ["deform", "gujc", "--x", str(xp), "--y", str(yp), "--eps", "1e-12"]
        ) == 1

    def test_deform_soft_with_literal_poly(self, tmp_path):
        from matword.deformation import InstanceSpec, generate_instance

        x, y = generate_instance(
            InstanceSpec("cube", 2, 8, 0.02, seed=17,
                         polys=(PolyC((-1.0, 0.0, 1.0)),), eps_alg=1e-3)
        )
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        io.save_matrices(xp, x)
        io.save_matrices(yp, y)
        report = tmp_path / "soft.json"
        code = dispatch(
            ["deform", "soft", "--x", str(xp), "--y", str(yp),
             "--polys", "z^2-1", "--delta", "0.05", "--eps", "0.2",
             "--report", str(report)]
        )
        assert code == 0

    def test_verify_deterministic_reports(self, tmp_path):
        args = [
            "verify", "ulpac", "--m", "2", "--n", "8", "--delta", "0.02",
            "--trials", "3", "--seed", "7", "--polys", "z^2-1",
            "--eps-alg", "1e-3", "--eps", "0.2",
        ]
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert dispatch(args + ["--report", str(r1), "--csv", str(c1)]) == 0
        assert dispatch(args + ["--report", str(r2), "--csv", str(c2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        body1 = [l for l in c1.read_text().splitlines() if not l.startswith("#")]
        body2 = [l for l in c2.read_text().splitlines() if not l.startswith("#")]
        assert body1 == body2

    def test_generate_emits_loadable_pair(self, tmp_path):
        xo, yo = tmp_path / "x.json", tmp_path / "y.json"
        code = dispatch(
            ["generate", "--kind", "sphere", "--m", "2", "--n", "6",
             "--delta", "0.01", "--seed", "3", "--out", str(xo), "--out-y", str(yo)]
        )
        assert code == 0
        x = io.load_tuple(xo)
        assert isinstance(x, NormalTuple)
        total = sum(m @ m for m in x.matrices)
        assert np.linalg.norm(total - np.eye(6), 2) <= 1e-10

    def test_words_membership_exit_codes(self, tmp_path, rng):
        mats = commuting_hermitian_tuple(rng, 2, 4)
        inp = tmp_path / "t.json"
        io.save_matrices(inp, mats)
        sysf = tmp_path / "sys.json"
        io.save_ncpoly(sysf, commutator_system(2, 1e-8))
        assert dispatch(
            ["words", "membership", "--input", str(inp), "--system", str(sysf)]
        ) == 0
        x = np.diag([0.5, -0.5, 0.0, 0.0])
        ysh = np.zeros((4, 4)); ysh[0, 1] = ysh[1, 0] = 0.5
        io.save_matrices(inp, [x, ysh])
        assert dispatch(
            ["words", "membership", "--input", str(inp), "--system", str(sysf)]
        ) == 1

    def test_words_eval_identity(self, tmp_path, rng):
        mats = commuting_hermitian_tuple(rng, 2, 3)
        inp = tmp_path / "t.json"
        io.save_matrices(inp, mats)
        out = tmp_path / "vals.json"
        assert dispatch(["words", "eval", "--input", str(inp), "--out", str(out)]) == 0
        back = io.load_matrices(out)
        assert all(np.allclose(a, b) for a, b in zip(back, mats))

    @staticmethod
    def _adjoint_word_file(path, nvars):
        """A one-component word function of ``nvars`` variables whose word is
        variable ``nvars``: the adjoint of the first input."""
        word = WordSpec((0,), (nvars,), (1,))
        io.save_ncpoly(path, NCPolySystem(nvars, (((1.0 + 0.0j, word),),), 0.0))

    def test_words_eval_function_file(self, tmp_path, rng):
        x, y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(2))
        inp, fn, out = tmp_path / "t.json", tmp_path / "f.json", tmp_path / "vals.json"
        io.save_matrices(inp, [x, y])
        self._adjoint_word_file(fn, 2)
        argv = ["words", "eval", "--input", str(inp), "--function", str(fn), "--out", str(out)]
        assert dispatch(argv) == 0
        (value,) = io.load_matrices(out)
        assert np.array_equal(value, x.conj().T)

    def test_words_eval_function_arity_mismatch(self, tmp_path, rng, capsys):
        # variable 3 of a 3-variable file is X0*, but of a 2-matrix input Y*
        inp, fn, out = tmp_path / "t.json", tmp_path / "f.json", tmp_path / "vals.json"
        io.save_matrices(inp, commuting_hermitian_tuple(rng, 2, 3))
        self._adjoint_word_file(fn, 3)
        argv = ["words", "eval", "--input", str(inp), "--function", str(fn), "--out", str(out)]
        self._assert_usage_error(capsys, argv, "arity mismatch")
        assert not out.exists()

    def test_malformed_ncpoly_coefficient_is_usage_error(self, tmp_path, rng, capsys):
        inp, sysf = tmp_path / "t.json", tmp_path / "sys.json"
        io.save_matrices(inp, commuting_hermitian_tuple(rng, 2, 3))
        doc = io.ncpoly_json_dict(commutator_system(2, 1e-8))
        doc["polys"][0][1][0] = [1.0]
        sysf.write_text(json.dumps(doc))
        argv = ["words", "membership", "--input", str(inp), "--system", str(sysf)]
        self._assert_usage_error(capsys, argv, f"{sysf}: polynomial 0: coefficient [1.0]")

    def test_threads_flag_accepted(self, tmp_path, restore_threads):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.0, 1.0]))
        out = tmp_path / "f.csv"
        # each step changes the count from the one before (the import sets 1)
        # wherever there are two usable cores; counts are capped at the cores
        two = min(2, len(os.sched_getaffinity(0)))
        for threads, expected in (("2", two), ("1", 1), ("0", openblas_default_threads())):
            assert dispatch(
                ["--threads", threads, "scan", "--input", str(a), "--eps", "0.5",
                 "--grid", "cheb:5x5", "--bounds", "-2,2,-2,2", "--out", str(out)]
            ) == 0
            if config.blas_threads() is None:
                pytest.skip("numpy does not bundle OpenBLAS here")
            assert config.blas_threads() == expected

    def test_thread_count_capped_at_usable_cores(self, monkeypatch):
        counts = []
        fake = config._OpenBLAS(None, counts.append, lambda: counts[-1], default=1)
        monkeypatch.setattr(config, "_bundled", lambda: fake)
        cores = len(os.sched_getaffinity(0))
        config.set_threads(2**40)
        config.set_threads(cores + 1)
        monkeypatch.setenv("MATWORD_THREADS", str(cores + 1))
        config.apply_env()
        config.set_threads(0)
        assert counts == [cores, cores, cores, 1]

    def test_negative_threads_is_usage_error(self, tmp_path, capsys, restore_threads):
        out = tmp_path / "g.json"
        assert dispatch(["--threads", "-1", "grid", "generate", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: thread count must be >= 0")
        assert not out.exists()

    def test_malformed_threads_env_is_usage_error(
        self, tmp_path, capsys, restore_threads, monkeypatch
    ):
        monkeypatch.setenv("MATWORD_THREADS", "two")
        out = tmp_path / "g.json"
        assert dispatch(["grid", "generate", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: MATWORD_THREADS must be an integer")
        assert not out.exists()

    def _assert_usage_error(self, capsys, argv, flag):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    def test_soft_without_delta_or_eps_is_usage_error(self, tmp_path, rng, capsys):
        xp, yp = self._write_pair(tmp_path, rng)
        self._assert_usage_error(
            capsys, ["deform", "soft", "--x", str(xp), "--y", str(yp), "--polys", "z^2-1"],
            "--delta",
        )

    def test_refine_without_grid_file_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        self._assert_usage_error(
            capsys, ["grid", "refine", "--input", str(a), "--out", str(tmp_path / "g.json")],
            "--grid-file",
        )

    def test_refine_without_input_is_usage_error(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--out", str(g)]) == 0
        self._assert_usage_error(
            capsys, ["grid", "refine", "--grid-file", str(g), "--out", str(tmp_path / "r.json")],
            "--input",
        )

    def test_membership_without_system_is_usage_error(self, tmp_path, rng, capsys):
        inp = tmp_path / "t.json"
        io.save_matrices(inp, commuting_hermitian_tuple(rng, 2, 3))
        self._assert_usage_error(capsys, ["words", "membership", "--input", str(inp)], "--system")

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_fewer_than_one_trial_is_usage_error(self, tmp_path, capsys, trials):
        report = tmp_path / "r.json"
        self._assert_usage_error(
            capsys,
            ["verify", "ulpac", "--m", "2", "--n", "4", "--delta", "0.02", "--seed", "7",
             "--polys", "z^2-1", "--trials", trials, "--report", str(report)],
            f"got {trials}",
        )
        assert not report.exists()

    def test_negative_quadtree_depth_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        self._assert_usage_error(
            capsys, ["grid", "generate", "--grid", "quad:-1", "--out", str(out)], "depth"
        )
        assert not out.exists()

    # every threshold flag, with the rest of a command that would otherwise run;
    # '--flag=value' so that argparse reads '-inf' as the value
    _THRESHOLDS = {
        "scan --eps": ["scan", "--input", "a.json", "--eps={}", "--grid", "cheb:5x5",
                       "--bounds", "-1,1,-1,1", "--out", "f.csv"],
        "minpoly --delta": ["minpoly", "--input", "a.json", "--delta={}", "--out", "p.json"],
        "lemniscate --level": ["lemniscate", "--poly", "z^2-1", "--bounds", "-1,1,-1,1",
                               "--grid", "cheb:5x5", "--level={}", "--out", "c.csv"],
        "grid refine --threshold": ["grid", "refine", "--grid-file", "g.json", "--input",
                                    "a.json", "--threshold={}", "--out", "r.json"],
        "deform --eps": ["deform", "gujc", "--x", "a.json", "--y", "a.json", "--eps={}",
                         "--report", "d.json"],
        "deform --delta": ["deform", "soft", "--x", "a.json", "--y", "a.json",
                           "--polys", "z^2-1", "--delta={}", "--report", "d.json"],
        "verify --eps": ["verify", "aulpac", "--m", "2", "--n", "4", "--delta", "0.02",
                         "--seed", "7", "--trials", "1", "--eps={}", "--report", "v.json"],
        "verify --delta": ["verify", "aulpac", "--m", "2", "--n", "4", "--delta={}",
                           "--seed", "7", "--trials", "1", "--report", "v.json"],
        "verify --eps-alg": ["verify", "ulpac", "--m", "2", "--n", "4", "--delta", "0.02",
                             "--seed", "7", "--trials", "1", "--polys", "z^2-1",
                             "--eps-alg={}", "--report", "v.json"],
        "generate --delta": ["generate", "--m", "2", "--n", "4", "--delta={}", "--seed", "7",
                             "--out", "x.json", "--out-y", "y.json"],
        "words --eps": ["words", "membership", "--input", "a.json", "--system", "s.json",
                        "--eps={}", "--out", "w.json"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("case", sorted(_THRESHOLDS))
    def test_non_finite_threshold_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                 case, value):
        monkeypatch.chdir(tmp_path)
        io.save_matrices("a.json", np.diag([0.1, 0.2]))
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--out", "g.json"]) == 0
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        argv = [arg.replace("{}", value) for arg in self._THRESHOLDS[case]]
        assert dispatch(argv) == 2
        message = f"argument {case.split()[-1]}: expected a finite number, got {value!r}"
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("case, value", [("scan --eps", "0"), ("lemniscate --level", "0"),
                                             ("verify --delta", "-0.01"),
                                             ("generate --delta", "-0.01")]
                             + [(case, value) for case in ("minpoly --delta",
                                                           "grid refine --threshold",
                                                           "deform --eps", "verify --eps")
                                for value in ("0", "-1")]
                             + [("verify --delta", "0")])
    def test_threshold_positivity_rules_still_apply(self, tmp_path, capsys, monkeypatch,
                                                    case, value):
        monkeypatch.chdir(tmp_path)
        io.save_matrices("a.json", np.diag([0.1, 0.2]))
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--out", "g.json"]) == 0
        capsys.readouterr()
        argv = [arg.replace("{}", value) for arg in self._THRESHOLDS[case]]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "g.json"]


class TestStructurallyWrongJson:
    """A loader handed valid JSON of the wrong shape names the file and the
    missing or malformed key and exits 2, instead of leaving dispatch with a
    traceback."""

    def _assert_format_error(self, capsys, argv, *fragments):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert all(f in err for f in fragments), err

    def test_matrix_container_as_grid_file(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        self._assert_format_error(
            capsys,
            ["grid", "refine", "--grid-file", str(a), "--input", str(a),
             "--out", str(tmp_path / "g.json")],
            str(a), "'nodes'",
        )

    def test_matrix_container_without_dim(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        doc = json.loads(a.read_text())
        del doc["dim"]
        a.write_text(json.dumps(doc))
        self._assert_format_error(
            capsys,
            ["scan", "--input", str(a), "--eps", "0.5", "--grid", "cheb:5x5",
             "--bounds", "-1,1,-1,1", "--out", str(tmp_path / "f.csv")],
            str(a), "'dim'",
        )

    def test_poly_file_without_coeffs(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"format": io.POLY_FORMAT, "monic": True}))
        self._assert_format_error(
            capsys,
            ["lemniscate", "--poly", str(p), "--grid", "cheb:5x5", "--bounds", "-1,1,-1,1",
             "--level", "0.5", "--out", str(tmp_path / "c.csv")],
            str(p), "'coeffs'",
        )

    def test_top_level_array(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("[[0.0, 1.0], [1.0, 0.0]]")
        self._assert_format_error(
            capsys,
            ["scan", "--input", str(a), "--eps", "0.5", "--grid", "cheb:5x5",
             "--bounds", "-1,1,-1,1", "--out", str(tmp_path / "f.csv")],
            str(a), "JSON object",
        )

    @pytest.mark.parametrize(
        "key,value", [("dim", None), ("dim", [2]), ("dim", 0), ("dim", -2), ("matrices", 5)]
    )
    def test_matrix_container_with_wrong_typed_value(self, tmp_path, capsys, key, value):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        doc = json.loads(a.read_text())
        doc[key] = value
        a.write_text(json.dumps(doc))
        self._assert_format_error(
            capsys,
            ["scan", "--input", str(a), "--eps", "0.5", "--grid", "cheb:5x5",
             "--bounds", "-1,1,-1,1", "--out", str(tmp_path / "f.csv")],
            str(a), repr(key),
        )

    @pytest.mark.parametrize("coeffs", [[1, 2], [["a", "b"]], [[1, 2, 3]], 7])
    def test_poly_file_with_wrong_typed_coeffs(self, tmp_path, capsys, coeffs):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"format": io.POLY_FORMAT, "coeffs": coeffs}))
        self._assert_format_error(
            capsys,
            ["lemniscate", "--poly", str(p), "--grid", "cheb:5x5", "--bounds", "-1,1,-1,1",
             "--level", "0.5", "--out", str(tmp_path / "c.csv")],
            str(p), "'coeffs'",
        )

    @pytest.mark.parametrize("key,value", [("bounds", None), ("shape", 3), ("nodes", 0)])
    def test_grid_file_with_wrong_typed_value(self, tmp_path, capsys, key, value):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        g = tmp_path / "g.json"
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--bounds", "-1,1,-1,1",
                         "--out", str(g)]) == 0
        doc = json.loads(g.read_text())
        doc["grid"][key] = value
        g.write_text(json.dumps(doc))
        self._assert_format_error(
            capsys,
            ["grid", "refine", "--grid-file", str(g), "--input", str(a),
             "--out", str(tmp_path / "r.json")],
            str(g), repr(key),
        )

    @pytest.mark.parametrize("cell", [
        ["a", 1, 0, 1, 0], [0, 1, 0], [0, 1, 0, 1, -1], [0, 1, 0, 1, 1.5],
        [0, 1, 0, 1, True], [0, None, 0, 1, 0], [0, 1e400, 0, 1, 0], [0, 10**400, 0, 1, 0],
        {"x0": 0},
    ])
    def test_grid_file_with_malformed_cell(self, tmp_path, capsys, cell):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        g = tmp_path / "g.json"
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--bounds", "-1,1,-1,1",
                         "--out", str(g)]) == 0
        doc = json.loads(g.read_text())
        doc["grid"]["cells"][2] = cell
        g.write_text(json.dumps(doc))
        self._assert_format_error(
            capsys,
            ["grid", "refine", "--grid-file", str(g), "--input", str(a),
             "--out", str(tmp_path / "r.json")],
            str(g), "cell 2",
        )

    @pytest.mark.parametrize("bounds", [
        [-1, 1, -1, float("nan")], [-1, float("inf"), -1, 1], [1, -1, -1, 1], [-1, 1, -1],
    ])
    def test_grid_file_with_bad_bounds(self, tmp_path, capsys, bounds):
        a = tmp_path / "a.json"
        io.save_matrices(a, np.diag([0.1, 0.2]))
        g = tmp_path / "g.json"
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--bounds", "-1,1,-1,1",
                         "--out", str(g)]) == 0
        doc = json.loads(g.read_text())
        doc["grid"]["bounds"] = bounds
        g.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        self._assert_format_error(
            capsys,
            ["grid", "refine", "--grid-file", str(g), "--input", str(a), "--out", str(out)],
            str(g), "'bounds'",
        )
        assert not out.exists()

    def test_grid_cells_pass_through_as_parsed(self, tmp_path):
        from matword.pseudospectra import QuadCell

        g = tmp_path / "g.json"
        assert dispatch(["grid", "generate", "--grid", "quad:1", "--bounds", "-1,1,-1,1",
                         "--out", str(g)]) == 0
        doc = json.loads(g.read_text())
        doc["grid"]["cells"][0] = [-1, 0, -1, 0, 1.0]
        g.write_text(json.dumps(doc))
        cell = io.load_grid_json(g).cells[0]
        assert cell == QuadCell(-1, 0, -1, 0, 1)
        assert [type(v) for v in (cell.x0, cell.x1, cell.y0, cell.y1, cell.depth)] == [int] * 5


# -- streamed writers ----------------------------------------------------------
# The oracles build each document as one tree and encode it with
# json.dumps(tree, sort_keys=True), the way the writers did before they
# streamed; entries are formed one by one, independently of io._pairs.

def tree_pairs(m) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).ravel()]


def triples_tree(triples) -> list:
    return [{"sigma": [t.sigma.real, t.sigma.imag], "residual": t.residual,
             "u": tree_pairs(t.u), "v": tree_pairs(t.v), "rank": t.v.shape[1]}
            for t in triples]


def matrices_tree(mats, names, meta) -> dict:
    doc = {"format": io.MATRIX_FORMAT, "dim": mats[0].shape[0],
           "matrices": [{"name": nm, "entries": tree_pairs(m)} for nm, m in zip(names, mats)]}
    if meta:
        doc["meta"] = meta
    return doc


def paths_tree(paths) -> dict:
    return {"paths": [[{"t": float(t), "matrix": tree_pairs(s)} for t, s in zip(p.times, p.samples)]
                      for p in paths]}


def tree_bytes(tree) -> bytes:
    return json.dumps(tree, sort_keys=True).encode("utf-8")


def traced_peak_mib(fn) -> float:
    """Peak of Python and numpy allocations while ``fn`` runs, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def random_triples(rng, count, n, rank):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return [ScanTriple(complex(*rng.standard_normal(2)), cplx(rank, n), cplx(n, rank),
                       float(rng.uniform())) for _ in range(count)]


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def pairs_to_matrix(pairs, n) -> np.ndarray:
    arr = np.array(pairs, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(-1, n)


class TestStreamedWriters:
    def test_triples_bytes_match_the_tree(self, tmp_path, rng):
        triples = random_triples(rng, 5, 6, 2)
        # signed zeros in sigma, in the blocks and as the residual
        triples.append(ScanTriple(complex(-0.0, 0.0), np.array([[complex(-0.0, 0.0)]]),
                                  np.array([[complex(0.0, -0.0)]]), -0.0))
        for case in ([], triples):
            path = tmp_path / "t.json"
            io.write_triples_json(path, case)
            assert path.read_bytes() == tree_bytes(triples_tree(case))
        back = json.loads(path.read_text())
        for t, rec in zip(triples, back):
            assert complex(*rec["sigma"]) == t.sigma and rec["rank"] == t.v.shape[1]
            assert np.array_equal(pairs_to_matrix(rec["u"], t.u.shape[1]), t.u)
            assert np.array_equal(pairs_to_matrix(rec["v"], t.v.shape[1]), t.v)
        assert np.signbit(back[-1]["u"][0][0]) and np.signbit(back[-1]["residual"])

    @pytest.mark.parametrize("meta", [None, {"seed": 7, "kind": "cube"}])
    @pytest.mark.parametrize("names", [None, ['quote " and \\ backslash', "ñandú ∑ 行列"]])
    def test_matrix_container_bytes_match_the_tree(self, tmp_path, rng, meta, names):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a[0, 0], a[1, 2] = complex(-0.0, -0.0), complex(0.0, -0.0)
        mats = [a, np.conj(a)]
        path = tmp_path / "m.json"
        io.save_matrices(path, mats, names=names, meta=meta)
        expect = matrices_tree(mats, names or ["m0", "m1"], meta)
        assert path.read_bytes() == tree_bytes(expect)
        back = io.load_matrices(path)
        assert all(np.array_equal(b, m) for b, m in zip(back, mats))
        assert np.signbit(back[0][0, 0].real) and np.signbit(back[0][1, 2].imag)
        assert json.loads(path.read_text()).get("meta") == meta

    def test_one_by_one_matrix_bytes_match_the_tree(self, tmp_path):
        path = tmp_path / "m.json"
        io.save_matrices(path, np.array([[-0.0]]))
        assert path.read_bytes() == tree_bytes(matrices_tree([np.array([[-0.0]])], ["m0"], None))
        (back,) = io.load_matrices(path)
        assert back.shape == (1, 1) and np.signbit(back[0, 0].real)

    def test_lazy_values_in_every_key_position(self, tmp_path):
        # every mix of plain values, _pairs texts and iterators over four keys
        # given out of order, and nested in a lazy dict and in iterator items
        m = np.array([[complex(-0.0, 1.5), 2.0]])
        plain = {"b": -0.0, "a": [1, "q\"\\ ñ"], "c": None}

        def value(kind, lazy):
            if kind == "plain":
                return plain
            if kind == "text":
                return io._pairs(m) if lazy else tree_pairs(m)
            item = ({"t": 0.5, "m": io._pairs(m)} if lazy else {"t": 0.5, "m": tree_pairs(m)})
            return iter([item, plain]) if lazy else [item, plain]

        path = tmp_path / "d.json"
        for kinds in itertools.product(("plain", "text", "iter"), repeat=4):
            keys = ("Z", "b", "_", "a")
            for outer in (False, True):
                def doc(lazy):
                    d = {k: value(kind, lazy) for k, kind in zip(keys, kinds)}
                    return {"z": 1, "inner": d, "y": [2]} if outer else d

                io._write_json(path, doc(True))
                assert path.read_bytes() == tree_bytes(doc(False))
        io._write_json(path, {})
        assert path.read_bytes() == b"{}"

    def test_path_dump_bytes_match_the_tree(self, tmp_path, rng):
        from matword.paths import flat_path

        paths = [flat_path(random_hermitian(rng, 3), random_hermitian(rng, 3), 5),
                 flat_path(np.array([[-0.0]]), np.array([[1.0j]]), 3)]
        path = tmp_path / "p.json"
        io.write_paths_json(path, paths)
        assert path.read_bytes() == tree_bytes(paths_tree(paths))
        back = json.loads(path.read_text())["paths"]
        for p, recs in zip(paths, back):
            assert [r["t"] for r in recs] == list(p.times)
            assert all(np.array_equal(pairs_to_matrix(r["matrix"], p.dim), s)
                       for r, s in zip(recs, p.samples))

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_special_floats_match_json_dumps(self, tmp_path, n):
        # every value below is written as json.dumps writes it, in matrix
        # containers and path dumps alike
        from matword.paths import MatrixPath

        special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1e-05, 1.0, -3.0,
                            2.0**53, 0.1, 123456789.0])
        mats = [np.resize(np.roll(special, k), (n, n))
                + 1j * np.resize(np.roll(special, 5 * k + 1), (n, n))
                for k in range(len(special))]
        path = tmp_path / "m.json"
        io.save_matrices(path, mats)
        assert path.read_bytes() == tree_bytes(
            matrices_tree(mats, [f"m{i}" for i in range(len(mats))], None))
        assert all(np.array_equal(bits(b), bits(m)) for b, m in zip(io.load_matrices(path), mats))
        p = MatrixPath(np.linspace(0.0, 1.0, len(mats)), np.array(mats))
        io.write_paths_json(path, [p, p])
        assert path.read_bytes() == tree_bytes(paths_tree([p, p]))

    def test_deform_paths_dump_matches_the_tree(self, tmp_path):
        from matword.deformation import InstanceSpec, connect_commuting, generate_instance

        spec = InstanceSpec("cube", 2, 6, 0.02, 7)
        x, y = generate_instance(spec)
        xp, yp, out = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "p.json"
        io.save_matrices(xp, x)
        io.save_matrices(yp, y)
        assert dispatch(["deform", "gujc", "--x", str(xp), "--y", str(yp),
                         "--paths", str(out)]) == 0
        want = connect_commuting(io.load_tuple(xp), io.load_tuple(yp)).paths
        assert out.read_bytes() == tree_bytes(paths_tree(want))

    def test_failing_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(TypeError):
            io.write_json_report(path, {"a": 1, "b": (v for v in (1.0, object()))})
        assert not path.exists()

    def test_unencodable_document_is_refused_before_the_file_opens(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            io.write_json_report(path, {"a": object(), "b": (v for v in (1.0,))})
        assert path.read_text() == "old"

    def test_triples_writer_holds_one_triple_at_a_time(self, tmp_path, rng):
        triples = random_triples(rng, 300, 50, 4)
        peak = traced_peak_mib(lambda: io.write_triples_json(tmp_path / "t.json", triples))
        # the whole tree and its text take about 25 MiB
        assert peak <= 1.0

    def test_matrix_writer_holds_one_matrix_at_a_time(self, tmp_path, rng):
        mats = [rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
                for _ in range(3)]
        peak = traced_peak_mib(lambda: io.save_matrices(tmp_path / "m.json", mats))
        # one matrix's pairs and text take about 9 MiB, all three about 25 MiB
        assert peak <= 10.0

    def test_path_dump_holds_one_sample_at_a_time(self, tmp_path, rng):
        from matword.paths import flat_path

        paths = [flat_path(random_hermitian(rng, 32), random_hermitian(rng, 32)) for _ in range(2)]
        tree = traced_peak_mib(
            lambda: (tmp_path / "tree.json").write_bytes(tree_bytes(paths_tree(paths))))
        streamed = traced_peak_mib(lambda: io.write_paths_json(tmp_path / "p.json", paths))
        assert (tmp_path / "p.json").read_bytes() == (tmp_path / "tree.json").read_bytes()
        assert streamed < tree / 4
