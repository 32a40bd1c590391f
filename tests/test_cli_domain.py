"""The domain contract of every command, over argv built from the parser.

Each command gets every option ``build_parser()`` declares for it, each
drawn from a pool of out-of-domain values (NaN, the infinities, zero,
negatives, ±1e308, malformed JSON, wrong-shape matrix files) next to a few
ordinary ones, on matrices with n <= 4 and grids of at most 5x5 nodes; the
instance commands (``generate``, ``verify``, ``deform``, ``words``) draw
sizes inside the strategy, m <= 2, n <= 4 and ``--trials`` <= 2, so that
each run stays in milliseconds.  Whatever the argv, ``dispatch`` returns 0,
1 or 2 without raising; exit 2 leaves no output file; and each JSON file
written on exit 0 or 1 is strict JSON (no NaN or Infinity) that matword's
own loader reads back, where it has one (no command reads a triples, report
or paths file).
"""

import argparse
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matword import io
from matword.cli import build_parser, dispatch
from matword.pseudospectra import quadtree_grid
from matword.words import commutator_system

# (ordinary values, out-of-domain values) per kind of option
NUMBERS = ["nan", "inf", "-inf", "0", "-0", "-1", "-3", "1e308", "-1e308", "1e-300", "0.5"]
POOLS = {
    "float": (["0.5", "1e-3", "2"], NUMBERS),
    "int": (["1", "3", "5"], NUMBERS),
    "bounds": (["-2,2,-2,2", "-1,1,-1,1", "0,1,-3,3"], None),  # see _values
    "grid": (["cheb:5x5", "cheb:2x3", "quad:0", "quad:1", "quad:1:2", "quad:0:5"],
             ["cheb:5", "cheb:1x1", "cheb:0x5", "cheb:-1x2", "cheb:ax3", "quad:1:1", "quad:-1",
              "quad:1e308", "spiral:3"]),
    "poly": (["z^2-1", "1,0,-1", "z^3-z", "poly.json"],
             ["1e308,0,1e308", "-1e308,1", "1,inf", "nan", "0", "", "z^^2", "bad.json",
              "one.json", "missing.json"]),
    "input": (["one.json", "pair.json", "scalar.json"],
              ["huge.json", "triple.json", "short.json", "nan.json", "bad.json", "empty.json",
               "grid.json", "missing.json"]),
    "grid_file": (["grid.json"],
                  ["cheb-grid.json", "huge-grid.json", "one.json", "bad.json", "missing.json"]),
    # the instance commands' sizes: every ordinary value is small, and the
    # out-of-domain ints are 0 and negatives
    "m": (["1", "2"], NUMBERS),
    "n": (["1", "2", "4"], NUMBERS),
    "trials": (["1", "2"], NUMBERS),
    "x": (["x.json", "y.json", "xa.json", "ya.json"],
          ["one.json", "pair.json", "x3.json", "triple.json", "scalar.json", "huge.json",
           "nan.json", "short.json", "bad.json", "empty.json", "grid.json", "missing.json"]),
    "system": (["system.json"],
               ["system3.json", "poly.json", "one.json", "bad.json", "empty.json",
                "missing.json"]),
}
POOLS["y"] = POOLS["x"]
POOLS["function"] = POOLS["system"]
COORDINATES = ["nan", "inf", "-inf", "0", "-1", "1", "-2", "2", "1e308", "-1e308"]
# finite coordinates, some of whose rectangles overflow
LARGE = ["-1e308", "-1", "0", "1", "1e308", "1.7e308"]

# output files, by option and command; scan's triples default to f.triples.json
OUTPUTS = {"out": {"scan": "f.csv", "minpoly": "p.json", "lemniscate": "c.csv",
                   "grid": "g.json", "generate": "x.json", "words": "w.json"},
           "triples": "t.json", "field": "l.csv", "out_y": "y.json", "report": "r.json",
           "csv": "v.csv", "paths": "paths.json"}
# loaders of the JSON outputs; matword reads no triples, report or paths file
# back, and the words output is a matrix container or a report by action
LOADERS = {"p.json": io.load_poly, "g.json": io.load_grid_json, "x.json": io.load_matrices,
           "y.json": io.load_matrices, "t.json": None, "f.triples.json": None, "w.json": None,
           "r.json": None, "paths.json": None}
FAST = ("scan", "minpoly", "lemniscate", "grid")
INSTANCE = ("generate", "verify", "deform", "words")


def _options():
    """{command: [(flag or None for a positional, dest, required, type, choices)]},
    read from the parser."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[0] if a.option_strings else None, a.dest, a.required,
                    a.type, a.choices) for a in subparsers.choices[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
            for name in FAST + INSTANCE}


OPTIONS = _options()


def _values(command, dest, kind, choices):
    """(ordinary, out-of-domain) strategies for option ``dest`` of ``command``."""
    if dest in OUTPUTS:
        out = OUTPUTS[dest]
        out = st.just(out[command] if isinstance(out, dict) else out)
        return out, out
    if choices is not None:
        return st.sampled_from(choices), st.sampled_from(choices)
    if dest == "polys":
        ordinary, special = _values(command, "poly", None, None)
        return (st.lists(ordinary, min_size=1, max_size=2),
                st.lists(st.one_of(ordinary, special), min_size=0, max_size=3))
    if dest not in POOLS:
        dest = "int" if kind is int else "float"
    ordinary, special = POOLS[dest]
    if dest == "bounds":
        special = st.one_of(st.lists(st.sampled_from(COORDINATES), min_size=3, max_size=5),
                            st.lists(st.sampled_from(LARGE), min_size=4, max_size=4)
                            ).map(",".join)
    else:
        special = st.sampled_from(special)
    return st.sampled_from(ordinary), special


# each optional option is given, and each value ordinary, three times in four
ODDS = st.sampled_from([True, True, True, False])


@st.composite
def arguments(draw, commands):
    """(command, [(flag or None, dest, value)]) for one run of one of ``commands``."""
    command = draw(st.sampled_from(commands))
    given = []
    for flag, dest, required, kind, choices in OPTIONS[command]:
        # the grid option is always given, so that no default grid is larger
        # than 5x5, and so is --trials, whose default is 50
        if flag is None or required or dest in ("grid", "trials") or draw(ODDS):
            ordinary, special = _values(command, dest, kind, choices)
            given.append((flag, dest, draw(ordinary if draw(ODDS) else special)))
    return command, given


def render(command, given, inputs, out):
    """argv, with file names resolved: inputs in ``inputs``, outputs in ``out``."""
    argv = [command]
    for flag, dest, value in given:
        values = value if isinstance(value, list) else [value]
        if dest in OUTPUTS:
            values = [str(out / value)]
        else:
            values = [str(inputs / v) if v.endswith(".json") else v for v in values]
        if flag is None:
            argv.extend(values)
        elif isinstance(value, list):  # nargs="*"
            argv.extend([flag, *values])
        else:
            argv.append(f"{flag}={values[0]}")
    return argv


def _strict(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    io.save_matrices(d / "one.json", rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    io.save_matrices(d / "pair.json", [(h + h.conj().T) / 2, (h - h.conj().T) / 2j])
    io.save_matrices(d / "scalar.json", np.zeros((1, 1)))
    io.save_matrices(d / "huge.json", np.array([[1e308, -1e308], [1e308, 1e308]]))
    io.save_matrices(d / "triple.json", [np.eye(2)] * 3)
    doc = json.loads((d / "one.json").read_text())
    doc["matrices"][0]["entries"] = doc["matrices"][0]["entries"][:-1]
    (d / "short.json").write_text(json.dumps(doc))
    doc["matrices"][0]["entries"].append(["NaN", 0])
    (d / "nan.json").write_text(json.dumps(doc).replace('"NaN"', "NaN"))
    (d / "bad.json").write_text('{"format": "matword-matrix-v1", "dim": 2, "matrices": [')
    (d / "empty.json").write_text("")
    io.save_poly(d / "poly.json", io.parse_poly_literal("z^2-1"))
    io.write_grid_json(d / "grid.json", quadtree_grid((-2, 2, -2, 2), 1))
    io.write_grid_json(d / "huge-grid.json", quadtree_grid((-1e307, 1e307, -1, 1), 1))
    dispatch(["grid", "generate", "--grid=cheb:5x5", f"--out={d / 'cheb-grid.json'}"])
    instance = ["--m=2", "--n=4", "--seed=1", f"--out={d / 'x.json'}", f"--out-y={d / 'y.json'}"]
    dispatch(["generate", "--delta=0.02", *instance])
    dispatch(["generate", "--delta=0.05", "--polys", "z^2-1", *instance[:3],
              f"--out={d / 'xa.json'}", f"--out-y={d / 'ya.json'}"])
    io.save_matrices(d / "x3.json", [np.diag([0.1, 0.2, 0.3])] * 2)
    io.save_ncpoly(d / "system.json", commutator_system(2, 1e-6))
    io.save_ncpoly(d / "system3.json", commutator_system(3, 1e-6))
    return d


def _keeps_the_contract(argv, out):
    code = dispatch(argv)
    assert code in (0, 1, 2), argv
    written = sorted(p.name for p in out.iterdir())
    if code == 2:
        assert written == [], argv
    for name in written:
        if name.endswith(".json"):
            _strict((out / name).read_text())
            if LOADERS[name] is not None:
                LOADERS[name](out / name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(args=arguments(FAST))
# an overflowing rectangle, which the search finds about two runs in three
@example(args=("grid", [(None, "action", "generate"), ("--grid", "grid", "quad:1"),
                        ("--bounds", "bounds", "-1e308,1e308,0,1"), ("--out", "out", "g.json")]))
# quadtree rectangles on which absolute node keys overflow or coincide
@example(args=("grid", [(None, "action", "generate"), ("--grid", "grid", "quad:1"),
                        ("--bounds", "bounds", "-1e299,1e299,-1,1"), ("--out", "out", "g.json")]))
@example(args=("grid", [(None, "action", "generate"), ("--grid", "grid", "quad:1"),
                        ("--bounds", "bounds", "0,1e-12,0,1e-12"), ("--out", "out", "g.json")]))
# a matrix whose norm overflows, refined on the huge grid
@example(args=("grid", [(None, "action", "refine"),
                        ("--grid-file", "grid_file", "huge-grid.json"),
                        ("--input", "input", "huge.json"), ("--threshold", "threshold", "0.5"),
                        ("--out", "out", "g.json")]))
# a fit and a field that overflow
@example(args=("minpoly", [("--input", "input", "huge.json"), ("--delta", "delta", "0.5"),
                           ("--out", "out", "p.json")]))
@example(args=("lemniscate", [("--poly", "poly", "1e308,0,1e308"), ("--grid", "grid", "cheb:5x5"),
                              ("--bounds", "bounds", "-2,2,-2,2"), ("--level", "level", "0.5"),
                              ("--out", "out", "c.csv")]))
def test_fast_commands_keep_the_domain_contract(inputs, tmp_path_factory, args):
    out = tmp_path_factory.mktemp("out")
    _keeps_the_contract(render(*args, inputs, out), out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=800, deadline=None)
@given(args=arguments(INSTANCE))
# n * (1 + delta)^2 overflows, which is refused before any arithmetic
@example(args=("verify", [(None, "mode", "aulpac"), ("--m", "m", "2"), ("--n", "n", "4"),
                          ("--delta", "delta", "1e308"), ("--seed", "seed", "1"),
                          ("--trials", "trials", "1"), ("--report", "report", "r.json")]))
# a root near the float limit, refused by the same rule
@example(args=("verify", [(None, "mode", "ulpac"), ("--m", "m", "1"), ("--n", "n", "2"),
                          ("--delta", "delta", "0.5"), ("--seed", "seed", "1"),
                          ("--polys", "polys", ["-1e308,1"]), ("--trials", "trials", "1"),
                          ("--report", "report", "r.json")]))
@example(args=("generate", [("--m", "m", "1"), ("--n", "n", "2"), ("--delta", "delta", "0.5"),
                            ("--seed", "seed", "1"), ("--polys", "polys", ["-1e308,1"]),
                            ("--out", "out", "x.json"), ("--out-y", "out_y", "y.json")]))
# a root beyond the float range, refused by name
@example(args=("generate", [("--m", "m", "1"), ("--n", "n", "2"), ("--delta", "delta", "0.5"),
                            ("--seed", "seed", "1"), ("--polys", "polys", ["1e308,1e-300"]),
                            ("--out", "out", "x.json"), ("--out-y", "out_y", "y.json")]))
# endpoints whose products overflow
@example(args=("deform", [(None, "mode", "gujc"), ("--x", "x", "huge.json"),
                          ("--y", "y", "huge.json"), ("--eps", "eps", "0.5"),
                          ("--report", "report", "r.json")]))
# a polynomial whose residual at the endpoints overflows
@example(args=("deform", [(None, "mode", "algebraic"), ("--x", "x", "xa.json"),
                          ("--y", "y", "x.json"), ("--polys", "polys", ["1e308,0,1e308"]),
                          ("--eps", "eps", "0.5"), ("--report", "report", "r.json")]))
def test_instance_commands_keep_the_domain_contract(inputs, tmp_path_factory, args):
    out = tmp_path_factory.mktemp("out")
    _keeps_the_contract(render(*args, inputs, out), out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_residual_is_refused_at_the_first_endpoint(inputs, capfd, tmp_path):
    argv = ["deform", "algebraic", "--x", str(inputs / "xa.json"), "--y", str(inputs / "x.json"),
            "--polys", "1e308,0,1e308", "--eps", "0.5", "--report", str(tmp_path / "r.json")]
    assert dispatch(argv) == 2
    err = capfd.readouterr().err
    assert err == "error: ||p_0(X_0)|| = inf; spectrum is not in the zero set\n"
    assert list(tmp_path.iterdir()) == []
