"""The domain contract of the fast commands, over argv built from the parser.

``scan``, ``minpoly``, ``lemniscate``, ``grid generate`` and ``grid refine``
get every option ``build_parser()`` declares for them, each drawn from a
pool of out-of-domain values (NaN, the infinities, zero, negatives, ±1e308,
malformed JSON, wrong-shape matrix files) next to a few ordinary ones, on
matrices with n <= 4 and grids of at most 5x5 nodes.  Whatever the argv,
``dispatch`` returns 0, 1 or 2 without raising; exit 2 leaves no output
file; and each JSON file written on exit 0 or 1 is strict JSON (no NaN or
Infinity) that matword's own loader reads back, where it has one (no
command reads a triples file).  ``deform`` and ``verify`` are left out: one
of their runs costs more than this whole test.
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
    "action": (["generate", "refine"], ["generate", "refine"]),
}
COORDINATES = ["nan", "inf", "-inf", "0", "-1", "1", "-2", "2", "1e308", "-1e308"]
# finite coordinates, some of whose rectangles overflow
LARGE = ["-1e308", "-1", "0", "1", "1e308", "1.7e308"]

# output files, by option and command; scan's triples default to f.triples.json
OUTPUTS = {"out": {"scan": "f.csv", "minpoly": "p.json", "lemniscate": "c.csv",
                   "grid": "g.json"},
           "triples": "t.json", "field": "l.csv"}
# loaders of the JSON outputs; matword reads no triples file back
LOADERS = {"p.json": io.load_poly, "g.json": io.load_grid_json,
           "t.json": None, "f.triples.json": None}


def _options():
    """{command: [(flag or None for a positional, dest, required, type)]}, read
    from the parser."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.option_strings[0] if a.option_strings else None, a.dest, a.required,
                    a.type) for a in subparsers.choices[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
            for name in ("scan", "minpoly", "lemniscate", "grid")}


OPTIONS = _options()


def _values(command, dest, kind):
    """(ordinary, out-of-domain) strategies for option ``dest`` of ``command``."""
    if dest in OUTPUTS:
        out = OUTPUTS[dest]
        out = st.just(out[command] if isinstance(out, dict) else out)
        return out, out
    if kind is not None:
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
def arguments(draw):
    """(command, [(flag or None, dest, value)]) for one run."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    given = []
    for flag, dest, required, kind in OPTIONS[command]:
        # the grid option is always given, so that no default grid is larger than 5x5
        if flag is None or required or dest == "grid" or draw(ODDS):
            ordinary, special = _values(command, dest, kind)
            given.append((flag, dest, draw(ordinary if draw(ODDS) else special)))
    return command, given


def render(command, given, inputs, out):
    """argv, with file names resolved: inputs in ``inputs``, outputs in ``out``."""
    argv = [command]
    for flag, dest, value in given:
        if dest in OUTPUTS:
            value = str(out / value)
        elif dest in ("input", "grid_file", "poly") and value.endswith(".json"):
            value = str(inputs / value)
        argv.append(value if flag is None else f"{flag}={value}")
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
    return d


@settings(max_examples=400, deadline=None)
@given(args=arguments())
# an overflowing rectangle, which the search finds about two runs in three
@example(args=("grid", [(None, "action", "generate"), ("--grid", "grid", "quad:1"),
                        ("--bounds", "bounds", "-1e308,1e308,0,1"), ("--out", "out", "g.json")]))
def test_fast_commands_keep_the_domain_contract(inputs, tmp_path_factory, args):
    out = tmp_path_factory.mktemp("out")
    argv = render(*args, inputs, out)
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
