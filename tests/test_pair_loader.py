"""The JSON loaders parse [re, im] pair arrays straight into floats and must
agree with the list-based loaders of tests/loader_oracles.py on every file:
the same arrays bit for bit, or the same exception type and message."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loader_oracles as oracle
from matword import io
from matword.pseudospectra import chebyshev_grid, quadtree_grid
from matword.sampling import random_hermitian

# numbers both parsers read, some of which strtod and json read differently
# unless the fast path declines them (-0, 1e400)
JSON_NUMBERS = ["0", "7", "-3", "12", "-0", "-0.0", "0.0", "0e0", "-0e1", "1e05", "1E+2",
                "2.5e-3", "3.14159", "-2.5", "1e400", "-1e400", "-1e-400", "1e-400",
                "4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308",
                "123456789012345678901234567890", "-987654321098765432109876543210"]
# texts strtod reads as numbers but JSON does not, and other non-numbers
NOT_NUMBERS = ["+1", "01", "-01", "00", "1.", ".5", "-.5", "1.e5", "NaN", "Infinity",
               "-Infinity", "nan", "inf", "0x10", "1e", "--1", "1-2", "1 2", "1_0", '"1.5"',
               '"-0"', '"abc"', "true", "null", "[]", "{}", "١"]
WHITESPACE = ["", " ", "  ", "\n", "\t", "\r\n", " \n\t ", "\x0b"]
NAMES = ["X", "m0", "[[1, 2]]", 'x"entries": [[1, 2]]', "\\", "é", "", "\x000"]

numbers = st.one_of(st.sampled_from(JSON_NUMBERS),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))


@st.composite
def pair_arrays(draw, count, clean):
    """JSON text of an array of ``count`` [re, im] entries; with ``clean``
    False, entries may be malformed."""
    ws = st.sampled_from(WHITESPACE[:-1] if clean else WHITESPACE)
    value = numbers if clean else st.one_of(numbers, st.sampled_from(NOT_NUMBERS))

    def entry():
        items = [draw(value) for _ in range(2 if clean else draw(st.sampled_from([2, 2, 2, 1, 3])))]
        text = "[" + draw(ws) + (draw(ws) + "," + draw(ws)).join(items) + draw(ws) + "]"
        if not clean and draw(st.integers(0, 9)) == 0:
            text = draw(st.sampled_from(NOT_NUMBERS + ["[[1, 2]]", "[1, [2]]"]))
        return text

    entries = [entry() for _ in range(count)]
    text = "[" + draw(ws) + (draw(ws) + "," + draw(ws)).join(entries) + draw(ws) + "]"
    if not clean and draw(st.integers(0, 3)) == 0:  # swap two neighbouring bytes
        i = draw(st.integers(0, len(text) - 2))
        text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


@st.composite
def matrix_documents(draw):
    clean = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    matrices = []
    for _ in range(draw(st.integers(1, 2))):
        count = max(0, dim * dim + (0 if clean else draw(st.sampled_from([0, 0, -1, 1]))))
        entries = draw(pair_arrays(count, clean))
        if not clean and draw(st.integers(0, 9)) == 0:
            entries = draw(st.sampled_from(['"\\u00000"', "null", "{}", "5", '"[[1, 2]]"']))
        fields = [f'"name": {json.dumps(draw(st.sampled_from(NAMES)), ensure_ascii=False)}',
                  f'"entries":{draw(st.sampled_from(WHITESPACE[:-1]))}' + entries]
        matrices.append("{" + ", ".join(draw(st.permutations(fields))) + "}")
    fields = ['"format": "matword-matrix-v1"', f'"dim": {dim}',
              '"matrices": [' + ", ".join(matrices) + "]"]
    if draw(st.booleans()):
        fields.append('"meta": {"entries": ' + draw(pair_arrays(2, clean)) + ', "nodes": []}')
    text = "{" + ", ".join(draw(st.permutations(fields))) + "}"
    if not clean and draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@st.composite
def grid_documents(draw):
    clean = draw(st.booleans())
    grid = ('"kind": "chebyshev", "bounds": [-1, 1, -1, 1], "shape": [1, 2], '
            '"cell_order": 3, "cells": null, "nodes": '
            + draw(pair_arrays(draw(st.integers(1, 4)), clean)))
    if draw(st.booleans()):
        text = '{"grid": {' + grid + '}, "values": [0.5, 1.5]}'
    else:
        text = "{" + grid + "}"
    if not clean and draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the type and message are what the tests compare
        return type(exc), str(exc)


def same_arrays(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_values(got, want) -> bool:
    """Whether a document the fast path read equals ``json.loads``'s, each
    float array holding the bits ``np.array(..., dtype=float)`` gives its list."""
    if isinstance(got, np.ndarray):
        return same_arrays(got, np.array(want, dtype=float))
    if isinstance(got, dict):
        return (isinstance(want, dict) and got.keys() == want.keys()
                and all(same_values(got[k], want[k]) for k in got))
    if isinstance(got, list):
        return (isinstance(want, list) and len(got) == len(want)
                and all(map(same_values, got, want)))
    return type(got) is type(want) and (got == want or got != got and want != want)


def assert_same_document(text):
    doc = io._parse_pairs_fast(text.encode("utf-8"))
    if doc is not None:
        assert same_values(doc, json.loads(text))


def assert_same_matrices(path):
    got, want = outcome(io.load_matrices, path), outcome(oracle.load_matrices, path)
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
    else:
        assert isinstance(got, tuple) and len(got) == len(want)
        assert all(same_arrays(g, w) for g, w in zip(got, want))


def assert_same_grid(path):
    got, want = outcome(io.load_grid_json, path), outcome(oracle.load_grid_json, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same_arrays(got.nodes, want.nodes) and not got.nodes.flags.writeable
        assert (got.bounds, got.kind, got.shape, got.cells, got.cell_order) == (
            want.bounds, want.kind, want.shape, want.cells, want.cell_order)


@settings(max_examples=300, deadline=None)
@given(text=matrix_documents())
def test_matrix_loader_agrees_with_the_list_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("m") / "m.json"
    path.write_text(text, encoding="utf-8")
    assert_same_matrices(path)
    assert_same_document(text)


@settings(max_examples=150, deadline=None)
@given(text=grid_documents())
def test_grid_loader_agrees_with_the_list_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("g") / "g.json"
    path.write_text(text, encoding="utf-8")
    assert_same_grid(path)
    assert_same_document(text)


def container(entries: str, dim: int = 1, name: str = "X") -> str:
    return ('{"format": "matword-matrix-v1", "dim": %d, "matrices": [{"name": %s, '
            '"entries": %s}]}' % (dim, json.dumps(name), entries))


@pytest.mark.parametrize("value", JSON_NUMBERS + NOT_NUMBERS)
def test_each_literal_agrees(tmp_path, value):
    path = tmp_path / "m.json"
    for entries in (f"[[{value}, 1.5]]", f"[[0.5,{value}]]"):
        path.write_text(container(entries))
        assert_same_matrices(path)


@pytest.mark.parametrize("value", ["-0", "1e400", "-1e400", "+1", "01", "1.", ".5", "-.5",
                                   "1.e5", "NaN", "Infinity", '"1.5"', "1 2"])
def test_the_fast_path_declines_what_json_reads_otherwise(value):
    raw = container(f"[[0.5, 1.5], [{value}, 2.5]]", dim=2).encode()
    assert io._parse_pairs_fast(raw) is None


@pytest.mark.parametrize("entries", ["[[1, 2], 3[, 4]]", "[[1, ]2, [3, 4]]", "[[1, 2], [3, 4]5]",
                                     "[[1, 2] [3, 4]]", "[[1, 2],, [3, 4]]", "[[1, 2], [3, 4],]"])
def test_misplaced_numbers_and_brackets_are_parse_errors(tmp_path, entries):
    text = container(entries, dim=2)
    assert io._parse_pairs_fast(text.encode()) is None
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(io.FileFormatError, match="parse error"):
        io.load_matrices(path)
    assert_same_matrices(path)


@pytest.mark.parametrize("text", [
    container("[[1, 2]]"),
    container("[ [ 1 ,\n2 ] ]"),
    container("[[-0.0, 4.9e-324], [1e-400, -1e-400], [123456789012345678901234567890, 1E+2],"
              " [0, 0e0]]", dim=2),
    container("[[1, 2]]", name="[[1, 2]]"),
    container("[[1, 2]]", name='x"entries": [[3, 4]]'),
    '{"meta": {"entries": [[5, 6]]}, "format": "matword-matrix-v1", "dim": 1, '
    '"matrices": [{"entries": [[1, 2]], "name": "a"}, {"entries": [[3, 4]], "name": "b"}]}',
])
def test_plain_pair_arrays_take_the_fast_path(tmp_path, text):
    doc = io._parse_pairs_fast(text.encode())
    assert doc is not None
    assert all(isinstance(m["entries"], np.ndarray) for m in doc["matrices"])
    path = tmp_path / "m.json"
    path.write_text(text)
    assert_same_matrices(path)
    assert_same_document(text)


@pytest.mark.parametrize("text", [
    # a string that spells a placeholder, where a later array is parsed fast
    '{"format": "matword-matrix-v1", "dim": 1, "matrices": [{"entries": "\\u00000"}, '
    '{"entries": [[1, 2]]}]}',
    # a key that ends in "entries" after an escaped quote
    '{"format": "matword-matrix-v1", "dim": 1, "meta": {"x\\"entries": [[5, 6]]}, '
    '"matrices": [{"entries": [[1, 2]]}]}',
])
def test_strings_and_keys_that_only_look_like_pair_arrays(tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert_same_matrices(path)
    assert_same_document(text)


def test_written_containers_and_grids_take_the_fast_path(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "m.json"
    io.save_matrices(path, [random_hermitian(rng, 40), random_hermitian(rng, 40)])
    doc = io._parse_pairs_fast(path.read_bytes())
    assert [m["entries"].shape for m in doc["matrices"]] == [(1600, 2)] * 2
    assert_same_matrices(path)
    for grid in (chebyshev_grid((-1.0, 2.0, -0.5, 0.5), 7, 5),
                 quadtree_grid((-1.0, 1.0, -1.0, 1.0), 2)):
        io.write_grid_json(path, grid)
        assert io._parse_pairs_fast(path.read_bytes())["grid"]["nodes"].shape == (grid.size, 2)
        assert_same_grid(path)


@pytest.mark.parametrize("n", [100, 256])
def test_loading_a_pair_traces_at_most_twice_its_file_and_arrays(tmp_path, n):
    rng = np.random.default_rng(n)
    path = tmp_path / "pair.json"
    io.save_matrices(path, [random_hermitian(rng, n), random_hermitian(rng, n)],
                     names=["X", "Y"])
    io.load_matrices(path)
    tracemalloc.start()
    try:
        got = io.load_matrices(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (path.stat().st_size + sum(m.nbytes for m in got))
