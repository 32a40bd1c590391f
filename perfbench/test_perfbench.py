"""Self-tests of the benchmark: span arithmetic, oracles, digests.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
from spans import Recorder, Span, covered_length, self_times  # noqa: E402

from matword import cli, io  # noqa: E402


# -- spans -----------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span(0, "cli.dispatch", 0.0, 10.0),
        Span(1, "pseudospectra.pseudospectrum", 1.0, 4.0, parent=0),
        Span(2, "pseudospectra.sigma_min_field", 1.5, 3.5, parent=1),
        Span(3, "io.write_field_csv", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0})


def test_overlapping_children_count_once_and_are_clipped():
    assert covered_length([(1.0, 5.0), (3.0, 7.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(7.0)
    spans = [Span(0, "a", 0.0, 10.0), Span(1, "b", 1.0, 5.0, parent=0),
             Span(2, "c", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_patched_bindings_record_parents_and_are_restored():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    exec("def leaf(x):\n    return x + 1\n\ndef mid(x):\n    return leaf(x) * 2\n", inner.__dict__)
    outer.mid = inner.mid
    mods = {"fakepkg": pkg, "fakepkg.inner": inner, "fakepkg.outer": outer}
    sys.modules.update(mods)
    try:
        rec = Recorder()
        targets = [("inner", "leaf", "inner.leaf", None),
                   ("inner", "mid", "inner.mid", lambda a, k, r: {"out": r})]
        with rec.patched("fakepkg", targets):
            assert outer.mid(1) == 4
        assert outer.mid is inner.mid and inner.leaf.__name__ == "leaf"
        assert not hasattr(inner.leaf, "__wrapped__")
        assert [(s.name, s.parent, s.counts) for s in rec.spans] == [
            ("inner.mid", None, {"out": 4}), ("inner.leaf", 0, None)]
    finally:
        for name in mods:
            sys.modules.pop(name)


def test_pass_metrics_sum_path_construction_and_count_errors():
    spans = [
        Span(0, "deformation.connect_commuting", 0.0, 1.0),
        Span(1, "paths.curved_path", 0.1, 0.2, parent=0),
        Span(2, "paths.flat_path", 0.2, 0.4, parent=0),
        Span(3, "linalg.joint_diagonalize", 0.5, 0.6, parent=0, error="JointDiagonalizationError"),
    ]
    m = layers.pass_metrics(spans)
    assert m["paths.build.self_s"] == pytest.approx(0.3)
    assert m["deformation.connect.self_s"] == pytest.approx(0.6)
    assert m["linalg.joint_diagonalize.errors"] == 1
    assert m["pseudospectra.sigma_min_field.nodes"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(50) == 50.0
    assert layers.tail_percentile(100) == 90.0
    assert layers.tail_percentile(1000) == 99.0
    assert layers.percentile(list(range(1, 101)), 90.0) == 90


# -- oracles ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan_outputs(tmp_path_factory):
    """A real `matword scan` on a small normal matrix; every node gets sampled."""
    d = tmp_path_factory.mktemp("scan")
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    a = (q * np.array([0.0, 0.3, -0.3, 0.3j, -0.3j, 0.2 + 0.2j])) @ q.conj().T
    io.save_matrices(d / "a.json", [a])
    code = cli.dispatch(["scan", "--input", str(d / "a.json"), "--eps", "0.25",
                         "--grid", "cheb:5x5", "--bounds", "-0.5,0.5,-0.5,0.5",
                         "--out", str(d / "field.csv")])
    assert code == 0
    return a, d


def _scan_checks(a, d, field_csv):
    checks = oracles.Checks()
    oracles.check_scan(checks, a, 0.25, field_csv, d / "field.triples.json", seed=0)
    return checks


def _rewrite_field(d, name, edit):
    """Copy of the field CSV with the row of node 0 edited."""
    lines = (d / "field.csv").read_text().splitlines()
    row = 1 + next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[row] = edit(lines[row].split(","))
    (d / name).write_text("\n".join(lines) + "\n")
    return d / name


def test_scan_oracle_accepts_program_output(scan_outputs):
    checks = _scan_checks(*scan_outputs, scan_outputs[1] / "field.csv")
    assert checks.failed == 0 and checks.attempted > 25


def test_scan_oracle_flags_flipped_mask_bit(scan_outputs):
    a, d = scan_outputs
    path = _rewrite_field(d, "flipped.csv", lambda r: ",".join(r[:3] + [str(1 - int(r[3]))]))
    checks = _scan_checks(a, d, path)
    assert checks.failed >= 1
    assert any(f.startswith("mask bit at node 0") for f in checks.failures)


def test_scan_oracle_flags_perturbed_field_value(scan_outputs):
    a, d = scan_outputs

    def perturb(r):
        return ",".join(r[:2] + [repr(oracles._num(r[2]) * (1 + 1e-8))] + r[3:])

    checks = _scan_checks(a, d, _rewrite_field(d, "perturbed.csv", perturb))
    assert checks.failures == ["field value at node 0"]


def test_trial_oracle_flags_failed_trial(tmp_path):
    report = tmp_path / "report.json"
    code = cli.dispatch(["verify", "ulpac", "--kind", "cube", "--m", "2", "--n", "6",
                         "--delta", "0.02", "--trials", "2", "--seed", "7", "--polys", "z^2-1",
                         "--eps-alg", "1e-3", "--eps", "0.2", "--report", str(report)])
    assert code == 0
    checks = oracles.Checks()
    oracles.check_trials(checks, report, 2)
    assert (checks.attempted, checks.failed) == (3, 0)

    doc = json.loads(report.read_text())
    doc["trials"][1]["passed"] = False
    report.write_text(json.dumps(doc))
    checks = oracles.Checks()
    oracles.check_trials(checks, report, 2)
    assert (checks.attempted, checks.failed) == (3, 1)


# -- digests -----------------------------------------------------------------------

def test_digest_skips_comment_lines_and_mismatch_is_counted(tmp_path):
    dirs = [tmp_path / n for n in "abc"]
    for d in dirs:
        d.mkdir()
    (dirs[0] / "r.csv").write_text("# run at 10:00\nx,y\n1,2\n")
    (dirs[1] / "r.csv").write_text("# run at 11:00\nx,y\n1,2\n")
    (dirs[2] / "r.csv").write_text("# run at 10:00\nx,y\n1,3\n")
    digests = [oracles.report_digest(d) for d in dirs]
    assert digests[0] == digests[1] != digests[2]

    checks = oracles.Checks()
    oracles.check_digests(checks, digests)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_digest_covers_each_part_directory(tmp_path):
    for part in ("ulpac-cube", "aulpac-sphere"):
        (tmp_path / part).mkdir()
        (tmp_path / part / "report.json").write_text('{"passed": true}\n')
    before = oracles.report_digest(tmp_path)
    (tmp_path / "aulpac-sphere" / "report.json").write_text('{"passed": false}\n')
    assert oracles.report_digest(tmp_path) != before
