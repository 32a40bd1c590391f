"""Every defaulted parameter in src/matword is passed by some call, and every
public function and class is used by something other than the tests.

A parameter with a default that no call sets is a knob that does nothing,
and each one doubles the configurations a reader has to consider.  Calls
are resolved by function name over the library, the scripts and the
benchmark; a parameter that only tests set is a knob no user turns, so
calls in the tests do not count.  A call whose argument only forwards a parameter of its
enclosing function that is itself never set does not count.

Likewise a public name that only tests reach is code no user runs, unless it
is an oracle the tests check the library against or it waits on a planned
caller; those are listed in KEPT, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src/matword", "scripts", "perfbench")


def defaulted_parameters() -> dict:
    """{function name: [(module, parameter, positional index or None)]}."""
    out: dict = {}
    for path in sorted((ROOT / "src" / "matword").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            shift = 1 if pos and pos[0].arg in ("self", "cls") else 0
            first = len(pos) - len(a.defaults)
            params = [(arg.arg, i - shift) for i, arg in enumerate(pos) if i >= first]
            params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            for name, index in params:
                out.setdefault(node.name, []).append((path.stem, name, index))
    return out


class _CallCollector(ast.NodeVisitor):
    """Each call as (callee name, enclosing function name, positional args, keywords)."""

    def __init__(self):
        self.calls = []
        self._stack = [None]

    def visit_FunctionDef(self, node):
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name is not None:
            self.calls.append((name, self._stack[-1], node.args, node.keywords))
        self.generic_visit(node)


def collect_calls() -> list:
    collector = _CallCollector()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            collector.visit(ast.parse(path.read_text()))
    return collector.calls


def unset_parameters() -> list[str]:
    """Defaulted parameters that no call passes, as 'module.function(parameter)'."""
    params = defaulted_parameters()
    calls = collect_calls()
    unset = {(fn, name) for fn, ps in params.items() for _, name, _ in ps}

    def forwards_unset(expr, caller) -> bool:
        return isinstance(expr, ast.Name) and (caller, expr.id) in unset

    changed = True
    while changed:
        changed = False
        for fn, caller, args, keywords in calls:
            for _, name, index in params.get(fn, ()):
                if (fn, name) not in unset:
                    continue
                passed = [k.value for k in keywords if k.arg in (name, None)]
                if any(isinstance(a, ast.Starred) for a in args):
                    passed.append(None)
                elif index is not None and index < len(args):
                    passed.append(args[index])
                if any(not forwards_unset(e, caller) for e in passed):
                    unset.discard((fn, name))
                    changed = True
    return sorted(
        f"{mod}.{fn}({name})"
        for fn, ps in params.items()
        for mod, name, _ in ps
        if (fn, name) in unset
    )


def test_every_defaulted_parameter_is_set_by_some_call():
    unset = unset_parameters()
    assert not unset, "defaulted parameters that no call sets:\n" + "\n".join(unset)


def test_the_walk_sees_parameters_and_calls():
    assert ("minpoly", "seed", 3) in defaulted_parameters()["approx_min_poly"]
    assert any(fn == "approx_min_poly" for fn, *_ in collect_calls())


# Public names that only tests reference, and why each one stays.
KEPT = {
    "eigenvalue_disk_mask": "criterion 4's oracle: the pseudospectrum of a normal matrix",
    "phase_exp": "test oracle for curved paths and principal_unitary_log",
    "path_length": "test oracle for the sampling and concatenation of paths",
    "commuting_hermitian_tuple": "test factory for commuting tuples",
    "save_ncpoly": "writes the ncpoly format that `words --system/--function` reads",
    "is_closed": "tells the closed lemniscate contours from the open ones",
    "conjugation_tuple_map": "a tuple map for controllability ratios (ROADMAP item 6)",
    "dilation_tuple_map": "a tuple map for controllability ratios (ROADMAP item 6)",
    "commutator_system": "the variety to gate along certified paths (ROADMAP item 6)",
    "controllability_constant": "words along certified paths (ROADMAP item 6)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def public_definitions() -> dict:
    """{name: module} for each public top-level function and class in src/matword."""
    return {
        node.name: path.stem
        for path in sorted((ROOT / "src" / "matword").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # perfbench looks up the functions it wraps by "module.function"
            if _IDENTIFIER.fullmatch(node.value):
                yield from node.value.split(".")


def referenced_names() -> set:
    """Names the library, the scripts and the benchmark use, other than by a
    definition referring to itself or by the package's re-exports."""
    out = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                if path.name == "__init__.py" and isinstance(top, ast.ImportFrom):
                    continue
                out |= set(_names(top)) - {getattr(top, "name", None)}
    return out


def test_every_public_name_is_used_outside_the_tests():
    refs = referenced_names()
    unused = sorted(f"{mod}.{name}" for name, mod in public_definitions().items()
                    if name not in refs and name not in KEPT)
    assert not unused, "public names that only tests reference:\n" + "\n".join(unused)


def test_kept_names_are_still_defined_and_reached_only_by_tests():
    defined, refs = public_definitions(), referenced_names()
    assert sorted(name for name in KEPT if name not in defined or name in refs) == []


def test_the_reference_walk_sees_wrapped_and_called_names():
    refs = referenced_names()
    # a call in the package's __init__ and a call in another module
    assert {"apply_env", "nearby_commuting_unitary"} <= refs
    assert "path_length" not in refs
    assert list(_names(ast.parse('"paths.curved_path"'))) == ["paths", "curved_path"]


def test_every_module_parses_as_the_oldest_supported_python():
    minimum = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                        (ROOT / "pyproject.toml").read_text())
    version = tuple(int(v) for v in minimum.groups())
    for path in sorted((ROOT / "src" / "matword").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
