"""Every defaulted parameter in src/matword is passed by some call.

A parameter with a default that no call sets is a knob that does nothing,
and each one doubles the configurations a reader has to consider.  Calls
are resolved by function name over the library, the scripts and the
benchmark; a parameter that only tests set is a knob no user turns, so
calls in the tests do not count.  A call whose argument only forwards a parameter of its
enclosing function that is itself never set does not count.
"""

import ast
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
