"""Every module-level function and class in the package has a caller,
every parameter with a default has a caller that passes it, and some
caller leaves it at its default.

A definition is reached when its name appears as a name or an attribute
in a package module other than ``__init__.py``, whose re-exports call
nothing, or in ``perfbench/*.py``.  A defaulted parameter is passed when a
call by that function's name in those same files writes it, by position or
by keyword; a parameter every caller leaves at its default is a constant.
A default that every such call overrides is an option only tests use: the
parameter is made required, or its value derived from what the function
already holds.  In that direction a call through ``*args`` or ``**kw``
does not count as passing, since it may leave the parameter out.

Tests do not count: a definition or an option that only its own tests
reach is deleted with them.  ``ENTRY_POINTS`` lists the library functions
kept without a caller in the repository, ``DEFAULTS_LEFT_TO_TESTS`` the
parameters kept without a caller that passes them, and
``DEFAULTS_EVERY_CALL_OVERRIDES`` those kept although every caller passes
them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "nlmkit").glob("*.py"))
CALLERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))
ENTRY_POINTS = {
    "nsp_head": "the paper's BERT next-sentence head, whose weights count-params --with-nsp counts",
    "tensor_layout": "the (name, shape) list an archive for a config must hold, in archive order",
    "zeros_weights": "all-zero weights for a config, whose outputs are known in closed form",
}


def definitions(tree):
    """Names of the module-level functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def references(tree):
    """Every identifier used as a name or an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def unreached():
    """'module.py:name' of every package definition no caller names."""
    referenced = set().union(*(references(_parse(p)) for p in CALLERS))
    return sorted(f"{p.name}:{name}" for p in SOURCES
                  for name in definitions(_parse(p)) - referenced)


def test_every_definition_has_a_caller():
    stray = [entry for entry in unreached() if entry.partition(":")[2] not in ENTRY_POINTS]
    assert stray == []


def test_entry_points_are_defined_and_have_no_caller():
    assert {entry.partition(":")[2] for entry in unreached()} >= set(ENTRY_POINTS)


@pytest.mark.parametrize("snippet", ["f()", "x = f", "m.f(1)", "g(key=f)", "class C(f): pass"])
def test_checker_sees_uses(snippet):
    assert "f" in references(ast.parse(snippet))


def test_checker_ignores_definitions_strings_and_imports():
    tree = ast.parse("from m import f\nimport f\ndef f(): pass\nclass f: pass\nx = 'f'\n")
    assert definitions(tree) == {"f"}
    assert "f" not in references(tree)


# "function: parameter" -> why a parameter no caller passes keeps its default
DEFAULTS_LEFT_TO_TESTS = {
    "main: argv": "tests drive the CLI through it; the console script reads sys.argv",
}


def defaulted(tree):
    """(function, parameter, position) of every parameter with a default;
    the position counts the arguments a call writes before it, and is None
    for a keyword-only parameter.  A method's first parameter is bound."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        bound = id(node) in methods and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        first = len(positional) - len(a.defaults)
        for i, arg in enumerate(positional[first:], start=first - bound):
            yield node.name, arg.arg, i
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def calls(tree):
    """(callee name, positional count, keywords) of every call by name or
    attribute; ``*args`` counts as every position, ``**kw`` as every keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, float("inf") if starred else len(node.args), keywords


def passes(call, param, i):
    """Whether a call from ``calls`` writes parameter `param` at position `i`."""
    _, count, keywords = call
    return i is not None and i < count or param in keywords or None in keywords


def unpassed():
    """'function: parameter' of every defaulted package parameter no caller passes."""
    seen = [c for p in CALLERS for c in calls(_parse(p))]
    return sorted({f"{fn}: {param}" for p in SOURCES for fn, param, i in defaulted(_parse(p))
                   if not any(c[0] == fn and passes(c, param, i) for c in seen)})


def test_every_default_is_passed_by_some_caller():
    assert [entry for entry in unpassed() if entry not in DEFAULTS_LEFT_TO_TESTS] == []


def test_defaults_left_to_tests_are_defined_and_unpassed():
    assert set(unpassed()) >= set(DEFAULTS_LEFT_TO_TESTS)


@pytest.mark.parametrize("call,passed", [
    ("f(1)", False), ("f(1, 2)", True), ("m.f(1, b=2)", True), ("f(*xs)", True),
    ("f(**kw)", True), ("g(1, 2)", False), ("f(1, c=2)", False)])
def test_checker_sees_passed_arguments(call, passed):
    (_, param, i), = defaulted(ast.parse("def f(a, b=0): pass"))
    assert any(c[0] == "f" and passes(c, param, i) for c in calls(ast.parse(call))) is passed


def test_checker_binds_self_and_sees_keyword_only_defaults():
    tree = ast.parse("class C:\n def m(self, a=0): pass\n @staticmethod\n def s(a=0): pass\n"
                     "def k(*, a=0): pass\n")
    assert sorted(defaulted(tree)) == [("k", "a", None), ("m", "a", 0), ("s", "a", 0)]


# "function: parameter" -> why a default every call overrides is kept
DEFAULTS_EVERY_CALL_OVERRIDES = {}


def writes(call, param, i):
    """Whether a call from ``calls`` writes parameter `param` at position `i`
    explicitly; an unpacked ``*args`` or ``**kw`` may leave it out, so it never counts."""
    _, count, keywords = call
    return i is not None and i < count < float("inf") or param in keywords


def forced(seen, fn, param, i):
    """Whether some call in `seen` is by `fn`'s name and every such call writes `param`."""
    named = [c for c in seen if c[0] == fn]
    return bool(named) and all(writes(c, param, i) for c in named)


def overridden():
    """'function: parameter' of every defaulted package parameter every call overrides."""
    seen = [c for p in CALLERS for c in calls(_parse(p))]
    return sorted({f"{fn}: {param}" for p in SOURCES for fn, param, i in defaulted(_parse(p))
                   if forced(seen, fn, param, i)})


def test_no_default_is_overridden_by_every_caller():
    assert [entry for entry in overridden() if entry not in DEFAULTS_EVERY_CALL_OVERRIDES] == []


def test_defaults_every_call_overrides_are_defined_and_overridden():
    assert set(overridden()) >= set(DEFAULTS_EVERY_CALL_OVERRIDES)


@pytest.mark.parametrize("source,expected", [
    ("f(1, 2)\nm.f(1, b=3)\n", True), ("f(1, 2)\nf(1)\n", False), ("f(**kw)\n", False),
    ("f(*xs)\n", False), ("g(1, 2)\n", False)])
def test_checker_sees_overridden_defaults(source, expected):
    (_, param, i), = defaulted(ast.parse("def f(a, b=0): pass"))
    assert forced(list(calls(ast.parse(source))), "f", param, i) is expected
