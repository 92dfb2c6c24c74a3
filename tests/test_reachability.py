"""Every module-level function and class in the package has a caller,
every parameter or dataclass field with a default has a caller that passes
it, and some caller leaves it at its default.

A definition is reached when its name appears as a name or an attribute
in a package module other than ``__init__.py``, whose re-exports call
nothing, or in ``perfbench/*.py``.  A defaulted parameter is passed when a
call by that function's name in those same files writes it, by position or
by keyword; a parameter every caller leaves at its default is a constant.
A name imported from a module outside ``nlmkit``, and a call or an
attribute through one, reach nothing in the package: perfbench's
``O.unroll`` calls the oracle, not ``recurrent.unroll``.
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

A ``@dataclass`` field that its generated ``__init__`` takes counts as a
parameter of a call by the class's name, placed among the ``__init__``
fields with inherited ones first.  A call through ``**kw``, as a builder
that collects fields in a dict makes, passes every field and overrides
none, so ``tests/test_weights.py`` checks directly that no field of a
weights record has a default.

The tests hold themselves to the first rule: every module-level function,
class and upper-case constant in ``tests/*.py`` is named in ``tests/*.py``
or ``perfbench/*.py``, bar tests, test classes and fixtures, so a helper
whose last test is retired goes with it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "nlmkit").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
CALLERS = [p for p in SOURCES if p.name != "__init__.py"] + BENCH
TESTS = sorted((ROOT / "tests").glob("*.py"))
PACKAGE = {"nlmkit"}
ENTRY_POINTS = {
    "nsp_head": "the paper's BERT next-sentence head, whose weights count-params --with-nsp counts",
    "tensor_layout": "the (name, shape) list an archive for a config must hold, in archive order",
    "ffnn_forward": "the checked one-window feedforward pass; the decoder steps run the "
                    "unchecked ffnn_vjp on ids generate_tokens checked",
    "ce_loss": "the checked cross entropy of a caller's logits, left unchanged; the package's "
               "losses check their targets where they enter and hand logits they own to "
               "summed_ce, which shifts them in place",
}


def definitions(tree):
    """Names of the module-level functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def foreign(tree, home):
    """Names that an import in `tree` binds from a module outside the
    top-level modules `home`; a relative import stays inside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names
                         if a.name.partition(".")[0] not in home)
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.partition(".")[0] not in home:
            names.update(a.asname or a.name for a in node.names)
    return names


def _root(node):
    """The name an attribute chain such as ``O.f`` starts from, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def references(tree, home=PACKAGE):
    """Every identifier used as a name or an attribute, bar the names that
    ``foreign`` finds and attributes through them; assigning a name does
    not use it."""
    outside, found = foreign(tree, home), set()
    for node in ast.walk(tree):
        if _root(node) in outside:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
    tree = ast.parse("from m import f\nimport f\ndef f(): pass\nclass f: pass\nx = 'f'\nf = 1\n")
    assert definitions(tree) == {"f"}
    assert "f" not in references(tree)


def helpers_of(tree):
    """Names of a test module's module-level functions, classes and
    upper-case constants, bar tests, test classes and fixtures."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            fixture = any(_name(d.func if isinstance(d, ast.Call) else d) == "fixture"
                          for d in node.decorator_list)
            if not (fixture or node.name.startswith(("test", "Test"))):
                names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def test_every_test_helper_is_named():
    home = PACKAGE | {p.stem for p in TESTS + BENCH}  # oracles.rnn_cell names a helper
    referenced = set().union(*(references(_parse(p), home) for p in TESTS + BENCH))
    assert sorted(f"{p.name}:{name}" for p in TESTS
                  for name in helpers_of(_parse(p)) - referenced) == []


def test_helper_checker_exempts_tests_and_fixtures():
    tree = ast.parse("@pytest.fixture\ndef rng(): pass\n@fixture(scope='module')\ndef r(): pass\n"
                     "def test_a(): pass\nclass TestB: pass\ndef helper(): pass\n"
                     "class Model: pass\nLIMIT = 3\nTABLE: dict = {}\nlower = 4\n")
    assert helpers_of(tree) == {"helper", "Model", "LIMIT", "TABLE"}


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


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _own_fields(node):
    """(field, has a default, taken by __init__) of a class body's annotated names."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            init = not (isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False)
            yield stmt.target.id, "default" in kw or "default_factory" in kw, init
        else:
            yield stmt.target.id, value is not None, True


def field_defaults(tree):
    """(class, field, position) of every ``__init__`` field with a default in
    a ``@dataclass`` class; positions count ``__init__`` fields only, those
    inherited from dataclasses of the same module first."""
    classes = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                       for d in node.decorator_list)}

    def fields(node):
        found = {}
        for base in node.bases:
            if _name(base) in classes:
                found.update(fields(classes[_name(base)]))
        found.update((name, (default, init)) for name, default, init in _own_fields(node))
        return found

    for cls, node in classes.items():
        taken = [(name, default) for name, (default, init) in fields(node).items() if init]
        for i, (name, default) in enumerate(taken):
            if default:
                yield cls, name, i


def defaults(tree):
    """Defaulted parameters, then defaulted dataclass fields, of one module."""
    yield from defaulted(tree)
    yield from field_defaults(tree)


def calls(tree):
    """(callee name, positional count, keywords) of every call by name or
    attribute, bar calls through a name that ``foreign`` finds; ``*args``
    counts as every position, ``**kw`` as every keyword."""
    outside = foreign(tree, PACKAGE)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)) \
                and _root(node.func) not in outside:
            name = _name(node.func)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, float("inf") if starred else len(node.args), keywords


def passes(call, param, i):
    """Whether a call from ``calls`` writes parameter `param` at position `i`."""
    _, count, keywords = call
    return i is not None and i < count or param in keywords or None in keywords


def unpassed():
    """'function: parameter' of every defaulted package parameter or field no caller passes."""
    seen = [c for p in CALLERS for c in calls(_parse(p))]
    return sorted({f"{fn}: {param}" for p in SOURCES for fn, param, i in defaults(_parse(p))
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


@pytest.mark.parametrize("source,reached", [
    ("import oracles as O\nO.f(1, 2)\n", False), ("import numpy\nnumpy.linalg.f(1, 2)\n", False),
    ("from math import f\nf(1, 2)\n", False), ("from nlmkit import m\nm.f(1, 2)\n", True),
    ("from . import m\nm.f(1, 2)\n", True)])
def test_checker_skips_calls_through_a_module_outside_the_package(source, reached):
    (_, param, i), = defaulted(ast.parse("def f(a, b=0): pass"))
    tree = ast.parse(source)
    assert any(c[0] == "f" and passes(c, param, i) for c in calls(tree)) is reached
    assert ("f" in references(tree)) is reached


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
    """'function: parameter' of every defaulted package parameter or field every call overrides."""
    seen = [c for p in CALLERS for c in calls(_parse(p))]
    return sorted({f"{fn}: {param}" for p in SOURCES for fn, param, i in defaults(_parse(p))
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


@pytest.mark.parametrize("source,expected", [
    ("@dataclass\nclass A:\n a: int\n b: int = 0\n@dataclass\nclass B(A):\n c: int = 1\n",
     [("A", "b", 1), ("B", "b", 1), ("B", "c", 2)]),
    ("@dataclass\nclass C:\n t: dict = field(default_factory=dict, init=False)\n a: int\n"
     " b: int = 0\n", [("C", "b", 1)]),
    ("@dataclasses.dataclass(frozen=True)\nclass C:\n a: list = field(default_factory=list)\n",
     [("C", "a", 0)]),
    ("class P:\n a: int = 0\n@dataclass\nclass D(P):\n b: int = 0\n", [("D", "b", 0)])])
def test_checker_sees_dataclass_field_defaults(source, expected):
    assert sorted(field_defaults(ast.parse(source))) == expected


@pytest.mark.parametrize("call,passed,overrides", [
    ("C(1, 2)", True, True), ("C(1)", False, False), ("C(**kw)", True, False)])
def test_checker_counts_unpacked_field_keywords_as_in_calls(call, passed, overrides):
    (cls, name, i), = field_defaults(ast.parse("@dataclass\nclass C:\n a: int\n b: int = 0\n"))
    seen = list(calls(ast.parse(call)))
    assert any(c[0] == cls and passes(c, name, i) for c in seen) is passed
    assert forced(seen, cls, name, i) is overrides
