"""Every module-level function and class in the package has a caller.

A definition is reached when its name appears as a name or an attribute
in a package module other than ``__init__.py``, whose re-exports call
nothing, or in ``perfbench/*.py``.  Tests do not count: a definition that
only its own tests reach is deleted with them.  ``ENTRY_POINTS`` lists the
library functions kept without a caller in the repository.
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
