"""Architecture dispatch goes through one table per concern.

No function compares an ``.arch`` attribute with a string literal, bar
two: ``ModelConfig.validate`` in ``config.py``, which holds each
architecture's range checks, and the ``fill-mask`` guard in ``cli.py``,
which names the single architecture the command serves.  Every
module-level dict keyed by architecture names covers all of them, or all
the autoregressive ones for inference.
"""

import ast
from pathlib import Path

import pytest

from nlmkit import audit, config, inference, weights
from nlmkit.config import ARCHITECTURES

SOURCES = sorted((Path(__file__).parent.parent / "src" / "nlmkit").glob("*.py"))
AUTOREGRESSIVE = set(ARCHITECTURES) - {"bert"}
ALLOWED = {("cli.py", "cmd_fill_mask"), ("config.py", "validate")}


def _literal_strings(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_literal_strings(e) for e in node.elts)
    return False


def arch_comparisons(tree):
    """(enclosing function, line) of every .arch compared with a string literal."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Attribute) and o.attr == "arch" for o in operands)
                    and any(_literal_strings(o) for o in operands)):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def arch_tables(tree):
    """name -> keys of every module-level dict literal keyed by an arch name."""
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            keys = {k.value for k in node.value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)}
            if keys & set(ARCHITECTURES):
                for target in node.targets:
                    tables[target.id] = keys
    return tables


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_arch_literal_comparisons_outside_config(path):
    found = arch_comparisons(ast.parse(path.read_text()))
    stray = [f"{path.name}:{line} in {func}" for func, line in found
             if (path.name, func) not in ALLOWED]
    assert stray == []


def test_fill_mask_guard_is_the_only_exception():
    found = {(p.name, func) for p in SOURCES
             for func, _ in arch_comparisons(ast.parse(p.read_text()))}
    assert found == ALLOWED


@pytest.mark.parametrize("snippet", [
    "cfg.arch == 'gpt2'",
    "'bert' != self.cfg.arch",
    "cfg.arch in ('rnn', 'lstm')",
    "w.arch not in ['ffnn']",
    "0 < cfg.L and cfg.arch == 'lstm'",
])
def test_checker_sees_comparisons(snippet):
    assert arch_comparisons(ast.parse(f"def f(cfg, self, w):\n    return {snippet}\n")) == [("f", 2)]


@pytest.mark.parametrize("snippet", ["cfg.arch == other", "TABLE[cfg.arch]", "cfg.name == 'gpt2'"])
def test_checker_ignores_lookups(snippet):
    assert arch_comparisons(ast.parse(f"x = {snippet}\n")) == []


def test_every_table_covers_its_architectures():
    tables = {(p.name, name): keys for p in SOURCES
              for name, keys in arch_tables(ast.parse(p.read_text())).items()}
    assert set(tables) == {("config.py", "ARCH_KEYS"), ("weights.py", "BUILDERS"),
                           ("audit.py", "COUNTS"), ("inference.py", "CAUSAL")}
    for (module, name), keys in tables.items():
        assert keys == (AUTOREGRESSIVE if module == "inference.py" else set(ARCHITECTURES)), name


def test_tables_at_runtime():
    assert tuple(config.ARCH_KEYS) == ARCHITECTURES
    assert set(weights.BUILDERS) == set(audit.COUNTS) == set(ARCHITECTURES)
    assert set(inference.CAUSAL) == AUTOREGRESSIVE
