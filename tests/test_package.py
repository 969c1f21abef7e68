"""Static checks on the package's source, read with the ast module."""

import ast
from pathlib import Path

import pytest

import talbot_sim

PACKAGE = Path(talbot_sim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.AST) -> dict[str, int]:
    """Each name an import statement anywhere in tree binds, with its line;
    `from __future__` imports bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_resolves():
    exported = _dunder_all(_tree(PACKAGE / "__init__.py"))
    assert exported == list(talbot_sim.__all__)
    missing = [name for name in exported if not hasattr(talbot_sim, name)]
    assert missing == []


def test_init_imports_only_exported_names():
    tree = _tree(PACKAGE / "__init__.py")
    extra = sorted(set(_imported(tree)) - set(_dunder_all(tree)))
    assert extra == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_dunder_all(tree))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert unused == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_leaves_scalar_results_to_shaped_like(path):
    # model.shaped_like is the one place that decides when a function of
    # positions returns a scalar
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "isscalar"]
    assert calls == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert_statement(path):
    # library checks raise DomainError; an assert vanishes under python -O
    asserts = [node.lineno for node in ast.walk(_tree(path))
               if isinstance(node, ast.Assert)]
    assert asserts == []
