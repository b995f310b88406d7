"""Static checks on the package source, standard library only: every
imported name is used, and every ``__all__`` entry is defined."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tapeformer"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> list[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts]
    return []


def _bound(node: ast.AST) -> list[str]:
    """The names an import statement binds; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return []


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        names.update(_bound(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_exported(tree))
    unused = [f"{path.name}:{node.lineno}: {name}"
              for node in ast.walk(tree) for name in _bound(node) if name not in used]
    assert not unused, f"imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _parse(path)
    missing = sorted(set(_exported(tree)) - _top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names undefined {missing}"
