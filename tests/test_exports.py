"""Static checks on each ``src/hebdot`` module, by AST alone.

A stale ``__all__`` entry makes ``from module import *`` raise, and an
import nothing reads is dead code left behind by a refactor.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hebdot"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [a.asname or a.name.split(".")[0] for a in node.names]


def _top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_defined(path):
    tree = _tree(path)
    missing = set(_all_entries(tree)) - _top_level_names(tree)
    assert not missing, f"{path.name}: __all__ names undefined {sorted(missing)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_used(path):
    tree = _tree(path)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(_imported(node))
    # A name re-exported through __all__ counts as used.
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = imported - used - set(_all_entries(tree))
    assert not unused, f"{path.name}: imported but unused {sorted(unused)}"


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"codec", "corpus", "dotter", "cli"}
