"""Every top-level import and module-private name in the package is used.

No linter ships with the toolchain, so the checks parse each module with
`ast`: an imported name counts as used when the module reads it anywhere
(annotations included) or re-exports it through `__all__`; a module-level
private function, class or constant (one leading underscore) counts as used
when its own module reads it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "finslerkit"
MODULES = sorted(SRC.glob("*.py"))


def _names_read(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = _names_read(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def _unread_private_names(path: Path) -> list:
    tree = ast.parse(path.read_text())
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = _names_read(tree)
    return [name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_module_private_name(path):
    assert _unread_private_names(path) == []


def test_an_orphaned_private_helper_is_found(tmp_path):
    module = tmp_path / "orphan.py"
    module.write_text("_LIMIT = 3\n\ndef _helper():\n    return _LIMIT\n\ndef public():\n    return 1\n")
    assert _unread_private_names(module) == ["_helper"]
