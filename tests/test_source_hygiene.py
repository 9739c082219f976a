"""Leftovers in the package source, found with ``ast`` alone: an import that
its module never reads, and a module-level private name that no module of
the package reads."""

import ast
from pathlib import Path

import goldbachnet

SOURCES = sorted(Path(goldbachnet.__file__).parent.glob("*.py"))


def _loaded(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree):
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(tree):
    """Names an import binds that the module neither reads nor exports."""
    used = _loaded(tree) | _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or (alias.name.split(".")[0]
                                         if isinstance(node, ast.Import) else alias.name)
                if bound not in used:
                    yield bound


def _read_names(tree):
    """Every name a module reads: loaded names, attributes, and the names it
    imports from other modules of the package."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.name for alias in node.names)
    return names


def _unread_privates(trees):
    """Module-level ``_private`` defs and assignments that no module reads."""
    read = set().union(*map(_read_names, trees))
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from (name for name in names if name.startswith("_")
                        and not name.startswith("__") and name not in read)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_unused_imports():
    unused = {path.name: list(_unused_imports(_parse(path))) for path in SOURCES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_unread_module_private_names():
    assert list(_unread_privates([_parse(path) for path in SOURCES])) == []


def test_the_scan_finds_both_leftovers():
    main = ast.parse("import os.path\nfrom .x import y as z\nimport math\n"
                     "def _gone(): pass\ndef _kept(): return z + math.pi\n")
    other = ast.parse("from .main import _kept\n__all__ = ['gone']\n_LIMIT = 1\n")
    assert list(_unused_imports(main)) == ["os"]
    assert list(_unused_imports(other)) == ["_kept"]
    assert list(_unread_privates([main, other])) == ["_gone", "_LIMIT"]
