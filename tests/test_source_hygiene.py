"""Leftovers in the package source: an import that its module never reads,
a module-level private name that no module of the package reads (both found
with ``ast``), and a public module-level name that only the tests name (found
in the text, since the benchmark names the functions it wraps in strings)."""

import ast
import re
from pathlib import Path

import goldbachnet

SOURCES = sorted(Path(goldbachnet.__file__).parent.glob("*.py"))
# where a public name must be named for it to be more than a test helper
USERS = [path for folder in ("demos", "bench")
         for path in sorted((Path(__file__).resolve().parents[1] / folder).glob("*.py"))]


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


def _defined(node):
    """The names a module-level statement defines: a def, a class, or the
    plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _unread_privates(trees):
    """Module-level ``_private`` defs and assignments that no module reads."""
    read = set().union(*map(_read_names, trees))
    for tree in trees:
        for node in tree.body:
            yield from (name for name in _defined(node) if name.startswith("_")
                        and not name.startswith("__") and name not in read)


def _unnamed_publics(texts, scanned):
    """Public module-level defs, classes and assignments of the ``scanned``
    keys of ``texts`` ({key: source}) that no source names as a whole word
    outside the definition itself."""
    for key in scanned:
        lines = texts[key].splitlines()
        for node in ast.parse(texts[key]).body:
            for name in (n for n in _defined(node) if not n.startswith("_")):
                rest = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
                word = re.compile(rf"\b{re.escape(name)}\b")
                others = (text for other, text in texts.items() if other != key)
                if not any(map(word.search, (rest, *others))):
                    yield name


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_unused_imports():
    unused = {path.name: list(_unused_imports(_parse(path))) for path in SOURCES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_unread_module_private_names():
    assert list(_unread_privates([_parse(path) for path in SOURCES])) == []


def test_no_public_name_only_the_tests_use():
    texts = {path: path.read_text(encoding="utf-8") for path in SOURCES + USERS}
    scanned = [path for path in SOURCES if path.name != "__init__.py"]
    assert {path.parent.name for path in USERS} == {"demos", "bench"}
    assert list(_unnamed_publics(texts, scanned)) == []


def test_the_scan_finds_both_leftovers():
    main = ast.parse("import os.path\nfrom .x import y as z\nimport math\n"
                     "def _gone(): pass\ndef _kept(): return z + math.pi\n")
    other = ast.parse("from .main import _kept\n__all__ = ['gone']\n_LIMIT = 1\n")
    assert list(_unused_imports(main)) == ["os"]
    assert list(_unused_imports(other)) == ["_kept"]
    assert list(_unread_privates([main, other])) == ["_gone", "_LIMIT"]


def test_the_scan_finds_a_public_name_only_its_definition_names():
    texts = {"main": "def used():\n    pass\n\n\ndef lone(n):\n    return lone(n - 1)\n"
                     "LIMIT = 1\n_hidden = 2\n",
             "user": "from main import used\nprint('LIMIT', lone_helper)\n"}
    assert list(_unnamed_publics(texts, ["main"])) == ["lone"]
    assert list(_unnamed_publics(texts, ["user"])) == []
