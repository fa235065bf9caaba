"""Every name `gbdkit/__init__.py` exports is reached by the package
itself, a demo or the benchmark, not only by the tests.

A name counts as reached when it is read as a name or an attribute, or
imported, in a module of `src/gbdkit/` other than `__init__.py`, in
`demos/*.py` or in `bench/*.py`.  A definition or an assignment alone
does not count.  An export that nothing reaches is either wired into a
command or deleted with its tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gbdkit"


def exported_names() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def used_names() -> set:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return used


def test_every_export_is_reached_outside_the_tests():
    names = exported_names()
    assert len(names) > 50
    used = used_names()
    assert [name for name in names if name not in used] == []
