"""No module of purify or of its tests imports a name that it never reads.

An ``ast`` scan, so that no linter is needed: every name an import
statement binds must be read somewhere in the same file.  ``__init__.py``
is left out, since its imports are the package's re-exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = [*sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("src/purify/*.py"))]


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s imports bind and it never reads."""
    tree = ast.parse(source)
    bound: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport f.g\n"
                          "def h():\n    import json\n    return e, f") == [
        "os (line 1)", "d (line 2)", "json (line 5)"]


def test_no_module_imports_a_name_it_never_reads():
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text(encoding="utf-8"))
             for p in FILES if p.name != "__init__.py"}
    assert len(found) > 25
    assert {path: names for path, names in found.items() if names} == {}
