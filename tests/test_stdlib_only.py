"""The package runs on the standard library alone: every absolute import
in src/liecas names a standard-library module or liecas itself."""

import ast
import pathlib
import sys

import liecas

SOURCES = sorted(pathlib.Path(liecas.__file__).parent.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_import_is_stdlib_or_liecas():
    assert len(SOURCES) > 10
    allowed = set(sys.stdlib_module_names) | {"liecas"}
    foreign = ["%s:%d %s" % (path.name, line, name)
               for path in SOURCES
               for line, name in absolute_imports(path)
               if name.split(".")[0] not in allowed]
    assert not foreign, foreign
