"""The package runs on the standard library alone: every absolute import
in src/liecas names a standard-library module or liecas itself.  And it
imports nothing it does not use: every name an import binds is read
somewhere in its module.  No module imports another's underscore-prefixed
name."""

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


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a; from m import x as y binds y
                yield node.lineno, (alias.asname
                                    or alias.name.split(".")[0])


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for line, name in imported_names(tree)
                   if name not in read]
    assert not unused, unused


def test_no_private_name_crosses_a_module():
    # a name with a leading underscore stays in the module that defines it
    crossing = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "liecas"):
                crossing += ["%s:%d %s" % (path.name, node.lineno, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_")]
    assert not crossing, crossing
