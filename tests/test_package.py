"""The package's surface: every README entry point is exported, the test
oracles stay out of the library, and no library module keeps an unused
import."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import oracles
import vangeo

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "vangeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def entry_point_names():
    """The dotted name at the start of each code span in the first column of
    README's "Key entry points" table."""
    table = README.read_text().split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert rows, "no Key entry points table in README.md"
    names = []
    for row in rows:
        first = row.split("|")[1]
        names += [re.match(r"[A-Za-z_][\w.]*", span).group()
                  for span in re.findall(r"`([^`]+)`", first)]
    return names


@pytest.mark.parametrize("name", entry_point_names())
def test_readme_entry_point_is_exported(name):
    head, *rest = name.split(".")
    assert head in vangeo.__all__, name
    target = getattr(vangeo, head)
    for part in rest:
        target = getattr(target, part)


def test_oracles_are_not_part_of_the_library():
    own = [name for name, f in inspect.getmembers(oracles, inspect.isfunction)
           if f.__module__ == oracles.__name__]
    assert own
    modules = [vangeo] + [importlib.import_module(f"vangeo.{p.stem}") for p in MODULES]
    for name in own:
        assert not any(hasattr(m, name) for m in modules), name


def _bound_names(node):
    """The names an import statement binds."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def _used_names(tree):
    """Every name loaded in the module, including those inside quoted
    annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(n.returns)
        elif isinstance(n, ast.arg):
            annotations.append(n.annotation)
        elif isinstance(n, ast.AnnAssign):
            annotations.append(n.annotation)
    for annotation in filter(None, annotations):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {m.id for m in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [(node.lineno, name) for name in _bound_names(node) if name not in used]
    assert not unused, unused
