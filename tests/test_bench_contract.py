"""The traced benchmark (bench/tracing.py) wraps a function in every module
that binds it and fails when an expected binding is gone.  This checks those
bindings against the package directly, so a refactor that drops one fails
here and not only in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _expected_bindings():
    """EXPECTED_BINDINGS, read from the source without importing bench."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "EXPECTED_BINDINGS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"EXPECTED_BINDINGS not found in {TRACING}")


BINDINGS = sorted(_expected_bindings().items())


def test_bindings_are_listed():
    assert BINDINGS


@pytest.mark.parametrize("name,modules", BINDINGS, ids=[name for name, _ in BINDINGS])
def test_each_module_binds_the_defining_object(name, modules):
    defining, _, attr = name.partition(".")
    original = getattr(importlib.import_module(f"vangeo.{defining}"), attr)
    for module in modules:
        bound = vars(importlib.import_module(f"vangeo.{module}")).get(attr)
        assert bound is original, f"vangeo.{module} does not bind {name}"
