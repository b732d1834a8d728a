"""The traced benchmark (bench/tracing.py) wraps a function in every module
that binds it and fails when an expected binding is gone, and a traced run
(bench/run.py) fails when a span its workload must reach (REACHED) is never
called.  This checks both against the package directly, so a refactor that
drops a binding or moves a call site fails here and not only in a traced
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
RUN = BENCH / "run.py"


def _constant(path, name):
    """A module-level constant, read from the source without importing it."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def _bench_module(name):
    """bench/<name>.py as a module, leaving sys.path as it is."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BINDINGS = sorted(_constant(TRACING, "EXPECTED_BINDINGS").items())
REACHED = _constant(RUN, "REACHED")


def test_bindings_are_listed():
    assert BINDINGS


@pytest.mark.parametrize("name,modules", BINDINGS, ids=[name for name, _ in BINDINGS])
def test_each_module_binds_the_defining_object(name, modules):
    defining, _, attr = name.partition(".")
    original = getattr(importlib.import_module(f"vangeo.{defining}"), attr)
    for module in modules:
        bound = vars(importlib.import_module(f"vangeo.{module}")).get(attr)
        assert bound is original, f"vangeo.{module} does not bind {name}"


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_seed_one_pass_reaches_every_span(workload):
    from vangeo import cli
    commands = _bench_module("workloads").generate(workload, 1)
    tracer = _bench_module("tracing").Tracer()
    tracer.install()
    try:
        for command in commands:
            cli.run(command["argv"])
    finally:
        tracer.uninstall()
    called = {name for name, count in tracer.calls.items() if count}
    assert sorted(set(REACHED[workload]) - called) == []
