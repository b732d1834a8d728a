"""The package's surface: every README entry point is exported, the test
oracles stay out of the library, no library module keeps an unused import,
only cli formats output, every library function is reached by some command,
every field of a library dataclass is read by some command, and every option
that commands pass takes two values over them."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

import oracles
import vangeo
from vangeo import cli, limits, scalar

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


RENDERING_METHODS = {"to_json", "to_json_dict", "to_json_array", "to_text", "to_csv",
                     "entry_strings"}


LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_only_cli_formats_output(path):
    """cli writes every report's text, JSON and CSV; no other module imports
    json or defines a rendering method."""
    tree = ast.parse(path.read_text())
    imported = [alias.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for alias in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert not [m for m in imported if m.split(".")[0] == "json"], imported
    defined = {n.name for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & RENDERING_METHODS


# Every subcommand and every format, at p/q, at a decimal, at tau and at
# alpha; small sizes keep the whole list well under a second.
REACH_COMMANDS = [
    ["inverse", "--base", "7/3", "--n", "4"],
    ["inverse", "--base", "1.5", "--n", "3", "--format", "csv"],
    ["inverse", "--base", "tau", "--n", "3", "--format", "json"],
    ["inverse", "--base", "alpha", "--n", "3"],
    ["sigma", "--i", "1", "--j", "0", "--n", "3", "--x", "7/3"],
    ["sigma", "--i", "1", "--j", "1", "--n", "3", "--x", "tau", "--format", "json"],
    ["sigma", "--i", "2", "--j", "0", "--n", "4", "--x", "alpha", "--format", "csv"],
    ["max", "--base", "7/3", "--n", "5"],
    ["max", "--base", "tau", "--n", "5", "--format", "json"],
    ["max", "--base", "alpha", "--n", "5", "--format", "csv"],
    ["limit", "--base", "2", "--tol", "1e-6"],
    ["limit", "--base", "tau", "--tol", "1e-6", "--format", "json"],
    ["limit", "--base", "alpha", "--tol", "1e-6", "--format", "csv"],
    ["table", "--format", "csv"],
    ["verify", "--base", "7/3", "--n-max", "4"],
    ["verify", "--base", "tau", "--n-max", "3"],
    ["verify", "--base", "alpha", "--n-max", "3"],
    ["conjecture", "--base", "7/3", "--range", "2:4"],
    ["conjecture", "--base", "tau", "--range", "2:4", "--format", "json"],
    ["conjecture", "--base", "1.3", "--range", "2:4", "--format", "csv"],
    ["conjecture", "--base", "1.3", "--range", "2:3"],        # prints a decimal base
    # a second value for each option: --digits, --precision-ceiling, a p/q base
    ["inverse", "--base", "tau", "--n", "3", "--digits", "100"],
    ["inverse", "--base", "alpha", "--n", "3", "--digits", "100"],
    ["sigma", "--i", "1", "--j", "0", "--n", "3", "--x", "tau", "--digits", "100"],
    ["sigma", "--i", "1", "--j", "2", "--n", "3", "--x", "alpha", "--digits", "100"],
    ["max", "--base", "tau", "--n", "4", "--digits", "100"],
    ["max", "--base", "alpha", "--n", "4", "--digits", "100"],
    ["max", "--base", "3/2", "--n", "4"],
    ["conjecture", "--base", "tau", "--range", "2:3", "--digits", "100"],
    ["conjecture", "--base", "alpha", "--range", "2:3", "--digits", "100"],
    ["limit", "--base", "2", "--tol", "1e-6", "--precision-ceiling", "64"],
]

# functions no command needs, each with the reason it stays
UNREACHED = {
    "vandinv.gaussian_inverse":
        "the tests' reference elimination; verify reads fraction_free_inverse's integers",
    "scalar.RigorousReal.__repr__": "debug output of a ball in a session or a failing test",
    "scalar.ZTheta.__repr__": "names a Z[theta] point in an error that no command raises",
}


def _functools_caches():
    """Every functools cache on a vangeo module or on a class one defines."""
    for path in MODULES:
        module = importlib.import_module(f"vangeo.{path.stem}")
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for name in vars(owner):
                value = getattr(owner, name)
                if callable(getattr(value, "cache_clear", None)):
                    yield value


def _defined_functions(package: Path) -> dict:
    """{(path, first line): qualified name} of every def in the package.  The
    first line is the first decorator's, if any, as in the code object."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[str(path), first] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem + ".")
    return defs


def test_every_library_function_is_reached():
    # the caches would let a body that an earlier test filled go unentered
    caches = list(_functools_caches())
    assert {cli._build_parser, scalar._constant_enclosure, limits._pentagonal_series} <= set(caches)
    for cached in caches:
        cached.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
    sys.setprofile(profile)
    try:
        for argv in REACH_COMMANDS:
            cli.run(argv)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["inverse", "--base", "2", "--n", "2"]) == 0
    finally:
        sys.setprofile(None)
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    defs = _defined_functions(Path(vangeo.__file__).resolve().parent)
    unreached = sorted(name for key, name in defs.items() if key not in entered)
    assert unreached == sorted(UNREACHED)


# dataclass fields no command reads, each with the reason it stays
UNREAD_FIELDS = {
    "extremal.BoxCheckReport.witnesses": "verify prints it only when a box check fails",
}

# the methods a dataclass generates, and the __post_init__ that validates:
# what they read is no use of a field
_GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__post_init__"}


def test_every_dataclass_field_is_read(monkeypatch):
    reads, fields = set(), set()
    for path in MODULES:
        module = importlib.import_module(f"vangeo.{path.stem}")
        for name, cls in vars(module).items():
            if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            names = {field.name for field in dataclasses.fields(cls)}
            fields |= {f"{path.stem}.{name}.{field}" for field in names}

            def getattribute(self, attr, names=names, owner=f"{path.stem}.{name}"):
                if attr in names and sys._getframe(1).f_code.co_name not in _GENERATED:
                    reads.add(f"{owner}.{attr}")
                return object.__getattribute__(self, attr)
            monkeypatch.setattr(cls, "__getattribute__", getattribute)
    assert fields
    for argv in REACH_COMMANDS:
        cli.run(argv)
    assert sorted(fields - reads) == sorted(UNREAD_FIELDS)


# defaulted parameters no command passes, each with the reason it stays
UNPASSED_OPTIONS = {
    "cli.main.argv": "the console script calls main() with none, and it reads sys.argv",
    "extremal.verify_argmax_box.precision_bits":
        "bench/tracing.py's _PRECISION_CALLERS binds it by name",
    "extremal.verify_leading_diagonal_max.precision_bits":
        "bench/tracing.py's _PRECISION_CALLERS binds it by name",
}


def _defaulted(function):
    """The names of a function's parameters that have a default."""
    return [p.name for p in inspect.signature(function).parameters.values()
            if p.default is not p.empty]


def _passed_options(monkeypatch):
    """Run REACH_COMMANDS with every defaulted parameter of a function or
    method defined at the top of a vangeo module, or in one of its classes,
    recorded.  Each such function is wrapped in every module that binds it,
    and each call records the parameters it binds without applying defaults.
    Nested functions are out of reach of the wrappers.  Returns the set of
    options and {option: [the value of each call that passed it]}."""
    for cached in _functools_caches():
        cached.cache_clear()
    modules = [importlib.import_module(f"vangeo.{path.stem}") for path in MODULES]
    passed, options, wrappers = {}, set(), {}

    def wrap(function, name):
        signature, defaulted = inspect.signature(function), set(_defaulted(function))

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            for p in defaulted & set(bound):
                passed.setdefault(f"{name}.{p}", []).append(bound[p])
            return function(*args, **kwargs)
        options.update(f"{name}.{p}" for p in defaulted)
        return wrapper

    def own(function):
        return (inspect.isfunction(function) and _defaulted(function)
                and Path(function.__code__.co_filename).resolve().parent == PACKAGE.resolve())

    for module in modules:
        stem = module.__name__.rsplit(".", 1)[1]
        for name, value in vars(module).items():
            if own(value) and value.__module__ == module.__name__:
                wrappers[value] = wrap(value, f"{stem}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    function = getattr(raw, "__func__", raw)
                    if own(function):
                        wrapped = wrap(function, f"{stem}.{name}.{attr}")
                        monkeypatch.setattr(value, attr, type(raw)(wrapped)
                                            if raw is not function else wrapped)
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                monkeypatch.setattr(module, name, wrappers[value])
    assert "vandinv.inverse_matrix.precision_bits" in options
    for argv in REACH_COMMANDS:
        cli.run(argv)
    return options, passed


def test_every_optional_parameter_is_passed(monkeypatch):
    """Every defaulted parameter is passed explicitly by some command: an
    option that no command passes restates its default."""
    options, passed = _passed_options(monkeypatch)
    assert sorted(options - set(passed)) == sorted(UNPASSED_OPTIONS)


def test_every_option_takes_two_values(monkeypatch):
    """Every defaulted parameter that commands pass takes two different
    values over them: an option that every command passes with one and the
    same value is a constant.  Ints, strings and None count by value, other
    objects by identity; the recorded values stay alive, so no two of them
    share an id."""
    _, passed = _passed_options(monkeypatch)

    def key(value):
        return value if value is None or isinstance(value, (int, str)) else id(value)
    constant = sorted(name for name, values in passed.items()
                      if len({key(value) for value in values}) == 1)
    assert constant == []
