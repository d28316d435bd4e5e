"""Package layout: the reference routes in `oracle` stay out of the fast paths,
every exported name resolves, every error type is raised somewhere, refusals
are typed, the cached functions keep their caches, the value classes have one
construction route and take their equality, hash, repr, pickling and
immutability from the one base `core._Value`, the Legendre symbol has one
production route, the completing-square oracle shares no code with the
quadratic solver it checks, a cold import loads neither `dataclasses` nor
`typing`, annotations are evaluated at import under the declared Python floor,
one function of the CLI defines how its results print, and no source line is
over 96 columns."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import quadres
from quadres import congruences, core, errors, gaussian, symbols

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadres"


def _imported_modules(tree):
    """Module names an AST imports, with relative imports resolved inside quadres."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "quadres" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_only_cli_imports_oracle():
    importers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if "quadres.oracle" in _imported_modules(ast.parse(path.read_text()))
    )
    assert importers == ["cli.py"]


def test_core_imports_only_errors_at_module_level():
    # core is the bottom layer: the Jacobi symbol that its Lucas test needs
    # lives in core, and symbols imports it from there
    internal = {
        name
        for node in ast.parse((SRC / "core.py").read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_modules(node)
        if name.startswith("quadres.") and name.count(".") == 1
    }
    assert internal == {"quadres.errors"}


def test_no_module_imports_inside_a_function():
    # a function-level import hides an import cycle
    nested = sorted(
        (path.name, func.name, name)
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _imported_modules(node)
    )
    assert nested == []


def test_no_dataclasses_or_typing_import():
    # each costs milliseconds of every cold start, and the value types need neither
    heavy = sorted(
        (path.name, name)
        for path in SRC.glob("*.py")
        for name in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] in ("dataclasses", "typing")
    )
    assert heavy == []


def test_annotations_are_evaluated_at_import():
    # one annotation rule for every module: no postponed evaluation, which
    # leaves eager `X | None` annotations needing Python 3.10
    postponed = sorted(
        path.name
        for path in SRC.glob("*.py")
        for name in _imported_modules(ast.parse(path.read_text()))
        if name == "__future__"
    )
    assert postponed == []
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert tuple(map(int, floor.groups())) >= (3, 10)


def test_no_object_setattr():
    # the value classes store each field through its slot's member descriptor;
    # object.__setattr__ would be a second, slower construction route
    uses = sorted(
        (path.name, node.lineno)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )
    assert uses == []


def test_value_classes_share_one_base():
    # the base is the one definition of how a value compares, hashes, prints,
    # pickles and refuses mutation
    shared = ("__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__")
    for cls in (gaussian.GaussianInt, core.ResidueSet, congruences.QuadCongruence):
        assert cls.__bases__ == (core._Value,), cls
        assert [name for name in shared if name in vars(cls)] == [], cls
        assert "__init__" in vars(cls), cls
    assert not hasattr(core, "_frozen")


def test_cold_import_leaves_heavy_stdlib_modules_unloaded():
    # -S keeps site-packages' start-up imports out of the measurement
    probe = (
        "import sys; import quadres, quadres.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'ast'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_one_production_legendre_route():
    # reciprocity is the one production route to (a/p); Euler's power is a
    # reference in oracle, which must not check jacobi against itself
    def tree(name):
        return ast.parse((SRC / name).read_text())

    pow_calls = [
        node.lineno
        for node in ast.walk(tree("symbols.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow"
    ]
    assert pow_calls == []
    oracle_imports = sorted(
        name
        for name in _imported_modules(tree("oracle.py"))
        if name.rsplit(".", 1)[-1] in ("jacobi", "legendre_euler")
    )
    assert oracle_imports == []
    assert not any(
        name.endswith(".legendre_euler") for name in _imported_modules(tree("sqrtmod.py"))
    )


def test_completing_square_oracle_shares_no_code_with_the_solver():
    # the reference for solve_quadratic finds its roots by its own scan, not
    # with the root finder in sqrtmod that solve_quadratic itself calls
    imported = sorted(
        name
        for name in _imported_modules(ast.parse((SRC / "oracle.py").read_text()))
        if name.startswith(("quadres.sqrtmod", "quadres.congruences"))
    )
    assert imported == ["quadres.congruences", "quadres.congruences.QuadCongruence"]


def test_jacobi_is_one_function_re_exported():
    assert quadres.jacobi is symbols.jacobi is core.jacobi


def test_every_exported_name_resolves():
    missing = [name for name in quadres.__all__ if not hasattr(quadres, name)]
    assert missing == []


def test_cached_functions_expose_cache_info():
    # the traced benchmark and the observability aim read these hit rates
    for name in ("factorize", "is_prime", "represent_prime"):
        assert callable(getattr(quadres, name).cache_info), name


def test_every_error_class_is_raised():
    # an error type that nothing raises is dead code
    raised = {
        exc.id
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name)
    }
    defined = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.NumberTheoryError)
        and value is not errors.NumberTheoryError
    }
    assert sorted(defined - raised) == []


def test_no_untyped_refusals():
    # a refusal is a NumberTheoryError; only the literal parser raises a bare
    # ValueError, which the CLI turns into a usage error
    untyped = sorted(
        (path.name, getattr(top, "name", None), exc.id)
        for path in SRC.glob("*.py")
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
        and isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name)
        and exc.id in ("ValueError", "ZeroDivisionError")
    )
    assert untyped == [("gaussian.py", "parse_gaussian", "ValueError")] * 2


def test_cli_output_format_is_defined_once():
    # each subcommand returns the library's value and `_render` alone turns it
    # into plain lines; `verify` writes its own value/oracle/agree transcript
    functions = [
        node
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.Lambda))
    ]
    handlers = [f.name for f in functions if getattr(f, "name", "").startswith("_cmd_")]
    assert handlers == ["_cmd_verify"]

    def formats_text(node):
        if isinstance(node, ast.JoinedStr):
            return True
        func = getattr(node, "func", None)
        return isinstance(func, ast.Name) and func.id == "str" or (
            isinstance(func, ast.Attribute) and func.attr == "format"
        )

    def makes_lines(func):
        lists = [node for node in ast.walk(func) if isinstance(node, (ast.List, ast.ListComp))]
        return any(formats_text(inner) for node in lists for inner in ast.walk(node))

    line_makers = sorted(getattr(f, "name", "<lambda>") for f in functions if makes_lines(f))
    assert line_makers == ["_cmd_verify", "_render"]


def test_no_source_line_over_96_columns():
    long_lines = sorted(
        (path.name, number, len(line))
        for path in SRC.glob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 96
    )
    assert long_lines == []
